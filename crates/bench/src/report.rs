//! The `BENCH.json` schema: one [`Suite`] of [`BenchReport`] cases.
//!
//! A case's [`BenchReport`] holds three maps whose contracts differ —
//!
//! * `deterministic` — integer counts that must be identical in every
//!   rep and against the committed baseline (event counts, span counts,
//!   availability in parts per billion). Any difference fails.
//! * `timing` — wall-clock measurements, the median of the reps.
//!   Nondeterministic by nature; never compared for equality, only
//!   against the gate's threshold.
//! * `spread` — the p25 and p75 of the reps for each end-to-end timing
//!   key, as `<key>/p25` and `<key>/p75`, so a reader can tell a change
//!   from noise.
//!
//! The [`Suite`] adds what belongs to the process rather than to a
//! case: the schema version, the rep count, the host, and one peak RSS
//! (VmHWM only grows within a process, so a per-case reading would only
//! restate the largest case run so far).
//!
//! Baselines are read back through `serde_json::from_str`, which
//! accepts any standard JSON document, not just our own output. That
//! reader's tests live here, in a workspace member.

use std::collections::BTreeMap;

use serde_json::{Map, Number, Value};

/// Schema version stamped into `BENCH.json`; bump on layout changes so
/// the gate refuses incomparable baselines.
pub const SCHEMA_VERSION: u64 = 2;

/// One case of the suite. See the module docs for the three maps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchReport {
    /// Human label of what ran, e.g. `E1/L3 14d seed=42 seeds=1`.
    pub scenario: String,
    /// Identical-across-reps integer counts.
    pub deterministic: BTreeMap<String, u64>,
    /// Wall-clock measurements; compared only against thresholds.
    pub timing: BTreeMap<String, f64>,
    /// `<key>/p25` and `<key>/p75` of each end-to-end timing key.
    pub spread: BTreeMap<String, f64>,
}

impl BenchReport {
    /// An empty report for the given scenario label.
    pub fn new(scenario: &str) -> BenchReport {
        BenchReport {
            scenario: scenario.to_string(),
            ..BenchReport::default()
        }
    }

    fn to_value(&self) -> Value {
        let mut root = Map::new();
        root.insert("scenario".to_string(), Value::String(self.scenario.clone()));
        root.insert(
            "deterministic".to_string(),
            object(&self.deterministic, |v| Value::Number(Number::U(*v))),
        );
        root.insert(
            "timing".to_string(),
            object(&self.timing, |v| Value::Number(Number::F(*v))),
        );
        root.insert(
            "spread".to_string(),
            object(&self.spread, |v| Value::Number(Number::F(*v))),
        );
        Value::Object(root)
    }

    fn from_value(v: &Value) -> Result<BenchReport, String> {
        Ok(BenchReport {
            scenario: v
                .get("scenario")
                .and_then(Value::as_str)
                .ok_or("missing or non-string \"scenario\"")?
                .to_string(),
            deterministic: read_map(v, "deterministic", Value::as_u64, "an unsigned integer")?,
            timing: read_map(v, "timing", Value::as_f64, "a number")?,
            spread: read_map(v, "spread", Value::as_f64, "a number")?,
        })
    }
}

/// One `selfmaint bench` run: every case, folded over its reps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Suite {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema: u64,
    /// Reps each case ran.
    pub reps: u64,
    /// Machine metadata (os, arch, cores).
    pub host: BTreeMap<String, String>,
    /// Peak resident set size of the whole run, in bytes.
    pub peak_rss_bytes: u64,
    /// The cases by name.
    pub cases: BTreeMap<String, BenchReport>,
}

impl Suite {
    /// An empty suite of `reps` reps, stamped with this machine's os,
    /// arch and core count.
    pub fn new(reps: u64) -> Suite {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let host = [
            ("os", std::env::consts::OS.to_string()),
            ("arch", std::env::consts::ARCH.to_string()),
            ("cores", cores.to_string()),
        ];
        Suite {
            schema: SCHEMA_VERSION,
            reps,
            host: host.map(|(k, v)| (k.to_string(), v)).into_iter().collect(),
            ..Suite::default()
        }
    }

    /// Pretty-printed JSON with a trailing newline — the exact bytes
    /// `selfmaint bench` writes. Map keys are BTreeMap-ordered, so the
    /// rendering is byte-stable for identical contents.
    pub fn to_json(&self) -> String {
        let mut root = Map::new();
        root.insert("schema".to_string(), Value::Number(Number::U(self.schema)));
        root.insert("reps".to_string(), Value::Number(Number::U(self.reps)));
        root.insert(
            "host".to_string(),
            object(&self.host, |v| Value::String(v.clone())),
        );
        root.insert(
            "peak-rss-bytes".to_string(),
            Value::Number(Number::U(self.peak_rss_bytes)),
        );
        root.insert(
            "cases".to_string(),
            object(&self.cases, BenchReport::to_value),
        );
        let mut s = serde_json::to_string_pretty(&Value::Object(root)).expect("serializable");
        s.push('\n');
        s
    }

    /// Parse a suite written by [`Suite::to_json`]. Unknown keys are
    /// ignored; missing or mistyped fields are errors. A different
    /// `schema` still parses, so the gate can name the mismatch.
    pub fn from_json(s: &str) -> Result<Suite, String> {
        let v = serde_json::from_str(s).map_err(|e| e.to_string())?;
        let u64_field = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing or non-integer {key:?}"))
        };
        let cases = v
            .get("cases")
            .and_then(Value::as_object)
            .ok_or("missing or non-object \"cases\"")?
            .iter()
            .map(|(name, case)| {
                BenchReport::from_value(case)
                    .map(|r| (name.clone(), r))
                    .map_err(|e| format!("case {name}: {e}"))
            })
            .collect::<Result<_, String>>()?;
        Ok(Suite {
            schema: u64_field("schema")?,
            reps: u64_field("reps")?,
            host: read_map(&v, "host", |x| x.as_str().map(str::to_string), "a string")?,
            peak_rss_bytes: u64_field("peak-rss-bytes")?,
            cases,
        })
    }
}

fn object<T>(m: &BTreeMap<String, T>, f: impl Fn(&T) -> Value) -> Value {
    Value::Object(m.iter().map(|(k, v)| (k.clone(), f(v))).collect())
}

fn read_map<T>(
    v: &Value,
    key: &str,
    f: impl Fn(&Value) -> Option<T>,
    what: &str,
) -> Result<BTreeMap<String, T>, String> {
    v.get(key)
        .and_then(Value::as_object)
        .ok_or_else(|| format!("missing or non-object {key:?}"))?
        .iter()
        .map(|(k, val)| {
            f(val)
                .map(|x| (k.clone(), x))
                .ok_or_else(|| format!("{key}.{k} is not {what}"))
        })
        .collect()
}

/// Availability scaled to parts-per-billion: deterministic per seed, so
/// it can live in the `deterministic` subtree as a u64.
pub(crate) fn ppb(availability: f64) -> u64 {
    (availability * 1e9).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Suite {
        let mut r = BenchReport::new("E1/L3 14d seed=42 seeds=1");
        r.deterministic.insert("events".to_string(), 123_456);
        r.deterministic.insert("prof/ev/fault".to_string(), 77);
        r.timing.insert("events-per-sec".to_string(), 1_234_567.89);
        r.timing.insert("share/sched".to_string(), 12.5);
        r.spread
            .insert("events-per-sec/p25".to_string(), 1_200_000.0);
        r.spread
            .insert("events-per-sec/p75".to_string(), 1_250_000.5);
        let mut s = Suite::new(5);
        s.peak_rss_bytes = 42 << 20;
        s.cases.insert("engine".to_string(), r);
        s
    }

    #[test]
    fn suite_round_trips_through_json() {
        let s = sample();
        let parsed = Suite::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
        // And the canonical rendering is a fixed point.
        assert_eq!(parsed.to_json(), s.to_json());
        for key in ["os", "arch", "cores"] {
            assert!(parsed.host.contains_key(key), "host.{key} missing");
        }
    }

    #[test]
    fn serialization_is_byte_stable() {
        let json = sample().to_json();
        assert_eq!(json, sample().to_json());
        assert!(json.contains("\"events\": 123456"));
        assert!(json.contains("\"schema\": 2"));
        assert!(json.contains("\"peak-rss-bytes\": 44040192"));
    }

    #[test]
    fn reader_accepts_standard_json_shapes() {
        let v = serde_json::from_str(
            "{\"a\": [1, -2, 3.5, true, false, null], \"s\": \"x\\n\\\"y\\u0041\"}",
        )
        .unwrap();
        let arr = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(arr.len(), 6);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].as_f64(), Some(3.5));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x\n\"yA"));
    }

    #[test]
    fn reader_rejects_malformed_documents() {
        for (doc, needle) in [
            ("", "expected a JSON value"),
            ("{\"a\": 1} extra", "trailing garbage"),
            ("{\"a\" 1}", "expected ':'"),
            ("[1, 2", "expected ',' or ']'"),
            ("\"open", "unterminated string"),
            ("truth", "malformed literal"),
        ] {
            let err = serde_json::from_str(doc).unwrap_err().to_string();
            assert!(err.contains(needle), "{doc:?} → {err}");
        }
    }

    #[test]
    fn from_json_reports_schema_violations() {
        assert!(Suite::from_json("{}").unwrap_err().contains("cases"));
        let bad = "{\"schema\":2,\"reps\":5,\"host\":{},\"peak-rss-bytes\":1,\"cases\":\
                   {\"engine\":{\"scenario\":\"x\",\"deterministic\":{\"k\":1.5},\
                   \"timing\":{},\"spread\":{}}}}";
        let err = Suite::from_json(bad).unwrap_err();
        assert!(
            err.contains("case engine") && err.contains("unsigned integer"),
            "{err}"
        );
    }
}
