//! The shared `BENCH_*` artifact schema.
//!
//! Every standing perf artifact the workspace writes (`BENCH_engine.json`,
//! `BENCH_twin.json`, `BENCH_autonomic.json`, `BENCH_sweep.json`) is a
//! [`BenchReport`]: a flat envelope with three subtrees whose contract
//! differs —
//!
//! * `deterministic` — integer counts that must be byte-identical across
//!   same-seed runs (event counts, span counts, queue high-water). CI
//!   diffs exactly this subtree between two runs.
//! * `timing` — wall-clock measurements (events/sec, seconds per
//!   simulated day, peak RSS, span shares). Nondeterministic by nature;
//!   never compared for equality, only against regression thresholds.
//! * `host` — free-form machine metadata so a perf delta can be traced
//!   to a hardware change ([`BenchReport::stamp_host`]).
//!
//! Baseline comparison (`selfmaint profile --baseline`) reads artifacts
//! written by older builds through `serde_json::from_str`, which accepts
//! any standard JSON document, not just our own output. That reader's
//! tests live here, in a workspace member.

use std::collections::BTreeMap;

use serde_json::{Map, Number, Value};

/// Schema version stamped into every report; bump on field-layout
/// changes so `--baseline` can refuse incomparable artifacts loudly.
pub const SCHEMA_VERSION: u64 = 1;

/// One standing benchmark artifact. See the module docs for the
/// deterministic / timing split.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchReport {
    /// Which bench family produced this (`engine`, `sweep`, …).
    pub bench: String,
    /// Human label of what ran, e.g. `E1/L3 14d seed=42 seeds=1`.
    pub scenario: String,
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema: u64,
    /// Byte-identical-across-same-seed-runs integer counts.
    pub deterministic: BTreeMap<String, u64>,
    /// Wall-clock measurements; compared only against thresholds.
    pub timing: BTreeMap<String, f64>,
    /// Machine metadata (os, arch, cores, …).
    pub host: BTreeMap<String, String>,
}

impl BenchReport {
    /// An empty report for the given bench family and scenario label.
    pub fn new(bench: &str, scenario: &str) -> BenchReport {
        BenchReport {
            bench: bench.to_string(),
            scenario: scenario.to_string(),
            schema: SCHEMA_VERSION,
            deterministic: BTreeMap::new(),
            timing: BTreeMap::new(),
            host: BTreeMap::new(),
        }
    }

    /// The report as a JSON value. Map keys are BTreeMap-ordered, so
    /// the rendering is byte-stable for identical contents.
    pub fn to_value(&self) -> Value {
        let mut root = Map::default();
        root.insert("bench".to_string(), Value::String(self.bench.clone()));
        root.insert("scenario".to_string(), Value::String(self.scenario.clone()));
        root.insert("schema".to_string(), Value::Number(Number::U(self.schema)));
        let det: Map = self
            .deterministic
            .iter()
            .map(|(k, v)| (k.clone(), Value::Number(Number::U(*v))))
            .collect();
        root.insert("deterministic".to_string(), Value::Object(det));
        let timing: Map = self
            .timing
            .iter()
            .map(|(k, v)| (k.clone(), Value::Number(Number::F(*v))))
            .collect();
        root.insert("timing".to_string(), Value::Object(timing));
        let host: Map = self
            .host
            .iter()
            .map(|(k, v)| (k.clone(), Value::String(v.clone())))
            .collect();
        root.insert("host".to_string(), Value::Object(host));
        Value::Object(root)
    }

    /// Pretty-printed JSON with a trailing newline — the exact bytes
    /// the `BENCH_*.json` writers put on disk.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(&self.to_value()).expect("serializable");
        s.push('\n');
        s
    }

    /// Only the `deterministic` subtree, pretty-printed. This is what
    /// CI diffs between two same-seed runs.
    pub fn deterministic_json(&self) -> String {
        let det: Map = self
            .deterministic
            .iter()
            .map(|(k, v)| (k.clone(), Value::Number(Number::U(*v))))
            .collect();
        let mut s = serde_json::to_string_pretty(&Value::Object(det)).expect("serializable");
        s.push('\n');
        s
    }

    /// Stamp this machine's os, arch and core count into `host`.
    pub fn stamp_host(&mut self) {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (k, v) in [
            ("os", std::env::consts::OS.to_string()),
            ("arch", std::env::consts::ARCH.to_string()),
            ("cores", cores.to_string()),
        ] {
            self.host.insert(k.to_string(), v);
        }
    }

    /// Parse a report previously written by [`BenchReport::to_json`].
    /// Unknown top-level keys are ignored (forward compatibility);
    /// missing or mistyped required fields are errors.
    pub fn from_json(s: &str) -> Result<BenchReport, String> {
        let v = serde_json::from_str(s).map_err(|e| e.to_string())?;
        let bench = str_field(&v, "bench")?;
        let scenario = str_field(&v, "scenario")?;
        let schema = v
            .get("schema")
            .and_then(Value::as_u64)
            .ok_or("missing or non-integer \"schema\"")?;
        let mut report = BenchReport::new(&bench, &scenario);
        report.schema = schema;
        for (k, val) in obj_field(&v, "deterministic")?.iter() {
            let n = val
                .as_u64()
                .ok_or_else(|| format!("deterministic.{k} is not an unsigned integer"))?;
            report.deterministic.insert(k.clone(), n);
        }
        for (k, val) in obj_field(&v, "timing")?.iter() {
            let n = val
                .as_f64()
                .ok_or_else(|| format!("timing.{k} is not a number"))?;
            report.timing.insert(k.clone(), n);
        }
        for (k, val) in obj_field(&v, "host")?.iter() {
            let s = val
                .as_str()
                .ok_or_else(|| format!("host.{k} is not a string"))?;
            report.host.insert(k.clone(), s.to_string());
        }
        Ok(report)
    }
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string {key:?}"))
}

fn obj_field<'a>(v: &'a Value, key: &str) -> Result<&'a Map, String> {
    v.get(key)
        .and_then(Value::as_object)
        .ok_or_else(|| format!("missing or non-object {key:?}"))
}

/// Availability scaled to parts-per-billion: deterministic per seed, so
/// it can live in the byte-diffed `deterministic` subtree as a u64.
pub(crate) fn ppb(availability: f64) -> u64 {
    (availability * 1e9).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("engine", "E1/L3 14d seed=42 seeds=1");
        r.deterministic.insert("events".to_string(), 123_456);
        r.deterministic.insert("prof/ev/fault".to_string(), 77);
        r.deterministic.insert("queue-high-water".to_string(), 42);
        r.timing.insert("events-per-sec".to_string(), 1_234_567.89);
        r.timing.insert("share/sched".to_string(), 12.5);
        r.timing.insert("wall-s".to_string(), 0.125);
        r.host.insert("os".to_string(), "linux".to_string());
        r.host.insert("cores".to_string(), "8".to_string());
        r
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample();
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // And the canonical rendering is a fixed point.
        assert_eq!(parsed.to_json(), r.to_json());
    }

    #[test]
    fn serialization_is_byte_stable() {
        assert_eq!(sample().to_json(), sample().to_json());
        let det = sample().deterministic_json();
        assert!(det.contains("\"events\": 123456"));
        assert!(!det.contains("events-per-sec"), "timing leaked: {det}");
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
        assert!(BenchReport::from_json("{}").unwrap_err().contains("bench"));
        let bad = "{\"bench\":\"engine\",\"scenario\":\"x\",\"schema\":1,\
                   \"deterministic\":{\"k\":1.5},\"timing\":{},\"host\":{}}";
        assert!(BenchReport::from_json(bad)
            .unwrap_err()
            .contains("unsigned integer"));
    }
}
