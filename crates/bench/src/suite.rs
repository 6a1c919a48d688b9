//! `selfmaint bench`: the five [`cases`](mod@crate::cases), [`REPS`] times
//! each, in one process, folded into one [`Suite`]; and the baseline
//! [`gate`].
//!
//! A rep whose `deterministic` subtree differs from the first rep's
//! fails the suite. Timing is the median of the reps, and the spread is
//! the p25 and p75 of each end-to-end key. The gate compares medians
//! against a committed baseline written on another machine, so its
//! throughput threshold is a fixed, generous [`THRESHOLD_PCT`]: it
//! catches order-of-magnitude regressions, not jitter. Same-host
//! noise-aware comparison is `dcbench`'s job (`BENCHMARK.json`).

use std::collections::{BTreeMap, BTreeSet};

use dcmaint_metrics::SampleSet;

use crate::cases;
use crate::profile::peak_rss_bytes;
use crate::report::{BenchReport, Suite};

/// Reps per case.
pub const REPS: usize = 5;

/// How far the `engine` case's median `events-per-sec` may fall below,
/// or its `wall-per-sim-day-s` rise above, the baseline's, in percent.
pub const THRESHOLD_PCT: f64 = 50.0;

/// The `engine` timing keys the gate holds to [`THRESHOLD_PCT`], and
/// whether higher is better.
const GATED: [(&str, bool); 2] = [("events-per-sec", true), ("wall-per-sim-day-s", false)];

/// A case: name, one rep, and its end-to-end timing keys (the ones
/// given a spread).
type Case = (
    &'static str,
    fn() -> Result<BenchReport, String>,
    &'static [&'static str],
);

/// The cases, in run order. `twin` is timed at one branch worker;
/// [`run_suite`] checks one more run at four.
const CASES: [Case; 5] = [
    (
        "engine",
        cases::engine,
        &["events-per-sec", "wall-per-sim-day-s", "wall-s"],
    ),
    (
        "twin",
        || cases::twin(14, 7, 42, 2, 1),
        &["decisions-per-sec", "mean-decision-latency-s", "wall-s"],
    ),
    (
        "autonomic",
        || cases::autonomic(14, 42),
        &["decisions-per-sec", "mean-tick-latency-s", "wall-s"],
    ),
    (
        "sweep",
        cases::sweep,
        &[
            "wall-s/1",
            "wall-s/2",
            "wall-s/4",
            "wall-s/8",
            "speedup/2",
            "speedup/4",
            "speedup/8",
        ],
    ),
    (
        "serve",
        cases::serve,
        &[
            "jobs-per-hour",
            "wall-s",
            "clean-ms",
            "crash-recovered-ms",
            "recovery-overhead-ms",
        ],
    ),
];

/// Run every case [`REPS`] times. `on_case` is called with each case's
/// name before it runs. Fails, naming the case, on the first failed
/// check.
pub fn run_suite(mut on_case: impl FnMut(&str)) -> Result<Suite, String> {
    let mut suite = Suite::new(REPS as u64);
    for (name, run, end_to_end) in CASES {
        on_case(name);
        let reps = (0..REPS)
            .map(|_| run())
            .collect::<Result<Vec<_>, _>>()
            .and_then(|reps| fold(&reps, end_to_end))
            .map_err(|e| format!("{name}: {e}"))?;
        suite.cases.insert(name.to_string(), reps);
    }
    on_case("twin at 4 branch workers");
    let four = cases::twin(14, 7, 42, 2, 4).map_err(|e| format!("twin: {e}"))?;
    let drift = drifted(&suite.cases["twin"].deterministic, &four.deterministic);
    if !drift.is_empty() {
        return Err(format!(
            "twin: 4 branch workers changed {}",
            drift.join(", ")
        ));
    }
    suite.peak_rss_bytes = peak_rss_bytes();
    Ok(suite)
}

/// One case's reps folded: the deterministic subtree (identical in
/// every rep), the median of each timing key, and the p25/p75 of each
/// end-to-end key.
fn fold(reps: &[BenchReport], end_to_end: &[&str]) -> Result<BenchReport, String> {
    let first = &reps[0];
    for (i, r) in reps.iter().enumerate().skip(1) {
        let drift = drifted(&first.deterministic, &r.deterministic);
        if !drift.is_empty() {
            return Err(format!("rep {} changed {}", i + 1, drift.join(", ")));
        }
    }
    let mut samples: BTreeMap<&str, SampleSet> = BTreeMap::new();
    for r in reps {
        for (k, &v) in &r.timing {
            samples.entry(k).or_default().record(v);
        }
    }
    let mut out = BenchReport::new(&first.scenario);
    out.deterministic = first.deterministic.clone();
    for key in end_to_end {
        let s = samples
            .get_mut(key)
            .ok_or_else(|| format!("no end-to-end timing key {key}"))?;
        out.spread.insert(format!("{key}/p25"), s.quantile(0.25));
        out.spread.insert(format!("{key}/p75"), s.quantile(0.75));
    }
    for (k, mut s) in samples {
        out.timing.insert(k.to_string(), s.quantile(0.5));
    }
    Ok(out)
}

/// Keys whose values differ between `a` and `b`, including keys only
/// one side has; each key once, in order.
fn drifted(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>) -> Vec<String> {
    let keys: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    keys.into_iter()
        .filter(|k| a.get(*k) != b.get(*k))
        .cloned()
        .collect()
}

fn show(v: Option<&u64>) -> String {
    v.map_or_else(|| "missing".to_string(), u64::to_string)
}

/// Compare a run against a baseline. Returns one line per problem,
/// each naming its case and key; empty means the gate passes. A problem
/// is: a different schema; a case only one side has; any deterministic
/// value or key that differs; an `engine` gated key that is missing or
/// ≤ 0 on either side, or that moved past [`THRESHOLD_PCT`] the wrong
/// way.
pub fn gate(current: &Suite, baseline: &Suite) -> Vec<String> {
    let mut problems = Vec::new();
    if current.schema != baseline.schema {
        problems.push(format!(
            "schema: baseline {} != current {}",
            baseline.schema, current.schema
        ));
    }
    let names: BTreeSet<&String> = current.cases.keys().chain(baseline.cases.keys()).collect();
    for name in names {
        let (Some(cur), Some(base)) = (current.cases.get(name), baseline.cases.get(name)) else {
            let side = if current.cases.contains_key(name) {
                "the baseline"
            } else {
                "this run"
            };
            problems.push(format!("{name}: case missing from {side}"));
            continue;
        };
        for key in drifted(&base.deterministic, &cur.deterministic) {
            problems.push(format!(
                "{name}: deterministic.{key}: baseline {} != current {}",
                show(base.deterministic.get(&key)),
                show(cur.deterministic.get(&key))
            ));
        }
    }
    let (Some(cur), Some(base)) = (current.cases.get("engine"), baseline.cases.get("engine"))
    else {
        return problems;
    };
    for (key, higher_is_better) in GATED {
        let positive = |r: &BenchReport| r.timing.get(key).copied().filter(|v| *v > 0.0);
        let (b, c) = (positive(base), positive(cur));
        for (v, side) in [(b, "the baseline"), (c, "this run")] {
            if v.is_none() {
                problems.push(format!("engine: timing.{key} is missing or ≤ 0 in {side}"));
            }
        }
        let (Some(b), Some(c)) = (b, c) else {
            continue;
        };
        let delta = 100.0 * (c - b) / b;
        let regressed = if higher_is_better {
            delta < -THRESHOLD_PCT
        } else {
            delta > THRESHOLD_PCT
        };
        if regressed {
            problems.push(format!(
                "engine: timing.{key} {delta:+.1}% vs the baseline (limit {THRESHOLD_PCT}%)"
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite() -> Suite {
        let mut engine = BenchReport::new("E1/L3 14d seed=42 seeds=1");
        engine.deterministic.insert("events".to_string(), 32_136);
        engine.deterministic.insert("seeds".to_string(), 1);
        engine
            .timing
            .insert("events-per-sec".to_string(), 200_000.0);
        engine.timing.insert("wall-per-sim-day-s".to_string(), 0.01);
        let mut twin = BenchReport::new("twin");
        twin.deterministic.insert("decisions".to_string(), 112);
        let mut s = Suite::new(REPS as u64);
        s.cases.insert("engine".to_string(), engine);
        s.cases.insert("twin".to_string(), twin);
        s
    }

    fn engine(s: &mut Suite) -> &mut BenchReport {
        s.cases.get_mut("engine").unwrap()
    }

    #[test]
    fn identical_suites_pass() {
        assert_eq!(gate(&suite(), &suite()), Vec::<String>::new());
    }

    #[test]
    fn a_changed_deterministic_value_fails() {
        let mut cur = suite();
        engine(&mut cur)
            .deterministic
            .insert("events".to_string(), 32_137);
        assert_eq!(
            gate(&cur, &suite()),
            ["engine: deterministic.events: baseline 32136 != current 32137"]
        );
    }

    #[test]
    fn a_deterministic_key_missing_on_either_side_fails() {
        let mut base = suite();
        engine(&mut base).deterministic.remove("seeds");
        assert_eq!(
            gate(&suite(), &base),
            ["engine: deterministic.seeds: baseline missing != current 1"]
        );
        assert_eq!(
            gate(&base, &suite()),
            ["engine: deterministic.seeds: baseline 1 != current missing"]
        );
    }

    #[test]
    fn a_case_missing_on_either_side_fails() {
        let mut base = suite();
        base.cases.remove("twin");
        assert_eq!(
            gate(&suite(), &base),
            ["twin: case missing from the baseline"]
        );
        assert_eq!(gate(&base, &suite()), ["twin: case missing from this run"]);
    }

    #[test]
    fn a_schema_mismatch_fails() {
        let mut base = suite();
        base.schema = 99;
        assert_eq!(gate(&suite(), &base), ["schema: baseline 99 != current 2"]);
    }

    #[test]
    fn a_gated_key_missing_or_not_positive_fails() {
        let mut base = suite();
        engine(&mut base).timing.remove("events-per-sec");
        engine(&mut base)
            .timing
            .insert("wall-per-sim-day-s".to_string(), 0.0);
        assert_eq!(
            gate(&suite(), &base),
            [
                "engine: timing.events-per-sec is missing or ≤ 0 in the baseline",
                "engine: timing.wall-per-sim-day-s is missing or ≤ 0 in the baseline",
            ]
        );
        let mut cur = suite();
        engine(&mut cur)
            .timing
            .insert("events-per-sec".to_string(), -1.0);
        assert_eq!(
            gate(&cur, &suite()),
            ["engine: timing.events-per-sec is missing or ≤ 0 in this run"]
        );
    }

    #[test]
    fn sixty_percent_slower_fails_and_forty_passes() {
        let mut cur = suite();
        engine(&mut cur)
            .timing
            .insert("events-per-sec".to_string(), 80_000.0);
        assert_eq!(
            gate(&cur, &suite()),
            ["engine: timing.events-per-sec -60.0% vs the baseline (limit 50%)"]
        );
        engine(&mut cur)
            .timing
            .insert("events-per-sec".to_string(), 120_000.0);
        assert!(gate(&cur, &suite()).is_empty());
        engine(&mut cur)
            .timing
            .insert("wall-per-sim-day-s".to_string(), 0.016);
        assert_eq!(
            gate(&cur, &suite()),
            ["engine: timing.wall-per-sim-day-s +60.0% vs the baseline (limit 50%)"]
        );
        engine(&mut cur)
            .timing
            .insert("wall-per-sim-day-s".to_string(), 0.014);
        assert!(gate(&cur, &suite()).is_empty());
    }

    #[test]
    fn every_problem_is_named_once() {
        // Schema 99, events-per-sec deleted, wall-per-sim-day-s zeroed
        // and the event count edited: four problems, four lines.
        let mut base = suite();
        base.schema = 99;
        let e = engine(&mut base);
        e.timing.remove("events-per-sec");
        e.timing.insert("wall-per-sim-day-s".to_string(), 0.0);
        e.deterministic.insert("events".to_string(), 1);
        let problems = gate(&suite(), &base);
        assert_eq!(problems.len(), 4, "{problems:#?}");
        assert_eq!(
            problems
                .iter()
                .filter(|p| p.contains("deterministic.events"))
                .count(),
            1
        );
    }

    #[test]
    fn fold_takes_medians_and_quartiles_and_rejects_drift() {
        let reps: Vec<BenchReport> = [3.0, 1.0, 5.0, 2.0, 4.0]
            .iter()
            .map(|&w| {
                let mut r = BenchReport::new("x");
                r.deterministic.insert("events".to_string(), 7);
                r.timing.insert("wall-s".to_string(), w);
                r.timing.insert("share/sched".to_string(), 10.0 * w);
                r
            })
            .collect();
        let out = fold(&reps, &["wall-s"]).unwrap();
        assert_eq!(out.deterministic, reps[0].deterministic);
        assert_eq!(out.timing["wall-s"], 3.0);
        assert_eq!(out.timing["share/sched"], 30.0);
        assert_eq!(out.spread["wall-s/p25"], 2.0);
        assert_eq!(out.spread["wall-s/p75"], 4.0);
        assert_eq!(out.spread.len(), 2, "shares get no spread");
        assert!(fold(&reps, &["wall"]).unwrap_err().contains("wall"));

        let mut drift = reps.clone();
        drift[3].deterministic.insert("events".to_string(), 8);
        assert_eq!(
            fold(&drift, &["wall-s"]).unwrap_err(),
            "rep 4 changed events"
        );
    }
}
