//! The benchmark's contract, on shrunken workloads (one seed, two
//! simulated days): metric names match `BENCHMARK.json`, digests are
//! reproducible and seed-sensitive, and module shares add up.

use dcbench::{run, Outcome, Workload, WORKLOADS};

fn tiny(name: &str) -> Workload {
    Workload {
        days: 2,
        seeds: 1,
        ..Workload::named(name).expect("a known workload")
    }
}

/// `(name, unit)` of every object in the `key` array of
/// `BENCHMARK.json`. A text scan, not a JSON reader: the file is flat
/// and this repository's JSON writer cannot parse.
fn entries(key: &str) -> Vec<(String, Option<String>)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("array closes")];
    let field = |obj: &str, f: &str| -> Option<String> {
        let rest = obj.split_once(&format!("\"{f}\""))?.1;
        let rest = rest.split_once('"')?.1;
        Some(rest.split_once('"')?.0.to_string())
    };
    section
        .split('{')
        .skip(1)
        .map(|obj| {
            (
                field(obj, "name").expect("every entry is named"),
                field(obj, "unit"),
            )
        })
        .collect()
}

fn listed(metrics: &[dcbench::Metric]) -> Vec<(String, Option<String>)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), Some(m.unit.to_string())))
        .collect()
}

#[test]
fn metric_and_workload_names_match_benchmark_json() {
    let out = run(&tiny("e1-year"), 7, true);
    assert_eq!(listed(&out.end_to_end), entries("end_to_end"));
    assert_eq!(listed(&out.per_layer), entries("per_layer"));
    let names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    let json: Vec<String> = entries("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, json);
    for m in out.end_to_end.iter().chain(&out.per_layer) {
        assert!(
            m.name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {}",
            m.name
        );
    }
}

#[test]
fn digests_repeat_across_runs_and_tracing() {
    let w = tiny("ckpt-hourly");
    let a = run(&w, 7, false);
    let b = run(&w, 7, true);
    assert_eq!(a.digest, b.digest);
    assert_eq!(b.traced_digest, Some(a.digest));
    assert!(a.correct() && b.correct());
}

#[test]
fn seed_changes_the_digest() {
    let w = tiny("e1-year");
    assert_ne!(run(&w, 7, false).digest, run(&w, 8, false).digest);
}

fn shares_sum(out: &Outcome) -> f64 {
    out.per_layer
        .iter()
        .filter(|m| m.name.ends_with(".share") || m.name == "bench.untimed_share")
        .map(|m| m.value)
        .sum()
}

#[test]
fn every_workload_runs_clean_and_its_shares_sum_to_100() {
    for w in &WORKLOADS {
        let out = run(&tiny(w.name), 7, true);
        assert!(out.correct(), "{}: {}", w.name, out.table());
        assert_eq!(out.failed(), 0);
        for m in &out.end_to_end {
            assert!(m.value > 0.0, "{}: {} is {}", w.name, m.name, m.value);
        }
        let total = shares_sum(&out);
        assert!(
            (total - 100.0).abs() < 0.5,
            "{}: shares sum to {total}",
            w.name
        );
        let untimed = out.metric("bench.untimed_share").expect("reported");
        assert!(untimed >= 0.0, "{}: untimed share {untimed}", w.name);
    }
}
