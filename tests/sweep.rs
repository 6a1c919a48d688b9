//! End-to-end sweep determinism through the public facade: the merged
//! output of a parallel sweep is byte-identical to the serial one, and
//! a panicking job is contained, reported, and never hangs the pool.

use selfmaint::control::AutomationLevel;
use selfmaint::scenarios::sweep::{
    outcome_fingerprint, run_engine_sweep, run_experiment_sweep, EngineSweepParams,
};

fn tiny(seeds: u64, jobs: usize, obs: bool) -> EngineSweepParams {
    EngineSweepParams {
        base_seed: 7,
        seeds,
        jobs,
        days: 3,
        levels: vec![AutomationLevel::L0, AutomationLevel::L4],
        small_fabric: true,
        obs,
        profiling: false,
        autonomic: false,
        inject_panic: None,
        manifest: None,
        resume: false,
    }
}

/// With and without the MAPE-K loop: the loop runs inside each seed's
/// engine, so the worker count must not leak into its decisions either.
#[test]
fn engine_sweep_stdout_and_journal_are_worker_count_invariant() {
    for autonomic in [false, true] {
        let params = |jobs| EngineSweepParams {
            autonomic,
            ..tiny(2, jobs, true)
        };
        let serial = run_engine_sweep(&params(1));
        let parallel = run_engine_sweep(&params(3));
        assert_eq!(
            outcome_fingerprint(&serial),
            outcome_fingerprint(&parallel),
            "autonomic {autonomic}"
        );
        assert_eq!(
            serial.journal, parallel.journal,
            "journal bytes diverged (autonomic {autonomic})"
        );
        assert_eq!(
            serial.registry.as_ref().unwrap().snapshot_lines(),
            parallel.registry.as_ref().unwrap().snapshot_lines(),
            "merged registry diverged (autonomic {autonomic})"
        );
        assert!(serial.failures.is_empty());
    }
}

#[test]
fn experiment_sweep_tables_are_worker_count_invariant() {
    // E5 is seed-free, so every cell passes through; E16 (quick preset)
    // is seeded, so its measured cells fold into mean ±CI while its seed
    // column, a configuration key, must not be averaged.
    let serial = run_experiment_sweep(&["e5", "e16"], 2024, 2, 1, true);
    let parallel = run_experiment_sweep(&["e5", "e16"], 2024, 2, 4, true);
    let bytes = |s: &selfmaint::scenarios::sweep::ExperimentSweep| {
        s.tables.iter().map(|t| t.render()).collect::<String>()
    };
    assert_eq!(bytes(&serial), bytes(&parallel));
    assert!(serial.failures.is_empty() && parallel.failures.is_empty());

    let e16 = &serial.tables[1];
    assert!(e16.title().starts_with("E16"), "{}", e16.title());
    let column = |name: &str| e16.headers().iter().position(|h| *h == name).unwrap();
    let (seed, availability) = (column("seed"), column("availability"));
    for row in e16.rows() {
        let (s, a) = (row[seed].to_string(), row[availability].to_string());
        assert!(!s.contains('±'), "seed cell folded as a number: {s}");
        assert!(a.contains('±'), "availability cell did not fold: {a}");
    }
}

#[test]
fn injected_panic_is_reported_without_hanging_the_pool() {
    let mut p = tiny(2, 2, false);
    p.inject_panic = Some(0); // first job of the plan
    let out = run_engine_sweep(&p);
    assert_eq!(out.failures.len(), 1);
    assert_eq!(out.failures[0].label, "L0");
    assert_eq!(out.failures[0].replicate, 0);
    assert!(out.failures[0].message.contains("injected sweep panic"));
    // Both level rows still render: L0 from its surviving replicate,
    // L4 from both of its replicates.
    assert_eq!(out.table.len(), 2);
}
