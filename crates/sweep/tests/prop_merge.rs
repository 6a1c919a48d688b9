//! Property: sweep output is completion-order invariant.
//!
//! The pool records completions in whatever order the OS produces; the
//! determinism contract says the *merged* output — report tables and
//! journal bytes — is a pure function of the plan. These tests drive
//! `merge_canonical` + `Table::fold` with adversarially shuffled
//! completion schedules and assert the rendered bytes never move.

use dcmaint_metrics::{Align, Cell, Table};
use dcmaint_sweep::{derive_seed, merge_canonical, Completed, JobResult};
use proptest::prelude::*;

/// Deterministic Fisher–Yates driven by a splitmix-style seed, so the
/// shuffle itself is reproducible from the proptest case.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    let mut next = || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// What one synthetic "job" produces: a table row value plus journal
/// lines — a miniature of what real sweep jobs return.
#[derive(Debug, Clone, PartialEq)]
struct FakeRun {
    value: f64,
    journal: Vec<String>,
}

fn fake_run(replicate: u64, base: u64) -> FakeRun {
    // A pure function of the derived seed, like a real engine run.
    let seed = derive_seed(base, "prop", replicate);
    let value = (seed % 1000) as f64 / 10.0;
    FakeRun {
        value,
        journal: vec![
            format!("{{\"ev\":\"sweep-job\",\"replicate\":{replicate},\"seed\":{seed}}}"),
            format!("{{\"ev\":\"sample\",\"value\":{value}}}"),
        ],
    }
}

fn render_outcome(merged: &[JobResult<FakeRun>]) -> (String, String) {
    // Table path: one replicate table per job, folded into mean ±95% CI
    // cells; journal path: concatenation in plan order.
    let tables: Vec<Table> = merged
        .iter()
        .map(|r| {
            let run = r.as_ref().expect("no panics in this property");
            let mut t = Table::new("prop", &[("k", Align::Left), ("v", Align::Right)]);
            t.row(vec![Cell::from("row"), Cell::Num(run.value, 1)]);
            t
        })
        .collect();
    let table_bytes = Table::fold(&tables).expect("same shape").render();
    let journal_bytes = merged
        .iter()
        .flat_map(|r| r.as_ref().unwrap().journal.iter().cloned())
        .collect::<Vec<_>>()
        .join("\n");
    (table_bytes, journal_bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shuffling the completion schedule changes nothing the user sees:
    /// merged tables and journal bytes are identical to the plan-order
    /// schedule's, for any plan size and any shuffle.
    #[test]
    fn merged_bytes_are_completion_order_invariant(
        n in 1usize..24,
        base in 0u64..10_000,
        shuffle_seed in 0u64..u64::MAX,
    ) {
        // Precompute each job's output once — the pool never changes
        // *what* a job computes, only *when* it completes.
        let outputs: Vec<FakeRun> = (0..n).map(|k| fake_run(k as u64, base)).collect();

        let plan_order: Vec<Completed<FakeRun>> = outputs
            .iter()
            .enumerate()
            .map(|(i, o)| Completed { index: i, result: Ok(o.clone()) })
            .collect();
        let mut shuffled = plan_order.clone();
        shuffle(&mut shuffled, shuffle_seed);

        let a = render_outcome(&merge_canonical(plan_order));
        let b = render_outcome(&merge_canonical(shuffled));
        prop_assert_eq!(&a.0, &b.0, "table bytes diverged");
        prop_assert_eq!(&a.1, &b.1, "journal bytes diverged");
    }

    /// merge_canonical restores exactly the plan indices 0..n in order,
    /// regardless of schedule.
    #[test]
    fn merge_restores_every_index_once(
        n in 1usize..64,
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let mut completions: Vec<Completed<usize>> = (0..n)
            .map(|i| Completed { index: i, result: Ok(i * 7) })
            .collect();
        shuffle(&mut completions, shuffle_seed);
        let merged = merge_canonical(completions);
        prop_assert_eq!(merged.len(), n);
        for (i, r) in merged.iter().enumerate() {
            prop_assert_eq!(*r.as_ref().unwrap(), i * 7);
        }
    }
}
