//! # dcmaint-sweep — deterministic parallel sweep engine
//!
//! Every experiment in this reproduction is a statistical claim, but a
//! single seeded run reports a point estimate with no error bars and
//! uses one core. This crate supplies the missing substrate: fan a sweep
//! plan — (experiment × config × seed-replicate) jobs — across a
//! hand-rolled work-stealing thread pool, then merge results in
//! canonical plan order so the output is **byte-identical for
//! `--jobs 1` and `--jobs N`**.
//!
//! The determinism contract, in layers:
//!
//! 1. Each job is a pure function of its derived root seed
//!    ([`derive_seed`]) — jobs share nothing, so scheduling cannot
//!    perturb them.
//! 2. The pool ([`run_jobs`]) records completions in whatever order the
//!    OS produces and quarantines that nondeterminism behind
//!    [`merge_canonical`], which restores plan order before anything
//!    renders.
//! 3. Replicate aggregation ([`aggregate_tables`]) and CI math
//!    (`dcmaint_metrics::mean_ci95`) are pure folds over plan-ordered
//!    inputs.
//!
//! Worker panics are contained per job ([`JobError`]), never hang the
//! pool, and render identically at any worker count. Wall-clock scaling
//! is measured by the `sweep` case of `selfmaint bench`, off the
//! deterministic stdout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod merge;
mod pool;
mod replicate;

pub use merge::{merge_canonical, Completed};
pub use pool::{run_jobs, JobError, JobResult};
pub use replicate::aggregate_tables;

use dcmaint_des::SimRng;

/// Derive the root seed for one sweep replicate.
///
/// Replicate 0 **is** the base seed: a `--seeds 1` sweep reproduces the
/// legacy single-seed run byte-for-byte. Later replicates derive through
/// the `SimRng` child-namespace machinery (`sweep / <label> / <k>`), so
/// they are decorrelated from the base run and from each other, and
/// stable across platforms and code changes elsewhere.
pub fn derive_seed(base: u64, label: &str, replicate: u64) -> u64 {
    if replicate == 0 {
        return base;
    }
    SimRng::root(base)
        .child("sweep")
        .child(label)
        .child(&replicate.to_string())
        .seed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicate_zero_is_the_base_seed() {
        assert_eq!(derive_seed(2024, "e1", 0), 2024);
        assert_eq!(derive_seed(42, "anything", 0), 42);
    }

    #[test]
    fn replicates_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..16).map(|k| derive_seed(2024, "e1", k)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "replicate seeds collide");
        // Stable: same inputs, same derivation.
        assert_eq!(derive_seed(2024, "e1", 3), derive_seed(2024, "e1", 3));
        // Label participates.
        assert_ne!(derive_seed(2024, "e1", 3), derive_seed(2024, "e2", 3));
        // Base participates.
        assert_ne!(derive_seed(2024, "e1", 3), derive_seed(2025, "e1", 3));
    }
}
