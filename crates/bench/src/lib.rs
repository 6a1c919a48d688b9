//! # dcmaint-bench — the `selfmaint bench` suite and `selfmaint profile`
//!
//! Four pieces:
//!
//! * [`report`] — the `BENCH.json` schema: a [`Suite`] (schema, reps,
//!   host, one peak RSS) of [`BenchReport`] cases, each with a
//!   `deterministic` subtree that must match across reps and against
//!   the baseline, a `timing` subtree of medians, and a `spread` of
//!   p25/p75 per end-to-end key. Reports read back through
//!   `serde_json::from_str`.
//! * [`profile`] — the engine self-profiling harness behind
//!   `selfmaint profile` and the `engine` case: drives one scenario
//!   cell per seed with the `obs::prof` engine profiler on, merges the
//!   per-seed `prof/…` registries and wall leaves, and derives
//!   events/sec, per-subsystem and per-leaf wall shares and queue
//!   high-water.
//! * [`cases`] — one rep of each case: `engine` (E1 L3 14 d),
//!   `twin` (ladder vs twin-guided planning), `autonomic` (static vs
//!   the MAPE-K loop on the E16 drift cell), `sweep` (the quick level
//!   sweep at 1, 2, 4 and 8 workers) and `serve` (an in-process daemon:
//!   throughput under streams, one recovered crash). Each fails on its
//!   own invariant.
//! * [`suite`] — runs every case [`REPS`] times in one process, fails
//!   on a deterministic subtree that differs between reps, folds the
//!   reps, and [`gate`]s a run against a baseline.
//!
//! End-to-end throughput and per-layer step time across whole
//! workloads are measured from outside the program by the separate
//! `dcbench` package (`dcbench/`, see `BENCHMARK.json`).

pub mod cases;
pub mod profile;
pub mod report;
pub mod suite;

pub use profile::{peak_rss_bytes, run_profile, ProfileOutcome, ProfileParams};
pub use report::{BenchReport, Suite, SCHEMA_VERSION};
pub use suite::{gate, run_suite, REPS};
