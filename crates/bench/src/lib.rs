//! # dcmaint-bench — benchmark harness and standing perf artifacts
//!
//! Four pieces:
//!
//! * [`report`] — the shared [`BenchReport`] schema behind the standing
//!   `BENCH_*.json` artifacts: a `deterministic` subtree CI diffs
//!   byte-for-byte across same-seed runs, a `timing` subtree compared
//!   only against regression thresholds, and host metadata. Reports
//!   read back through `serde_json::from_str`, so
//!   `selfmaint profile --baseline` can load artifacts written by older
//!   builds.
//! * [`profile`] — the engine self-profiling harness behind
//!   `selfmaint profile`: drives one scenario cell per seed with the
//!   `obs::prof` engine profiler on, merges the per-seed `prof/…`
//!   registries and wall leaves, and derives events/sec, per-subsystem
//!   and per-leaf wall shares, queue high-water, and peak RSS into a
//!   [`BenchReport`].
//! * [`twin`](mod@twin) — the twin-planner harness behind
//!   `selfmaint plan`: ladder + twin arms per seed, planner accounting
//!   (decisions/forks/commits, availability delta in ppb) in the
//!   deterministic subtree and decision throughput/latency from the
//!   `prof/twin` wall spans in the timing subtree (`BENCH_twin.json`).
//! * [`autonomic`](mod@autonomic) — the MAPE-K loop harness behind
//!   `selfmaint tune`: static + autonomic arms per seed on the E16
//!   drift cell, loop accounting and the availability delta (ppb) in
//!   the deterministic subtree, adaptation decisions/sec and mean tick
//!   latency from the `prof/autonomic` wall spans in the timing
//!   subtree (`BENCH_autonomic.json`).
//!
//! End-to-end throughput and per-layer step time across whole
//! workloads are measured from outside the program by the separate
//! `dcbench` package (`dcbench/`, see `BENCHMARK.json`).

#![forbid(unsafe_code)]

pub mod autonomic;
pub mod profile;
pub mod report;
pub mod twin;

pub use autonomic::{run_autonomic_bench, AutonomicBenchOutcome, AutonomicBenchParams};
pub use profile::{peak_rss_bytes, run_profile, ProfileOutcome, ProfileParams};
pub use report::{BenchReport, SCHEMA_VERSION};
pub use twin::{run_twin_bench, TwinBenchOutcome, TwinBenchParams};
