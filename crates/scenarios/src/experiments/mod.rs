//! Experiment runners E1–E16 and ablations A1–A3: one module per table
//! or figure in EXPERIMENTS.md.
//!
//! Every experiment follows the same contract:
//!
//! * a `Params` struct with [`quick`](e1::E1Params::quick) (CI-sized)
//!   and `full` (paper-sized) presets, everything seeded;
//! * a typed row struct — the columns of the table it regenerates;
//! * `run_experiment(&params) -> Vec<Row>` (or an output struct) doing
//!   the work;
//! * `table(&rows) -> Table` of typed [`Cell`](dcmaint_metrics::Cell)s,
//!   rendering exactly what EXPERIMENTS.md shows. A cell's type decides
//!   both its text and how `--seeds K` folds its replicates, so a
//!   configuration key is `Text` and a measured count is `Count`.
//!
//! The integration tests in each module pin the *qualitative shape* the
//! paper claims (who wins, roughly by how much) — never absolute
//! numbers, which depend on calibration constants.

pub mod ablations;
pub mod e10_fleet;
pub mod e11_predictive;
pub mod e12_reconfig;
pub mod e13_timing;
pub mod e14_robustness;
pub mod e15_twin;
pub mod e16_drift;
pub mod e1_service_window;
pub mod e2_escalation;
pub mod e3_cascade;
pub mod e4_proactive;
pub mod e5_provisioning;
pub mod e6_inspection;
pub mod e7_repair_cdf;
pub mod e8_topology;
pub mod e9_tail_latency;

pub use e10_fleet as e10;
pub use e11_predictive as e11;
pub use e12_reconfig as e12;
pub use e13_timing as e13;
pub use e14_robustness as e14;
pub use e15_twin as e15;
pub use e16_drift as e16;
pub use e1_service_window as e1;
pub use e2_escalation as e2;
pub use e3_cascade as e3;
pub use e4_proactive as e4;
pub use e5_provisioning as e5;
pub use e6_inspection as e6;
pub use e7_repair_cdf as e7;
pub use e8_topology as e8;
pub use e9_tail_latency as e9;
