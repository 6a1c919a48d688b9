//! # dcmaint-scenarios — end-to-end runs and experiment harness
//!
//! Ties every substrate together: [`config::ScenarioConfig`] describes a
//! run, [`engine::run`] executes it deterministically, and
//! [`report::RunReport`] carries everything measured. The `experiments`
//! module regenerates every quantitative claim in the paper (E1–E16 and
//! the A1–A3 ablations, indexed in EXPERIMENTS.md).

#![warn(missing_docs)]

pub mod bisect;
pub mod config;
pub mod engine;
pub mod experiments;
pub mod report;
pub mod snapshot;
pub mod sweep;
pub mod writer;

pub use config::{ScenarioConfig, ScriptedIncident, TopologySpec};
pub use engine::{run, Engine};
pub use report::{ActionStats, RunReport, SweepMetrics};
pub use snapshot::config_fingerprint;
pub use sweep::{
    failures_table, is_experiment, run_engine_sweep, run_experiment_sweep, EngineSweepOutcome,
    EngineSweepParams, ExperimentSweep, SweepFailure, EXPERIMENTS,
};
pub use writer::ReportFormat;
