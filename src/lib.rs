//! # selfmaint — self-maintaining networked systems
//!
//! A full-system reproduction of *"Self-maintaining \[networked\] systems:
//! The rise of datacenter robotics!"* (HotNets '24): the maintenance
//! control plane the paper envisions, running against simulated
//! substitutes for everything the authors had in hardware — a datacenter
//! network with physical cable routing, a gray-failure fault model,
//! telemetry, a ticketing pipeline with human technicians, and a fleet
//! of transceiver-manipulation and fiber-cleaning robots.
//!
//! This crate is the façade: it re-exports every subsystem under one
//! name and hosts the runnable examples. Start with:
//!
//! ```
//! use selfmaint::prelude::*;
//!
//! // A 3-day Level-3 (autonomous robots) run on a small fabric.
//! let mut cfg = ScenarioConfig::at_level(42, AutomationLevel::L3);
//! cfg.duration = SimDuration::from_days(3);
//! let mut report = selfmaint::scenarios::run(cfg);
//! assert!(report.availability.availability > 0.9);
//! println!(
//!     "median service window: {}",
//!     report.median_service_window()
//! );
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`des`] | `dcmaint-des` | deterministic event kernel, RNG, distributions |
//! | [`net`] | `dcmaint-dcnet` | components, hall layout, topologies, routing, flows |
//! | [`faults`] | `dcmaint-faults` | root causes, efficacy matrix, flaps, cascades |
//! | [`telemetry`] | `dcmaint-telemetry` | counters, detectors, features |
//! | [`tickets`] | `dcmaint-tickets` | ticket board, technician pool |
//! | [`robotics`] | `dcmaint-robotics` | robot ops, vision, fleet |
//! | [`control`] | `maintctl` | **the paper's contribution**: levels, escalation, drains, proactive, predictive, provisioning |
//! | [`obs`] | `dcmaint-obs` | incident span traces, event journal, counters/histograms |
//! | [`ckpt`] | `dcmaint-ckpt` | versioned snapshot codec, state hashing, byte-deterministic checkpoints |
//! | [`topomaint`] | `dcmaint-topomaint` | self-maintainability metric |
//! | [`metrics`] | `dcmaint-metrics` | stats, availability, costs, tables |
//! | [`sweep`] | `dcmaint-sweep` | work-stealing pool, canonical merge, seed-replicate CI aggregation |
//! | [`twin`] | `dcmaint-twin` | digital-twin forking: model-predictive repair planning policy |
//! | [`autonomic`] | `dcmaint-autonomic` | MAPE-K control plane: windowed monitoring, efficacy posteriors, guardrailed online knob tuning |
//! | [`scenarios`] | `dcmaint-scenarios` | the engine + experiments E1–E11, sweep orchestration |
//! | [`serve`] | `dcmaint-serve` | crash-tolerant maintenance-plane daemon: durable job queue, supervised worker, live journal fan-out |
//! | [`bench`](mod@bench) | `dcmaint-bench` | the `selfmaint bench` suite (five cases, `BENCH.json` schema, baseline gate) and the engine profiler behind `selfmaint profile` |
//!
//! ## Examples (`cargo run --example …`)
//!
//! * `quickstart` — build, break, and self-maintain a fabric;
//! * `flapping_link` — §1's motivation: gray failure and tail latency;
//! * `cleaning_robot` — Figure 2's pipeline, phase by phase;
//! * `proactive_campaign` — §4's predictive/proactive loop;
//! * `topology_report` — §4's self-maintainability metric across
//!   fat-tree / leaf-spine / Jellyfish / Xpander;
//! * `incident_trace` — the observability plane: one cascade incident's
//!   full span tree, journal excerpt, and window decomposition.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dcmaint_autonomic as autonomic;
pub use dcmaint_bench as bench;
pub use dcmaint_ckpt as ckpt;
pub use dcmaint_dcnet as net;
pub use dcmaint_des as des;
pub use dcmaint_faults as faults;
pub use dcmaint_metrics as metrics;
pub use dcmaint_obs as obs;
pub use dcmaint_robotics as robotics;
pub use dcmaint_scenarios as scenarios;
pub use dcmaint_serve as serve;
pub use dcmaint_sweep as sweep;
pub use dcmaint_telemetry as telemetry;
pub use dcmaint_tickets as tickets;
pub use dcmaint_topomaint as topomaint;
pub use dcmaint_twin as twin;
pub use maintctl as control;

/// The most commonly used types, for `use selfmaint::prelude::*`.
pub mod prelude {
    pub use dcmaint_dcnet::{
        CableMedium, DiversityProfile, LinkHealth, LinkId, NetState, Topology,
    };
    pub use dcmaint_des::{Dist, Scheduler, SimDuration, SimRng, SimTime};
    pub use dcmaint_faults::{RepairAction, RootCause};
    pub use dcmaint_metrics::Table;
    pub use dcmaint_obs::ObsConfig;
    pub use dcmaint_scenarios::{RunReport, ScenarioConfig, TopologySpec};
    pub use dcmaint_twin::{TwinConfig, TwinPolicy};
    pub use maintctl::{AutomationLevel, ControllerConfig, MaintenanceController};
}
