//! # dcmaint-robotics — the simulated robot fleet
//!
//! Simulation stand-in for the paper's prototype hardware (Figures 1–2),
//! calibrated to its stated timings: per-core end-face inspection sized
//! so 8 cores finish under 30 s, full manipulate-and-clean cycles in
//! minutes, dispatch in seconds.
//!
//! * [`vision`] — perception with diversity/density-driven error and
//!   bounded retries (the §3.3.3 "largest challenges");
//! * [`ops`] — phase-timed state machines for transceiver reseat
//!   (Figure 1) and the inspect → dry → wet → reassemble cleaning
//!   pipeline (Figure 2), operating on real contamination state from
//!   `dcmaint-faults`;
//! * [`fleet`] — modular units with row/hall mobility scopes (§3.4),
//!   nearest-available dispatch, spares, and robot breakdowns.
//!
//! What this crate deliberately does *not* know about: tickets, drains,
//! escalation policy. Robots execute physical operations; deciding what
//! to do and when is `maintctl`'s job — that separation *is* the paper's
//! control-plane thesis.

#![warn(missing_docs)]

pub mod fleet;
pub mod ops;
pub mod vision;

pub use fleet::{FleetConfig, MobilityScope, RobotAssignment, RobotFleet, RobotUnit, UnitHealth};
pub use ops::{
    afflict, run_clean, run_replace, run_reseat, OpOutcome, OpPhase, OpResult, OpTimings,
    ReplaceKind, TimedPhase,
};
pub use vision::{VisionModel, VisionOutcome};
