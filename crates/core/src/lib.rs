//! # maintctl — the maintenance control plane
//!
//! This crate is the paper's primary contribution, implemented: hardware
//! maintenance as "the lowest layer of the stack" with "cross-layer
//! communication and control" (§2), analogous to how SDN made forwarding
//! — and recent work made power — a software-controlled, first-class
//! resource.
//!
//! Components:
//!
//! * [`levels`] — the §2.1 automation taxonomy (L0–L4) as policy, not
//!   code paths;
//! * [`escalate`] — the §3.2 repair ladder (reseat → clean → replace
//!   transceiver → replace cable → replace switch) with per-link memory;
//! * [`drain`] — cross-layer co-design: deterministic contact sets,
//!   pre-contact announcements, connectivity-checked drains, deferral
//!   when a drain would disconnect service;
//! * [`proactive`] — §4's campaign planner ("reseat all transceivers on
//!   that switch") gated on the diurnal utilization trough;
//! * [`predict`] — online logistic failure scorer over telemetry
//!   features, with precision/recall bookkeeping;
//! * [`provision`] — the right-provisioning advisor: k-of-n binomial
//!   availability inverted to "how many spares does this MTTR need";
//! * [`safety`] — §3.4's human/robot exclusion-zone interlocks;
//! * [`verify`] — window-of-vulnerability what-if checking (the §4
//!   network-verification thread): single-fault exposure and path
//!   diversity under a proposed drain;
//! * [`controller`] — the façade composing the ladder, the level's
//!   executor choice and the proactive and predictive loops.
//!
//! The controller is pure decision logic — the event loop lives in
//! `dcmaint-scenarios`. That split keeps every policy choice
//! deterministic and unit-testable, and means automation levels are a
//! *configuration*, so experiment E1's level sweep is a true ablation.

#![warn(missing_docs)]

pub mod controller;
pub mod drain;
pub mod escalate;
pub mod levels;
pub mod predict;
pub mod proactive;
pub mod provision;
pub mod recovery;
pub mod safety;
pub mod verify;

pub use controller::{ControllerConfig, MaintenanceController, PredictiveConfig};
pub use drain::{DrainConfig, DrainDecision, PreContactAnnouncement};
pub use escalate::{EscalationConfig, EscalationEngine};
pub use levels::{AutomationLevel, Executor};
pub use predict::{PredictionStats, Predictor};
pub use proactive::{Campaign, ProactiveConfig, ProactivePlanner};
pub use provision::{advise, k_of_n_availability, member_availability, ProvisioningAdvice};
pub use recovery::{Backoff, RecoveryPolicy, RecoveryState, RecoveryStep, WatchdogConfig};
pub use safety::{ClaimId, SafetyConfig, ZoneActor, ZoneLedger};
pub use verify::{assess_window, WindowRisk};
