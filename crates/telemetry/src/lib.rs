//! # dcmaint-telemetry — the monitoring plane
//!
//! "Today's services are already good at detecting hardware failures"
//! (§2); this crate is that capability for the simulated fabric:
//!
//! * [`counters`] — per-link loss EWMA, flap-edge history, errored
//!   seconds, lifetime incident counts;
//! * [`detect`] — hard-down / flapping / gray-loss detectors with
//!   hysteresis (one alert per episode, not a ticket storm);
//! * [`plane`] — the fleet-wide [`TelemetryPlane`] the scenario polls;
//! * [`features`] — the fixed feature vector consumed by the §4
//!   predictive-maintenance scorer in `maintctl`.

#![warn(missing_docs)]

pub mod counters;
pub mod detect;
pub mod features;
pub mod plane;

pub use counters::LinkCounters;
pub use detect::{Alert, AlertKind, Detector};
pub use features::{extract, FEATURE_DIM, FEATURE_NAMES};
pub use plane::TelemetryPlane;
