//! # dcmaint-metrics — measurement plumbing for the self-maintenance suite
//!
//! Everything the experiments measure flows through this crate:
//!
//! * [`SampleSet`], [`DurationSamples`] — exact-quantile statistics,
//! * [`AvailabilityTracker`], [`FleetAvailability`] — up/down ledgers
//!   yielding availability, MTBF, MTTR and downtime-window distributions,
//! * [`CostModel`], [`CostLedger`] — labor / robot / hardware / downtime
//!   cost accounting,
//! * [`Table`], [`Cell`] — typed table cells: how every experiment value
//!   renders (text table, CSV, JSONL) and how its seed replicates fold
//!   into mean ±95% CI cells ([`Table::fold`]).
//!
//! The crate is deliberately free of simulation logic: it consumes times
//! and durations from `dcmaint-des` and produces numbers. That keeps the
//! measurement definitions auditable in one place — when EXPERIMENTS.md
//! says "availability", it means [`FleetAvailability::summarize`], for
//! every experiment.

#![warn(missing_docs)]

mod avail;
mod cost;
mod stats;
mod table;

pub use avail::{nines, AvailabilitySummary, AvailabilityTracker, FleetAvailability, FleetSummary};
pub use cost::{CostLedger, CostModel, HardwareKind};
pub use stats::{mean_ci95, Beta, Ci95, DurationSamples, SampleSet};
pub use table::{fnum, Align, Cell, Table};
