//! # dcmaint-obs — deterministic observability for the maintenance plane
//!
//! The paper's quantitative claims are *timing attributions*: inspection
//! under 30 s (C1), a full unplug→clean→replug operation in minutes
//! (C2), the service window shrinking from days to minutes (C3). An
//! aggregate report cannot attribute a window to its parts; this crate
//! opens the control plane up so every incident decomposes into spans.
//!
//! Four pieces, all deterministic in simulated time:
//!
//! * [`Journal`] — a ring-buffered structured JSONL event log. Every
//!   emitter (engine, controller, recovery ladder, robot fleet, ticket
//!   board) holds a cheap clone of one handle. When disabled the handle
//!   is a `None` and `emit` returns before touching anything: **zero
//!   allocation, zero RNG, zero side effects**, so disabled runs are
//!   byte-identical to an obs-free build.
//! * [`TraceStore`] / [`IncidentTrace`] — per-incident span traces. An
//!   incident's lifetime is recorded as a sequence of state-entry
//!   events; the spans derived from consecutive events *tile* the
//!   service window exactly (integer microseconds, no gaps, no
//!   overlap), which is what lets experiments prove the end-to-end
//!   window equals the sum of its phases.
//! * [`ObsRegistry`] — global-free counters and fixed-bucket duration
//!   histograms (ops by outcome, watchdog fires, escalations, per-phase
//!   durations). Threaded through the engine by value; no statics, no
//!   locks, no iteration-order nondeterminism.
//! * [`Prof`] — the engine self-profiler: deterministic `prof/…`
//!   counts in the registry, plus wall time per `(subsystem, kind)`
//!   leaf read through [`WallProfile`], the one sanctioned wall clock.
//!   Real-time measurements are inherently nondeterministic, so they
//!   are quarantined: never mixed into simulated-time output, written
//!   only to `BENCH.json`, the `profile` table and stderr.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod journal;
pub mod prof;
mod registry;
mod trace;
mod wall;

pub use journal::{JVal, Journal};
pub use prof::{Leaf, Prof};
pub use registry::{HistDelta, HistogramSnapshot, ObsRegistry, RegistryCursor, WindowDelta};
pub use trace::{IncidentTrace, Span, TraceStore};
pub use wall::WallProfile;

/// Configuration for the observability plane, carried by the scenario
/// config. Default is fully disabled — the zero-cost, byte-identical
/// mode every pre-existing experiment runs in.
#[derive(Clone)]
pub struct ObsConfig {
    /// Master switch for the journal, traces, and registry.
    pub enabled: bool,
    /// Ring-buffer capacity of the journal in lines; older lines are
    /// dropped (and counted) once full.
    pub journal_capacity: usize,
    /// Engine self-profiler ([`prof`]): deterministic per-subsystem /
    /// per-event-kind counts under `prof/…` registry keys plus wall
    /// spans per `(subsystem, kind)` leaf. Independent of `enabled` so
    /// `selfmaint profile` can measure the engine without turning on the
    /// journal; the registry is active when *either* switch is on.
    pub profiling: bool,
}

/// Hand-written so the rendering stays byte-identical to the derived
/// form from when the config carried a fourth, since-retired switch for
/// a per-event-kind wall profiler: checkpoint headers pin a hash of the
/// scenario config's `Debug` text, so the retired switch is still
/// printed, as the `false` every checkpointed config carried. The
/// golden checkpoint fixture (`tests/ckpt.rs`) fails if this moves.
impl std::fmt::Debug for ObsConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsConfig")
            .field("enabled", &self.enabled)
            .field("journal_capacity", &self.journal_capacity)
            .field("wall_profiling", &false)
            .field("profiling", &self.profiling)
            .finish()
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: false,
            journal_capacity: 1 << 16,
            profiling: false,
        }
    }
}

impl ObsConfig {
    /// Enabled config with default capacity and no profiling.
    pub fn enabled() -> Self {
        ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        }
    }

    /// Self-profiler config: journal/traces stay off, the registry and
    /// the `prof` span accounting run.
    pub fn profiled() -> Self {
        ObsConfig {
            profiling: true,
            ..ObsConfig::default()
        }
    }
}

/// Everything the observability plane collected over one run. Attached
/// to the run report only when obs was enabled, so disabled-mode
/// reports (and their serialized forms) are unchanged.
#[derive(Debug)]
pub struct ObsReport {
    /// Journal lines in emission order (a `journal-meta` header line
    /// first, then the ring-buffer contents).
    pub journal: Vec<String>,
    /// Total lines emitted (including any dropped from the ring).
    pub journal_emitted: u64,
    /// Lines dropped once the ring filled.
    pub journal_dropped: u64,
    /// Per-incident span traces, in ticket-creation order.
    pub traces: Vec<IncidentTrace>,
    /// Counters and histograms.
    pub registry: ObsRegistry,
    /// Engine self-profiler wall spans, one [`Leaf`] per
    /// `(subsystem, kind)`, sorted by that pair. Empty unless
    /// [`ObsConfig::profiling`] was on. Nondeterministic: consumed only
    /// by `selfmaint profile` and `selfmaint bench`, never by seeded
    /// output.
    pub prof_wall: Vec<Leaf>,
}

impl ObsReport {
    /// Traces of closed reactive incidents — the set the E1 service
    /// window statistics are computed over.
    pub fn closed_reactive_traces(&self) -> impl Iterator<Item = &IncidentTrace> {
        self.traces
            .iter()
            .filter(|t| t.closed.is_some() && t.reactive())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_fully_disabled() {
        let c = ObsConfig::default();
        assert!(!c.enabled);
        assert!(!c.profiling);
        assert!(c.journal_capacity > 0);
        assert!(ObsConfig::enabled().enabled);
        let p = ObsConfig::profiled();
        assert!(p.profiling && !p.enabled);
    }
}
