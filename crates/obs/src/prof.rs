//! The engine self-profiler: the engine's one wall-clock timer, and
//! per-subsystem accounting for the maintenance plane's *own* hot
//! paths.
//!
//! A plane that manages itself must first observe itself (the MAPE-K
//! premise). This module is the observation layer for the simulator's
//! machinery rather than for simulated incidents: where does a simulated
//! year of wall time actually go — the scheduler, telemetry polls, fault
//! injection, the controller, robot dispatch, ticket bookkeeping, or
//! checkpoint encode/decode?
//!
//! The design splits every measurement into two strictly separated
//! halves, following the rest of the crate:
//!
//! * **Deterministic counts** — per-event-kind and per-subsystem event
//!   tallies, scheduler queue statistics, checkpoint payload sizes.
//!   These live in the [`ObsRegistry`](crate::ObsRegistry) under
//!   `prof/…` keys, so they merge across sweep workers, persist through
//!   checkpoints, and are byte-identical across same-seed runs.
//! * **Timing-only spans** — wall-clock nanoseconds per [`Leaf`], a
//!   `(subsystem, kind)` pair. Each dispatched event is one span under
//!   its subsystem and event kind (`controller/dispatch`, `dcnet/poll`,
//!   …); the spans that are not events are leaves too: `sched/pop`,
//!   `twin/plan`, `ckpt/encode` and `ckpt/decode`. A subsystem row is
//!   the sum of its leaves ([`rows`]). Inherently nondeterministic;
//!   surfaced only via `BENCH.json`, the `profile` table and stderr,
//!   never on any seeded output path.
//!
//! When disabled a `Prof` is fully inert: [`Prof::start`] returns `None`
//! without reading the clock, [`Prof::record`] returns before touching
//! anything, and no allocation ever happens — so profiling-off runs are
//! byte-identical to a build without the profiler.

use std::time::Instant;

use crate::wall::WallProfile;

/// Key prefix for every deterministic profiler counter in the registry.
/// Keeps the profiler's namespace disjoint from the simulation counters
/// (`ticket/…`, `op/…`, …) that experiment assertions pin.
pub const PROF_PREFIX: &str = "prof/";

/// The span taxonomy: every engine event and hot-path hook is attributed
/// to exactly one of these subsystems (DESIGN §3.13).
pub const SUBSYSTEMS: &[&str] = &[
    "sched",      // des::sched schedule/pop/cancel + queue bookkeeping
    "faults",     // fault arrivals, self-heals, flaps, cascades
    "dcnet",      // link recompute + telemetry polling
    "controller", // dispatch decisions, proactive/predictive scans
    "robotics",   // robot op lifecycle: start/done/stall/abort/recover
    "tickets",    // ticket open/verify/close bookkeeping
    "recovery",   // watchdog + degradation ladder
    "ckpt",       // snapshot encode/decode
    "twin",       // digital-twin planning: fork fan-out + branch scoring
    "autonomic",  // MAPE-K loop: monitor windows, posterior updates, knob moves
];

/// Accumulated wall time of one `(subsystem, kind)` span site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leaf {
    /// Subsystem from [`SUBSYSTEMS`].
    pub sub: &'static str,
    /// Event kind (`dispatch`, `poll`, …) or non-event site (`pop`,
    /// `plan`, `encode`, `decode`).
    pub kind: &'static str,
    /// Total wall nanoseconds.
    pub ns: u64,
    /// Spans recorded.
    pub spans: u64,
}

/// Scoped wall timing per leaf. The `Instant` values it handles are
/// produced inside `obs::wall`, the single module sanctioned to read
/// the clock; the same switch gates the engine's deterministic-count
/// hooks.
#[derive(Debug, Clone, Default)]
pub struct Prof {
    clock: WallProfile,
    leaves: Vec<Leaf>,
}

impl Prof {
    /// A profiler that records.
    pub fn enabled() -> Self {
        Prof {
            clock: WallProfile::enabled(),
            leaves: Vec::new(),
        }
    }

    /// A profiler that ignores everything (the default).
    pub fn disabled() -> Self {
        Prof::default()
    }

    /// Whether this profiler records. Deterministic-count hooks check
    /// this before touching the registry so a disabled profiler leaves
    /// zero `prof/…` entries.
    pub fn is_enabled(&self) -> bool {
        self.clock.is_enabled()
    }

    /// Open a span: reads the clock iff profiling is on. Pass the
    /// result to [`Prof::record`] after the measured section.
    pub fn start(&self) -> Option<Instant> {
        self.clock.start()
    }

    /// Close a span under the leaf `(sub, kind)`. No-op when `started`
    /// is `None`.
    pub fn record(&mut self, sub: &'static str, kind: &'static str, started: Option<Instant>) {
        let Some(t0) = started else {
            return;
        };
        let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        match self
            .leaves
            .iter_mut()
            .find(|l| l.kind == kind && l.sub == sub)
        {
            Some(l) => {
                l.ns = l.ns.saturating_add(ns);
                l.spans += 1;
            }
            None => self.leaves.push(Leaf {
                sub,
                kind,
                ns,
                spans: 1,
            }),
        }
    }

    /// The accumulated leaves, sorted by `(subsystem, kind)` — first-touch
    /// order is a timing artifact and must not leak into any rendered
    /// output. Empty when disabled.
    pub fn leaves(&self) -> Vec<Leaf> {
        let mut leaves = self.leaves.clone();
        leaves.sort_by_key(|l| (l.sub, l.kind));
        leaves
    }
}

/// Subsystem rows `(subsystem, total ns, spans)`, each the exact sum of
/// its leaves. `leaves` must be grouped by subsystem, as
/// [`Prof::leaves`] returns them.
pub fn rows(leaves: &[Leaf]) -> Vec<(&'static str, u64, u64)> {
    let mut rows: Vec<(&'static str, u64, u64)> = Vec::new();
    for l in leaves {
        match rows.last_mut() {
            Some(row) if row.0 == l.sub => {
                row.1 = row.1.saturating_add(l.ns);
                row.2 += l.spans;
            }
            _ => rows.push((l.sub, l.ns, l.spans)),
        }
    }
    rows
}

/// Wall share per entry in percent of the summed total. Shares are
/// computed over the entry set itself, so they sum to ~100% by
/// construction (modulo float rounding); an empty or all-zero set
/// yields all-zero shares.
pub fn shares<K>(entries: impl IntoIterator<Item = (K, u64)>) -> Vec<(K, f64)> {
    let entries: Vec<(K, u64)> = entries.into_iter().collect();
    let total: u64 = entries.iter().fold(0u64, |acc, e| acc.saturating_add(e.1));
    entries
        .into_iter()
        .map(|(key, ns)| {
            let pct = if total == 0 {
                0.0
            } else {
                100.0 * ns as f64 / total as f64
            };
            (key, pct)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_prof_is_inert() {
        let mut p = Prof::disabled();
        assert!(!p.is_enabled());
        let t = p.start();
        assert!(t.is_none(), "disabled profiler must not read the clock");
        p.record("sched", "pop", t);
        assert!(p.leaves().is_empty());
    }

    #[test]
    fn enabled_prof_accumulates_per_leaf_and_rows_sum_them() {
        let mut p = Prof::enabled();
        assert!(p.is_enabled());
        p.record("tickets", "verify-done", p.start());
        p.record("sched", "pop", p.start());
        p.record("controller", "predictive-scan", p.start());
        p.record("tickets", "verify-done", p.start());
        p.record("controller", "dispatch", p.start());
        let leaves = p.leaves();
        // Sorted by (subsystem, kind) regardless of first-touch order.
        let keys: Vec<_> = leaves.iter().map(|l| (l.sub, l.kind, l.spans)).collect();
        assert_eq!(
            keys,
            [
                ("controller", "dispatch", 1),
                ("controller", "predictive-scan", 1),
                ("sched", "pop", 1),
                ("tickets", "verify-done", 2),
            ]
        );
        let r = rows(&leaves);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0], ("controller", leaves[0].ns + leaves[1].ns, 2));
        assert_eq!((r[2].0, r[2].2), ("tickets", 2));
        assert!(rows(&[]).is_empty());
    }

    #[test]
    fn shares_sum_to_one_hundred_percent() {
        let s = shares([("a", 300u64), ("b", 100), ("c", 600)]);
        let total: f64 = s.iter().map(|&(_, pct)| pct).sum();
        assert!((total - 100.0).abs() < 1e-9, "shares sum to {total}");
        assert!((s[0].1 - 30.0).abs() < 1e-9);
        assert!((s[2].1 - 60.0).abs() < 1e-9);
        // Degenerate sets stay well-defined.
        assert!(shares(Vec::<(&str, u64)>::new()).is_empty());
        assert_eq!(shares([("z", 0)])[0].1, 0.0);
    }

    #[test]
    fn taxonomy_is_sorted_unique_and_prefixed_keys_are_disjoint() {
        let mut sorted = SUBSYSTEMS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), SUBSYSTEMS.len(), "duplicate subsystem");
        for s in SUBSYSTEMS {
            assert!(!s.starts_with(PROF_PREFIX));
            assert!(!s.is_empty());
        }
    }
}
