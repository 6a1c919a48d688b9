//! Availability, downtime, and service-window accounting.
//!
//! The paper's headline benefit is "significant reduction of the service
//! window for failures … from hours and days to literally minutes" (§2) and
//! the resulting availability gain. This module owns those measurements:
//!
//! * [`AvailabilityTracker`] — per-entity up/down interval ledger producing
//!   availability fraction, MTBF, MTTR, and downtime-window samples;
//! * [`FleetAvailability`] — aggregates many entities (e.g. all links) into
//!   a fleet view;
//! * the "nines" conversion ([`nines`]).

use std::collections::BTreeMap;

use dcmaint_des::{SimDuration, SimTime};

use crate::stats::DurationSamples;

/// Up/down ledger for a single entity (a link, a switch, a service path).
///
/// Transitions are idempotent: reporting `down` on an already-down entity is
/// a no-op, so noisy callers can't double-count. Time between `mark_*` calls
/// is attributed to the previous state.
#[derive(Debug, Clone)]
pub struct AvailabilityTracker {
    up: bool,
    since: SimTime,
    up_total: SimDuration,
    down_total: SimDuration,
    downtime_windows: DurationSamples,
    transitions_down: u64,
}

dcmaint_ckpt::persist!(AvailabilityTracker {
    up,
    since,
    up_total,
    down_total,
    transitions_down,
    downtime_windows,
});

impl AvailabilityTracker {
    /// New tracker starting in the `up` state at `start`.
    pub fn starting_up(start: SimTime) -> Self {
        AvailabilityTracker {
            up: true,
            since: start,
            up_total: SimDuration::ZERO,
            down_total: SimDuration::ZERO,
            downtime_windows: DurationSamples::new(),
            transitions_down: 0,
        }
    }

    /// Record that the entity went down at `t`.
    pub fn mark_down(&mut self, t: SimTime) {
        if !self.up {
            return;
        }
        self.up_total += t.since(self.since);
        self.up = false;
        self.since = t;
        self.transitions_down += 1;
    }

    /// Record that the entity recovered at `t`.
    pub fn mark_up(&mut self, t: SimTime) {
        if self.up {
            return;
        }
        let window = t.since(self.since);
        self.down_total += window;
        self.downtime_windows.record(window);
        self.up = true;
        self.since = t;
    }

    /// Close the ledger at `end` (attributing the open interval) and return
    /// a summary. The tracker remains usable.
    pub fn summarize(&self, end: SimTime) -> AvailabilitySummary {
        let mut up_total = self.up_total;
        let mut down_total = self.down_total;
        let tail = end.since(self.since);
        if self.up {
            up_total += tail;
        } else {
            down_total += tail;
        }
        let total = up_total + down_total;
        let availability = if total.is_zero() {
            1.0
        } else {
            up_total.as_secs_f64() / total.as_secs_f64()
        };
        let mut windows = self.downtime_windows.clone();
        if !self.up && !tail.is_zero() {
            windows.record(tail);
        }
        AvailabilitySummary {
            availability,
            up_total,
            down_total,
            failures: self.transitions_down,
            mtbf: if self.transitions_down == 0 {
                SimDuration::MAX
            } else {
                up_total / self.transitions_down
            },
            mttr: if windows.is_empty() {
                SimDuration::ZERO
            } else {
                windows.mean()
            },
            downtime_windows: windows,
        }
    }
}

/// Closed-ledger summary produced by [`AvailabilityTracker::summarize`].
#[derive(Debug, Clone)]
pub struct AvailabilitySummary {
    /// Fraction of time spent up, in `[0, 1]`.
    pub availability: f64,
    /// Total up time.
    pub up_total: SimDuration,
    /// Total down time.
    pub down_total: SimDuration,
    /// Number of up→down transitions.
    pub failures: u64,
    /// Mean time between failures (up time / failures); `MAX` if none.
    pub mtbf: SimDuration,
    /// Mean time to repair (mean downtime window).
    pub mttr: SimDuration,
    /// Individual downtime windows, for quantiles.
    pub downtime_windows: DurationSamples,
}

/// Availability aggregated across a keyed fleet of entities.
#[derive(Debug, Clone, Default)]
pub struct FleetAvailability {
    trackers: BTreeMap<u64, AvailabilityTracker>,
    start: SimTime,
}

dcmaint_ckpt::persist!(FleetAvailability { start, trackers });

impl FleetAvailability {
    /// New fleet ledger; entities are lazily created in the `up` state at
    /// `start` on first touch.
    pub fn new(start: SimTime) -> Self {
        FleetAvailability {
            trackers: BTreeMap::new(),
            start,
        }
    }

    fn entry(&mut self, key: u64) -> &mut AvailabilityTracker {
        let start = self.start;
        self.trackers
            .entry(key)
            .or_insert_with(|| AvailabilityTracker::starting_up(start))
    }

    /// Mark entity `key` down at `t`.
    pub fn mark_down(&mut self, key: u64, t: SimTime) {
        self.entry(key).mark_down(t);
    }

    /// Mark entity `key` up at `t`.
    pub fn mark_up(&mut self, key: u64, t: SimTime) {
        self.entry(key).mark_up(t);
    }

    /// Fleet-wide summary at `end` over `population` entities. Entities
    /// never touched contribute perfect uptime, so pass the true population
    /// (e.g. total link count), not just the ones that failed.
    pub fn summarize(&self, end: SimTime, population: usize) -> FleetSummary {
        let horizon = end.since(self.start);
        let mut down_total = SimDuration::ZERO;
        let mut failures = 0;
        let mut windows = DurationSamples::new();
        let mut worst: Option<(u64, f64)> = None;
        for (&key, tr) in &self.trackers {
            let s = tr.summarize(end);
            down_total += s.down_total;
            failures += s.failures;
            let mut w = s.downtime_windows;
            for x in w.as_samples().iter().collect::<Vec<_>>() {
                windows.as_samples().record(x);
            }
            if worst.is_none_or(|(_, a)| s.availability < a) {
                worst = Some((key, s.availability));
            }
        }
        let population = population.max(self.trackers.len()).max(1);
        let total_entity_time = horizon.as_secs_f64() * population as f64;
        let availability = if total_entity_time <= 0.0 {
            1.0
        } else {
            1.0 - down_total.as_secs_f64() / total_entity_time
        };
        FleetSummary {
            availability,
            failures,
            down_total,
            worst_entity: worst,
            downtime_windows: windows,
            population,
        }
    }
}

/// Fleet-wide availability summary.
#[derive(Debug, Clone)]
pub struct FleetSummary {
    /// Entity-time weighted availability in `[0, 1]`.
    pub availability: f64,
    /// Total up→down transitions across the fleet.
    pub failures: u64,
    /// Summed downtime across entities.
    pub down_total: SimDuration,
    /// Entity with the lowest availability, if any were touched.
    pub worst_entity: Option<(u64, f64)>,
    /// All downtime windows across the fleet.
    pub downtime_windows: DurationSamples,
    /// Population used for weighting.
    pub population: usize,
}

/// Convert availability to "nines" (0.999 → 3.0). Perfect availability
/// saturates at 12 nines to keep tables finite.
pub fn nines(availability: f64) -> f64 {
    if availability >= 1.0 {
        return 12.0;
    }
    if availability <= 0.0 {
        return 0.0;
    }
    (-(1.0 - availability).log10()).clamp(0.0, 12.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn single_outage_accounting() {
        let mut tr = AvailabilityTracker::starting_up(t(0));
        tr.mark_down(t(100));
        tr.mark_up(t(150));
        let s = tr.summarize(t(1000));
        assert!((s.availability - 0.95).abs() < 1e-9);
        assert_eq!(s.failures, 1);
        assert_eq!(s.mttr, SimDuration::from_secs(50));
        assert_eq!(s.down_total, SimDuration::from_secs(50));
    }

    #[test]
    fn idempotent_transitions() {
        let mut tr = AvailabilityTracker::starting_up(t(0));
        tr.mark_down(t(10));
        tr.mark_down(t(20)); // no-op
        tr.mark_up(t(30));
        tr.mark_up(t(40)); // no-op
        let s = tr.summarize(t(100));
        assert_eq!(s.failures, 1);
        assert_eq!(s.down_total, SimDuration::from_secs(20));
    }

    #[test]
    fn open_downtime_counts_at_summarize() {
        let mut tr = AvailabilityTracker::starting_up(t(0));
        tr.mark_down(t(80));
        let s = tr.summarize(t(100));
        assert!((s.availability - 0.8).abs() < 1e-9);
        assert_eq!(s.down_total, SimDuration::from_secs(20));
        // The open window appears in the quantile samples too.
        let mut w = s.downtime_windows;
        assert_eq!(w.median(), SimDuration::from_secs(20));
    }

    #[test]
    fn mtbf_counts_up_time_per_failure() {
        let mut tr = AvailabilityTracker::starting_up(t(0));
        tr.mark_down(t(100));
        tr.mark_up(t(110));
        tr.mark_down(t(210));
        tr.mark_up(t(220));
        let s = tr.summarize(t(320));
        // Up time: 100 + 100 + 100 = 300 over 2 failures.
        assert_eq!(s.mtbf, SimDuration::from_secs(150));
    }

    #[test]
    fn no_failures_perfect_availability() {
        let tr = AvailabilityTracker::starting_up(t(0));
        let s = tr.summarize(t(500));
        assert_eq!(s.availability, 1.0);
        assert_eq!(s.failures, 0);
        assert_eq!(s.mtbf, SimDuration::MAX);
    }

    #[test]
    fn fleet_weights_by_population() {
        let mut f = FleetAvailability::new(t(0));
        f.mark_down(7, t(0));
        f.mark_up(7, t(100));
        // One of 10 entities down for 100 of 1000 s → 1% entity-time lost.
        let s = f.summarize(t(1000), 10);
        assert!((s.availability - 0.99).abs() < 1e-9);
        assert_eq!(s.failures, 1);
        assert_eq!(s.worst_entity.unwrap().0, 7);
    }

    #[test]
    fn fleet_population_floor_is_touched_count() {
        let mut f = FleetAvailability::new(t(0));
        f.mark_down(1, t(0));
        f.mark_up(1, t(500));
        // Caller claims population 0; floor to the 1 touched entity.
        let s = f.summarize(t(1000), 0);
        assert!((s.availability - 0.5).abs() < 1e-9);
    }

    #[test]
    fn nines_of_known_availabilities() {
        assert!((nines(0.999) - 3.0).abs() < 1e-9);
        assert!((nines(0.9999) - 4.0).abs() < 1e-9);
        assert_eq!(nines(1.0), 12.0);
        assert_eq!(nines(0.0), 0.0);
    }
}
