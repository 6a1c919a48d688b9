//! Per-link telemetry counters.
//!
//! "Today's services are already good at detecting hardware failures"
//! (§2) — because switches export counters. [`LinkCounters`] is the
//! per-link slice of that export: periodic loss-rate samples (derived
//! from CRC/FEC counters in real fleets), link up/down transition
//! timestamps, and EWMA smoothing. Detectors read these; the predictive
//! scorer reads the longer-horizon aggregates.

use std::collections::VecDeque;

use dcmaint_des::{SimDuration, SimTime};

/// Rolling telemetry for one link.
#[derive(Debug, Clone)]
pub struct LinkCounters {
    /// EWMA of sampled loss rate.
    loss_ewma: f64,
    /// EWMA smoothing factor per sample.
    alpha: f64,
    /// Recent up/down-ish transitions (flap edges), timestamped.
    transitions: VecDeque<SimTime>,
    /// How long transition history is retained.
    transition_window: SimDuration,
    /// Seconds observed with loss above the errored threshold.
    errored_samples: u64,
    /// Total samples observed.
    samples: u64,
    /// Last sample time.
    last_sample: SimTime,
    /// Lifetime incident count (maintained by the pipeline, used as a
    /// predictive feature).
    incidents_total: u64,
    /// Time of last completed maintenance on this link.
    last_maintenance: Option<SimTime>,
}

dcmaint_ckpt::persist!(LinkCounters {
    loss_ewma,
    alpha,
    transitions,
    transition_window,
    errored_samples,
    samples,
    last_sample,
    incidents_total,
    last_maintenance,
});

impl LinkCounters {
    /// Loss rate above which a sample counts as an errored interval.
    pub const ERRORED_THRESHOLD: f64 = 1e-4;

    /// Fresh counters with the given flap-history window.
    pub fn new(transition_window: SimDuration) -> Self {
        LinkCounters {
            loss_ewma: 0.0,
            alpha: 0.3,
            transitions: VecDeque::new(),
            transition_window,
            errored_samples: 0,
            samples: 0,
            last_sample: SimTime::ZERO,
            incidents_total: 0,
            last_maintenance: None,
        }
    }

    /// Record one periodic loss-rate sample.
    pub fn record_sample(&mut self, t: SimTime, loss: f64) {
        let loss = loss.clamp(0.0, 1.0);
        self.loss_ewma = self.alpha * loss + (1.0 - self.alpha) * self.loss_ewma;
        self.samples += 1;
        if loss > Self::ERRORED_THRESHOLD {
            self.errored_samples += 1;
        }
        self.last_sample = t;
    }

    /// Record a link state transition (up↔down edge or flap phase edge).
    pub fn record_transition(&mut self, t: SimTime) {
        self.transitions.push_back(t);
        self.trim(t);
    }

    /// Record that an incident was opened against this link.
    pub fn record_incident(&mut self) {
        self.incidents_total += 1;
    }

    /// Record completed maintenance. Short-horizon signals reset — the
    /// hardware state they described was just serviced — so
    /// [`LinkCounters::errored_fraction`] reads "errored fraction since
    /// last maintenance", the discriminative input of the predictive
    /// scorer.
    pub fn record_maintenance(&mut self, t: SimTime) {
        self.last_maintenance = Some(t);
        self.loss_ewma = 0.0;
        self.transitions.clear();
        self.errored_samples = 0;
        self.samples = 0;
    }

    fn trim(&mut self, now: SimTime) {
        while let Some(&front) = self.transitions.front() {
            if now.since(front) > self.transition_window {
                self.transitions.pop_front();
            } else {
                break;
            }
        }
    }

    /// Smoothed loss rate.
    pub fn loss_ewma(&self) -> f64 {
        self.loss_ewma
    }

    /// Transitions within the retention window ending at `now`.
    pub fn recent_transitions(&mut self, now: SimTime) -> usize {
        self.trim(now);
        self.transitions.len()
    }

    /// Lifetime incident count.
    pub fn incidents_total(&self) -> u64 {
        self.incidents_total
    }

    /// Fraction of samples that were errored.
    pub fn errored_fraction(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.errored_samples as f64 / self.samples as f64
        }
    }

    /// Time since last maintenance, or since time zero if never.
    pub fn since_maintenance(&self, now: SimTime) -> SimDuration {
        match self.last_maintenance {
            Some(t) => now.since(t),
            None => now.since(SimTime::ZERO),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn ewma_converges_to_input() {
        let mut c = LinkCounters::new(SimDuration::from_hours(1));
        for i in 0..50 {
            c.record_sample(t(i), 0.02);
        }
        assert!((c.loss_ewma() - 0.02).abs() < 1e-6);
    }

    #[test]
    fn ewma_decays_after_recovery() {
        let mut c = LinkCounters::new(SimDuration::from_hours(1));
        for i in 0..10 {
            c.record_sample(t(i), 0.05);
        }
        let peak = c.loss_ewma();
        for i in 10..40 {
            c.record_sample(t(i), 0.0);
        }
        assert!(c.loss_ewma() < peak / 10.0);
    }

    #[test]
    fn transition_window_trims() {
        let mut c = LinkCounters::new(SimDuration::from_secs(100));
        c.record_transition(t(0));
        c.record_transition(t(50));
        c.record_transition(t(120));
        assert_eq!(c.recent_transitions(t(120)), 2); // t=0 expired
        assert_eq!(c.recent_transitions(t(500)), 0);
    }

    #[test]
    fn errored_fraction_counts_threshold() {
        let mut c = LinkCounters::new(SimDuration::from_hours(1));
        c.record_sample(t(0), 0.0);
        c.record_sample(t(1), 1e-5); // below threshold
        c.record_sample(t(2), 0.01);
        c.record_sample(t(3), 0.02);
        assert!((c.errored_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn maintenance_resets_short_horizon() {
        let mut c = LinkCounters::new(SimDuration::from_hours(1));
        c.record_sample(t(0), 0.1);
        c.record_transition(t(1));
        c.record_incident();
        c.record_maintenance(t(10));
        assert_eq!(c.loss_ewma(), 0.0);
        assert_eq!(c.recent_transitions(t(10)), 0);
        assert_eq!(c.errored_fraction(), 0.0, "errored counters reset too");
        // The lifetime incident count survives.
        assert_eq!(c.incidents_total(), 1);
        assert_eq!(c.since_maintenance(t(70)), SimDuration::from_secs(60));
    }

    #[test]
    fn since_maintenance_defaults_to_age() {
        let c = LinkCounters::new(SimDuration::from_hours(1));
        assert_eq!(c.since_maintenance(t(500)), SimDuration::from_secs(500));
    }

    #[test]
    fn sample_clamps_loss() {
        let mut c = LinkCounters::new(SimDuration::from_hours(1));
        c.record_sample(t(0), 42.0);
        assert!(c.loss_ewma() <= 1.0);
    }
}
