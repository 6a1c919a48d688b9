//! The telemetry plane: one counters + detector pair per link.
//!
//! Scenarios drive it with two calls: [`TelemetryPlane::on_transition`]
//! whenever the fault model changes a link's health, and
//! [`TelemetryPlane::sample`] on the periodic polling tick (switches
//! export counters every few seconds; we poll at a configurable period).
//! `sample` returns the alerts that fired this tick; the control plane
//! turns them into maintenance requests.

use dcmaint_dcnet::{LinkId, NetState, Topology};
use dcmaint_des::{SimDuration, SimTime};

use crate::counters::LinkCounters;
use crate::detect::{Alert, Detector};

/// Fleet-wide telemetry state.
#[derive(Debug)]
pub struct TelemetryPlane {
    counters: Vec<LinkCounters>,
    detectors: Vec<Detector>,
    /// Polling period (drives EWMA timescale interpretation).
    pub poll_period: SimDuration,
}

// One counters + detector pair per link; the detectors share the
// counters' length prefix.
dcmaint_ckpt::persist!(TelemetryPlane {
    poll_period,
    counters with dcmaint_ckpt::fixed_len,
    detectors with dcmaint_ckpt::unprefixed,
});

impl TelemetryPlane {
    /// New plane for `topo` with default detectors and a 15 s poll.
    pub fn new(topo: &Topology) -> Self {
        Self::with_config(topo, SimDuration::from_secs(15), Detector::default())
    }

    /// New plane with explicit poll period and detector template.
    pub fn with_config(topo: &Topology, poll_period: SimDuration, detector: Detector) -> Self {
        let n = topo.link_count();
        TelemetryPlane {
            counters: (0..n)
                .map(|_| LinkCounters::new(SimDuration::from_mins(30)))
                .collect(),
            detectors: vec![detector; n],
            poll_period,
        }
    }

    /// Counters for one link.
    pub fn counters(&mut self, l: LinkId) -> &mut LinkCounters {
        &mut self.counters[l.index()]
    }

    /// Immutable counters access.
    pub fn counters_ref(&self, l: LinkId) -> &LinkCounters {
        &self.counters[l.index()]
    }

    /// Notify of a health transition on a link (flap edge, down, up).
    pub fn on_transition(&mut self, l: LinkId, now: SimTime) {
        self.counters[l.index()].record_transition(now);
    }

    /// Notify that an incident was opened (feature bookkeeping).
    pub fn on_incident(&mut self, l: LinkId) {
        self.counters[l.index()].record_incident();
    }

    /// Notify that maintenance completed and verified on a link.
    pub fn on_maintenance(&mut self, l: LinkId, now: SimTime) {
        self.counters[l.index()].record_maintenance(now);
        self.detectors[l.index()].rearm();
    }

    /// Poll every link once: record loss samples from the live state and
    /// evaluate detectors. Returns alerts raised this tick.
    pub fn sample(&mut self, topo: &Topology, state: &NetState, now: SimTime) -> Vec<Alert> {
        let mut alerts = Vec::new();
        for l in topo.link_ids() {
            let loss = state.link(l).loss_rate;
            let c = &mut self.counters[l.index()];
            c.record_sample(now, loss);
            if let Some(a) = self.detectors[l.index()].evaluate(l, c, loss, now) {
                alerts.push(a);
            }
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::AlertKind;
    use dcmaint_dcnet::gen::leaf_spine;
    use dcmaint_dcnet::{DiversityProfile, LinkHealth};
    use dcmaint_des::SimRng;

    fn setup() -> (Topology, NetState, TelemetryPlane) {
        let t = leaf_spine(
            2,
            2,
            2,
            1,
            DiversityProfile::standardized(),
            &SimRng::root(1),
        );
        let s = NetState::new(&t);
        let p = TelemetryPlane::new(&t);
        (t, s, p)
    }

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn healthy_fabric_is_silent() {
        let (t, s, mut p) = setup();
        for i in 0..20 {
            assert!(p.sample(&t, &s, at(i * 15)).is_empty());
        }
    }

    #[test]
    fn down_link_alerts_once() {
        let (t, mut s, mut p) = setup();
        s.set_health(LinkId(0), LinkHealth::Down, 1.0);
        let a = p.sample(&t, &s, at(0));
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].kind, AlertKind::LinkDown);
        assert_eq!(a[0].link, LinkId(0));
        // Hysteresis: next tick silent.
        assert!(p.sample(&t, &s, at(15)).is_empty());
    }

    #[test]
    fn gray_loss_detected_after_a_few_samples() {
        let (t, mut s, mut p) = setup();
        s.set_health(LinkId(1), LinkHealth::Degraded, 0.01);
        let mut fired = false;
        for i in 0..10 {
            if !p.sample(&t, &s, at(i * 15)).is_empty() {
                fired = true;
                break;
            }
        }
        assert!(fired);
    }

    #[test]
    fn maintenance_rearms_and_clears() {
        let (t, mut s, mut p) = setup();
        s.set_health(LinkId(0), LinkHealth::Down, 1.0);
        assert_eq!(p.sample(&t, &s, at(0)).len(), 1);
        // Repair completes; link healthy; detectors re-armed.
        s.set_health(LinkId(0), LinkHealth::Up, 0.0);
        p.on_maintenance(LinkId(0), at(300));
        // Fails again later — alert fires again immediately.
        s.set_health(LinkId(0), LinkHealth::Down, 1.0);
        assert_eq!(p.sample(&t, &s, at(600)).len(), 1);
    }

    #[test]
    fn flap_transitions_surface_as_flap_alert() {
        let (t, mut s, mut p) = setup();
        // Simulate Gilbert-Elliott edges arriving via on_transition; loss
        // stays low in Good phase when sampled.
        s.set_health(LinkId(2), LinkHealth::Flapping, 0.0001);
        for i in 0..5 {
            p.on_transition(LinkId(2), at(i * 60));
        }
        let alerts = p.sample(&t, &s, at(301));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::Flapping);
    }

    #[test]
    fn incident_bookkeeping_reaches_counters() {
        let (_t, _s, mut p) = setup();
        p.on_incident(LinkId(3));
        p.on_incident(LinkId(3));
        assert_eq!(p.counters(LinkId(3)).incidents_total(), 2);
    }
}
