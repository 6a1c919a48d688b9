//! Failure detectors: from counters to alerts.
//!
//! Three detectors mirror how fleets actually catch the §1 failure
//! classes:
//!
//! * [`Detector::evaluate`] hard-down — the link reports no light/carrier
//!   (loss ≈ 1) for one sample: immediate, high-severity alert.
//! * flap detection — ≥ `flap_threshold` transitions within the history
//!   window. Hysteresis (a cleared flag that re-arms only after a quiet
//!   period) prevents one flap episode from spawning a ticket storm —
//!   the false-positive amplification §2 wants to manage.
//! * gray detection — loss EWMA above `gray_loss` while the link still
//!   carries traffic: the "Achilles' heel" gray failure.

use dcmaint_dcnet::LinkId;
use dcmaint_des::{SimDuration, SimTime};

use crate::counters::LinkCounters;

/// What kind of misbehavior an alert reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlertKind {
    /// Link hard down.
    LinkDown,
    /// Link flapping (repeated transitions).
    Flapping,
    /// Elevated steady loss while up.
    GrayLoss,
}

impl AlertKind {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            AlertKind::LinkDown => "down",
            AlertKind::Flapping => "flap",
            AlertKind::GrayLoss => "gray",
        }
    }
}

/// An alert raised against a link.
#[derive(Debug, Clone)]
pub struct Alert {
    /// Affected link.
    pub link: LinkId,
    /// Failure class detected.
    pub kind: AlertKind,
    /// When raised.
    pub at: SimTime,
    /// Severity in `[0, 1]` (drives ticket priority).
    pub severity: f64,
}

/// Per-link detector state machine with hysteresis.
#[derive(Debug, Clone)]
pub struct Detector {
    /// Loss EWMA above which a gray alert fires.
    pub gray_loss: f64,
    /// Transition count within the counter window that constitutes a flap.
    pub flap_threshold: usize,
    /// Quiet period before a cleared condition may alert again.
    pub rearm_after: SimDuration,
    armed: bool,
    last_fire: Option<SimTime>,
}

impl Default for Detector {
    fn default() -> Self {
        Detector {
            gray_loss: 5e-4,
            flap_threshold: 4,
            rearm_after: SimDuration::from_mins(30),
            armed: true,
            last_fire: None,
        }
    }
}

dcmaint_ckpt::persist!(Detector {
    gray_loss,
    flap_threshold,
    rearm_after,
    armed,
    last_fire,
});

impl Detector {
    /// Evaluate the detectors against current counters and instantaneous
    /// loss; returns at most one alert (highest-severity condition wins).
    pub fn evaluate(
        &mut self,
        link: LinkId,
        counters: &mut LinkCounters,
        instant_loss: f64,
        now: SimTime,
    ) -> Option<Alert> {
        if !self.armed {
            // Re-arm after a quiet period. Purely time-based: if the same
            // episode is still ongoing after the hold-off, firing again is
            // correct (it is a re-escalation, not a storm).
            let quiet = self
                .last_fire
                .is_none_or(|t| now.since(t) >= self.rearm_after);
            if quiet {
                self.armed = true;
            } else {
                return None;
            }
        }
        let alert = if instant_loss >= 0.999 {
            Some(Alert {
                link,
                kind: AlertKind::LinkDown,
                at: now,
                severity: 1.0,
            })
        } else if counters.recent_transitions(now) >= self.flap_threshold {
            Some(Alert {
                link,
                kind: AlertKind::Flapping,
                at: now,
                severity: 0.7,
            })
        } else if counters.loss_ewma() >= self.gray_loss {
            let sev = 0.3 + 0.4 * (counters.loss_ewma().min(0.05) / 0.05);
            Some(Alert {
                link,
                kind: AlertKind::GrayLoss,
                at: now,
                severity: sev,
            })
        } else {
            None
        };
        if alert.is_some() {
            self.armed = false;
            self.last_fire = Some(now);
        }
        alert
    }

    /// Force re-arm (after maintenance verified the link healthy).
    pub fn rearm(&mut self) {
        self.armed = true;
        self.last_fire = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn setup() -> (Detector, LinkCounters) {
        (
            Detector::default(),
            LinkCounters::new(SimDuration::from_mins(30)),
        )
    }

    #[test]
    fn down_fires_immediately() {
        let (mut d, mut c) = setup();
        let a = d.evaluate(LinkId(0), &mut c, 1.0, t(1)).unwrap();
        assert_eq!(a.kind, AlertKind::LinkDown);
        assert_eq!(a.severity, 1.0);
    }

    #[test]
    fn gray_needs_sustained_loss() {
        let (mut d, mut c) = setup();
        // One sample is not enough to push EWMA over threshold at alpha=0.3
        // only if loss small; feed sustained 1% loss.
        c.record_sample(t(0), 0.01);
        assert!(d.evaluate(LinkId(0), &mut c, 0.01, t(0)).is_some());
    }

    #[test]
    fn clean_link_never_alerts() {
        let (mut d, mut c) = setup();
        for i in 0..100 {
            c.record_sample(t(i), 0.0);
            assert!(d.evaluate(LinkId(0), &mut c, 0.0, t(i)).is_none());
        }
    }

    #[test]
    fn flap_detector_counts_transitions() {
        let (mut d, mut c) = setup();
        for i in 0..3 {
            c.record_transition(t(i * 10));
        }
        assert!(d.evaluate(LinkId(0), &mut c, 0.0, t(30)).is_none());
        c.record_transition(t(40));
        let a = d.evaluate(LinkId(0), &mut c, 0.0, t(40)).unwrap();
        assert_eq!(a.kind, AlertKind::Flapping);
    }

    #[test]
    fn hysteresis_blocks_ticket_storm() {
        let (mut d, mut c) = setup();
        for i in 0..6 {
            c.record_transition(t(i));
        }
        assert!(d.evaluate(LinkId(0), &mut c, 0.0, t(6)).is_some());
        // Continued flapping does NOT fire again immediately.
        for i in 7..20 {
            c.record_transition(t(i));
            assert!(d.evaluate(LinkId(0), &mut c, 0.0, t(i)).is_none());
        }
    }

    #[test]
    fn rearms_after_quiet_period() {
        let (mut d, mut c) = setup();
        c.record_sample(t(0), 0.01);
        assert!(d.evaluate(LinkId(0), &mut c, 0.01, t(0)).is_some());
        // Inside the hold-off even a hard-down reading stays silent.
        assert!(d.evaluate(LinkId(0), &mut c, 1.0, t(1)).is_none());
        // 31 minutes later, telemetry clean again (e.g. self-healed, then
        // a new incident). EWMA decayed via clean samples.
        for i in 1..60 {
            c.record_sample(t(i * 40), 0.0);
        }
        // Quiet + clean → re-armed; a new hard-down fires.
        let a = d.evaluate(LinkId(0), &mut c, 1.0, t(40 * 60));
        assert!(a.is_some());
    }

    #[test]
    fn manual_rearm_after_maintenance() {
        let (mut d, mut c) = setup();
        c.record_sample(t(0), 1.0);
        assert!(d.evaluate(LinkId(0), &mut c, 1.0, t(0)).is_some());
        d.rearm();
        assert!(d.evaluate(LinkId(0), &mut c, 1.0, t(1)).is_some());
    }

    #[test]
    fn down_outranks_flap() {
        let (mut d, mut c) = setup();
        for i in 0..10 {
            c.record_transition(t(i));
        }
        let a = d.evaluate(LinkId(0), &mut c, 1.0, t(10)).unwrap();
        assert_eq!(a.kind, AlertKind::LinkDown);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        // The hysteresis invariant §2 motivates: however a single flap
        // episode is shaped — any number of transitions (at or past the
        // flap threshold), any spacing — it produces exactly ONE alert,
        // never a ticket storm. The episode is kept shorter than the
        // 30-minute re-arm hold-off so the detector cannot legitimately
        // re-escalate mid-episode (40 transitions × ≤30 s ≤ 20 min).
        #[test]
        fn one_flap_episode_yields_exactly_one_alert(
            gaps in proptest::prop::collection::vec(1u64..31, 4..41),
        ) {
            let (mut d, mut c) = setup();
            let mut now_s = 0u64;
            let mut alerts = 0usize;
            let mut first_at = None;
            for (i, gap) in gaps.iter().enumerate() {
                now_s += gap;
                c.record_transition(t(now_s));
                if let Some(a) = d.evaluate(LinkId(0), &mut c, 0.0, t(now_s)) {
                    proptest::prop_assert_eq!(a.kind, AlertKind::Flapping);
                    alerts += 1;
                    first_at = first_at.or(Some(i));
                }
            }
            proptest::prop_assert_eq!(alerts, 1);
            // It fired the moment the threshold was crossed (4th
            // transition, index 3) — not late, not early.
            proptest::prop_assert_eq!(first_at, Some(3));
            // Still disarmed: a hard-down reading right after is held off.
            proptest::prop_assert!(d.evaluate(LinkId(0), &mut c, 1.0, t(now_s + 1)).is_none());
        }
    }

    #[test]
    fn gray_severity_scales_with_loss() {
        let (mut d1, mut c1) = setup();
        let (mut d2, mut c2) = setup();
        for i in 0..20 {
            c1.record_sample(t(i), 0.001);
            c2.record_sample(t(i), 0.04);
        }
        let a1 = d1.evaluate(LinkId(0), &mut c1, 0.001, t(20)).unwrap();
        let a2 = d2.evaluate(LinkId(1), &mut c2, 0.04, t(20)).unwrap();
        assert!(a2.severity > a1.severity);
    }
}
