//! Controller-side recovery for maintenance-plane faults: watchdogs,
//! bounded retry backoff, and the degradation ladder down to humans.
//!
//! The paper's §3.3.1 ("retry and ultimately escalate to a human") and
//! §3.4 (who maintains the maintainer?) imply the control plane cannot
//! trust its own executors: operations stall without announcing it,
//! dispatch messages get lost, robots abort mid-extraction. This module
//! supplies the three mechanisms the engine composes:
//!
//! * [`WatchdogConfig`] — a per-operation deadline derived from the
//!   *planned* phase durations (total plus margin × the p99 phase), so
//!   a stalled or silently-lost operation is detected without any
//!   cooperation from the robot;
//! * [`Backoff`] — bounded exponential retry delay with deterministic
//!   jitter (same seed → same schedule);
//! * [`RecoveryPolicy`] — the ladder: retry the same robot → reassign
//!   to another unit → fall back to a human ticket → queue until the
//!   fleet recovers. The engine must uphold the companion invariant
//!   that an aborted operation always releases its drain and its
//!   safety-zone claim (tested end-to-end in `tests/properties.rs`).

use dcmaint_des::{SimDuration, Stream};
use dcmaint_obs::{JVal, Journal};

/// Watchdog deadline policy.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Slack multiplier applied to the p99 planned phase duration. The
    /// operation is declared stuck once it overruns its planned total
    /// by `margin × p99(phase durations)`.
    pub margin: f64,
    /// Floor on the slack, so short plans are not declared dead by
    /// scheduling noise.
    pub min_slack: SimDuration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            margin: 3.0,
            min_slack: SimDuration::from_mins(2),
        }
    }
}

impl WatchdogConfig {
    /// The p99 of a set of planned phase durations (nearest-rank).
    pub fn p99_phase(phases: &[SimDuration]) -> SimDuration {
        if phases.is_empty() {
            return SimDuration::ZERO;
        }
        let mut sorted = phases.to_vec();
        sorted.sort();
        let rank = ((sorted.len() as f64) * 0.99).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// Deadline (measured from operation start) after which the
    /// watchdog fires: planned total + max(margin × p99 phase,
    /// min_slack).
    pub fn deadline(&self, phases: &[SimDuration]) -> SimDuration {
        let total = phases.iter().fold(SimDuration::ZERO, |acc, &d| acc + d);
        let slack = Self::p99_phase(phases)
            .mul_f64(self.margin)
            .max(self.min_slack);
        total + slack
    }
}

/// Bounded exponential backoff with jitter for retries.
#[derive(Debug, Clone)]
pub struct Backoff {
    /// First-retry delay.
    pub base: SimDuration,
    /// Multiplier per attempt.
    pub factor: f64,
    /// Ceiling on the un-jittered delay.
    pub cap: SimDuration,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            base: SimDuration::from_secs(30),
            factor: 2.0,
            cap: SimDuration::from_mins(30),
        }
    }
}

impl Backoff {
    /// Delay before retry number `attempt` (0-based), jittered to
    /// 50–150% of nominal with a draw from `rng` — deterministic for a
    /// given stream state.
    pub fn delay(&self, attempt: u32, rng: &mut Stream) -> SimDuration {
        let nominal = self
            .base
            .mul_f64(self.factor.powi(attempt.min(20) as i32))
            .min(self.cap);
        nominal.mul_f64(0.5 + rng.uniform())
    }
}

/// Escalating schedule for drain-defer retries: capped exponential
/// growth on top of a caller-supplied base step, with the same
/// deterministic 50–150% jitter as [`Backoff`].
///
/// The drain planner used to re-poll a congested link at a fixed
/// interval, which synchronizes retries across tickets and hammers the
/// same contended window. Exponential spacing with seeded jitter spreads
/// them out while staying replayable: the jitter draw comes from the
/// engine's checkpointed recovery stream, so a restored run re-issues
/// the identical schedule.
#[derive(Debug, Clone)]
pub struct DeferBackoff {
    /// Multiplier per deferral (1.0 reproduces the legacy fixed step).
    pub factor: f64,
    /// Ceiling on the un-jittered delay.
    pub cap: SimDuration,
}

impl Default for DeferBackoff {
    fn default() -> Self {
        DeferBackoff {
            factor: 1.35,
            cap: SimDuration::from_mins(90),
        }
    }
}

impl DeferBackoff {
    /// Delay before deferral number `attempt` (0-based) when the
    /// configured base step is `base`, jittered to 50–150% of nominal
    /// with a draw from `rng`.
    pub fn delay(&self, base: SimDuration, attempt: u32, rng: &mut Stream) -> SimDuration {
        let nominal = base
            .mul_f64(self.factor.powi(attempt.min(20) as i32))
            .min(self.cap.max(base));
        nominal.mul_f64(0.5 + rng.uniform())
    }
}

/// One rung of the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStep {
    /// Re-dispatch the same unit after backoff.
    RetrySameRobot,
    /// Book a different unit.
    ReassignOtherUnit,
    /// Open a human ticket (graceful degradation to L0 behavior).
    HumanTicket,
    /// Nothing can run now; park the ticket until a robot is repaired.
    QueueUntilFleetRecovers,
}

impl RecoveryStep {
    /// Short label for traces and tables.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryStep::RetrySameRobot => "retry-same",
            RecoveryStep::ReassignOtherUnit => "reassign",
            RecoveryStep::HumanTicket => "human-ticket",
            RecoveryStep::QueueUntilFleetRecovers => "queue",
        }
    }
}

/// Where one operation stands on the ladder.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryState {
    /// Retries already burned on the unit that failed.
    pub same_robot_retries: u32,
    /// Reassignments to a different unit already made.
    pub reassigns: u32,
}

dcmaint_ckpt::persist!(RecoveryState {
    same_robot_retries,
    reassigns,
});

/// The recovery policy: watchdog + backoff + ladder limits.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Master switch (the E14 ablation flag). Disabled: no watchdogs
    /// are armed and failed operations are simply abandoned.
    pub enabled: bool,
    /// Watchdog deadline policy.
    pub watchdog: WatchdogConfig,
    /// Retry backoff.
    pub backoff: Backoff,
    /// Drain-defer retry schedule (base step comes from the scenario's
    /// `defer_retry`).
    pub defer: DeferBackoff,
    /// Retries on the same unit before reassigning.
    pub max_same_robot_retries: u32,
    /// Reassignments before falling back to a human.
    pub max_reassigns: u32,
    /// Whether a human fallback exists (false models an unstaffed
    /// facility, where the ladder parks work until the fleet heals).
    pub humans_available: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            enabled: true,
            watchdog: WatchdogConfig::default(),
            backoff: Backoff::default(),
            defer: DeferBackoff::default(),
            max_same_robot_retries: 1,
            max_reassigns: 1,
            humans_available: true,
        }
    }
}

impl RecoveryPolicy {
    /// Decide the next rung after a failed robot attempt.
    ///
    /// * `state` — retries/reassigns burned so far on this ticket;
    /// * `failed_unit_usable` — the failing unit is not Down (a stall
    ///   or hard breakdown skips the retry-same rung);
    /// * `other_unit_available` — some other unit can reach the rack
    ///   and is not Down.
    pub fn next_step(
        &self,
        state: RecoveryState,
        failed_unit_usable: bool,
        other_unit_available: bool,
    ) -> RecoveryStep {
        if failed_unit_usable && state.same_robot_retries < self.max_same_robot_retries {
            return RecoveryStep::RetrySameRobot;
        }
        if other_unit_available && state.reassigns < self.max_reassigns {
            return RecoveryStep::ReassignOtherUnit;
        }
        if self.humans_available {
            return RecoveryStep::HumanTicket;
        }
        RecoveryStep::QueueUntilFleetRecovers
    }

    /// [`RecoveryPolicy::next_step`] plus a journal record of the
    /// decision and the ladder state it was made from. Identical
    /// control flow — the journal is a pure observer.
    pub fn next_step_logged(
        &self,
        state: RecoveryState,
        failed_unit_usable: bool,
        other_unit_available: bool,
        journal: &Journal,
    ) -> RecoveryStep {
        let step = self.next_step(state, failed_unit_usable, other_unit_available);
        journal.emit(
            "recovery-step",
            &[
                ("step", JVal::S(step.label())),
                ("retries", JVal::U(u64::from(state.same_robot_retries))),
                ("reassigns", JVal::U(u64::from(state.reassigns))),
                ("unit_usable", JVal::B(failed_unit_usable)),
                ("other_available", JVal::B(other_unit_available)),
            ],
        );
        step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmaint_des::SimRng;

    fn rng() -> Stream {
        SimRng::root(3).stream("recovery", 0)
    }

    fn secs(v: &[u64]) -> Vec<SimDuration> {
        v.iter().map(|&s| SimDuration::from_secs(s)).collect()
    }

    #[test]
    fn deadline_exceeds_planned_total() {
        let w = WatchdogConfig::default();
        let phases = secs(&[30, 10, 8, 6, 10, 6, 45]);
        let total: u64 = 30 + 10 + 8 + 6 + 10 + 6 + 45;
        let d = w.deadline(&phases);
        assert!(d > SimDuration::from_secs(total));
        // Slack floor: even a trivial plan gets min_slack.
        let tiny = w.deadline(&secs(&[1]));
        assert!(tiny >= SimDuration::from_secs(1) + w.min_slack);
    }

    #[test]
    fn p99_phase_is_the_slowest_for_small_plans() {
        let phases = secs(&[5, 120, 30]);
        assert_eq!(
            WatchdogConfig::p99_phase(&phases),
            SimDuration::from_secs(120)
        );
        assert_eq!(WatchdogConfig::p99_phase(&[]), SimDuration::ZERO);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let b = Backoff::default();
        let mut r = rng();
        // Compare nominal midpoints by averaging out jitter.
        let mean = |attempt: u32, r: &mut Stream| -> f64 {
            (0..200)
                .map(|_| b.delay(attempt, r).as_secs_f64())
                .sum::<f64>()
                / 200.0
        };
        let d0 = mean(0, &mut r);
        let d2 = mean(2, &mut r);
        let d12 = mean(12, &mut r);
        assert!(d2 > 2.0 * d0, "exponential growth: {d0} {d2}");
        // Attempt 12 nominal would be 30 s * 4096 — capped at 30 min.
        assert!(d12 <= 30.0 * 60.0 * 1.5 + 1.0, "cap applies: {d12}");
    }

    #[test]
    fn backoff_is_deterministic_per_stream() {
        let b = Backoff::default();
        let mut a = rng();
        let mut c = rng();
        for attempt in 0..8 {
            assert_eq!(b.delay(attempt, &mut a), b.delay(attempt, &mut c));
        }
    }

    #[test]
    fn ladder_walks_retry_reassign_human_queue() {
        let p = RecoveryPolicy::default();
        let fresh = RecoveryState::default();
        assert_eq!(p.next_step(fresh, true, true), RecoveryStep::RetrySameRobot);
        let retried = RecoveryState {
            same_robot_retries: 1,
            reassigns: 0,
        };
        assert_eq!(
            p.next_step(retried, true, true),
            RecoveryStep::ReassignOtherUnit
        );
        let reassigned = RecoveryState {
            same_robot_retries: 1,
            reassigns: 1,
        };
        assert_eq!(
            p.next_step(reassigned, true, true),
            RecoveryStep::HumanTicket
        );
        let unstaffed = RecoveryPolicy {
            humans_available: false,
            ..RecoveryPolicy::default()
        };
        assert_eq!(
            unstaffed.next_step(reassigned, false, false),
            RecoveryStep::QueueUntilFleetRecovers
        );
    }

    #[test]
    fn logged_ladder_matches_and_journals() {
        let p = RecoveryPolicy::default();
        let j = Journal::enabled(8);
        let fresh = RecoveryState::default();
        let step = p.next_step_logged(fresh, true, true, &j);
        assert_eq!(step, p.next_step(fresh, true, true));
        let lines = j.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"ev\":\"recovery-step\""));
        assert!(lines[1].contains("\"step\":\"retry-same\""));
        // A disabled journal changes nothing.
        let silent = Journal::disabled();
        assert_eq!(
            p.next_step_logged(fresh, true, true, &silent),
            RecoveryStep::RetrySameRobot
        );
    }

    #[test]
    fn dead_unit_skips_the_retry_rung() {
        let p = RecoveryPolicy::default();
        let fresh = RecoveryState::default();
        assert_eq!(
            p.next_step(fresh, false, true),
            RecoveryStep::ReassignOtherUnit
        );
        assert_eq!(p.next_step(fresh, false, false), RecoveryStep::HumanTicket);
    }
}

/// Golden-value pins for the two retry schedules. These are not
/// behavioral tests: the exact microsecond values are part of the
/// determinism contract (a checkpointed run replays these draws), so
/// any change to the formula, the jitter window, or the stream
/// consumption order must show up here as a deliberate diff.
#[cfg(test)]
mod golden {
    use super::*;
    use dcmaint_des::SimRng;

    fn stream() -> Stream {
        SimRng::root(7).stream("golden", 0)
    }

    #[test]
    fn backoff_schedule_is_pinned() {
        let b = Backoff::default();
        let mut r = stream();
        let got: Vec<u64> = (0..8).map(|a| b.delay(a, &mut r).as_micros()).collect();
        assert_eq!(
            got,
            [
                21_014_498,    // attempt 0: 30 s nominal
                39_925_806,    // attempt 1: 60 s
                128_613_872,   // attempt 2: 120 s
                129_540_828,   // attempt 3: 240 s
                409_077_569,   // attempt 4: 480 s
                662_356_564,   // attempt 5: 960 s
                2_164_979_932, // attempt 6: capped at 30 min
                1_303_316_941, // attempt 7: capped, low jitter draw
            ],
            "Backoff schedule moved — this breaks replay of old seeds"
        );
    }

    #[test]
    fn defer_backoff_schedule_is_pinned() {
        let d = DeferBackoff::default();
        let mut r = stream();
        let base = SimDuration::from_mins(30);
        let got: Vec<u64> = (0..10)
            .map(|a| d.delay(base, a, &mut r).as_micros())
            .collect();
        assert_eq!(
            got,
            [
                1_260_869_896, // deferral 0: 30 min nominal
                1_616_995_154, // deferral 1: 40.5 min
                3_515_981_728, // deferral 2: ~54.7 min
                2_390_392_626, // deferral 3: ~73.8 min
                4_602_122_651, // deferral 4: capped at 90 min
                3_725_755_676, // deferral 5: capped
                6_494_939_798, // deferral 6: capped
                3_909_950_824, // deferral 7: capped
                6_212_239_042, // deferral 8: capped
                6_924_674_445, // deferral 9: capped
            ],
            "DeferBackoff schedule moved — this breaks replay of old seeds"
        );
    }

    #[test]
    fn defer_backoff_respects_cap_and_base_floor() {
        let d = DeferBackoff::default();
        let mut r = stream();
        // Nominal growth stops at the cap, so the jittered value never
        // exceeds 1.5 × cap…
        for attempt in 0..30 {
            let v = d.delay(SimDuration::from_mins(30), attempt, &mut r);
            assert!(v <= d.cap.mul_f64(1.5), "attempt {attempt}: {v}");
        }
        // …and a base above the cap is honored rather than truncated.
        let big = SimDuration::from_hours(8);
        let v = d.delay(big, 0, &mut r);
        assert!(v >= big.mul_f64(0.5) && v <= big.mul_f64(1.5));
    }

    #[test]
    fn factor_one_reproduces_the_legacy_fixed_step_nominal() {
        let d = DeferBackoff {
            factor: 1.0,
            ..DeferBackoff::default()
        };
        let base = SimDuration::from_mins(30);
        let mut a = stream();
        let mut b = stream();
        for attempt in 0..6 {
            // Same draw, same nominal: only the jitter varies per call.
            let v = d.delay(base, attempt, &mut a);
            let w = base.mul_f64(0.5 + b.uniform());
            assert_eq!(v, w, "attempt {attempt}");
        }
    }
}
