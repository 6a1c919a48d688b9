//! # dcmaint-autonomic — a MAPE-K control plane for the maintenance plane
//!
//! The paper's §4 controller does not just execute repairs; it *adapts
//! its own policy* as the fleet ages and the failure mix shifts. This
//! crate is that loop, in the classic MAPE-K shape ("The Vision of
//! Autonomic Computing"; Feamster & Rexford's self-running networks):
//!
//! * **Monitor** — incremental windows over the engine's
//!   [`ObsRegistry`] via [`ObsRegistry::read_window`]: ticket-open
//!   counts, close outcomes, and the service-window histograms, read as
//!   deltas each tick with no full-registry re-scan.
//! * **Analyze** — **K**nowledge as online [`Beta`] posteriors of
//!   repair efficacy per cause×action (plus policy-visible per-action
//!   marginals), and a fast/slow EWMA pair over the incident rate whose
//!   ratio is the failure-mix drift detector.
//! * **Plan** — bounded moves on three knobs: the robot-concurrency
//!   cap (E10 fleet sizing), the proactive-campaign trigger (C6), and
//!   the right-provisioning spare margin (E5/C7, advisory). Guardrails:
//!   one knob move per tick, step size ≤ [`AutonomicConfig::max_step`],
//!   hysteresis streaks before acting, a cooldown after every move, and
//!   rollback when backlog pressure regresses after a move.
//! * **Execute** — the plan is returned as [`Directive`]s; the engine
//!   applies them through the existing controller and journals each as
//!   a traced event, so every adaptation is visible in `selfmaint
//!   trace`.
//!
//! Determinism is load-bearing: the loop draws **exactly one** RNG
//! value per tick from its named engine stream (the exploration gate),
//! every estimator is exact arithmetic, and the whole state — including
//! the monitor's cursor baselines — snapshots through `ckpt` so
//! restore ≡ continuous holds with the loop running.

#![warn(missing_docs)]

use std::collections::BTreeMap;

use dcmaint_des::{SimDuration, Stream};
use dcmaint_metrics::Beta;
use dcmaint_obs::{ObsRegistry, RegistryCursor};

/// Knob label: robot-concurrency cap (how many robot repairs may run
/// at once before dispatch falls back to humans).
pub const KNOB_FLEET_CAP: &str = "fleet-cap";
/// Knob label: proactive-campaign trigger count (`core::proactive`).
pub const KNOB_PROACTIVE_TRIGGER: &str = "proactive-trigger";
/// Knob label: advised right-provisioning spare margin
/// (`core::provision`).
pub const KNOB_PROVISION_SPARES: &str = "provision-spares";

/// Posterior 95%-interval width below which a posterior counts as
/// converged in reports.
pub const CONVERGED_WIDTH: f64 = 0.30;

/// Configuration of the MAPE-K loop. Carried inside the scenario
/// config, so it participates in the config fingerprint automatically.
#[derive(Debug, Clone)]
pub struct AutonomicConfig {
    /// Loop period (one Monitor→Execute pass per tick).
    pub tick_period: SimDuration,
    /// Robot-concurrency cap the loop starts from.
    pub fleet_cap_start: usize,
    /// Guardrail: the cap may never be tuned above this.
    pub fleet_cap_max: usize,
    /// Guardrail: largest knob change in a single move.
    pub max_step: usize,
    /// Guardrail: consecutive pressure ticks required before a move.
    pub hysteresis_ticks: u32,
    /// Guardrail: ticks after a move before the next move.
    pub cooldown_ticks: u32,
    /// Guardrail: ticks after a move before its regression check.
    pub eval_ticks: u32,
    /// Guardrail: roll a move back when backlog pressure exceeds
    /// `baseline × tolerance + 2` at evaluation time.
    pub rollback_tolerance: f64,
    /// Efficacy prior pseudo-successes (per cause×action posterior).
    pub prior_alpha: f64,
    /// Efficacy prior pseudo-failures.
    pub prior_beta: f64,
    /// Observations (beyond the prior) before a posterior may steer a
    /// decision.
    pub min_posterior_weight: f64,
    /// Fast/slow incident-rate EWMA ratio that declares upward drift.
    pub drift_up: f64,
    /// Ratio below which the mix is declared quiet.
    pub drift_down: f64,
    /// Per-tick probability of an exploration move while quiet (active
    /// learning for the campaign posterior). The gate draws exactly one
    /// RNG value per tick whether or not it fires.
    pub explore_prob: f64,
    /// Lower bound for the proactive trigger knob.
    pub proactive_trigger_min: usize,
    /// Upper bound (and starting value) for the proactive trigger knob.
    pub proactive_trigger_max: usize,
    /// `k` of the k-of-n provisioning advice.
    pub provision_k: usize,
    /// Availability target of the provisioning advice.
    pub provision_target: f64,
    /// MTBF prior used until the window has seen failures.
    pub prior_mtbf: SimDuration,
    /// MTTR prior used until the window has seen closed repairs.
    pub prior_mttr: SimDuration,
}

impl Default for AutonomicConfig {
    fn default() -> Self {
        AutonomicConfig {
            tick_period: SimDuration::from_hours(6),
            fleet_cap_start: 2,
            fleet_cap_max: 16,
            max_step: 1,
            hysteresis_ticks: 2,
            cooldown_ticks: 4,
            eval_ticks: 4,
            rollback_tolerance: 1.5,
            prior_alpha: 1.0,
            prior_beta: 1.0,
            min_posterior_weight: 10.0,
            drift_up: 1.3,
            drift_down: 0.7,
            explore_prob: 0.05,
            proactive_trigger_min: 2,
            proactive_trigger_max: 3,
            provision_k: 4,
            provision_target: 0.9999,
            prior_mtbf: SimDuration::from_days(30),
            prior_mttr: SimDuration::from_days(1),
        }
    }
}

/// Engine-side facts for one tick that the registry cannot carry:
/// instantaneous backlog and fleet saturation.
#[derive(Debug, Clone, Copy)]
pub struct TickContext {
    /// Simulated time since the previous tick.
    pub elapsed: SimDuration,
    /// Open tickets right now (the backlog-pressure signal).
    pub open_tickets: u64,
    /// Robot repairs in flight right now.
    pub robots_busy: u64,
    /// Fabric link count (normalizes per-link rates).
    pub links: u64,
}

/// One planned adaptation, returned by [`Mape::tick`] for the engine to
/// execute and journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Directive {
    /// Move a knob from `from` to `to` (already reflected in the
    /// loop's own state; the engine mirrors it into the controller).
    Knob {
        /// Which knob ([`KNOB_FLEET_CAP`], …).
        knob: &'static str,
        /// Value before the move.
        from: u64,
        /// Value after the move.
        to: u64,
    },
    /// Revert a regressed move (guardrail). Same execution path as
    /// [`Directive::Knob`], distinct so journals and reports can count
    /// rollbacks.
    Rollback {
        /// Which knob.
        knob: &'static str,
        /// Value being rolled back.
        from: u64,
        /// Restored value.
        to: u64,
    },
    /// Re-anchor the predictive scorer's intercept to the observed
    /// per-link incident rate (`Predictor::reprior`).
    Reprior {
        /// Observed incidents per link per day (fast EWMA).
        rate_per_link_day: f64,
    },
}

/// A move awaiting its regression evaluation.
#[derive(Debug, Clone, Copy)]
struct LastMove {
    knob: &'static str,
    prev: u64,
    at_tick: u64,
    baseline_pressure: f64,
}

dcmaint_ckpt::persist!(LastMove {
    knob,
    prev,
    at_tick,
    baseline_pressure,
});

/// The MAPE-K loop state: knowledge, knobs, guardrail bookkeeping, and
/// the monitor cursor. Everything here snapshots through its
/// [`Persist`](dcmaint_ckpt::Persist) impl (config excluded — the
/// restoring side rebuilds from the same [`AutonomicConfig`], and the
/// *tuned* knob values live here, not in the config). After a restore
/// the caller re-applies the restored knob values to the live
/// controller (e.g. `ProactivePlanner::set_trigger_count`).
#[derive(Debug)]
pub struct Mape {
    cfg: AutonomicConfig,
    cursor: RegistryCursor,
    /// Efficacy posteriors per (cause label, action label) — knowledge
    /// for reports and post-hoc attribution.
    posteriors: BTreeMap<(&'static str, &'static str), Beta>,
    /// Policy-visible per-action marginals (a dispatcher never knows
    /// the cause of a fresh ticket; decisions use these only).
    marginals: BTreeMap<&'static str, Beta>,
    fast_ewma: f64,
    slow_ewma: f64,
    fleet_cap: u64,
    proactive_trigger: u64,
    provision_spares: u64,
    pressure_streak: u32,
    cooldown_until: u64,
    last_move: Option<LastMove>,
    // Cumulative observed-rate inputs for provisioning advice.
    cum_elapsed_us: u64,
    cum_incidents: u64,
    cum_window_us: u64,
    cum_windows: u64,
    ticks: u64,
    decisions: u64,
    applied: u64,
    rollbacks: u64,
}

dcmaint_ckpt::persist!(Mape {
    cursor,
    posteriors,
    marginals,
    fast_ewma,
    slow_ewma,
    fleet_cap,
    proactive_trigger,
    provision_spares,
    pressure_streak,
    cooldown_until,
    last_move,
    cum_elapsed_us,
    cum_incidents,
    cum_window_us,
    cum_windows,
    ticks,
    decisions,
    applied,
    rollbacks,
} skip {
    cfg: "rebuilt from the scenario's AutonomicConfig",
});

impl Mape {
    /// Fresh loop state from config: knobs at their starting values,
    /// empty knowledge, cursor at zero.
    pub fn new(cfg: AutonomicConfig) -> Self {
        let fleet_cap = cfg.fleet_cap_start.max(1) as u64;
        let proactive_trigger = cfg.proactive_trigger_max.max(1) as u64;
        Mape {
            cfg,
            cursor: RegistryCursor::default(),
            posteriors: BTreeMap::new(),
            marginals: BTreeMap::new(),
            fast_ewma: 0.0,
            slow_ewma: 0.0,
            fleet_cap,
            proactive_trigger,
            provision_spares: 0,
            pressure_streak: 0,
            cooldown_until: 0,
            last_move: None,
            cum_elapsed_us: 0,
            cum_incidents: 0,
            cum_window_us: 0,
            cum_windows: 0,
            ticks: 0,
            decisions: 0,
            applied: 0,
            rollbacks: 0,
        }
    }

    /// Current robot-concurrency cap (the engine consults this at every
    /// dispatch).
    pub fn fleet_cap(&self) -> usize {
        self.fleet_cap as usize
    }

    /// Current proactive-campaign trigger (the engine mirrors this into
    /// `ProactivePlanner` after every change *and* after a restore —
    /// the planner's own save deliberately excludes config).
    pub fn proactive_trigger(&self) -> usize {
        self.proactive_trigger as usize
    }

    /// Latest advised spare margin.
    pub fn provision_spares(&self) -> usize {
        self.provision_spares as usize
    }

    /// Ticks run.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Directives emitted (knob moves + rollbacks + repriors).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Knob moves applied (excluding rollbacks).
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Guardrail rollbacks taken.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// Fold one observed repair outcome into the knowledge base.
    /// `cause` is the diagnosed root cause (visible post-repair),
    /// `action` the attempted repair, `fixed` whether verification held.
    pub fn observe_repair(&mut self, cause: &'static str, action: &'static str, fixed: bool) {
        let prior = Beta::new(self.cfg.prior_alpha, self.cfg.prior_beta);
        self.posteriors
            .entry((cause, action))
            .or_insert(prior)
            .observe(fixed);
        self.marginals.entry(action).or_insert(prior).observe(fixed);
    }

    /// Policy-visible efficacy of `action` marginalized over causes:
    /// `(posterior mean, observations beyond the prior)`.
    pub fn action_marginal(&self, action: &str) -> Option<(f64, f64)> {
        let prior_w = self.cfg.prior_alpha + self.cfg.prior_beta;
        self.marginals
            .get(action)
            .map(|b| (b.mean(), b.weight() - prior_w))
    }

    /// Whether `action` has enough evidence *and* a posterior mean
    /// below `floor` — the twin planner uses this to prune candidate
    /// branches that the fleet's own history says are near-useless.
    pub fn action_discredited(&self, action: &str, floor: f64) -> bool {
        match self.action_marginal(action) {
            Some((mean, w)) => w >= self.cfg.min_posterior_weight && mean < floor,
            None => false,
        }
    }

    /// `(converged, total)` posterior counts at the standard
    /// [`CONVERGED_WIDTH`].
    pub fn convergence(&self) -> (u64, u64) {
        let total = self.posteriors.len() as u64;
        let converged = self
            .posteriors
            .values()
            .filter(|b| b.ci95_width() <= CONVERGED_WIDTH)
            .count() as u64;
        (converged, total)
    }

    /// One full Monitor→Analyze→Plan pass. Reads the registry window
    /// through the owned cursor, updates the drift estimators, and
    /// returns the directives to execute. Draws exactly one value from
    /// `rng` per call (the exploration gate), so the stream position is
    /// a pure function of the tick count.
    pub fn tick(
        &mut self,
        registry: &ObsRegistry,
        ctx: TickContext,
        rng: &mut Stream,
    ) -> Vec<Directive> {
        self.ticks += 1;
        let explore = rng.chance(self.cfg.explore_prob);

        // ---- Monitor: incremental registry window -------------------
        let w = registry.read_window(&mut self.cursor);
        let opened = w.counter("ticket/opened");
        let mut dwin_us: u64 = 0;
        let mut dwin_n: u64 = 0;
        for h in w.hists {
            if h.family == "window" {
                dwin_us = dwin_us.saturating_add(h.sum_us);
                dwin_n += h.total;
            }
        }
        self.cum_elapsed_us = self.cum_elapsed_us.saturating_add(ctx.elapsed.as_micros());
        self.cum_incidents += opened;
        self.cum_window_us = self.cum_window_us.saturating_add(dwin_us);
        self.cum_windows += dwin_n;

        // ---- Analyze: drift estimators ------------------------------
        let days = ctx.elapsed.as_secs_f64() / 86_400.0;
        let rate = if days > 0.0 {
            opened as f64 / days
        } else {
            0.0
        };
        self.fast_ewma += 0.5 * (rate - self.fast_ewma);
        self.slow_ewma += 0.1 * (rate - self.slow_ewma);
        let warm = self.ticks > 8 && self.slow_ewma > 0.0;
        let drifting = warm && self.fast_ewma > self.cfg.drift_up * self.slow_ewma;
        let quiet = warm && self.fast_ewma < self.cfg.drift_down * self.slow_ewma;
        let pressure = ctx.open_tickets as f64;

        let mut out = Vec::new();

        // ---- Guardrail: regression evaluation of the last move ------
        if let Some(mv) = self.last_move {
            if self.ticks - mv.at_tick >= u64::from(self.cfg.eval_ticks) {
                self.last_move = None;
                if pressure > mv.baseline_pressure * self.cfg.rollback_tolerance + 2.0 {
                    let from = self.knob_value(mv.knob);
                    self.set_knob(mv.knob, mv.prev);
                    self.rollbacks += 1;
                    self.decisions += 1;
                    // Penalize the direction: a long cooldown before the
                    // loop may try again.
                    self.cooldown_until =
                        self.ticks + 4 * u64::from(self.cfg.cooldown_ticks.max(1));
                    out.push(Directive::Rollback {
                        knob: mv.knob,
                        from,
                        to: mv.prev,
                    });
                    return out;
                }
            }
        }

        // ---- Plan: zero-blast-radius outputs first ------------------
        // Predictive reprior: pure estimator nudge, no rollback needed.
        if drifting && self.ticks.is_multiple_of(4) && ctx.links > 0 {
            self.decisions += 1;
            out.push(Directive::Reprior {
                rate_per_link_day: self.fast_ewma / ctx.links as f64,
            });
        }
        // Provisioning margin: advisory output recomputed from observed
        // MTBF/MTTR whenever it changes.
        if ctx.links > 0 && self.ticks.is_multiple_of(4) {
            let (mtbf, mttr) = maintctl::provision::observed_rates(
                SimDuration::from_micros(
                    (self.cum_elapsed_us as u128 * ctx.links as u128).min(u64::MAX as u128) as u64,
                ),
                self.cum_incidents,
                SimDuration::from_micros(self.cum_window_us),
                self.cum_windows,
                self.cfg.prior_mtbf,
                self.cfg.prior_mttr,
            );
            let advice = maintctl::provision::advise(
                mtbf,
                mttr,
                self.cfg.provision_k,
                self.cfg.provision_target,
            );
            let spares = advice.spares as u64;
            if spares != self.provision_spares {
                let from = self.provision_spares;
                self.provision_spares = spares;
                self.decisions += 1;
                self.applied += 1;
                out.push(Directive::Knob {
                    knob: KNOB_PROVISION_SPARES,
                    from,
                    to: spares,
                });
            }
        }

        // ---- Guardrail: cooldown gates the blast-radius knobs -------
        if self.ticks < self.cooldown_until {
            return out;
        }

        // ---- Plan: robot-concurrency cap ----------------------------
        let saturated = ctx.robots_busy >= self.fleet_cap && ctx.open_tickets > 0;
        if saturated {
            self.pressure_streak += 1;
        } else {
            self.pressure_streak = 0;
        }
        if self.pressure_streak >= self.cfg.hysteresis_ticks
            && self.fleet_cap < self.cfg.fleet_cap_max as u64
        {
            let to = (self.fleet_cap + self.cfg.max_step.max(1) as u64)
                .min(self.cfg.fleet_cap_max as u64);
            out.push(self.move_knob(KNOB_FLEET_CAP, to, pressure));
            return out;
        }

        // ---- Plan: proactive-campaign trigger -----------------------
        // Reseat campaigns only help if reseats actually fix things —
        // gate on the policy-visible marginal posterior.
        let reseat_ok = self
            .action_marginal("reseat")
            .map(|(m, w)| w >= self.cfg.min_posterior_weight && m >= 0.4)
            .unwrap_or(false);
        let t_min = self.cfg.proactive_trigger_min.max(1) as u64;
        let t_max = self.cfg.proactive_trigger_max.max(1) as u64;
        if drifting && reseat_ok && self.proactive_trigger > t_min {
            let to = self
                .proactive_trigger
                .saturating_sub(self.cfg.max_step.max(1) as u64)
                .max(t_min);
            out.push(self.move_knob(KNOB_PROACTIVE_TRIGGER, to, pressure));
        } else if explore
            && quiet
            && !reseat_ok
            && self.proactive_trigger > t_min
            && self.marginals.get("reseat").is_none_or(|b| {
                b.weight() - (self.cfg.prior_alpha + self.cfg.prior_beta)
                    < self.cfg.min_posterior_weight
            })
        {
            // Exploration: during quiet spells, buy campaign evidence.
            let to = self.proactive_trigger - 1;
            out.push(self.move_knob(KNOB_PROACTIVE_TRIGGER, to, pressure));
        } else if quiet && self.proactive_trigger < t_max {
            let to = (self.proactive_trigger + self.cfg.max_step.max(1) as u64).min(t_max);
            out.push(self.move_knob(KNOB_PROACTIVE_TRIGGER, to, pressure));
        }
        out
    }

    fn knob_value(&self, knob: &'static str) -> u64 {
        match knob {
            KNOB_FLEET_CAP => self.fleet_cap,
            KNOB_PROACTIVE_TRIGGER => self.proactive_trigger,
            _ => self.provision_spares,
        }
    }

    fn set_knob(&mut self, knob: &'static str, v: u64) {
        match knob {
            KNOB_FLEET_CAP => self.fleet_cap = v,
            KNOB_PROACTIVE_TRIGGER => self.proactive_trigger = v,
            _ => self.provision_spares = v,
        }
    }

    /// Apply a guarded knob move: record it for regression evaluation,
    /// start the cooldown, and build the directive.
    fn move_knob(&mut self, knob: &'static str, to: u64, pressure: f64) -> Directive {
        let from = self.knob_value(knob);
        self.set_knob(knob, to);
        self.last_move = Some(LastMove {
            knob,
            prev: from,
            at_tick: self.ticks,
            baseline_pressure: pressure,
        });
        self.cooldown_until = self.ticks + u64::from(self.cfg.cooldown_ticks);
        self.decisions += 1;
        self.applied += 1;
        Directive::Knob { knob, from, to }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmaint_des::SimRng;

    fn ctx(open: u64, busy: u64) -> TickContext {
        TickContext {
            elapsed: SimDuration::from_hours(6),
            open_tickets: open,
            robots_busy: busy,
            links: 40,
        }
    }

    fn quiet_registry() -> ObsRegistry {
        ObsRegistry::enabled()
    }

    #[test]
    fn saturation_streak_raises_fleet_cap_bounded() {
        let cfg = AutonomicConfig::default();
        let (start, max, step) = (cfg.fleet_cap_start, cfg.fleet_cap_max, cfg.max_step);
        let mut m = Mape::new(cfg);
        let r = quiet_registry();
        let mut rng = SimRng::root(1).stream("autonomic", 0);
        let mut moves = Vec::new();
        for _ in 0..200 {
            for d in m.tick(&r, ctx(5, m.fleet_cap() as u64), &mut rng) {
                if let Directive::Knob {
                    knob: KNOB_FLEET_CAP,
                    from,
                    to,
                } = d
                {
                    moves.push((from, to));
                }
            }
        }
        assert!(!moves.is_empty(), "sustained saturation must raise the cap");
        for (from, to) in &moves {
            assert!(to - from <= step as u64, "bounded step: {from}->{to}");
        }
        assert!(m.fleet_cap() > start);
        assert!(m.fleet_cap() <= max, "cap never exceeds guardrail");
    }

    #[test]
    fn hysteresis_and_cooldown_pace_moves() {
        let cfg = AutonomicConfig::default();
        let hys = cfg.hysteresis_ticks;
        let cool = cfg.cooldown_ticks;
        let mut m = Mape::new(cfg);
        let r = quiet_registry();
        let mut rng = SimRng::root(2).stream("autonomic", 0);
        let mut move_ticks = Vec::new();
        for t in 1..=40u64 {
            let ds = m.tick(&r, ctx(5, m.fleet_cap() as u64), &mut rng);
            if ds
                .iter()
                .any(|d| matches!(d, Directive::Knob { knob, .. } if *knob == KNOB_FLEET_CAP))
            {
                move_ticks.push(t);
            }
        }
        assert!(move_ticks.len() >= 2);
        // First move waits out the hysteresis streak.
        assert!(move_ticks[0] >= u64::from(hys));
        // Consecutive moves are separated by at least the cooldown.
        for w in move_ticks.windows(2) {
            assert!(w[1] - w[0] >= u64::from(cool), "cooldown violated: {w:?}");
        }
    }

    #[test]
    fn regression_after_move_rolls_back() {
        let mut m = Mape::new(AutonomicConfig::default());
        let r = quiet_registry();
        let mut rng = SimRng::root(3).stream("autonomic", 0);
        // Drive a cap raise at low pressure.
        let mut raised_at = None;
        for t in 1..=20u64 {
            let ds = m.tick(&r, ctx(1, m.fleet_cap() as u64), &mut rng);
            if ds
                .iter()
                .any(|d| matches!(d, Directive::Knob { knob, .. } if *knob == KNOB_FLEET_CAP))
            {
                raised_at = Some(t);
                break;
            }
        }
        let raised_at = raised_at.expect("cap move");
        let cap_after = m.fleet_cap() as u64;
        // Pressure explodes after the move: the evaluation must revert.
        let mut rolled = false;
        for _ in 0..12 {
            let ds = m.tick(&r, ctx(50, cap_after), &mut rng);
            if ds
                .iter()
                .any(|d| matches!(d, Directive::Rollback { knob, .. } if *knob == KNOB_FLEET_CAP))
            {
                rolled = true;
                break;
            }
        }
        assert!(rolled, "regression after tick {raised_at} must roll back");
        assert_eq!(m.fleet_cap() as u64, cap_after - 1);
        assert_eq!(m.rollbacks(), 1);
    }

    #[test]
    fn posteriors_marginals_and_discredit() {
        let mut m = Mape::new(AutonomicConfig::default());
        for i in 0..30 {
            m.observe_repair("dust", "clean", i % 10 != 0); // 90% fix
            m.observe_repair("seating", "clean", false); // useless
        }
        let (c, t) = m.convergence();
        assert_eq!(t, 2);
        assert!(c >= 1, "30 observations should converge a posterior");
        // Marginal pools both causes: 30 of 60 fixes minus the 3 misses.
        let (mean, w) = m.action_marginal("clean").unwrap();
        assert!((w - 60.0).abs() < 1e-9);
        assert!(mean > 0.4 && mean < 0.5);
        assert!(!m.action_discredited("clean", 0.12));
        let mut bad = Mape::new(AutonomicConfig::default());
        for _ in 0..20 {
            bad.observe_repair("corrosion", "reseat", false);
        }
        assert!(bad.action_discredited("reseat", 0.12));
        assert!(!bad.action_discredited("replace", 0.12), "no evidence");
    }

    #[test]
    fn monitor_windows_feed_drift_detector() {
        let mut m = Mape::new(AutonomicConfig::default());
        let mut r = ObsRegistry::enabled();
        let mut rng = SimRng::root(4).stream("autonomic", 0);
        // Calm baseline, then a burst: fast EWMA must outrun slow.
        for _ in 0..12 {
            r.inc("ticket/opened");
            m.tick(&r, ctx(0, 0), &mut rng);
        }
        let calm_fast = m.fast_ewma;
        for _ in 0..4 {
            for _ in 0..20 {
                r.inc("ticket/opened");
            }
            m.tick(&r, ctx(3, 0), &mut rng);
        }
        assert!(m.fast_ewma > 5.0 * calm_fast);
        assert!(m.fast_ewma > m.slow_ewma);
    }

    #[test]
    fn same_inputs_same_outputs_bitwise() {
        let run = || {
            let mut m = Mape::new(AutonomicConfig::default());
            let mut r = ObsRegistry::enabled();
            let mut rng = SimRng::root(9).stream("autonomic", 0);
            let mut log = Vec::new();
            for t in 0..60u64 {
                r.add("ticket/opened", t % 3);
                if t % 2 == 0 {
                    m.observe_repair("dust", "clean", t % 4 == 0);
                }
                log.extend(m.tick(&r, ctx(t % 7, t % 3), &mut rng));
            }
            (log, rng.next_u64(), m.fleet_cap, m.proactive_trigger)
        };
        assert_eq!(run(), run());
        // One draw per tick, independent of decisions taken: the stream
        // sits where 60 raw steps leave a fresh one.
        let mut want = SimRng::root(9).stream("autonomic", 0);
        for _ in 0..60 {
            want.next_u64();
        }
        assert_eq!(run().1, want.next_u64());
    }

    #[test]
    fn save_restore_round_trips_everything() {
        let mut m = Mape::new(AutonomicConfig::default());
        let mut r = ObsRegistry::enabled();
        let mut rng = SimRng::root(5).stream("autonomic", 0);
        for t in 0..30u64 {
            r.add("ticket/opened", t % 4);
            m.observe_repair("dust", "clean", t % 3 == 0);
            m.observe_repair("seating", "reseat", true);
            m.tick(&r, ctx(t % 6, t % 2), &mut rng);
        }
        use dcmaint_ckpt::Persist;
        let mut enc = dcmaint_ckpt::Enc::new();
        m.save(&mut enc);
        let bytes = enc.into_bytes();
        let mut back = Mape::new(AutonomicConfig::default());
        let mut dec = dcmaint_ckpt::Dec::new(&bytes);
        back.load(&mut dec).unwrap();
        assert!(dec.is_exhausted());

        // The restored loop must continue bit-identically: same ticks,
        // same directives, same window deltas via the restored cursor.
        let mut rng_a = SimRng::root(6).stream("autonomic", 0);
        let mut rng_b = SimRng::root(6).stream("autonomic", 0);
        for t in 0..20u64 {
            r.add("ticket/opened", (t + 1) % 3);
            let da = m.tick(&r, ctx(t, t % 2), &mut rng_a);
            let db = back.tick(&r, ctx(t, t % 2), &mut rng_b);
            assert_eq!(da, db, "divergence at continuation tick {t}");
        }
        let encoded = |m: &Mape| {
            let mut enc = dcmaint_ckpt::Enc::new();
            m.save(&mut enc);
            enc.into_bytes()
        };
        assert_eq!(encoded(&m), encoded(&back), "knowledge diverged");
        assert_eq!((m.decisions, m.applied, m.rollbacks), {
            (back.decisions, back.applied, back.rollbacks)
        });
    }
}
