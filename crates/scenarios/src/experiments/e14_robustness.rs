//! E14 — hardening the maintenance plane: who maintains the
//! maintainer? (§3.4)
//!
//! The paper's automation story assumes the robots themselves work.
//! E14 drops that assumption: robot units stall and break down
//! mid-operation (MTBF swept as a multiple of the typical operation
//! duration), grips slip, vision misidentifies, telemetry polls drop,
//! and completion reports get lost in transit. The question is whether
//! the control plane *degrades gracefully* — watchdogs catch silent
//! failures, retries with backoff absorb transient ones, and the
//! ladder bottoms out at the L0 human workflow instead of wedging.
//!
//! Arms, all on the same fabric and organic fault stream:
//!
//! * `healthy fleet` — L3 with maintenance-plane faults disabled (the
//!   upper bound every earlier experiment measures);
//! * `chaos ×N` — robot MTBF = N × the typical op duration, with
//!   telemetry dropout and dispatch loss, recovery **on**;
//! * `chaos ×N, no recovery` — the ablation: same faults, watchdogs
//!   and the ladder disabled, failed work simply abandoned;
//! * `L0 humans` — no robots at all: the graceful-degradation floor.
//!
//! The headline claim: with recovery on, availability at MTBF = 10× op
//! duration stays within 20% of the healthy-fleet value and never
//! falls below the L0 floor; with recovery off it visibly drops.

use dcmaint_des::SimDuration;
use dcmaint_faults::RobotFaultConfig;
use dcmaint_metrics::{Align, Cell, Table};
use maintctl::AutomationLevel;

use crate::config::{ScenarioConfig, TopologySpec};
use crate::engine::run;

/// Typical robot hands-on duration (§3.3.2: minutes-scale operations);
/// the MTBF sweep is expressed in multiples of this.
pub const TYPICAL_OP: SimDuration = SimDuration::from_mins(5);

/// Parameters for E14.
#[derive(Debug, Clone)]
pub struct E14Params {
    /// RNG seed shared by all arms.
    pub seed: u64,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Robot MTBF sweep, as multiples of [`TYPICAL_OP`].
    pub mtbf_mults: Vec<u64>,
    /// Telemetry-poll dropout probability in the chaos arms.
    pub telemetry_dropout: f64,
    /// Completion-report loss probability in the chaos arms.
    pub dispatch_loss: f64,
    /// Shrink the fabric for CI-sized runs.
    pub small_fabric: bool,
}

impl E14Params {
    /// CI-sized.
    pub fn quick(seed: u64) -> Self {
        E14Params {
            seed,
            duration: SimDuration::from_days(12),
            mtbf_mults: vec![10, 100],
            telemetry_dropout: 0.02,
            dispatch_loss: 0.02,
            small_fabric: true,
        }
    }

    /// Paper-sized.
    pub fn full(seed: u64) -> Self {
        E14Params {
            seed,
            duration: SimDuration::from_days(30),
            mtbf_mults: vec![10, 30, 100, 300],
            telemetry_dropout: 0.02,
            dispatch_loss: 0.02,
            small_fabric: false,
        }
    }

    fn base(&self, level: AutomationLevel) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::at_level(self.seed, level);
        cfg.duration = self.duration;
        if self.small_fabric {
            cfg.topology = TopologySpec::LeafSpine {
                spines: 2,
                leaves: 4,
                servers_per_leaf: 2,
            };
            cfg.poll_period = SimDuration::from_secs(120);
            cfg.faults.mtbi_per_link = SimDuration::from_days(15);
        }
        cfg
    }

    fn chaos(&self, mult: u64) -> RobotFaultConfig {
        RobotFaultConfig {
            enabled: true,
            unit_mtbf: TYPICAL_OP * mult,
            actuator_mtbf: TYPICAL_OP * mult,
            grip_slip_prob: 0.02,
            vision_misid_prob: 0.01,
            magazine_jam_prob: 0.02,
            telemetry_dropout: self.telemetry_dropout,
            dispatch_loss: self.dispatch_loss,
        }
    }
}

/// One row of the E14 table.
#[derive(Debug, Clone)]
pub struct E14Row {
    /// Arm label.
    pub arm: String,
    /// Robot MTBF as a multiple of the typical op duration (0 = no
    /// robot faults injected).
    pub mtbf_mult: u64,
    /// Whether the recovery plane (watchdogs + ladder) ran.
    pub recovery: bool,
    /// Fleet availability over the run.
    pub availability: f64,
    /// Median reactive service window.
    pub median_window: SimDuration,
    /// Stalled operations.
    pub stalls: u64,
    /// Aborted operations (safe + unsafe).
    pub aborts: u64,
    /// Watchdog expiries that acted.
    pub watchdog_fires: u64,
    /// Ladder steps taken: retries + reassignments.
    pub ladder_steps: u64,
    /// Tickets handed to humans (escalations of every kind).
    pub human_escalations: u64,
    /// Tickets never resolved by the horizon.
    pub tickets_open: u64,
    /// Leaked zone claims + leaked drains at the horizon (the abort
    /// invariant demands zero).
    pub leaks: u64,
}

fn run_arm(arm: String, mut cfg: ScenarioConfig, mtbf_mult: u64, recovery: bool) -> E14Row {
    cfg.recovery.enabled = recovery;
    let mut r = run(cfg);
    E14Row {
        arm,
        mtbf_mult,
        recovery,
        availability: r.availability.availability,
        median_window: r.median_service_window(),
        stalls: r.op_stalls,
        aborts: r.op_aborts_safe + r.op_aborts_unsafe,
        watchdog_fires: r.watchdog_fires,
        ladder_steps: r.robot_retries + r.robot_reassigns,
        human_escalations: r.human_escalations,
        tickets_open: r.tickets_total() - r.tickets_fixed - r.tickets_spurious,
        leaks: r.zone_claims_leaked + r.drains_leaked,
    }
}

/// Run all arms: healthy fleet, the MTBF sweep with recovery on and
/// off, and the L0 human floor.
pub fn run_experiment(p: &E14Params) -> Vec<E14Row> {
    let mut rows = Vec::new();
    rows.push(run_arm(
        "healthy fleet".to_string(),
        p.base(AutomationLevel::L3),
        0,
        true,
    ));
    for &mult in &p.mtbf_mults {
        for recovery in [true, false] {
            let mut cfg = p.base(AutomationLevel::L3);
            cfg.robot_faults = p.chaos(mult);
            let arm = if recovery {
                format!("chaos x{mult}")
            } else {
                format!("chaos x{mult}, no recovery")
            };
            rows.push(run_arm(arm, cfg, mult, recovery));
        }
    }
    rows.push(run_arm(
        "L0 humans".to_string(),
        p.base(AutomationLevel::L0),
        0,
        true,
    ));
    rows
}

/// Render the E14 table.
pub fn table(rows: &[E14Row]) -> Table {
    let mut t = Table::new(
        "E14: maintenance-plane fault injection and graceful degradation (§3.4)",
        &[
            ("arm", Align::Left),
            ("availability", Align::Right),
            ("median window", Align::Right),
            ("stalls", Align::Right),
            ("aborts", Align::Right),
            ("watchdog", Align::Right),
            ("ladder", Align::Right),
            ("to humans", Align::Right),
            ("open", Align::Right),
            ("leaks", Align::Right),
        ],
    );
    for r in rows {
        t.row(vec![
            r.arm.as_str().into(),
            Cell::Num(r.availability, 5),
            Cell::Dur(r.median_window),
            Cell::Count(r.stalls),
            Cell::Count(r.aborts),
            Cell::Count(r.watchdog_fires),
            Cell::Count(r.ladder_steps),
            Cell::Count(r.human_escalations),
            Cell::Count(r.tickets_open),
            Cell::Count(r.leaks),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(rows: &'a [E14Row], arm: &str) -> &'a E14Row {
        rows.iter()
            .find(|r| r.arm == arm)
            .unwrap_or_else(|| panic!("missing arm {arm}"))
    }

    #[test]
    fn graceful_degradation_holds_at_brutal_mtbf() {
        // The acceptance pin: robot MTBF = 10× op duration is a unit
        // failing every ~10 operations. With the recovery plane on,
        // availability stays within 20% of the healthy fleet and never
        // falls below the L0 human-only floor; with it off, abandoned
        // work drags availability visibly down.
        let rows = run_experiment(&E14Params::quick(99));
        let healthy = find(&rows, "healthy fleet");
        let chaos = find(&rows, "chaos x10");
        let ablation = find(&rows, "chaos x10, no recovery");
        let floor = find(&rows, "L0 humans");
        assert!(
            chaos.stalls + chaos.aborts > 0,
            "chaos must actually inject operation failures"
        );
        assert!(
            chaos.availability >= 0.8 * healthy.availability,
            "recovery keeps availability within 20%: chaos {} vs healthy {}",
            chaos.availability,
            healthy.availability
        );
        assert!(
            chaos.availability >= floor.availability,
            "graceful degradation never falls below the human floor: {} vs {}",
            chaos.availability,
            floor.availability
        );
        assert!(
            ablation.availability < chaos.availability,
            "the ablation must pay for abandoning failed work: {} vs {}",
            ablation.availability,
            chaos.availability
        );
    }

    #[test]
    fn recovery_arms_never_leak_claims_or_drains() {
        let rows = run_experiment(&E14Params::quick(77));
        for r in rows.iter().filter(|r| r.recovery) {
            assert_eq!(r.leaks, 0, "arm {} leaked", r.arm);
        }
    }

    #[test]
    fn recovery_machinery_engages_under_chaos() {
        let rows = run_experiment(&E14Params::quick(99));
        let chaos = find(&rows, "chaos x10");
        assert!(chaos.watchdog_fires > 0, "watchdogs must fire");
        assert!(
            chaos.ladder_steps + chaos.human_escalations > 0,
            "the ladder must climb"
        );
        // The ablation leaves work wedged open.
        let ablation = find(&rows, "chaos x10, no recovery");
        assert!(
            ablation.tickets_open > chaos.tickets_open,
            "abandoned work stays open: {} vs {}",
            ablation.tickets_open,
            chaos.tickets_open
        );
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        // The determinism pin CI also enforces end-to-end: two E14
        // invocations with one seed render identical tables.
        let a = table(&run_experiment(&E14Params::quick(5))).render();
        let b = table(&run_experiment(&E14Params::quick(5))).render();
        assert_eq!(a, b);
    }
}
