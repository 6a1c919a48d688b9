//! The maintenance controller: one façade over policy, drain planning,
//! proactive campaigns, and prediction.
//!
//! §2's thesis: "A fully self-maintaining system will not require the
//! service to create a ticket describing a hardware failure; instead, it
//! will schedule and monitor repair operations autonomously." The
//! controller is that scheduler's brain. It is deliberately *pure
//! decision logic* — it never advances time or touches the event queue —
//! so every policy choice is unit-testable and the same controller runs
//! under every automation level (the levels only change its answers, not
//! its shape).
//!
//! The execution loop (in `dcmaint-scenarios`) asks, per ticket:
//!
//! 1. [`MaintenanceController::decide_action`] and
//!    [`MaintenanceController::executor_for`] — which rung of the §3.2
//!    ladder and who executes it (level-dependent); the loop then calls
//!    [`crate::drain::plan`] for the drain decision with its pre-contact
//!    announcement;
//! 2. after physical work: release the drain, verify, close or
//!    re-escalate;
//! 3. periodically: [`MaintenanceController::proactive_mut`] campaigns
//!    and [`MaintenanceController::predictor_mut`] scoring (L3+ only).

use dcmaint_dcnet::CableMedium;
use dcmaint_des::SimDuration;
use dcmaint_faults::RepairAction;

use crate::drain::DrainConfig;
use crate::escalate::{EscalationConfig, EscalationEngine};
use crate::levels::{AutomationLevel, Executor};
use crate::predict::Predictor;
use crate::proactive::{ProactiveConfig, ProactivePlanner};

/// Predictive-maintenance loop configuration.
#[derive(Debug, Clone)]
pub struct PredictiveConfig {
    /// Risk *lift* required to flag: a link is a candidate when its
    /// score is at least this multiple of the fleet-mean score. Relative
    /// thresholds track the base failure rate, so the flagger works at
    /// both compressed (CI) and realistic (rare-failure) fault rates.
    pub risk_lift: f64,
    /// Absolute score floor below which nothing is flagged (guards the
    /// cold-start period before the model has seen failures).
    pub score_floor: f64,
    /// How often the fleet is scanned.
    pub scan_period: SimDuration,
    /// Label horizon: a link "failed" if an incident lands within this
    /// window after scoring.
    pub label_horizon: SimDuration,
}

impl Default for PredictiveConfig {
    fn default() -> Self {
        PredictiveConfig {
            risk_lift: 2.0,
            score_floor: 0.02,
            scan_period: SimDuration::from_hours(6),
            label_horizon: SimDuration::from_days(3),
        }
    }
}

/// Controller configuration.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Automation level (§2.1) — the single biggest policy knob.
    pub level: AutomationLevel,
    /// Escalation-ladder tuning.
    pub escalation: EscalationConfig,
    /// Drain-planning tuning.
    pub drain: DrainConfig,
    /// Proactive campaigns (effective only at L3+, per
    /// [`AutomationLevel::proactive_allowed`]).
    pub proactive: Option<ProactiveConfig>,
    /// Predictive maintenance (effective only at L3+).
    pub predictive: Option<PredictiveConfig>,
    /// Post-repair verification soak before closing a ticket.
    pub verify_soak: SimDuration,
    /// §2 "optimizing its timing": defer routine (P2) repairs into the
    /// diurnal utilization trough so their drains cost the least
    /// capacity. Urgent work is never deferred.
    pub trough_scheduling: bool,
    /// Utilization below which routine work may proceed when
    /// `trough_scheduling` is on.
    pub trough_gate: f64,
}

impl ControllerConfig {
    /// Default configuration at the given level: proactive and
    /// predictive loops enabled where the level allows.
    pub fn at_level(level: AutomationLevel) -> Self {
        ControllerConfig {
            level,
            escalation: EscalationConfig::default(),
            drain: DrainConfig::default(),
            proactive: level.proactive_allowed().then(ProactiveConfig::default),
            predictive: level.proactive_allowed().then(PredictiveConfig::default),
            verify_soak: SimDuration::from_mins(5),
            trough_scheduling: false,
            trough_gate: 0.35,
        }
    }
}

/// The controller. See the [module docs](self).
#[derive(Debug)]
pub struct MaintenanceController {
    cfg: ControllerConfig,
    escalation: EscalationEngine,
    proactive: Option<ProactivePlanner>,
    predictor: Option<Predictor>,
}

// The proactive/predictive presence follows the config, so a restore
// loads into the controller freshly built from the same config.
dcmaint_ckpt::persist!(MaintenanceController {
    proactive with dcmaint_ckpt::gated,
    predictor with dcmaint_ckpt::gated,
} skip {
    cfg: "rebuilt from the scenario's ControllerConfig",
    escalation: "stateless policy derived from the config",
});

impl MaintenanceController {
    /// Build from config.
    pub fn new(cfg: ControllerConfig) -> Self {
        let escalation = EscalationEngine::new(cfg.escalation.clone());
        let proactive = cfg
            .proactive
            .clone()
            .filter(|_| cfg.level.proactive_allowed())
            .map(ProactivePlanner::new);
        let predictor = cfg
            .predictive
            .as_ref()
            .filter(|_| cfg.level.proactive_allowed())
            .map(|_| Predictor::new());
        MaintenanceController {
            cfg,
            escalation,
            proactive,
            predictor,
        }
    }

    /// Configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// The automation level in force.
    pub fn level(&self) -> AutomationLevel {
        self.cfg.level
    }

    /// Escalation memory window (pass to the ticket board when fetching
    /// history).
    pub fn memory_window(&self) -> SimDuration {
        self.escalation.memory_window()
    }

    /// Choose the next ladder rung for a link.
    pub fn decide_action(&self, medium: CableMedium, recent: &[RepairAction]) -> RepairAction {
        self.escalation.next_action(medium, recent)
    }

    /// Who executes a given action at this level.
    pub fn executor_for(&self, action: RepairAction) -> Executor {
        self.cfg.level.executor_for(action)
    }

    /// The proactive planner, if this level runs one.
    pub fn proactive_mut(&mut self) -> Option<&mut ProactivePlanner> {
        self.proactive.as_mut()
    }

    /// The predictive scorer, if this level runs one.
    pub fn predictor_mut(&mut self) -> Option<&mut Predictor> {
        self.predictor.as_mut()
    }

    /// Immutable predictor access.
    pub fn predictor(&self) -> Option<&Predictor> {
        self.predictor.as_ref()
    }

    /// Predictive config, if enabled.
    pub fn predictive_config(&self) -> Option<&PredictiveConfig> {
        self.cfg
            .predictive
            .as_ref()
            .filter(|_| self.cfg.level.proactive_allowed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drain::{self, DrainDecision};
    use dcmaint_dcnet::gen::leaf_spine;
    use dcmaint_dcnet::{DiversityProfile, LinkId, NetState, NodeId, Topology};
    use dcmaint_des::SimRng;

    fn setup() -> (Topology, NetState, Vec<(NodeId, NodeId)>) {
        let t = leaf_spine(
            2,
            3,
            2,
            1,
            DiversityProfile::standardized(),
            &SimRng::root(1),
        );
        let s = NetState::new(&t);
        let servers = t.servers();
        let pairs: Vec<_> = servers.windows(2).map(|w| (w[0], w[1])).collect();
        (t, s, pairs)
    }

    fn uplink(t: &Topology) -> LinkId {
        t.link_ids()
            .find(|&l| {
                let (a, b) = t.endpoints(l);
                t.node(a).is_switch() && t.node(b).is_switch()
            })
            .unwrap()
    }

    /// The calls the engine's dispatch makes for one ticket: the ladder
    /// rung, who executes it, and the drain decision.
    fn plan(
        c: &MaintenanceController,
        (t, s, pairs): &(Topology, NetState, Vec<(NodeId, NodeId)>),
        link: LinkId,
        recent: &[RepairAction],
        expected: SimDuration,
    ) -> (RepairAction, Executor, DrainDecision) {
        let action = c.decide_action(t.link(link).cable.medium, recent);
        let executor = c.executor_for(action);
        let clumsy = matches!(executor, Executor::Human | Executor::HumanWithDevice);
        let drain = drain::plan(&c.config().drain, t, s, link, clumsy, expected, pairs);
        (action, executor, drain)
    }

    #[test]
    fn l0_plans_human_repairs_with_wide_drains() {
        let world = setup();
        let c = MaintenanceController::new(ControllerConfig::at_level(AutomationLevel::L0));
        let (action, executor, drain) = plan(
            &c,
            &world,
            uplink(&world.0),
            &[],
            SimDuration::from_hours(1),
        );
        assert_eq!(action, RepairAction::Reseat);
        assert_eq!(executor, Executor::Human);
        match drain {
            DrainDecision::Proceed(ann) => assert!(ann.drained.len() > 1),
            DrainDecision::Defer { .. } => panic!("redundant uplink must proceed"),
        }
    }

    #[test]
    fn l3_plans_robot_repairs_with_narrow_drains() {
        let world = setup();
        let c = MaintenanceController::new(ControllerConfig::at_level(AutomationLevel::L3));
        let up = uplink(&world.0);
        let (_, executor, drain) = plan(&c, &world, up, &[], SimDuration::from_mins(3));
        assert_eq!(executor, Executor::AutonomousRobot);
        match drain {
            DrainDecision::Proceed(ann) => {
                assert_eq!(ann.drained, vec![up], "robot: target only")
            }
            DrainDecision::Defer { .. } => panic!("must proceed"),
        }
    }

    #[test]
    fn proactive_and_predictive_gated_by_level() {
        let mut l0 = MaintenanceController::new(ControllerConfig::at_level(AutomationLevel::L0));
        let mut l3 = MaintenanceController::new(ControllerConfig::at_level(AutomationLevel::L3));
        assert!(l0.proactive_mut().is_none());
        assert!(l0.predictor_mut().is_none());
        assert!(l3.proactive_mut().is_some());
        assert!(l3.predictor_mut().is_some());
        assert!(l3.predictive_config().is_some());
    }

    #[test]
    fn explicit_proactive_config_still_gated_below_l3() {
        // Even if a config *asks* for proactive at L1, the level gate
        // wins — there is no free robot labor to run campaigns with.
        let cfg = ControllerConfig {
            proactive: Some(ProactiveConfig::default()),
            predictive: Some(PredictiveConfig::default()),
            ..ControllerConfig::at_level(AutomationLevel::L1)
        };
        let mut c = MaintenanceController::new(cfg);
        assert!(c.proactive_mut().is_none());
        assert!(c.predictor_mut().is_none());
    }

    #[test]
    fn escalation_follows_history() {
        let world = setup();
        let t = &world.0;
        let c = MaintenanceController::new(ControllerConfig::at_level(AutomationLevel::L3));
        let recent = vec![RepairAction::Reseat, RepairAction::Reseat];
        // Separable (long MPO) uplink: cleaning is the next rung.
        if let Some(l) = t
            .link_ids()
            .find(|&l| t.link(l).cable.medium.is_separable())
        {
            let (action, _, _) = plan(&c, &world, l, &recent, SimDuration::from_mins(5));
            assert_eq!(action, RepairAction::CleanEndFace);
        }
        // Integrated (AOC) uplink: the ladder skips cleaning and the
        // transceiver swap, going straight to cable replacement.
        let aoc = t
            .link_ids()
            .find(|&l| {
                let m = t.link(l).cable.medium;
                m.is_optical() && !m.is_separable()
            })
            .expect("small leaf-spine has AOC uplinks");
        let (action, _, _) = plan(&c, &world, aoc, &recent, SimDuration::from_mins(5));
        assert_eq!(action, RepairAction::ReplaceCable);
    }

    #[test]
    fn switch_replacement_goes_human_even_at_l3() {
        let c = MaintenanceController::new(ControllerConfig::at_level(AutomationLevel::L3));
        assert_eq!(
            c.executor_for(RepairAction::ReplaceSwitchHardware),
            Executor::Human
        );
    }
}
