//! Scenario configuration: one struct that fully determines a run.
//!
//! Everything stochastic derives from `seed`; two runs with equal
//! configs produce identical reports. Experiments are sweeps over one
//! field with the rest held at defaults, so the defaults here *are* the
//! calibration baseline documented in EXPERIMENTS.md.

use dcmaint_dcnet::gen;
use dcmaint_dcnet::{DiversityProfile, Topology};
use dcmaint_des::{SimDuration, SimRng};
use dcmaint_faults::{Environment, FaultConfig, RobotFaultConfig};
use dcmaint_metrics::CostModel;
use dcmaint_obs::ObsConfig;
use dcmaint_robotics::FleetConfig;
use dcmaint_tickets::TechConfig;
use maintctl::{AutomationLevel, ControllerConfig, RecoveryPolicy};

/// Which fabric to build.
#[derive(Debug, Clone)]
pub enum TopologySpec {
    /// 2-tier Clos.
    LeafSpine {
        /// Spine count.
        spines: usize,
        /// Leaf count.
        leaves: usize,
        /// Servers per leaf.
        servers_per_leaf: usize,
    },
    /// k-ary fat-tree.
    FatTree {
        /// Pod parameter (even).
        k: usize,
    },
    /// Random regular graph.
    Jellyfish {
        /// Switch count.
        switches: usize,
        /// Inter-switch degree.
        degree: usize,
        /// Servers per switch.
        servers_per_switch: usize,
    },
    /// Lifted complete graph.
    Xpander {
        /// Degree.
        d: usize,
        /// Lift count.
        lift: usize,
        /// Servers per switch.
        servers_per_switch: usize,
    },
}

impl TopologySpec {
    /// Build the topology.
    pub fn build(&self, diversity: DiversityProfile, rng: &SimRng) -> Topology {
        match *self {
            TopologySpec::LeafSpine {
                spines,
                leaves,
                servers_per_leaf,
            } => gen::leaf_spine(spines, leaves, servers_per_leaf, 1, diversity, rng),
            TopologySpec::FatTree { k } => gen::fat_tree(k, diversity, rng),
            TopologySpec::Jellyfish {
                switches,
                degree,
                servers_per_switch,
            } => gen::jellyfish(switches, degree, servers_per_switch, diversity, rng),
            TopologySpec::Xpander {
                d,
                lift,
                servers_per_switch,
            } => gen::xpander(d, lift, servers_per_switch, diversity, rng),
        }
    }
}

/// Full scenario configuration.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Root RNG seed; everything stochastic derives from it.
    pub seed: u64,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Fabric to build.
    pub topology: TopologySpec,
    /// Component diversity of the fleet.
    pub diversity: DiversityProfile,
    /// Automation level (builds the controller via
    /// [`ControllerConfig::at_level`] unless `controller` overrides).
    pub level: AutomationLevel,
    /// Optional full controller override.
    pub controller: Option<ControllerConfig>,
    /// Fault-arrival tuning.
    pub faults: FaultConfig,
    /// Environmental stress field.
    pub environment: Environment,
    /// Technician pool.
    pub techs: TechConfig,
    /// Robot units deployed per row (0 = no robots, the L0/L1 world).
    pub robots_per_row: usize,
    /// If set, deploy a hall-scope AGV pool of this size *instead of*
    /// the per-row gantries — §3.4's alternative deployment scope.
    pub hall_pool: Option<usize>,
    /// Robot fleet tuning.
    pub fleet: FleetConfig,
    /// Telemetry poll period.
    pub poll_period: SimDuration,
    /// Cost model for the ledger.
    pub costs: CostModel,
    /// Hazard growth: how much a link's incident hazard rises per 90
    /// days without maintenance (dirt/oxidation accumulates). 0 disables
    /// wear — proactive maintenance then has nothing to win.
    pub wear_growth: f64,
    /// Service pairs sampled for drain-safety checks.
    pub service_pair_samples: usize,
    /// Retry delay when a drain is deferred.
    pub defer_retry: SimDuration,
    /// Scripted incidents injected at exact times, in addition to (or,
    /// with `organic_faults: false`, instead of) the Poisson process.
    /// Used by reproducible tests and failure-injection studies.
    pub scripted: Vec<ScriptedIncident>,
    /// Whether the organic Poisson fault process runs.
    pub organic_faults: bool,
    /// Whether the control plane coordinates drains / pre-contact
    /// announcements before physical work (the paper's cross-layer
    /// co-design). Disabling it is the A1 ablation: hardware gets
    /// touched hot.
    pub coordinate_drains: bool,
    /// Maintenance-plane fault injection: robot hazards, telemetry
    /// dropout, dispatch-message loss. Disabled by default — and a
    /// disabled config makes zero RNG draws, so fault-free runs are
    /// byte-identical to the pre-fault-model engine.
    pub robot_faults: RobotFaultConfig,
    /// Controller-side recovery: watchdogs, retry backoff, and the
    /// degradation ladder down to humans. `recovery.enabled = false` is
    /// the E14 ablation — failed robot work is simply abandoned.
    pub recovery: RecoveryPolicy,
    /// Observability plane: span traces, event journal, counters, and
    /// wall-clock profiling. Disabled by default — a disabled plane
    /// makes zero allocations and zero RNG draws, so seeded runs stay
    /// byte-identical to the pre-obs engine.
    pub obs: ObsConfig,
    /// Repair-decision policy: the plain degradation ladder, or
    /// twin-guided model-predictive planning (fork the engine at each
    /// dispatch decision, rehearse the candidates, commit the argmax —
    /// DESIGN §3.14). `Ladder` is the default and leaves the engine
    /// byte-identical to the pre-twin code.
    pub twin: dcmaint_twin::TwinPolicy,
    /// MAPE-K autonomic control plane (DESIGN §3.16): a periodic
    /// monitor→analyze→plan→execute loop that tunes the robot-
    /// concurrency cap, proactive-campaign trigger, and provisioning
    /// margin online from windowed `ObsRegistry` reads. `None` (the
    /// default) leaves the engine byte-identical to the pre-autonomic
    /// code. `Some` force-enables the registry and trace store so the
    /// monitor has data regardless of the obs switches.
    pub autonomic: Option<dcmaint_autonomic::AutonomicConfig>,
    /// Static robot-concurrency cap: at most this many robot repairs in
    /// flight; dispatch beyond it falls back to humans. `None` means
    /// uncapped (pre-existing behavior). The autonomic plane, when on,
    /// supersedes this with its tuned live cap.
    pub fleet_active_cap: Option<usize>,
    /// **Deliberately breaks determinism** (demo/testing only): routes
    /// fault targeting through a `HashMap`, whose iteration order varies
    /// per map instance. Exists so `selfmaint bisect` has a reproducible
    /// way to demonstrate localizing a divergence; never enable in real
    /// experiments.
    pub nondet_demo: bool,
}

/// One scripted incident for failure-injection runs.
#[derive(Debug, Clone)]
pub struct ScriptedIncident {
    /// When the fault strikes.
    pub at: dcmaint_des::SimTime,
    /// The link index (resolved against the built topology).
    pub link_index: usize,
    /// The hidden root cause.
    pub cause: dcmaint_faults::RootCause,
}

impl ScenarioConfig {
    /// Baseline configuration: medium leaf-spine fabric, 30 days, L0.
    pub fn baseline(seed: u64) -> Self {
        ScenarioConfig {
            seed,
            duration: SimDuration::from_days(30),
            topology: TopologySpec::LeafSpine {
                spines: 4,
                leaves: 16,
                servers_per_leaf: 8,
            },
            diversity: DiversityProfile::cloud_typical(),
            level: AutomationLevel::L0,
            controller: None,
            faults: FaultConfig {
                // Compressed MTBI so a 30-day run sees hundreds of
                // incidents on ~200 links.
                mtbi_per_link: SimDuration::from_days(45),
                ..FaultConfig::default()
            },
            environment: Environment::default(),
            techs: TechConfig::default(),
            robots_per_row: 0,
            hall_pool: None,
            fleet: FleetConfig::default(),
            poll_period: SimDuration::from_secs(60),
            costs: CostModel::default(),
            wear_growth: 1.0,
            service_pair_samples: 40,
            defer_retry: SimDuration::from_mins(30),
            scripted: Vec::new(),
            organic_faults: true,
            coordinate_drains: true,
            robot_faults: RobotFaultConfig::default(),
            recovery: RecoveryPolicy::default(),
            obs: ObsConfig::default(),
            twin: dcmaint_twin::TwinPolicy::Ladder,
            autonomic: None,
            fleet_active_cap: None,
            nondet_demo: false,
        }
    }

    /// Baseline at a given automation level, with robots deployed when
    /// the level uses them.
    pub fn at_level(seed: u64, level: AutomationLevel) -> Self {
        let mut cfg = Self::baseline(seed);
        cfg.level = level;
        cfg.robots_per_row = if level >= AutomationLevel::L2 { 1 } else { 0 };
        cfg
    }

    /// Reshape to the small CI fabric every `--quick` run shares (one
    /// E1 quick cell, `sweep --quick`, `profile --quick`,
    /// `bisect --quick`, the bench suite's `twin` and `sweep` cases,
    /// serve's `quick=1`): a 2×6×2 leaf-spine, 120 s telemetry polls and
    /// a 12-day per-link MTBI, so a two-week run stays busy but fast.
    pub fn apply_quick_fabric(&mut self) {
        self.topology = TopologySpec::LeafSpine {
            spines: 2,
            leaves: 6,
            servers_per_leaf: 2,
        };
        self.poll_period = SimDuration::from_secs(120);
        self.faults.mtbi_per_link = SimDuration::from_days(12);
    }

    /// The controller config this scenario runs.
    pub fn controller_config(&self) -> ControllerConfig {
        self.controller
            .clone()
            .unwrap_or_else(|| ControllerConfig::at_level(self.level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_builds_a_real_fabric() {
        let cfg = ScenarioConfig::baseline(1);
        let topo = cfg.topology.build(cfg.diversity, &SimRng::root(cfg.seed));
        assert!(topo.link_count() > 100);
        assert!(!topo.servers().is_empty());
    }

    #[test]
    fn level_presets_deploy_robots() {
        assert_eq!(
            ScenarioConfig::at_level(1, AutomationLevel::L0).robots_per_row,
            0
        );
        assert_eq!(
            ScenarioConfig::at_level(1, AutomationLevel::L1).robots_per_row,
            0
        );
        assert_eq!(
            ScenarioConfig::at_level(1, AutomationLevel::L2).robots_per_row,
            1
        );
        assert_eq!(
            ScenarioConfig::at_level(1, AutomationLevel::L4).robots_per_row,
            1
        );
    }

    #[test]
    fn all_topology_specs_build() {
        let rng = SimRng::root(7);
        let d = DiversityProfile::standardized();
        for spec in [
            TopologySpec::LeafSpine {
                spines: 2,
                leaves: 4,
                servers_per_leaf: 2,
            },
            TopologySpec::FatTree { k: 4 },
            TopologySpec::Jellyfish {
                switches: 10,
                degree: 4,
                servers_per_switch: 1,
            },
            TopologySpec::Xpander {
                d: 3,
                lift: 3,
                servers_per_switch: 1,
            },
        ] {
            let t = spec.build(d, &rng);
            assert!(t.link_count() > 0, "{spec:?}");
        }
    }

    #[test]
    fn controller_config_respects_override() {
        let mut cfg = ScenarioConfig::baseline(1);
        assert_eq!(cfg.controller_config().level, AutomationLevel::L0);
        cfg.controller = Some(ControllerConfig::at_level(AutomationLevel::L3));
        assert_eq!(cfg.controller_config().level, AutomationLevel::L3);
    }
}
