//! E15 — twin-guided repair planning vs the plain degradation ladder.
//!
//! The paper's closing provocation, made quantitative: a maintenance
//! plane that *rehearses* its repair decisions on forked digital twins
//! (DESIGN §3.14) is compared against the same controller deciding by
//! its degradation ladder alone. Three scenario shapings reuse the
//! fault worlds of earlier experiments:
//!
//! * **reactive** (E1's world): baseline L3 fabric, organic faults only
//!   — planning can only reorder the repair vocabulary;
//! * **wear-heavy** (E4's world): `wear_growth = 2.0`, where choosing a
//!   deeper ladder rung up front avoids reopen cycles on worn plant;
//! * **trough-timed** (E13's world): wear-heavy plus
//!   `trough_scheduling`, where act-now vs defer-to-trough is a live
//!   question the twin can rehearse instead of following the heuristic.
//!
//! Every cell runs both policies at the *same seed* on the same fault
//! stream, so the availability delta is attributable to the decisions,
//! not the draw. Twin cells also report the planner's own accounting:
//! decision points, branch forks, committed deviations, and predicted
//! availability (comparable against the realized column — the
//! prediction-calibration metric in EXPERIMENTS.md's glossary).

use dcmaint_des::SimDuration;
use dcmaint_metrics::{Align, Cell, Table};
use dcmaint_twin::{TwinConfig, TwinPolicy};
use maintctl::{AutomationLevel, ControllerConfig};

use crate::config::{ScenarioConfig, TopologySpec};
use crate::engine::run;

/// The three scenario shapings compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwinScenario {
    /// E1's world: reactive repair on the baseline fabric.
    Reactive,
    /// E4's world: accelerated wear growth.
    WearHeavy,
    /// E13's world: wear plus trough-gated routine scheduling.
    TroughTimed,
}

impl TwinScenario {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            TwinScenario::Reactive => "reactive (E1)",
            TwinScenario::WearHeavy => "wear-heavy (E4)",
            TwinScenario::TroughTimed => "trough-timed (E13)",
        }
    }

    /// All shapings, canonical order.
    pub const ALL: [TwinScenario; 3] = [
        TwinScenario::Reactive,
        TwinScenario::WearHeavy,
        TwinScenario::TroughTimed,
    ];
}

/// Parameters for E15.
#[derive(Debug, Clone)]
pub struct E15Params {
    /// RNG seed shared by both policies of every cell.
    pub seed: u64,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Fabric.
    pub topology: TopologySpec,
    /// Per-link MTBI (compressed so short runs see real traffic).
    pub mtbi: SimDuration,
    /// Twin tuning used by the twin arm of every cell.
    pub twin: TwinConfig,
}

impl E15Params {
    /// CI-sized: a small fabric with a half-run planning horizon, so the
    /// twin arm's fork fan-out stays cheap enough to run twice in the
    /// determinism gate.
    pub fn quick(seed: u64) -> Self {
        E15Params {
            seed,
            duration: SimDuration::from_days(14),
            topology: TopologySpec::LeafSpine {
                spines: 2,
                leaves: 5,
                servers_per_leaf: 2,
            },
            mtbi: SimDuration::from_days(12),
            twin: TwinConfig {
                horizon: SimDuration::from_days(7),
                ..TwinConfig::default()
            },
        }
    }

    /// Paper-sized.
    pub fn full(seed: u64) -> Self {
        E15Params {
            seed,
            duration: SimDuration::from_days(30),
            topology: TopologySpec::LeafSpine {
                spines: 4,
                leaves: 8,
                servers_per_leaf: 4,
            },
            mtbi: SimDuration::from_days(20),
            twin: TwinConfig {
                horizon: SimDuration::from_days(10),
                ..TwinConfig::default()
            },
        }
    }
}

/// One row of the E15 table (one scenario × one policy).
#[derive(Debug, Clone)]
pub struct E15Row {
    /// Scenario shaping.
    pub scenario: TwinScenario,
    /// Whether this is the twin-guided arm.
    pub twin_guided: bool,
    /// Realized fleet availability.
    pub availability: f64,
    /// Total operating cost.
    pub cost: f64,
    /// Incidents over the run.
    pub incidents: u64,
    /// Tickets fixed.
    pub tickets_fixed: u64,
    /// Twin decision points (0 in ladder arms).
    pub decisions: u64,
    /// Branch engines forked (0 in ladder arms).
    pub forks: u64,
    /// Decisions where a non-ladder branch was committed.
    pub committed: u64,
    /// Mean predicted availability of the chosen branches (1.0 when no
    /// decision fired; meaningless in ladder arms).
    pub predicted_availability: f64,
}

fn cell_config(p: &E15Params, scenario: TwinScenario, twin: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::at_level(p.seed, AutomationLevel::L3);
    cfg.duration = p.duration;
    cfg.topology = p.topology.clone();
    cfg.faults.mtbi_per_link = p.mtbi;
    cfg.poll_period = SimDuration::from_secs(120);
    let mut ctl = ControllerConfig::at_level(AutomationLevel::L3);
    // Pin scheduled loops off: E15 isolates *reactive decision quality*;
    // campaigns and prediction are E4/E11's subject.
    ctl.proactive = None;
    ctl.predictive = None;
    match scenario {
        TwinScenario::Reactive => {}
        TwinScenario::WearHeavy => {
            cfg.wear_growth = 2.0;
        }
        TwinScenario::TroughTimed => {
            cfg.wear_growth = 2.0;
            ctl.trough_scheduling = true;
        }
    }
    cfg.controller = Some(ctl);
    if twin {
        cfg.twin = TwinPolicy::TwinGuided(p.twin.clone());
    }
    cfg
}

/// Run all six cells (3 scenarios × {ladder, twin}), ladder first in
/// each pair.
pub fn run_experiment(p: &E15Params) -> Vec<E15Row> {
    let mut rows = Vec::with_capacity(6);
    for scenario in TwinScenario::ALL {
        for twin in [false, true] {
            let report = run(cell_config(p, scenario, twin));
            let t = report.twin.as_ref();
            rows.push(E15Row {
                scenario,
                twin_guided: twin,
                availability: report.availability.availability,
                cost: report.costs.total(),
                incidents: report.incidents,
                tickets_fixed: report.tickets_fixed,
                decisions: t.map_or(0, |t| t.decisions),
                forks: t.map_or(0, |t| t.forks),
                committed: t.map_or(0, |t| t.committed),
                predicted_availability: t.map_or(0.0, |t| t.mean_predicted_availability),
            });
        }
    }
    rows
}

/// Render the E15 table.
pub fn table(rows: &[E15Row]) -> Table {
    let mut t = Table::new(
        "E15: twin-guided repair planning vs the degradation ladder (DESIGN §3.14)",
        &[
            ("scenario", Align::Left),
            ("policy", Align::Left),
            ("availability", Align::Right),
            ("cost", Align::Right),
            ("incidents", Align::Right),
            ("fixed", Align::Right),
            ("decisions", Align::Right),
            ("forks", Align::Right),
            ("committed", Align::Right),
            ("predicted avail", Align::Right),
        ],
    );
    for r in rows {
        t.row(vec![
            r.scenario.label().into(),
            if r.twin_guided { "twin" } else { "ladder" }.into(),
            Cell::Num(r.availability, 6),
            Cell::Num(r.cost, 0),
            Cell::Count(r.incidents),
            Cell::Count(r.tickets_fixed),
            Cell::Count(r.decisions),
            Cell::Count(r.forks),
            Cell::Count(r.committed),
            if r.twin_guided {
                Cell::Num(r.predicted_availability, 6)
            } else {
                "-".into()
            },
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion: at the pinned seed, twin-guided matches
    /// or beats the ladder on availability in the wear-heavy (E4) and
    /// trough-timed (E13) worlds, and the planner demonstrably ran.
    #[test]
    fn twin_matches_or_beats_ladder_on_wear_and_trough_worlds() {
        let rows = run_experiment(&E15Params::quick(2024));
        let cell = |s: TwinScenario, twin: bool| {
            rows.iter()
                .find(|r| r.scenario == s && r.twin_guided == twin)
                .expect("cell present")
        };
        for s in [TwinScenario::WearHeavy, TwinScenario::TroughTimed] {
            let (ladder, twin) = (cell(s, false), cell(s, true));
            assert!(
                twin.availability >= ladder.availability,
                "{}: twin {:.6} < ladder {:.6}",
                s.label(),
                twin.availability,
                ladder.availability
            );
            assert!(twin.decisions > 0, "{}: planner never fired", s.label());
            assert!(twin.forks >= twin.decisions * 2, "fan-out too small");
        }
    }

    /// Ladder arms never carry twin accounting; twin arms always do.
    #[test]
    fn accounting_is_present_only_in_twin_arms() {
        let rows = run_experiment(&E15Params::quick(7));
        for r in &rows {
            if r.twin_guided {
                assert!(r.decisions > 0);
                assert!(r.predicted_availability > 0.0);
            } else {
                assert_eq!((r.decisions, r.forks, r.committed), (0, 0, 0));
            }
        }
        let out = table(&rows).render();
        assert!(out.contains("twin"));
        assert!(out.contains("ladder"));
    }

    /// Same params, rerun → byte-identical table (the golden-output
    /// determinism CI gates on).
    #[test]
    fn e15_is_deterministic() {
        let a = table(&run_experiment(&E15Params::quick(5))).render();
        let b = table(&run_experiment(&E15Params::quick(5))).render();
        assert_eq!(a, b);
    }
}
