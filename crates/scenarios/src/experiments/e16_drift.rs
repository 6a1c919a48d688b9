//! E16 — policy decay under failure-mix drift: static tuning vs the
//! autonomic MAPE-K loop.
//!
//! The paper's self-maintenance argument has a temporal clause the
//! earlier experiments hold fixed: the fleet *ages*. Hazards grow as
//! cohorts wear (§3.2's dirt and oxidation accumulate), and the failure
//! mix shifts — a world tuned for year-one contamination rates meets a
//! mid-life oxidation wave. A statically tuned maintenance plane decays
//! with it; the MAPE-K loop (DESIGN §3.16) re-tunes online.
//!
//! The scenario makes the drift explicit: accelerated `wear_growth`
//! ages every cohort through the run, and a scripted burst of
//! [`RootCause::OxidizedContact`] incidents lands mid-run — the
//! failure-mix shift. Two arms run on the *same seed and fault
//! stream*:
//!
//! * **static** — the robot-concurrency cap pinned at its year-one
//!   value (`fleet_active_cap`), every other policy at defaults;
//! * **autonomic** — the MAPE-K loop starting from the *same* cap,
//!   free to re-tune it (and its sibling knobs) as pressure builds.
//!
//! The availability delta is then attributable to adaptation alone.
//! Autonomic arms also report the loop's own accounting: ticks,
//! directives applied, rollbacks, the final tuned cap, and posterior
//! convergence — the adaptation glossary in EXPERIMENTS.md.

use dcmaint_autonomic::AutonomicConfig;
use dcmaint_des::{SimDuration, SimTime};
use dcmaint_faults::RootCause;
use dcmaint_metrics::{Align, Cell, Table};
use maintctl::{AutomationLevel, ControllerConfig};

use crate::config::{ScenarioConfig, ScriptedIncident, TopologySpec};
use crate::engine::run;

/// Parameters for E16.
#[derive(Debug, Clone)]
pub struct E16Params {
    /// Seeds swept; each seed runs both arms on the same fault stream.
    pub seeds: Vec<u64>,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Fabric.
    pub topology: TopologySpec,
    /// Per-link MTBI (compressed so short runs see real traffic).
    pub mtbi: SimDuration,
    /// Hazard growth per 90 unmaintained days — the cohort-aging drift.
    pub wear_growth: f64,
    /// When the scripted oxidation wave lands (the mix-shift drift).
    pub burst_at: SimTime,
    /// Incidents in the wave (spread over distinct links, 20 min apart).
    pub burst_links: usize,
    /// Year-one robot-concurrency cap both arms start from.
    pub cap: usize,
    /// MAPE-K loop period for the autonomic arm.
    pub tick_period: SimDuration,
}

impl E16Params {
    /// CI-sized: a small fabric, two weeks, the wave at day 7, and a
    /// fast loop so adaptation fires inside the short run.
    pub fn quick(seeds: &[u64]) -> Self {
        E16Params {
            seeds: seeds.to_vec(),
            duration: SimDuration::from_days(14),
            topology: TopologySpec::LeafSpine {
                spines: 2,
                leaves: 5,
                servers_per_leaf: 2,
            },
            mtbi: SimDuration::from_days(12),
            wear_growth: 3.0,
            burst_at: SimTime::ZERO + SimDuration::from_days(7),
            burst_links: 10,
            cap: 1,
            tick_period: SimDuration::from_hours(2),
        }
    }

    /// Paper-sized.
    pub fn full(seeds: &[u64]) -> Self {
        E16Params {
            seeds: seeds.to_vec(),
            duration: SimDuration::from_days(45),
            topology: TopologySpec::LeafSpine {
                spines: 4,
                leaves: 8,
                servers_per_leaf: 4,
            },
            mtbi: SimDuration::from_days(25),
            wear_growth: 2.5,
            burst_at: SimTime::ZERO + SimDuration::from_days(20),
            burst_links: 24,
            cap: 1,
            tick_period: SimDuration::from_hours(6),
        }
    }
}

/// One row of the E16 table (one seed × one arm).
#[derive(Debug, Clone)]
pub struct E16Row {
    /// RNG seed of the cell.
    pub seed: u64,
    /// Whether this is the autonomic arm.
    pub autonomic: bool,
    /// Realized fleet availability.
    pub availability: f64,
    /// Total operating cost.
    pub cost: f64,
    /// Incidents over the run.
    pub incidents: u64,
    /// Tickets fixed.
    pub tickets_fixed: u64,
    /// MAPE-K ticks (0 in static arms).
    pub ticks: u64,
    /// Directives executed (0 in static arms).
    pub applied: u64,
    /// Guardrail rollbacks (0 in static arms).
    pub rollbacks: u64,
    /// Final robot-concurrency cap (the static cap in static arms).
    pub final_cap: u64,
    /// Robot dispatches the cap redirected to humans.
    pub cap_fallbacks: u64,
    /// Cause×action posteriors converged / tracked (autonomic arms).
    pub posteriors: (u64, u64),
}

/// Build one cell's scenario: the shared drifting world, plus the arm's
/// policy (static cap vs the loop starting from it).
pub fn cell_config(p: &E16Params, seed: u64, autonomic: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::at_level(seed, AutomationLevel::L3);
    cfg.duration = p.duration;
    cfg.topology = p.topology.clone();
    cfg.faults.mtbi_per_link = p.mtbi;
    cfg.poll_period = SimDuration::from_secs(120);
    cfg.wear_growth = p.wear_growth;
    // Pin the scheduled loops off so the arms differ only in the knob
    // policy under test; campaigns and prediction are E4/E11's subject.
    let mut ctl = ControllerConfig::at_level(AutomationLevel::L3);
    ctl.proactive = None;
    ctl.predictive = None;
    cfg.controller = Some(ctl);
    // The mix-shift: an oxidation wave across distinct links, 20 min
    // apart, landing mid-run on top of the organic process.
    let link_count = cfg
        .topology
        .build(cfg.diversity, &dcmaint_des::SimRng::root(seed))
        .link_count();
    for i in 0..p.burst_links {
        cfg.scripted.push(ScriptedIncident {
            at: p.burst_at + SimDuration::from_mins(20) * i as u64,
            link_index: (i * 3) % link_count,
            cause: RootCause::OxidizedContact,
        });
    }
    if autonomic {
        cfg.autonomic = Some(AutonomicConfig {
            tick_period: p.tick_period,
            fleet_cap_start: p.cap,
            ..AutonomicConfig::default()
        });
    } else {
        cfg.fleet_active_cap = Some(p.cap);
    }
    cfg
}

/// Run all cells (each seed × {static, autonomic}), static first.
pub fn run_experiment(p: &E16Params) -> Vec<E16Row> {
    let mut rows = Vec::with_capacity(p.seeds.len() * 2);
    for &seed in &p.seeds {
        for autonomic in [false, true] {
            let report = run(cell_config(p, seed, autonomic));
            let a = report.autonomic.as_ref();
            rows.push(E16Row {
                seed,
                autonomic,
                availability: report.availability.availability,
                cost: report.costs.total(),
                incidents: report.incidents,
                tickets_fixed: report.tickets_fixed,
                ticks: a.map_or(0, |a| a.ticks),
                applied: a.map_or(0, |a| a.applied),
                rollbacks: a.map_or(0, |a| a.rollbacks),
                final_cap: a.map_or(p.cap as u64, |a| a.fleet_cap),
                cap_fallbacks: a.map_or(0, |a| a.cap_fallbacks),
                posteriors: a.map_or((0, 0), |a| (a.posteriors_converged, a.posteriors_total)),
            });
        }
    }
    rows
}

/// Render the E16 table.
pub fn table(rows: &[E16Row]) -> Table {
    let mut t = Table::new(
        "E16: policy decay under failure-mix drift — static vs autonomic (DESIGN §3.16)",
        &[
            ("seed", Align::Right),
            ("policy", Align::Left),
            ("availability", Align::Right),
            ("cost", Align::Right),
            ("incidents", Align::Right),
            ("fixed", Align::Right),
            ("ticks", Align::Right),
            ("applied", Align::Right),
            ("rollbacks", Align::Right),
            ("final cap", Align::Right),
            ("cap→human", Align::Right),
            ("posteriors", Align::Right),
        ],
    );
    for r in rows {
        t.row(vec![
            r.seed.to_string().into(),
            if r.autonomic { "autonomic" } else { "static" }.into(),
            Cell::Num(r.availability, 6),
            Cell::Num(r.cost, 0),
            Cell::Count(r.incidents),
            Cell::Count(r.tickets_fixed),
            Cell::Count(r.ticks),
            Cell::Count(r.applied),
            Cell::Count(r.rollbacks),
            Cell::Count(r.final_cap),
            Cell::Count(r.cap_fallbacks),
            if r.autonomic {
                Cell::Join(
                    vec![Cell::Count(r.posteriors.0), Cell::Count(r.posteriors.1)],
                    "/",
                )
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

    /// The acceptance criterion: at every swept seed the autonomic arm
    /// matches or beats the statically tuned arm on availability, and
    /// the loop demonstrably ran and adapted in at least one cell.
    #[test]
    fn autonomic_matches_or_beats_static_at_every_seed() {
        let p = E16Params::quick(&[11, 23, 42]);
        let rows = run_experiment(&p);
        let mut any_adapted = false;
        for &seed in &p.seeds {
            let cell = |auto: bool| {
                rows.iter()
                    .find(|r| r.seed == seed && r.autonomic == auto)
                    .expect("cell present")
            };
            let (stat, auto) = (cell(false), cell(true));
            assert!(
                auto.availability >= stat.availability,
                "seed {}: autonomic {:.6} < static {:.6}",
                seed,
                auto.availability,
                stat.availability
            );
            assert!(auto.ticks > 0, "seed {seed}: loop never ticked");
            assert_eq!(stat.ticks, 0, "static arm must not run the loop");
            if auto.applied > 0 && auto.final_cap > stat.final_cap {
                any_adapted = true;
            }
        }
        assert!(
            any_adapted,
            "no seed showed an executed cap raise; drift too weak to test adaptation"
        );
    }

    /// Same params, rerun → byte-identical table (the golden-output
    /// determinism CI gates on).
    #[test]
    fn e16_is_deterministic() {
        let p = E16Params::quick(&[11]);
        let a = table(&run_experiment(&p)).render();
        let b = table(&run_experiment(&p)).render();
        assert_eq!(a, b);
    }
}
