//! E8 — self-maintainability across topologies (claim C9, §4).
//!
//! "The reason these more efficient network topologies are not used is
//! the complexity of deployment … the complexity to manually deploy the
//! complex wiring looms … perhaps we can create a metric for
//! self-maintainability of a network design?" The metric is
//! `dcmaint-topomaint`; the experiment applies it to four fabrics of
//! comparable switch count built over the same hall model, and
//! optionally validates with a short L3 simulation on each.

use dcmaint_des::{SimDuration, SimRng};
use dcmaint_metrics::{Align, Cell, Table};
use dcmaint_topomaint::{analyze, MaintainabilityReport};
use maintctl::AutomationLevel;

use crate::config::{ScenarioConfig, TopologySpec};
use crate::engine::run;

/// Parameters for E8.
#[derive(Debug, Clone)]
pub struct E8Params {
    /// RNG seed.
    pub seed: u64,
    /// Run a short L3 simulation per topology for measured availability.
    pub simulate: bool,
    /// Simulated duration when `simulate`.
    pub sim_duration: SimDuration,
}

impl E8Params {
    /// CI-sized: analytic only.
    pub fn quick(seed: u64) -> Self {
        E8Params {
            seed,
            simulate: false,
            sim_duration: SimDuration::from_days(10),
        }
    }

    /// Paper-sized: with validation sims.
    pub fn full(seed: u64) -> Self {
        E8Params {
            seed,
            simulate: true,
            sim_duration: SimDuration::from_days(20),
        }
    }
}

/// One row of the E8 table.
#[derive(Debug, Clone)]
pub struct E8Row {
    /// The analyzed topology.
    pub report: MaintainabilityReport,
    /// Measured availability from the validation sim (None if skipped).
    pub sim_availability: Option<f64>,
}

/// The four compared fabrics, sized to comparable switch counts.
pub fn specs() -> Vec<(&'static str, TopologySpec)> {
    vec![
        (
            "leaf-spine",
            TopologySpec::LeafSpine {
                spines: 4,
                leaves: 16,
                servers_per_leaf: 2,
            },
        ),
        ("fat-tree", TopologySpec::FatTree { k: 4 }),
        (
            "jellyfish",
            TopologySpec::Jellyfish {
                switches: 20,
                degree: 8,
                servers_per_switch: 2,
            },
        ),
        (
            "xpander",
            TopologySpec::Xpander {
                d: 7,
                lift: 3,
                servers_per_switch: 2,
            },
        ),
    ]
}

/// Run E8.
pub fn run_experiment(p: &E8Params) -> Vec<E8Row> {
    let rng = SimRng::root(p.seed);
    specs()
        .into_iter()
        .map(|(_, spec)| {
            let topo = spec.build(dcmaint_dcnet::DiversityProfile::cloud_typical(), &rng);
            let report = analyze(&topo, 40, &rng);
            let sim_availability = if p.simulate {
                let mut cfg = ScenarioConfig::at_level(p.seed, AutomationLevel::L3);
                cfg.topology = spec;
                cfg.duration = p.sim_duration;
                cfg.poll_period = SimDuration::from_secs(300);
                Some(run(cfg).availability.availability)
            } else {
                None
            };
            E8Row {
                report,
                sim_availability,
            }
        })
        .collect()
}

/// Render the E8 table.
pub fn table(rows: &[E8Row]) -> Table {
    let mut t = Table::new(
        "E8: self-maintainability of topologies (C9)",
        &[
            ("topology", Align::Left),
            ("links", Align::Right),
            ("mean cable m", Align::Right),
            ("bundle size", Align::Right),
            ("SKUs", Align::Right),
            ("tray max", Align::Right),
            ("blast radius", Align::Right),
            ("drainable", Align::Right),
            ("M-index", Align::Right),
            ("sim avail", Align::Right),
        ],
    );
    for r in rows {
        let m = &r.report;
        t.row(vec![
            m.topology.as_str().into(),
            Cell::Count(m.links as u64),
            Cell::Num(m.mean_cable_m, 1),
            Cell::Num(m.mean_bundle_size, 2),
            Cell::Count(m.cable_skus as u64),
            Cell::Count(m.max_tray_load as u64),
            Cell::Num(m.mean_blast_radius, 1),
            Cell::Num(m.drainable_frac, 2),
            Cell::Num(m.index, 1),
            r.sim_availability.map_or("-".into(), |a| Cell::Num(a, 5)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structured_fabrics_outscore_random_ones() {
        let rows = run_experiment(&E8Params::quick(81));
        let idx = |name: &str| {
            rows.iter()
                .find(|r| r.report.topology.starts_with(name))
                .unwrap()
                .report
                .index
        };
        let ls = idx("leaf-spine");
        let ft = idx("fat-tree");
        let jf = idx("jellyfish");
        let xp = idx("xpander");
        assert!(ls > jf, "leaf-spine {ls:.1} vs jellyfish {jf:.1}");
        assert!(ft > xp, "fat-tree {ft:.1} vs xpander {xp:.1}");
    }

    #[test]
    fn random_fabrics_cannot_bundle() {
        let rows = run_experiment(&E8Params::quick(82));
        let bundle = |name: &str| {
            rows.iter()
                .find(|r| r.report.topology.starts_with(name))
                .unwrap()
                .report
                .mean_bundle_size
        };
        assert!(bundle("leaf-spine") > 2.0 * bundle("jellyfish"));
    }

    #[test]
    fn expanders_win_on_drainability() {
        // §4's counterpoint: path diversity is the expander's strength —
        // robotic maintenance could exploit it.
        let rows = run_experiment(&E8Params::quick(83));
        let drain = |name: &str| {
            rows.iter()
                .find(|r| r.report.topology.starts_with(name))
                .unwrap()
                .report
                .drainable_frac
        };
        assert!(drain("xpander") >= drain("fat-tree") - 0.05);
    }

    #[test]
    fn table_lists_all_four() {
        let rows = run_experiment(&E8Params::quick(84));
        let out = table(&rows).render();
        for n in ["leaf-spine", "fat-tree", "jellyfish", "xpander"] {
            assert!(out.contains(n), "missing {n}");
        }
    }
}
