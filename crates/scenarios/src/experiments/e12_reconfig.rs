//! E12 — robotic topology reconfiguration (§4 extension: "the robotics
//! … will also be able to deploy arbitrary topologies potentially. Is
//! this useful?").
//!
//! A concrete, deployable answer: when a ToR switch dies, its servers
//! are stranded until a human replaces the chassis (dispatch + an ~8 h
//! swap). A robotic patch panel instead re-patches the stranded cables
//! to spare ports on nearby healthy switches at ~20 min per cable,
//! cutting server downtime by an order of magnitude; the chassis swap
//! then proceeds with nothing stranded behind it.
//!
//! The experiment fails every ToR in each fabric, plans and verifies the
//! rewire (`dcmaint-topomaint::reconfig`), and compares the stranded
//! server-hours of the two strategies.

use dcmaint_des::{SimDuration, SimRng};
use dcmaint_metrics::{Align, Cell, Table};
use dcmaint_topomaint::reconfig::{evaluate_rewire, tor_switches};

use crate::config::TopologySpec;

/// Parameters for E12.
#[derive(Debug, Clone)]
pub struct E12Params {
    /// RNG seed.
    pub seed: u64,
    /// Human chassis-replacement window (dispatch + install).
    pub human_replacement: SimDuration,
    /// Maximum ToRs sampled per fabric.
    pub max_tors: usize,
}

impl E12Params {
    /// CI-sized.
    pub fn quick(seed: u64) -> Self {
        E12Params {
            seed,
            human_replacement: SimDuration::from_hours(10),
            max_tors: 4,
        }
    }

    /// Paper-sized.
    pub fn full(seed: u64) -> Self {
        E12Params {
            seed,
            human_replacement: SimDuration::from_hours(10),
            max_tors: 16,
        }
    }
}

/// One row of the E12 table.
#[derive(Debug, Clone)]
pub struct E12Row {
    /// Topology name.
    pub topology: String,
    /// ToR failures evaluated.
    pub tors_tested: usize,
    /// Mean servers stranded per failure.
    pub mean_stranded: f64,
    /// Fraction of stranded nodes the rewire reconnects.
    pub restored_frac: f64,
    /// Mean robot rewire completion time.
    pub mean_rewire: SimDuration,
    /// Stranded server-hours per failure, waiting for the human swap.
    pub static_server_hours: f64,
    /// Stranded server-hours per failure with robotic rewiring.
    pub rewired_server_hours: f64,
    /// Downtime reduction factor.
    pub reduction: f64,
}

/// The fabrics compared.
fn specs() -> Vec<TopologySpec> {
    vec![
        TopologySpec::LeafSpine {
            spines: 4,
            leaves: 16,
            servers_per_leaf: 4,
        },
        TopologySpec::FatTree { k: 4 },
        TopologySpec::Jellyfish {
            switches: 20,
            degree: 8,
            servers_per_switch: 4,
        },
    ]
}

/// Run E12.
pub fn run_experiment(p: &E12Params) -> Vec<E12Row> {
    let rng = SimRng::root(p.seed);
    specs()
        .into_iter()
        .map(|spec| {
            let topo = spec.build(dcmaint_dcnet::DiversityProfile::cloud_typical(), &rng);
            let tors: Vec<_> = tor_switches(&topo).into_iter().take(p.max_tors).collect();
            let mut stranded = 0.0;
            let mut restored = 0.0;
            let mut rewire_s = 0.0;
            let mut static_sh = 0.0;
            let mut rewired_sh = 0.0;
            for &tor in &tors {
                let out = evaluate_rewire(&topo, tor, &rng);
                stranded += out.stranded as f64;
                restored += out.restored_frac;
                rewire_s += out.rewire_time.as_secs_f64();
                static_sh += out.stranded as f64 * p.human_replacement.as_hours_f64();
                // Rewired: restored nodes are down only for the rewire
                // window; unrescued ones still wait for the human.
                let rescued = out.stranded as f64 * out.restored_frac;
                rewired_sh += rescued * out.rewire_time.as_hours_f64()
                    + (out.stranded as f64 - rescued) * p.human_replacement.as_hours_f64();
            }
            let n = tors.len().max(1) as f64;
            let static_per = static_sh / n;
            let rewired_per = rewired_sh / n;
            E12Row {
                topology: topo.name().to_string(),
                tors_tested: tors.len(),
                mean_stranded: stranded / n,
                restored_frac: restored / n,
                mean_rewire: SimDuration::from_secs_f64(rewire_s / n),
                static_server_hours: static_per,
                rewired_server_hours: rewired_per,
                reduction: if rewired_per > 0.0 {
                    static_per / rewired_per
                } else {
                    f64::INFINITY
                },
            }
        })
        .collect()
}

/// Render the E12 table.
pub fn table(rows: &[E12Row]) -> Table {
    let mut t = Table::new(
        "E12: robotic re-patching around failed ToR switches (§4 extension)",
        &[
            ("topology", Align::Left),
            ("ToRs", Align::Right),
            ("stranded/failure", Align::Right),
            ("restored", Align::Right),
            ("rewire time", Align::Right),
            ("static srv-h", Align::Right),
            ("rewired srv-h", Align::Right),
            ("reduction", Align::Right),
        ],
    );
    for r in rows {
        t.row(vec![
            r.topology.as_str().into(),
            Cell::Count(r.tors_tested as u64),
            Cell::Num(r.mean_stranded, 1),
            Cell::Pct(r.restored_frac, 1),
            Cell::Dur(r.mean_rewire),
            Cell::Num(r.static_server_hours, 1),
            Cell::Num(r.rewired_server_hours, 1),
            Cell::Ratio(r.reduction),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewiring_slashes_stranded_server_hours() {
        let rows = run_experiment(&E12Params::quick(121));
        for r in &rows {
            assert!(
                r.mean_stranded > 0.0,
                "{}: ToR failures strand servers",
                r.topology
            );
            assert!(
                r.restored_frac > 0.95,
                "{}: rewire restores {:.0}%",
                r.topology,
                r.restored_frac * 100.0
            );
            assert!(
                r.reduction > 4.0,
                "{}: reduction only {:.1}x",
                r.topology,
                r.reduction
            );
        }
    }

    #[test]
    fn rewire_time_scales_with_stranded_count() {
        let rows = run_experiment(&E12Params::quick(122));
        for r in &rows {
            let expected = r.mean_stranded * 20.0 * 60.0; // 20 min/cable
            assert!(
                (r.mean_rewire.as_secs_f64() - expected).abs() < 1.0,
                "{}: rewire {} vs expected {expected}s",
                r.topology,
                r.mean_rewire
            );
        }
    }

    #[test]
    fn table_covers_all_fabrics() {
        let rows = run_experiment(&E12Params::quick(123));
        assert_eq!(rows.len(), 3);
        let out = table(&rows).render();
        assert!(out.contains("leaf-spine") && out.contains("jellyfish"));
    }
}
