//! E5 — right-provisioning: spares needed vs repair speed (claim C7).
//!
//! "Real potential for right-provisioning redundant hardware components
//! … due to greater control over the window of vulnerability" (§2). The
//! advisor inverts k-of-n binomial availability: how many uplinks must a
//! leaf carry, needing `k` for peak load, at each MTTR — from the
//! robotic 10 minutes to the human multi-day queue — and what does the
//! standing redundancy cost per leaf per year.

use dcmaint_des::SimDuration;
use dcmaint_metrics::{Align, Cell, CostModel, Table};
use maintctl::provision::advise;

/// Parameters for E5.
#[derive(Debug, Clone)]
pub struct E5Params {
    /// Member link MTBF.
    pub mtbf: SimDuration,
    /// Working links needed (k).
    pub needed: usize,
    /// Availability targets to satisfy.
    pub targets: Vec<f64>,
    /// MTTR points to sweep (label, value).
    pub mttrs: Vec<(&'static str, SimDuration)>,
}

impl E5Params {
    /// Default sweep used by EXPERIMENTS.md (analytic — no quick/full
    /// distinction needed).
    pub fn standard() -> Self {
        E5Params {
            mtbf: SimDuration::from_days(60),
            needed: 8,
            targets: vec![0.999, 0.9999, 0.99999],
            mttrs: vec![
                ("robot 10m", SimDuration::from_mins(10)),
                ("robot 1h", SimDuration::from_hours(1)),
                ("human 8h", SimDuration::from_hours(8)),
                ("human 2d", SimDuration::from_days(2)),
                ("human 5d", SimDuration::from_days(5)),
            ],
        }
    }
}

/// One row of the E5 table.
#[derive(Debug, Clone)]
pub struct E5Row {
    /// MTTR label.
    pub mttr_label: &'static str,
    /// MTTR value.
    pub mttr: SimDuration,
    /// Availability target.
    pub target: f64,
    /// Links to provision.
    pub n: usize,
    /// Spares beyond k.
    pub spares: usize,
    /// Annual standing-redundancy cost (USD, per link group).
    pub redundancy_cost: f64,
}

/// Run the sweep.
pub fn run_experiment(p: &E5Params) -> Vec<E5Row> {
    let costs = CostModel::default();
    let mut rows = Vec::new();
    for &(label, mttr) in &p.mttrs {
        for &target in &p.targets {
            let adv = advise(p.mtbf, mttr, p.needed, target);
            rows.push(E5Row {
                mttr_label: label,
                mttr,
                target,
                n: adv.n,
                spares: adv.spares,
                redundancy_cost: adv.spares as f64 * costs.redundant_link_annual,
            });
        }
    }
    rows
}

/// Render the E5 table.
pub fn table(rows: &[E5Row]) -> Table {
    let mut t = Table::new(
        "E5: provisioned links for k=8 working vs MTTR (C7)",
        &[
            ("repair speed", Align::Left),
            ("target", Align::Right),
            ("provision n", Align::Right),
            ("spares", Align::Right),
            ("redundancy $/yr", Align::Right),
        ],
    );
    for r in rows {
        t.row(vec![
            r.mttr_label.into(),
            Cell::Pct(r.target, 3),
            Cell::Count(r.n as u64),
            Cell::Count(r.spares as u64),
            Cell::Num(r.redundancy_cost, 0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_for(target: f64) -> Vec<E5Row> {
        run_experiment(&E5Params::standard())
            .into_iter()
            .filter(|r| (r.target - target).abs() < 1e-12)
            .collect()
    }

    #[test]
    fn spares_grow_monotonically_with_mttr() {
        for &target in &[0.999, 0.9999, 0.99999] {
            let rows = rows_for(target);
            for w in rows.windows(2) {
                assert!(
                    w[1].spares >= w[0].spares,
                    "spares not monotone at target {target}: {} then {}",
                    w[0].spares,
                    w[1].spares
                );
            }
        }
    }

    #[test]
    fn robot_mttr_saves_standing_redundancy() {
        // The C7 headline: minutes-scale repair needs materially fewer
        // spares than days-scale at four nines.
        let rows = rows_for(0.9999);
        let robot = rows.iter().find(|r| r.mttr_label == "robot 10m").unwrap();
        let human = rows.iter().find(|r| r.mttr_label == "human 2d").unwrap();
        assert!(
            human.spares > robot.spares,
            "human {} vs robot {} spares",
            human.spares,
            robot.spares
        );
        assert!(human.redundancy_cost > robot.redundancy_cost);
    }

    #[test]
    fn tighter_targets_cost_more() {
        let all = run_experiment(&E5Params::standard());
        let h2d: Vec<_> = all.iter().filter(|r| r.mttr_label == "human 2d").collect();
        assert!(h2d[0].spares <= h2d[1].spares && h2d[1].spares <= h2d[2].spares);
    }

    #[test]
    fn table_has_every_sweep_point() {
        let p = E5Params::standard();
        let rows = run_experiment(&p);
        assert_eq!(rows.len(), p.targets.len() * p.mttrs.len());
        let t = table(&rows);
        assert_eq!(t.len(), rows.len());
    }
}
