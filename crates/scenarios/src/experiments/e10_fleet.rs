//! E10 — robot fleet sizing (§3.4's deployment scopes).
//!
//! "For these mobility units it is important to consider the operating
//! radius for each robot … the chosen scope significantly influences the
//! mobility model required and the deployment strategy." The sweep
//! varies row-scope robots per row (0 = the no-robot baseline with human
//! fallback) and reports the repair queueing consequences and robot
//! utilization — the sizing curve an operator would actually use.

use dcmaint_des::SimDuration;
use dcmaint_metrics::{Align, Cell, Table};
use maintctl::AutomationLevel;

use crate::config::ScenarioConfig;
use crate::engine::run;

/// One fleet deployment choice (§3.4's scopes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetChoice {
    /// Row-scope gantries, N per row.
    PerRow(usize),
    /// One hall-wide AGV pool of N units.
    Hall(usize),
}

impl FleetChoice {
    /// Table label.
    pub fn label(self) -> String {
        match self {
            FleetChoice::PerRow(n) => format!("{n}/row"),
            FleetChoice::Hall(n) => format!("hall x{n}"),
        }
    }
}

/// Parameters for E10.
#[derive(Debug, Clone)]
pub struct E10Params {
    /// RNG seed shared across fleet sizes.
    pub seed: u64,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Deployment points.
    pub fleet_sizes: Vec<FleetChoice>,
}

impl E10Params {
    /// CI-sized.
    pub fn quick(seed: u64) -> Self {
        E10Params {
            seed,
            duration: SimDuration::from_days(15),
            fleet_sizes: vec![
                FleetChoice::PerRow(0),
                FleetChoice::PerRow(1),
                FleetChoice::PerRow(2),
            ],
        }
    }

    /// Paper-sized: row-scope sweep plus hall-scope pools of matching
    /// total size (baseline fabric has 2 rows, so Hall(2) matches
    /// PerRow(1) in unit count).
    pub fn full(seed: u64) -> Self {
        E10Params {
            seed,
            duration: SimDuration::from_days(30),
            fleet_sizes: vec![
                FleetChoice::PerRow(0),
                FleetChoice::PerRow(1),
                FleetChoice::PerRow(2),
                FleetChoice::PerRow(4),
                FleetChoice::Hall(2),
                FleetChoice::Hall(4),
            ],
        }
    }
}

/// One row of the E10 table.
#[derive(Debug, Clone)]
pub struct E10Row {
    /// Deployment.
    pub choice: FleetChoice,
    /// Median service window.
    pub median_window: SimDuration,
    /// p95 service window.
    pub p95_window: SimDuration,
    /// Robot operations executed.
    pub robot_ops: u64,
    /// Mean robot utilization (busy / existence).
    pub utilization: f64,
    /// Availability.
    pub availability: f64,
    /// Total cost.
    pub cost: f64,
}

/// Run the sweep at L3.
pub fn run_experiment(p: &E10Params) -> Vec<E10Row> {
    p.fleet_sizes
        .iter()
        .map(|&choice| {
            let mut cfg = ScenarioConfig::at_level(p.seed, AutomationLevel::L3);
            cfg.duration = p.duration;
            match choice {
                FleetChoice::PerRow(n) => cfg.robots_per_row = n,
                FleetChoice::Hall(n) => {
                    cfg.robots_per_row = 0;
                    cfg.hall_pool = Some(n);
                }
            }
            // Reactive-only: fleet sizing should measure dispatch
            // queueing, not how much optional scheduled work a bigger
            // fleet chooses to take on.
            let mut ctl = maintctl::ControllerConfig::at_level(AutomationLevel::L3);
            ctl.proactive = None;
            ctl.predictive = None;
            cfg.controller = Some(ctl);
            let mut report = run(cfg.clone());
            let rows = match cfg.topology {
                crate::config::TopologySpec::LeafSpine { leaves, .. } => {
                    1 + (leaves as u32).div_ceil(16)
                }
                _ => 1,
            };
            let fleet = match choice {
                FleetChoice::PerRow(n) => (n as u32 * rows).max(1),
                FleetChoice::Hall(n) => (n as u32).max(1),
            };
            let existence = p.duration.as_hours_f64() * f64::from(fleet);
            let is_zero = choice == FleetChoice::PerRow(0);
            E10Row {
                choice,
                median_window: report.median_service_window(),
                p95_window: report.p95_service_window(),
                robot_ops: report.robot_ops,
                utilization: if is_zero {
                    0.0
                } else {
                    (report.robot_time.as_hours_f64() / existence).min(1.0)
                },
                availability: report.availability.availability,
                cost: report.costs.total(),
            }
        })
        .collect()
}

/// Render the E10 table.
pub fn table(rows: &[E10Row]) -> Table {
    let mut t = Table::new(
        "E10: robot fleet sizing at L3 (§3.4)",
        &[
            ("deployment", Align::Left),
            ("median window", Align::Right),
            ("p95 window", Align::Right),
            ("robot ops", Align::Right),
            ("utilization", Align::Right),
            ("availability", Align::Right),
            ("cost $", Align::Right),
        ],
    );
    for r in rows {
        t.row(vec![
            r.choice.label().into(),
            Cell::Dur(r.median_window),
            Cell::Dur(r.p95_window),
            Cell::Count(r.robot_ops),
            Cell::Pct(r.utilization, 1),
            Cell::Num(r.availability, 5),
            Cell::Num(r.cost, 0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_robots_falls_back_to_humans() {
        let rows = run_experiment(&E10Params::quick(101));
        let r0 = &rows[0];
        assert_eq!(r0.choice, FleetChoice::PerRow(0));
        assert_eq!(r0.robot_ops, 0);
        assert!(
            r0.median_window > SimDuration::from_hours(1),
            "human fallback is slow: {}",
            r0.median_window
        );
    }

    #[test]
    fn first_robot_per_row_is_the_big_win() {
        let rows = run_experiment(&E10Params::quick(102));
        let (r0, r1, r2) = (&rows[0], &rows[1], &rows[2]);
        assert!(
            r1.median_window.as_secs_f64() * 4.0 < r0.median_window.as_secs_f64(),
            "0 robots {} vs 1 robot {}",
            r0.median_window,
            r1.median_window
        );
        // Diminishing returns: the second robot helps far less.
        let gain1 = r0.median_window.as_secs_f64() / r1.median_window.as_secs_f64();
        let gain2 = r1.median_window.as_secs_f64() / r2.median_window.as_secs_f64().max(1.0);
        assert!(gain1 > gain2, "gain1 {gain1:.1} vs gain2 {gain2:.1}");
    }

    #[test]
    fn utilization_drops_as_fleet_grows() {
        let rows = run_experiment(&E10Params::quick(103));
        let u1 = rows[1].utilization;
        let u2 = rows[2].utilization;
        assert!(u2 <= u1, "util 1/row {u1:.3} vs 2/row {u2:.3}");
    }

    #[test]
    fn robots_do_the_work_when_present() {
        let rows = run_experiment(&E10Params::quick(104));
        assert!(rows[1].robot_ops > 0);
        let out = table(&rows).render();
        assert!(out.contains("deployment"));
    }

    #[test]
    fn hall_pool_matches_row_scope_at_equal_size() {
        // §3.4's scope question: a hall pool of 2 AGVs vs 1 gantry per
        // row (2 rows on this fabric) — same unit count, hall units pay
        // cross-row travel but cover rows with no local unit.
        let p = E10Params {
            seed: 105,
            duration: SimDuration::from_days(15),
            fleet_sizes: vec![FleetChoice::PerRow(1), FleetChoice::Hall(2)],
        };
        let rows = run_experiment(&p);
        let per_row = &rows[0];
        let hall = &rows[1];
        assert!(hall.robot_ops > 0);
        // Both deliver minutes-scale medians; hall travel adds some.
        assert!(per_row.median_window < SimDuration::from_hours(2));
        assert!(hall.median_window < SimDuration::from_hours(3));
    }
}
