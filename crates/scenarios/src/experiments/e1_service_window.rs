//! E1 — service window vs automation level (paper claim C3 + §2.1).
//!
//! "The primary benefit of this approach is the significant reduction of
//! the service window for failures, potentially shrinking the duration
//! from hours and days to literally minutes." The sweep runs the *same*
//! fabric, fault process, and seed at every automation level L0–L4 and
//! reports the service-window distribution, availability, and cost.

use dcmaint_des::SimDuration;
use dcmaint_metrics::{fnum, nines, Align, Table};
use maintctl::AutomationLevel;

use crate::config::ScenarioConfig;
use crate::engine::run;
use crate::experiments::fdur;

/// Parameters for E1.
#[derive(Debug, Clone)]
pub struct E1Params {
    /// RNG seed shared by every level.
    pub seed: u64,
    /// Simulated duration per level.
    pub duration: SimDuration,
    /// Use the small CI fabric instead of the baseline.
    pub small_fabric: bool,
}

impl E1Params {
    /// CI-sized: small fabric, 15 days.
    pub fn quick(seed: u64) -> Self {
        E1Params {
            seed,
            duration: SimDuration::from_days(15),
            small_fabric: true,
        }
    }

    /// Paper-sized: baseline fabric, 30 days.
    pub fn full(seed: u64) -> Self {
        E1Params {
            seed,
            duration: SimDuration::from_days(30),
            small_fabric: false,
        }
    }
}

/// One row of the E1 table.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// Automation level.
    pub level: AutomationLevel,
    /// Median service window of fixed reactive tickets.
    pub median_window: SimDuration,
    /// p95 service window.
    pub p95_window: SimDuration,
    /// Link availability.
    pub availability: f64,
    /// Fixed reactive tickets.
    pub tickets_fixed: u64,
    /// Technician time consumed.
    pub tech_time: SimDuration,
    /// Total operating cost (USD).
    pub cost: f64,
}

fn config_for(p: &E1Params, level: AutomationLevel) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::at_level(p.seed, level);
    cfg.duration = p.duration;
    if p.small_fabric {
        cfg.apply_quick_fabric();
    }
    cfg
}

/// Run the level sweep.
pub fn run_experiment(p: &E1Params) -> Vec<E1Row> {
    AutomationLevel::ALL
        .iter()
        .map(|&level| {
            let mut r = run(config_for(p, level));
            E1Row {
                level,
                median_window: r.median_service_window(),
                p95_window: r.p95_service_window(),
                availability: r.availability.availability,
                tickets_fixed: r.tickets_fixed,
                tech_time: r.tech_time,
                cost: r.costs.total(),
            }
        })
        .collect()
}

/// Render the E1 table.
pub fn table(rows: &[E1Row]) -> Table {
    let mut t = Table::new(
        "E1: service window and availability vs automation level (C3)",
        &[
            ("level", Align::Left),
            ("median window", Align::Right),
            ("p95 window", Align::Right),
            ("availability", Align::Right),
            ("nines", Align::Right),
            ("fixed tickets", Align::Right),
            ("tech time", Align::Right),
            ("cost $", Align::Right),
        ],
    );
    for r in rows {
        t.row(vec![
            r.level.label().to_string(),
            fdur(r.median_window),
            fdur(r.p95_window),
            fnum(r.availability, 5),
            fnum(nines(r.availability), 2),
            r.tickets_fixed.to_string(),
            fdur(r.tech_time),
            fnum(r.cost, 0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_shrink_the_window_days_to_minutes() {
        let rows = run_experiment(&E1Params::quick(11));
        assert_eq!(rows.len(), 5);
        let l0 = &rows[0];
        let l3 = &rows[3];
        let l4 = &rows[4];
        // C3 shape: hours-to-days at L0, minutes-scale at L3+.
        assert!(
            l0.median_window > SimDuration::from_hours(2),
            "L0 median {}",
            l0.median_window
        );
        assert!(
            l3.median_window < SimDuration::from_hours(1),
            "L3 median {}",
            l3.median_window
        );
        assert!(
            l0.median_window.as_secs_f64() > 8.0 * l3.median_window.as_secs_f64(),
            "L0 {} vs L3 {}",
            l0.median_window,
            l3.median_window
        );
        assert!(l4.median_window < SimDuration::from_hours(1));
    }

    #[test]
    fn availability_improves_with_automation() {
        let rows = run_experiment(&E1Params::quick(12));
        let l0 = rows[0].availability;
        let l3 = rows[3].availability;
        assert!(l3 > l0, "L0 {l0} vs L3 {l3}");
    }

    #[test]
    fn tech_time_collapses_at_high_automation() {
        let rows = run_experiment(&E1Params::quick(13));
        assert!(
            rows[3].tech_time.as_hours_f64() < 0.5 * rows[0].tech_time.as_hours_f64(),
            "L0 {} vs L3 {}",
            rows[0].tech_time,
            rows[3].tech_time
        );
    }

    #[test]
    fn table_renders_all_levels() {
        let rows = run_experiment(&E1Params::quick(14));
        let t = table(&rows);
        let out = t.render();
        for l in ["L0", "L1", "L2", "L3", "L4"] {
            assert!(out.contains(l), "missing {l} in table");
        }
    }
}
