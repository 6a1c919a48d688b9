//! E1 — service window vs automation level (paper claim C3 + §2.1).
//!
//! "The primary benefit of this approach is the significant reduction of
//! the service window for failures, potentially shrinking the duration
//! from hours and days to literally minutes." The sweep runs the *same*
//! fabric, fault process, and seed at every automation level L0–L4 and
//! reports the service-window distribution, availability, and cost.

use dcmaint_des::SimDuration;
use dcmaint_metrics::{nines, Align, Cell, Table};
use maintctl::AutomationLevel;

use crate::config::ScenarioConfig;
use crate::engine::run;
use crate::report::SweepMetrics;

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

/// One row of the E1 table: a level and its headline metrics — the same
/// vector `selfmaint sweep` extracts from each of its runs.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// Automation level.
    pub level: AutomationLevel,
    /// Service windows, availability, fixed tickets, tech time and cost.
    pub metrics: SweepMetrics,
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
        .map(|&level| E1Row {
            level,
            metrics: run(config_for(p, level)).sweep_metrics(),
        })
        .collect()
}

/// The columns of the E1 table and of `selfmaint sweep`'s table.
pub const COLUMNS: [(&str, Align); 8] = [
    ("level", Align::Left),
    ("median window", Align::Right),
    ("p95 window", Align::Right),
    ("availability", Align::Right),
    ("nines", Align::Right),
    ("fixed tickets", Align::Right),
    ("tech time", Align::Right),
    ("cost $", Align::Right),
];

/// One level's row under [`COLUMNS`].
pub fn cells(level: AutomationLevel, m: &SweepMetrics) -> Vec<Cell> {
    vec![
        level.label().into(),
        Cell::Dur(m.median_window),
        Cell::Dur(m.p95_window),
        Cell::Num(m.availability, 5),
        Cell::Num(nines(m.availability), 2),
        Cell::Count(m.tickets_fixed),
        Cell::Dur(m.tech_time),
        Cell::Num(m.cost, 0),
    ]
}

/// Render the E1 table.
pub fn table(rows: &[E1Row]) -> Table {
    let mut t = Table::new(
        "E1: service window and availability vs automation level (C3)",
        &COLUMNS,
    );
    for r in rows {
        t.row(cells(r.level, &r.metrics));
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
        let l0 = &rows[0].metrics;
        let l3 = &rows[3].metrics;
        let l4 = &rows[4].metrics;
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
        let l0 = rows[0].metrics.availability;
        let l3 = rows[3].metrics.availability;
        assert!(l3 > l0, "L0 {l0} vs L3 {l3}");
    }

    #[test]
    fn tech_time_collapses_at_high_automation() {
        let rows = run_experiment(&E1Params::quick(13));
        assert!(
            rows[3].metrics.tech_time.as_hours_f64()
                < 0.5 * rows[0].metrics.tech_time.as_hours_f64(),
            "L0 {} vs L3 {}",
            rows[0].metrics.tech_time,
            rows[3].metrics.tech_time
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
