//! E7 — the service-window distribution per automation level (claim
//! C3, as a CDF "figure").
//!
//! E1 reports medians; E7 reports the full distribution — the paper's
//! "hours and days to literally minutes" is a statement about where the
//! CDF mass sits. Each series is the empirical CDF of ticket service
//! windows evaluated at fixed thresholds (1 min … 7 d), which is how the
//! figure would be plotted.

use dcmaint_des::SimDuration;
use dcmaint_metrics::{Align, Cell, Table};
use maintctl::AutomationLevel;

use crate::config::ScenarioConfig;
use crate::engine::run;

/// CDF evaluation thresholds (the figure's x-axis).
pub const THRESHOLDS: [(&str, u64); 7] = [
    ("1m", 60),
    ("10m", 600),
    ("1h", 3_600),
    ("6h", 6 * 3_600),
    ("1d", 86_400),
    ("3d", 3 * 86_400),
    ("7d", 7 * 86_400),
];

/// Parameters for E7.
#[derive(Debug, Clone)]
pub struct E7Params {
    /// RNG seed shared across levels.
    pub seed: u64,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Levels plotted.
    pub levels: Vec<AutomationLevel>,
}

impl E7Params {
    /// CI-sized.
    pub fn quick(seed: u64) -> Self {
        E7Params {
            seed,
            duration: SimDuration::from_days(20),
            levels: vec![AutomationLevel::L0, AutomationLevel::L3],
        }
    }

    /// Paper-sized.
    pub fn full(seed: u64) -> Self {
        E7Params {
            seed,
            duration: SimDuration::from_days(45),
            levels: AutomationLevel::ALL.to_vec(),
        }
    }
}

/// One CDF series.
#[derive(Debug, Clone)]
pub struct E7Series {
    /// The level.
    pub level: AutomationLevel,
    /// Number of fixed reactive tickets behind the series.
    pub samples: usize,
    /// CDF value at each [`THRESHOLDS`] entry.
    pub cdf: Vec<f64>,
    /// Selected quantiles (p10, p50, p90, p99).
    pub quantiles: [SimDuration; 4],
}

/// Run E7.
pub fn run_experiment(p: &E7Params) -> Vec<E7Series> {
    p.levels
        .iter()
        .map(|&level| {
            let mut cfg = ScenarioConfig::at_level(p.seed, level);
            cfg.duration = p.duration;
            let mut report = run(cfg);
            let samples = report.service_windows.len();
            let windows: Vec<f64> = (0..=100)
                .map(|i| {
                    report
                        .service_windows
                        .quantile(i as f64 / 100.0)
                        .as_secs_f64()
                })
                .collect();
            let cdf = THRESHOLDS
                .iter()
                .map(|&(_, secs)| {
                    // Fraction of quantile grid at or below the threshold
                    // approximates the CDF to 1%.
                    windows.iter().filter(|&&w| w <= secs as f64).count() as f64 / 101.0
                })
                .collect();
            let quantiles = [
                report.service_windows.quantile(0.10),
                report.service_windows.quantile(0.50),
                report.service_windows.quantile(0.90),
                report.service_windows.quantile(0.99),
            ];
            E7Series {
                level,
                samples,
                cdf,
                quantiles,
            }
        })
        .collect()
}

/// Render the E7 series table (rows = levels, columns = thresholds).
pub fn table(series: &[E7Series]) -> Table {
    let mut cols: Vec<(&str, Align)> = vec![("level", Align::Left), ("n", Align::Right)];
    for (label, _) in THRESHOLDS {
        cols.push((label, Align::Right));
    }
    let mut t = Table::new(
        "E7: service-window CDF by automation level (C3) — P(window <= x)",
        &cols,
    );
    for s in series {
        let mut row = vec![s.level.label().into(), Cell::Count(s.samples as u64)];
        row.extend(s.cdf.iter().map(|&v| Cell::Pct(v, 1)));
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l3_mass_sits_at_minutes_l0_at_days() {
        let series = run_experiment(&E7Params::quick(11));
        let l0 = &series[0];
        let l3 = &series[1];
        // Index 1 = 10 minutes, index 4 = 1 day.
        assert!(
            l3.cdf[1] > 0.3,
            "L3 should fix >30% within 10 min, got {:.2}",
            l3.cdf[1]
        );
        assert!(
            l0.cdf[1] < 0.1,
            "L0 fixes almost nothing within 10 min, got {:.2}",
            l0.cdf[1]
        );
        // At fleet scale the L0 technician queue saturates: mass sits at
        // multiple days (1-day completion is rare, a week covers most).
        assert!(
            l0.cdf[4] < 0.5 && l0.cdf[6] > 0.6,
            "L0 mass sits at days: 1d {:.2}, 7d {:.2}",
            l0.cdf[4],
            l0.cdf[6]
        );
    }

    #[test]
    fn cdf_is_monotone() {
        let series = run_experiment(&E7Params::quick(72));
        for s in &series {
            for w in s.cdf.windows(2) {
                assert!(w[1] >= w[0], "{:?} CDF not monotone", s.level);
            }
            assert!(s.samples > 0);
        }
    }

    #[test]
    fn quantiles_ordered() {
        let series = run_experiment(&E7Params::quick(73));
        for s in &series {
            for w in s.quantiles.windows(2) {
                assert!(w[1] >= w[0]);
            }
        }
    }

    #[test]
    fn table_has_threshold_columns() {
        let series = run_experiment(&E7Params::quick(74));
        let out = table(&series).render();
        assert!(out.contains("10m") && out.contains("7d"));
    }
}
