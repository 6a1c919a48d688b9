//! E3 — cascading failures: human hands vs robot grippers (claim C5).
//!
//! §1 introduces cascading failures from technician activity; §3.3.1's
//! gripper is designed to "minimize accidental interaction with
//! physically close cables". The experiment measures, per physical
//! operation: transient bursts inflicted on neighbors, latent secondary
//! incidents seeded, and the repair amplification (secondary tickets per
//! repair).

use dcmaint_des::SimDuration;
use dcmaint_metrics::{Align, Cell, Table};
use maintctl::AutomationLevel;

use crate::config::ScenarioConfig;
use crate::engine::run;

/// Parameters for E3.
#[derive(Debug, Clone)]
pub struct E3Params {
    /// RNG seed shared by all levels.
    pub seed: u64,
    /// Simulated duration.
    pub duration: SimDuration,
}

impl E3Params {
    /// CI-sized.
    pub fn quick(seed: u64) -> Self {
        E3Params {
            seed,
            duration: SimDuration::from_days(20),
        }
    }

    /// Paper-sized.
    pub fn full(seed: u64) -> Self {
        E3Params {
            seed,
            duration: SimDuration::from_days(45),
        }
    }
}

/// One row of the E3 table.
#[derive(Debug, Clone)]
pub struct E3Row {
    /// Automation level (who touches the hardware).
    pub level: AutomationLevel,
    /// Physical repair operations executed.
    pub operations: u64,
    /// Transient neighbor bursts inflicted.
    pub bursts: u64,
    /// Bursts per operation.
    pub bursts_per_op: f64,
    /// Latent secondary incidents that manifested.
    pub cascade_incidents: u64,
    /// Cascade incidents per 100 operations (repair amplification).
    pub amplification_pct: f64,
}

/// Run E3 over the levels where the physical actor differs.
pub fn run_experiment(p: &E3Params) -> Vec<E3Row> {
    [
        AutomationLevel::L0,
        AutomationLevel::L2,
        AutomationLevel::L3,
    ]
    .iter()
    .map(|&level| {
        let mut cfg = ScenarioConfig::at_level(p.seed, level);
        cfg.duration = p.duration;
        // Reactive-only at every level so per-op rates compare the
        // actor, not the volume of proactive work.
        let mut ctl = maintctl::ControllerConfig::at_level(level);
        ctl.proactive = None;
        ctl.predictive = None;
        cfg.controller = Some(ctl);
        let report = run(cfg);
        let ops: u64 = report.actions.values().map(|s| s.attempts).sum();
        let opsf = ops.max(1) as f64;
        E3Row {
            level,
            operations: ops,
            bursts: report.cascade_bursts,
            bursts_per_op: report.cascade_bursts as f64 / opsf,
            cascade_incidents: report.cascade_incidents,
            amplification_pct: 100.0 * report.cascade_incidents as f64 / opsf,
        }
    })
    .collect()
}

/// Render the E3 table.
pub fn table(rows: &[E3Row]) -> Table {
    let mut t = Table::new(
        "E3: cascading disturbance per physical operation (C5)",
        &[
            ("level", Align::Left),
            ("ops", Align::Right),
            ("neighbor bursts", Align::Right),
            ("bursts/op", Align::Right),
            ("latent cascades", Align::Right),
            ("amplification %", Align::Right),
        ],
    );
    for r in rows {
        t.row(vec![
            r.level.label().into(),
            Cell::Count(r.operations),
            Cell::Count(r.bursts),
            Cell::Num(r.bursts_per_op, 2),
            Cell::Count(r.cascade_incidents),
            Cell::Num(r.amplification_pct, 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robots_disturb_far_less_per_op() {
        let rows = run_experiment(&E3Params::quick(31));
        let l0 = &rows[0];
        let l3 = &rows[2];
        assert!(l0.operations > 0 && l3.operations > 0);
        assert!(
            l0.bursts_per_op > 2.0 * l3.bursts_per_op,
            "L0 {:.2}/op vs L3 {:.2}/op",
            l0.bursts_per_op,
            l3.bursts_per_op
        );
    }

    #[test]
    fn supervised_robot_sits_between() {
        let rows = run_experiment(&E3Params::quick(32));
        let (l0, l2, l3) = (&rows[0], &rows[1], &rows[2]);
        assert!(l0.bursts_per_op >= l2.bursts_per_op);
        assert!(l2.bursts_per_op >= l3.bursts_per_op * 0.8); // allow noise
    }

    #[test]
    fn human_work_seeds_latent_cascades() {
        // Over enough operations, some human touches cause permanent
        // secondary failures ("transient (or permanent!)", §1).
        let p = E3Params {
            seed: 33,
            duration: SimDuration::from_days(40),
        };
        let rows = run_experiment(&p);
        assert!(
            rows[0].cascade_incidents > 0,
            "no latent cascades from {} human ops",
            rows[0].operations
        );
    }

    #[test]
    fn table_renders() {
        let rows = run_experiment(&E3Params::quick(34));
        let out = table(&rows).render();
        assert!(out.contains("bursts/op"));
        assert!(out.contains("L0") && out.contains("L3"));
    }
}
