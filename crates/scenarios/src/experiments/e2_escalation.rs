//! E2 — the escalation ladder in action (paper claims C4 + C8, §3.2).
//!
//! Two things must fall out of the simulation without being scripted:
//! reseating fixes a large share of incidents on the first rung
//! ("surprisingly effective"), and incidents "frequently require
//! multiple attempts to fix". The experiment reports per-action attempt
//! counts, fix rates, and the share of all fixes each rung contributes.

use dcmaint_des::SimDuration;
use dcmaint_faults::RepairAction;
use dcmaint_metrics::{Align, Cell, Table};
use maintctl::AutomationLevel;

use crate::config::ScenarioConfig;
use crate::engine::run;

/// Parameters for E2.
#[derive(Debug, Clone)]
pub struct E2Params {
    /// RNG seed.
    pub seed: u64,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Automation level to observe (the ladder itself is
    /// level-independent; L3 gets more work done per day).
    pub level: AutomationLevel,
}

impl E2Params {
    /// CI-sized.
    pub fn quick(seed: u64) -> Self {
        E2Params {
            seed,
            duration: SimDuration::from_days(20),
            level: AutomationLevel::L3,
        }
    }

    /// Paper-sized.
    pub fn full(seed: u64) -> Self {
        E2Params {
            seed,
            duration: SimDuration::from_days(60),
            level: AutomationLevel::L3,
        }
    }
}

/// One row of the E2 table.
#[derive(Debug, Clone)]
pub struct E2Row {
    /// The ladder rung.
    pub action: RepairAction,
    /// Attempts executed.
    pub attempts: u64,
    /// Verified fixes.
    pub fixes: u64,
    /// Fix rate per attempt.
    pub fix_rate: f64,
    /// Share of all fixes contributed by this rung.
    pub fix_share: f64,
}

/// E2 output: the per-rung rows plus the headline aggregate.
#[derive(Debug, Clone)]
pub struct E2Output {
    /// Per-rung statistics, ladder order.
    pub rows: Vec<E2Row>,
    /// Mean repair attempts per fixed ticket.
    pub mean_attempts: f64,
    /// Fraction of fixed tickets needing more than one attempt.
    pub multi_attempt_frac: f64,
}

/// Run E2.
pub fn run_experiment(p: &E2Params) -> E2Output {
    let mut cfg = ScenarioConfig::at_level(p.seed, p.level);
    cfg.duration = p.duration;
    // Reactive-only: proactive/predictive tickets would dilute the
    // per-incident escalation statistics.
    let mut ctl = maintctl::ControllerConfig::at_level(p.level);
    ctl.proactive = None;
    ctl.predictive = None;
    cfg.controller = Some(ctl);
    let report = run(cfg);
    let total_fixes: u64 = RepairAction::LADDER
        .iter()
        .map(|&a| report.action(a).fixes)
        .sum();
    let rows = RepairAction::LADDER
        .iter()
        .map(|&action| {
            let st = report.action(action);
            E2Row {
                action,
                attempts: st.attempts,
                fixes: st.fixes,
                fix_rate: st.fix_rate(),
                fix_share: if total_fixes == 0 {
                    0.0
                } else {
                    st.fixes as f64 / total_fixes as f64
                },
            }
        })
        .collect();
    let multi = report.attempts_per_fix.iter().filter(|&&a| a > 1).count() as f64
        / report.attempts_per_fix.len().max(1) as f64;
    E2Output {
        rows,
        mean_attempts: report.mean_attempts(),
        multi_attempt_frac: multi,
    }
}

/// Render the E2 table.
pub fn table(out: &E2Output) -> Table {
    let mut t = Table::new(
        "E2: escalation ladder outcomes (C4/C8)",
        &[
            ("action", Align::Left),
            ("attempts", Align::Right),
            ("fixes", Align::Right),
            ("fix rate", Align::Right),
            ("share of fixes", Align::Right),
        ],
    );
    for r in &out.rows {
        t.row(vec![
            r.action.label().into(),
            Cell::Count(r.attempts),
            Cell::Count(r.fixes),
            Cell::Pct(r.fix_rate, 1),
            Cell::Pct(r.fix_share, 1),
        ]);
    }
    t.row(vec![
        "mean attempts/fix".into(),
        Cell::Num(out.mean_attempts, 2),
        "".into(),
        "multi-attempt".into(),
        Cell::Pct(out.multi_attempt_frac, 1),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reseat_is_first_and_fixes_most() {
        let out = run_experiment(&E2Params::quick(21));
        let reseat = &out.rows[0];
        assert_eq!(reseat.action, RepairAction::Reseat);
        // C4: reseat is attempted more than any other rung and
        // contributes the plurality of fixes.
        for r in &out.rows[1..] {
            assert!(
                reseat.attempts >= r.attempts,
                "{:?} attempted more than reseat",
                r.action
            );
        }
        let max_share = out.rows.iter().map(|r| r.fix_share).fold(0.0, f64::max);
        assert_eq!(reseat.fix_share, max_share, "reseat fixes the most");
        assert!(reseat.fix_share > 0.3, "share {}", reseat.fix_share);
    }

    #[test]
    fn multiple_attempts_are_common() {
        let out = run_experiment(&E2Params::quick(22));
        // C8: a substantial fraction of incidents need >1 attempt.
        assert!(
            out.mean_attempts > 1.2,
            "mean attempts {}",
            out.mean_attempts
        );
        assert!(
            out.multi_attempt_frac > 0.15,
            "multi-attempt fraction {}",
            out.multi_attempt_frac
        );
    }

    #[test]
    fn deeper_rungs_rarely_reached() {
        let out = run_experiment(&E2Params::quick(23));
        let reseat = out.rows[0].attempts;
        let switch = out.rows[4].attempts;
        assert!(
            switch * 4 <= reseat,
            "switch replacement ({switch}) should be rare vs reseat ({reseat})"
        );
    }

    #[test]
    fn table_lists_whole_ladder() {
        let out = run_experiment(&E2Params::quick(24));
        let rendered = table(&out).render();
        for a in RepairAction::LADDER {
            assert!(rendered.contains(a.label()));
        }
    }
}
