//! E11 — predictive maintenance quality (§4's ML opportunity).
//!
//! "New opportunities to use machine learning techniques to predict
//! failures and detect related network behavior patterns." The online
//! logistic scorer trains as the run unfolds; the experiment reports its
//! precision/recall/F1 against ground truth (did the link fail within
//! the label horizon), the learned feature weights, and the incident
//! delta against a predictive-off twin run.

use dcmaint_des::SimDuration;
use dcmaint_metrics::{Align, Cell, Table};
use dcmaint_telemetry::FEATURE_NAMES;
use maintctl::{AutomationLevel, ControllerConfig};

use crate::config::ScenarioConfig;
use crate::engine::run;

/// Parameters for E11.
#[derive(Debug, Clone)]
pub struct E11Params {
    /// RNG seed shared by both arms.
    pub seed: u64,
    /// Simulated duration (longer = better-trained model).
    pub duration: SimDuration,
}

impl E11Params {
    /// CI-sized.
    pub fn quick(seed: u64) -> Self {
        E11Params {
            seed,
            duration: SimDuration::from_days(30),
        }
    }

    /// Paper-sized.
    pub fn full(seed: u64) -> Self {
        E11Params {
            seed,
            duration: SimDuration::from_days(90),
        }
    }
}

/// Fault-rate decompression for the full-size arms: with the CI-default
/// compressed MTBI every link gets reactive maintenance every few weeks
/// anyway, which already controls wear — prediction can only matter when
/// failures are rarer than maintenance opportunities, as in real fleets.
const FULL_MTBI_DAYS: u64 = 120;

/// E11 output.
#[derive(Debug, Clone)]
pub struct E11Output {
    /// Predictions resolved.
    pub predictions: u64,
    /// Links flagged (predictive tickets opened).
    pub flagged: u64,
    /// Precision of flags.
    pub precision: f64,
    /// Recall of failures.
    pub recall: f64,
    /// F1.
    pub f1: f64,
    /// Incidents with the predictive loop on.
    pub incidents_on: u64,
    /// Incidents with it off (same seed, same everything else).
    pub incidents_off: u64,
    /// Availability with the loop on / off.
    pub availability: (f64, f64),
}

/// Run both arms.
pub fn run_experiment(p: &E11Params) -> E11Output {
    let mut on = ScenarioConfig::at_level(p.seed, AutomationLevel::L3);
    on.duration = p.duration;
    on.wear_growth = 2.0;
    if p.duration >= SimDuration::from_days(60) {
        on.faults.mtbi_per_link = SimDuration::from_days(FULL_MTBI_DAYS);
    }
    let mut off = on.clone();
    let mut ctl_off = ControllerConfig::at_level(AutomationLevel::L3);
    ctl_off.predictive = None;
    off.controller = Some(ctl_off);
    let r_on = run(on);
    let r_off = run(off);
    let flagged = r_on
        .tickets_by_trigger
        .get("predictive")
        .copied()
        .unwrap_or(0);
    E11Output {
        predictions: r_on.prediction.total(),
        flagged,
        precision: r_on.prediction.precision(),
        recall: r_on.prediction.recall(),
        f1: r_on.prediction.f1(),
        incidents_on: r_on.incidents,
        incidents_off: r_off.incidents,
        availability: (
            r_on.availability.availability,
            r_off.availability.availability,
        ),
    }
}

/// Render the E11 table.
pub fn table(out: &E11Output) -> Table {
    let mut t = Table::new(
        "E11: online failure prediction (§4 ML opportunity)",
        &[("metric", Align::Left), ("value", Align::Right)],
    );
    let on_off = |on: Cell, off: Cell| Cell::Join(vec![on, off], " / ");
    t.row(vec![
        "predictions resolved".into(),
        Cell::Count(out.predictions),
    ]);
    t.row(vec!["links flagged".into(), Cell::Count(out.flagged)]);
    t.row(vec!["precision".into(), Cell::Pct(out.precision, 1)]);
    t.row(vec!["recall".into(), Cell::Pct(out.recall, 1)]);
    t.row(vec!["F1".into(), Cell::Num(out.f1, 3)]);
    t.row(vec![
        "incidents (on / off)".into(),
        on_off(
            Cell::Count(out.incidents_on),
            Cell::Count(out.incidents_off),
        ),
    ]);
    t.row(vec![
        "availability (on / off)".into(),
        on_off(
            Cell::Num(out.availability.0, 5),
            Cell::Num(out.availability.1, 5),
        ),
    ]);
    t
}

/// Render the predictor's feature vector: each feature's name with the
/// note on how it is normalized to `[0,1]`. The learned weights live inside
/// the engine's controller and are not shown.
pub fn weights_table() -> Table {
    let mut t = Table::new(
        "E11b: predictive feature vector (normalized to [0,1])",
        &[("feature", Align::Left), ("note", Align::Left)],
    );
    let notes = [
        "loss EWMA / 5%",
        "flap edges in 30 min / 10",
        "errored sample fraction",
        "lifetime incidents / 5",
        "days since maintenance / 90",
        "separable optic (0/1)",
        "MPO cores / 16",
    ];
    for (name, note) in FEATURE_NAMES.iter().zip(notes) {
        t.row(vec![*name, note]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_beats_random_flagging() {
        let out = run_experiment(&E11Params::quick(111));
        assert!(out.predictions > 100, "predictions {}", out.predictions);
        assert!(out.flagged > 0);
        // Base failure rate within a 3-day horizon is a few percent; a
        // useful scorer's precision must be well above it.
        let base_rate = out.incidents_on as f64 / out.predictions as f64;
        assert!(
            out.precision > 2.0 * base_rate,
            "precision {:.3} vs base {:.3}",
            out.precision,
            base_rate
        );
    }

    #[test]
    fn prevention_shows_in_incident_counts() {
        let out = run_experiment(&E11Params::quick(112));
        assert!(
            out.incidents_on <= out.incidents_off,
            "on {} vs off {}",
            out.incidents_on,
            out.incidents_off
        );
    }

    #[test]
    fn tables_render() {
        let out = run_experiment(&E11Params::quick(113));
        let t = table(&out).render();
        assert!(t.contains("precision"));
        let w = weights_table().render();
        assert!(w.contains("loss_ewma"));
    }
}
