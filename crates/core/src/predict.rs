//! Online predictive-failure scorer — §4's machine-learning opportunity.
//!
//! "This also creates new opportunities to use machine learning
//! techniques to predict failures and detect related network behavior
//! patterns." The scorer is a deliberately simple online logistic
//! regression over the fixed telemetry feature vector
//! ([`dcmaint_telemetry::features`]): enough ML to demonstrate the
//! control loop (score links → schedule predictive maintenance on the
//! riskiest → measure prevented incidents) without dragging in a
//! framework. Training is SGD on (features, did-it-fail-within-horizon)
//! labels that the scenario harness produces as ground truth unfolds.

use dcmaint_telemetry::FEATURE_DIM;

/// Online logistic model.
#[derive(Debug, Clone)]
pub struct Predictor {
    weights: [f64; FEATURE_DIM],
    bias: f64,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    seen: u64,
}

impl Default for Predictor {
    fn default() -> Self {
        Self::new()
    }
}

// Hyperparameters (`learning_rate`, `l2`) are recorded too: they are
// public, and a scenario may have tuned them.
dcmaint_ckpt::persist!(Predictor {
    weights,
    bias,
    learning_rate,
    l2,
    seen,
});

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl Predictor {
    /// Fresh model. The bias starts negative: failures are rare, so the
    /// prior risk is low.
    pub fn new() -> Self {
        Predictor {
            weights: [0.0; FEATURE_DIM],
            bias: -2.0,
            learning_rate: 0.15,
            l2: 1e-4,
            seen: 0,
        }
    }

    /// Predicted failure risk in `(0, 1)`.
    pub fn score(&self, features: &[f64; FEATURE_DIM]) -> f64 {
        let z: f64 = self
            .weights
            .iter()
            .zip(features)
            .map(|(w, x)| w * x)
            .sum::<f64>()
            + self.bias;
        sigmoid(z)
    }

    /// One SGD step on an observed outcome (`failed` = the link had an
    /// incident within the label horizon).
    pub fn train(&mut self, features: &[f64; FEATURE_DIM], failed: bool) {
        let y = if failed { 1.0 } else { 0.0 };
        let p = self.score(features);
        let err = p - y;
        for (w, &x) in self.weights.iter_mut().zip(features) {
            *w -= self.learning_rate * (err * x + self.l2 * *w);
        }
        self.bias -= self.learning_rate * err;
        self.seen += 1;
    }

    /// Re-anchor the intercept to an externally estimated base failure
    /// rate (the autonomic plane's drift estimator feeds this).
    ///
    /// The bias is nudged a bounded fraction of the way toward
    /// `logit(base_rate)`, and only while the model is still young
    /// (few SGD examples): once `seen` is large the data already speaks
    /// through the intercept and the nudge decays to zero. Deterministic
    /// — no RNG, and idempotent at convergence.
    pub fn reprior(&mut self, base_rate: f64) {
        let r = base_rate.clamp(1e-6, 1.0 - 1e-6);
        let target = (r / (1.0 - r)).ln();
        // Full trust before any examples, fading out by ~200 examples.
        let trust = 0.5 / (1.0 + self.seen as f64 / 50.0);
        self.bias += trust * (target - self.bias);
    }

    /// Current weights (for report tables — which features the model
    /// learned to care about).
    pub fn weights(&self) -> &[f64; FEATURE_DIM] {
        &self.weights
    }
}

/// Running precision/recall bookkeeping for the predictive loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct PredictionStats {
    /// Flagged and did fail.
    pub true_pos: u64,
    /// Flagged but did not fail.
    pub false_pos: u64,
    /// Not flagged but failed.
    pub false_neg: u64,
    /// Not flagged, did not fail.
    pub true_neg: u64,
}

dcmaint_ckpt::persist!(PredictionStats {
    true_pos,
    false_pos,
    false_neg,
    true_neg,
});

impl PredictionStats {
    /// Record one resolved prediction.
    pub fn record(&mut self, flagged: bool, failed: bool) {
        match (flagged, failed) {
            (true, true) => self.true_pos += 1,
            (true, false) => self.false_pos += 1,
            (false, true) => self.false_neg += 1,
            (false, false) => self.true_neg += 1,
        }
    }

    /// Precision: of flagged links, how many actually failed.
    pub fn precision(&self) -> f64 {
        let d = self.true_pos + self.false_pos;
        if d == 0 {
            0.0
        } else {
            self.true_pos as f64 / d as f64
        }
    }

    /// Recall: of failing links, how many were flagged.
    pub fn recall(&self) -> f64 {
        let d = self.true_pos + self.false_neg;
        if d == 0 {
            0.0
        } else {
            self.true_pos as f64 / d as f64
        }
    }

    /// F1 score.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Total resolved predictions.
    pub fn total(&self) -> u64 {
        self.true_pos + self.false_pos + self.false_neg + self.true_neg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmaint_des::SimRng;

    /// Synthetic ground truth: risk is driven by features 0 (loss) and 1
    /// (flaps); the model should learn that.
    fn synth_example(rng: &mut dcmaint_des::Stream) -> ([f64; FEATURE_DIM], bool) {
        let mut f = [0.0; FEATURE_DIM];
        for x in f.iter_mut() {
            *x = rng.uniform();
        }
        let p_fail = 0.05 + 0.6 * f[0] + 0.3 * f[1];
        (f, rng.chance(p_fail))
    }

    #[test]
    fn untrained_model_predicts_low_risk() {
        let p = Predictor::new();
        let f = [0.0; FEATURE_DIM];
        assert!(p.score(&f) < 0.2);
    }

    #[test]
    fn learns_informative_features() {
        let mut rng = SimRng::root(1).stream("predict", 0);
        let mut model = Predictor::new();
        for _ in 0..20_000 {
            let (f, y) = synth_example(&mut rng);
            model.train(&f, y);
        }
        // Weight on loss (feature 0) should dominate weight on the
        // uninformative medium features (5, 6).
        let w = model.weights();
        assert!(w[0] > 0.5, "loss weight {}", w[0]);
        assert!(w[0] > 3.0 * w[5].abs(), "w0 {} vs w5 {}", w[0], w[5]);
        // Risky input scores much higher than clean input.
        let mut risky = [0.0; FEATURE_DIM];
        risky[0] = 1.0;
        risky[1] = 1.0;
        let clean = [0.0; FEATURE_DIM];
        assert!(model.score(&risky) > 2.0 * model.score(&clean));
    }

    #[test]
    fn discrimination_beats_chance() {
        let mut rng = SimRng::root(2).stream("predict", 0);
        let mut model = Predictor::new();
        for _ in 0..10_000 {
            let (f, y) = synth_example(&mut rng);
            model.train(&f, y);
        }
        // Hold-out AUC-ish check: mean score of failed > mean of ok.
        let mut s_fail = 0.0;
        let mut n_fail = 0.0;
        let mut s_ok = 0.0;
        let mut n_ok = 0.0;
        for _ in 0..5_000 {
            let (f, y) = synth_example(&mut rng);
            let s = model.score(&f);
            if y {
                s_fail += s;
                n_fail += 1.0;
            } else {
                s_ok += s;
                n_ok += 1.0;
            }
        }
        assert!(s_fail / n_fail > 1.3 * (s_ok / n_ok));
    }

    #[test]
    fn reprior_moves_young_models_and_fades_with_evidence() {
        // Fresh model, higher observed base rate: bias rises toward
        // logit(0.3) ≈ -0.847 but stays bounded by the trust factor.
        let mut young = Predictor::new();
        let before = young.score(&[0.0; FEATURE_DIM]);
        young.reprior(0.3);
        let after = young.score(&[0.0; FEATURE_DIM]);
        assert!(after > before, "reprior must raise a too-low prior");
        assert!(after < 0.3, "single nudge stays bounded");
        // Repeated repriors converge toward the target rate.
        for _ in 0..64 {
            young.reprior(0.3);
        }
        assert!((young.score(&[0.0; FEATURE_DIM]) - 0.3).abs() < 0.02);

        // A well-trained model barely moves: the data already spoke.
        let mut rng = SimRng::root(7).stream("predict", 0);
        let mut old = Predictor::new();
        for _ in 0..5_000 {
            let (f, y) = synth_example(&mut rng);
            old.train(&f, y);
        }
        let probe = [0.5; FEATURE_DIM];
        let before = old.score(&probe);
        old.reprior(0.9);
        let after = old.score(&probe);
        assert!(
            (after - before).abs() < 0.05,
            "mature model moved {before} -> {after}"
        );
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!(sigmoid(100.0) <= 1.0);
        assert!(sigmoid(-100.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_precision_recall() {
        let mut s = PredictionStats::default();
        // 3 TP, 1 FP, 2 FN, 4 TN.
        for _ in 0..3 {
            s.record(true, true);
        }
        s.record(true, false);
        for _ in 0..2 {
            s.record(false, true);
        }
        for _ in 0..4 {
            s.record(false, false);
        }
        assert!((s.precision() - 0.75).abs() < 1e-12);
        assert!((s.recall() - 0.6).abs() < 1e-12);
        assert!(s.f1() > 0.6 && s.f1() < 0.75);
        assert_eq!(s.total(), 10);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = PredictionStats::default();
        assert_eq!(s.precision(), 0.0);
        assert_eq!(s.recall(), 0.0);
        assert_eq!(s.f1(), 0.0);
    }
}
