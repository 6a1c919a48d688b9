//! Collected statistics.
//!
//! * [`SampleSet`] — keeps every observation for exact quantiles. Used for
//!   the distributions experiments report (service-window CDFs, p99 FCT).
//!   Memory is bounded by reservoir sampling above a configurable cap.
//!   [`DurationSamples`] is the same collector over durations.
//! * [`mean_ci95`] / [`Ci95`] — a mean with its t-based 95% interval.
//! * [`Beta`] — the conjugate posterior the autonomic plane learns with.

use dcmaint_des::{SimDuration, Stream};

/// Exact-quantile sample collector with an optional reservoir cap.
///
/// Below the cap every observation is kept and quantiles are exact. Above
/// it, reservoir sampling (Algorithm R) keeps an unbiased subsample, so
/// quantiles remain statistically faithful with bounded memory.
#[derive(Debug, Clone)]
pub struct SampleSet {
    samples: Vec<f64>,
    seen: u64,
    cap: usize,
    sorted: bool,
}

impl Default for SampleSet {
    fn default() -> Self {
        Self::new()
    }
}

// `cap` is `usize::MAX` when uncapped; the codec maps that sentinel to
// `u64::MAX` on every target.
dcmaint_ckpt::persist!(SampleSet {
    seen,
    cap,
    sorted,
    samples,
});

impl SampleSet {
    /// Unbounded collector (use when total sample count is known to be
    /// modest, e.g. one entry per ticket).
    pub fn new() -> Self {
        SampleSet {
            samples: Vec::new(),
            seen: 0,
            cap: usize::MAX,
            sorted: true,
        }
    }

    /// Collector that reservoir-samples above `cap` entries.
    pub fn with_cap(cap: usize) -> Self {
        SampleSet {
            samples: Vec::with_capacity(cap.min(4096)),
            seen: 0,
            cap: cap.max(1),
            sorted: true,
        }
    }

    /// Record one observation. Requires a RNG stream only when the cap may
    /// be exceeded; use [`SampleSet::record`] otherwise.
    pub fn record_with(&mut self, x: f64, rng: &mut Stream) {
        if !x.is_finite() {
            return;
        }
        self.seen += 1;
        self.sorted = false;
        if self.samples.len() < self.cap {
            self.samples.push(x);
        } else {
            // Algorithm R: replace a random slot with probability cap/seen.
            let j = rng.below(self.seen);
            if (j as usize) < self.cap {
                self.samples[j as usize] = x;
            }
        }
    }

    /// Record one observation into an uncapped collector. Panics in debug
    /// builds if the collector was constructed with a cap (the reservoir
    /// path needs randomness).
    pub fn record(&mut self, x: f64) {
        debug_assert_eq!(self.cap, usize::MAX, "capped SampleSet needs record_with");
        if !x.is_finite() {
            return;
        }
        self.seen += 1;
        self.sorted = false;
        self.samples.push(x);
    }

    /// Total observations offered (including ones displaced from a full
    /// reservoir).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Observations currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Exact quantile `q ∈ [0, 1]` by linear interpolation between order
    /// statistics; 0.0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        if self.samples.len() == 2 {
            // R-7 interpolation degenerates with two samples: every
            // quantile lands on the single segment between them, so the
            // p95 of {1 s, 100 s} reported ~95 s — a tail estimate with
            // no sample support. Report the nearest order statistic
            // instead (midpoint only at the median).
            return if q < 0.5 {
                self.samples[0]
            } else if q > 0.5 {
                self.samples[1]
            } else {
                (self.samples[0] + self.samples[1]) / 2.0
            };
        }
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.samples[lo]
        } else {
            let frac = pos - lo as f64;
            self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac
        }
    }

    /// Median (q = 0.5).
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Arithmetic mean of held samples; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Iterate over held samples (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().copied()
    }

    /// Mean with a two-sided 95% confidence half-width, t-distribution
    /// small-n aware. See [`mean_ci95`] for the degenerate-case contract.
    pub fn mean_ci95(&self) -> Ci95 {
        mean_ci95(&self.samples)
    }
}

/// A mean with a symmetric 95% confidence half-width.
///
/// Produced by [`mean_ci95`] / [`SampleSet::mean_ci95`]. `half` is
/// `f64::INFINITY` when the sample provides no interval (n ≤ 1): one
/// observation pins a point estimate but says nothing about spread, and
/// rendering pretends otherwise. Callers render via [`Ci95::cell`],
/// which drops the interval in that case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ci95 {
    /// Observations the estimate is based on.
    pub n: u64,
    /// Sample mean (0.0 when empty).
    pub mean: f64,
    /// 95% half-width: `t₀.₉₇₅,ₙ₋₁ · s/√n`; `INFINITY` for n ≤ 1.
    pub half: f64,
}

impl Ci95 {
    /// Table-cell rendering: `"mean ±half"` with `digits` decimals, or
    /// just `"mean"` when no finite interval exists (n ≤ 1).
    pub fn cell(&self, digits: usize) -> String {
        crate::table::mean_pm(*self, |x| crate::table::fnum(x, digits))
    }
}

/// Two-sided 97.5th-percentile Student-t critical values, by degrees of
/// freedom. Exact table through df = 30, then the conventional 40/60/120
/// rungs; beyond 120 the normal limit 1.96 is used. Lookup picks the
/// largest tabulated df ≤ the actual df, which rounds the interval
/// *wider* — conservative, never anti-conservative.
const T_975: [(u64, f64); 34] = [
    (1, 12.706),
    (2, 4.303),
    (3, 3.182),
    (4, 2.776),
    (5, 2.571),
    (6, 2.447),
    (7, 2.365),
    (8, 2.306),
    (9, 2.262),
    (10, 2.228),
    (11, 2.201),
    (12, 2.179),
    (13, 2.160),
    (14, 2.145),
    (15, 2.131),
    (16, 2.120),
    (17, 2.110),
    (18, 2.101),
    (19, 2.093),
    (20, 2.086),
    (21, 2.080),
    (22, 2.074),
    (23, 2.069),
    (24, 2.064),
    (25, 2.060),
    (26, 2.056),
    (27, 2.052),
    (28, 2.048),
    (29, 2.045),
    (30, 2.042),
    (40, 2.021),
    (60, 2.000),
    (120, 1.980),
    (u64::MAX, 1.960),
];

/// Critical t value for a two-sided 95% interval with `df` degrees of
/// freedom (`df = 0` is never queried; returns the df=1 value).
fn t_crit_975(df: u64) -> f64 {
    let mut t = T_975[0].1;
    for &(d, v) in &T_975 {
        if d <= df {
            t = v;
        } else {
            break;
        }
    }
    // df beyond 120 uses the normal limit.
    if df > 120 {
        t = 1.960;
    }
    t
}

/// Mean ± 95% CI of a sample, t-distribution small-n aware.
///
/// Degenerate cases, pinned by tests:
/// * `n = 0` → mean 0.0, half `INFINITY` (no estimate at all);
/// * `n = 1` → mean = the sample, half `INFINITY` (a point estimate with
///   no spread information — rendering an interval would be a lie);
/// * `n = 2` → the honest but enormous df=1 interval (t = 12.706).
///
/// Non-finite samples are ignored, mirroring the rest of this module.
pub fn mean_ci95(samples: &[f64]) -> Ci95 {
    let xs: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    let n = xs.len();
    if n == 0 {
        return Ci95 {
            n: 0,
            mean: 0.0,
            half: f64::INFINITY,
        };
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return Ci95 {
            n: 1,
            mean,
            half: f64::INFINITY,
        };
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
    let se = (var / n as f64).sqrt();
    Ci95 {
        n: n as u64,
        mean,
        half: t_crit_975(n as u64 - 1) * se,
    }
}

/// A [`SampleSet`] of durations, stored as seconds. Thin wrapper that keeps
/// call sites readable (`windows.record(d)` instead of unit conversions).
#[derive(Debug, Clone, Default)]
pub struct DurationSamples(SampleSet);

dcmaint_ckpt::persist!(DurationSamples(samples));

impl DurationSamples {
    /// Empty, uncapped collector.
    pub fn new() -> Self {
        DurationSamples(SampleSet::new())
    }

    /// Record one duration.
    pub fn record(&mut self, d: SimDuration) {
        self.0.record(d.as_secs_f64());
    }

    /// Quantile as a duration.
    pub fn quantile(&mut self, q: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.0.quantile(q))
    }

    /// Median as a duration.
    pub fn median(&mut self) -> SimDuration {
        self.quantile(0.5)
    }

    /// Mean as a duration.
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.0.mean())
    }

    /// Number of recorded durations.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if nothing recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Access the underlying seconds-valued sample set.
    pub fn as_samples(&mut self) -> &mut SampleSet {
        &mut self.0
    }
}

/// Beta posterior over a Bernoulli success probability.
///
/// The conjugate workhorse behind online efficacy estimation: start from
/// a `Beta(α₀, β₀)` prior, fold in success/failure observations one at a
/// time, and read off the posterior mean and a 95% credible interval at
/// any point. Updates are exact rational-count arithmetic on `(α, β)`,
/// so two estimators fed the same observation sequence are bitwise
/// identical — the property the autonomic plane's snapshot/restore
/// contract leans on.
///
/// The credible interval uses the normal approximation to the Beta
/// (mean ± 1.96·σ, clamped to `[0, 1]`). For the fleet-scale counts the
/// maintenance plane sees (tens of observations and up) the
/// approximation error is far below any decision threshold; the golden
/// tests pin its exact values so it can never drift silently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beta {
    alpha: f64,
    beta: f64,
}

impl Default for Beta {
    /// The uniform `Beta(1, 1)` prior.
    fn default() -> Self {
        Beta::new(1.0, 1.0)
    }
}

dcmaint_ckpt::persist!(Beta { alpha, beta });

impl Beta {
    /// Posterior seeded with prior pseudo-counts `α₀` successes and
    /// `β₀` failures. Non-positive priors are clamped to a proper
    /// distribution (the degenerate `Beta(0, ·)` has no mean).
    pub fn new(alpha: f64, beta: f64) -> Self {
        Beta {
            alpha: alpha.max(1e-9),
            beta: beta.max(1e-9),
        }
    }

    /// Fold in one Bernoulli observation.
    pub fn observe(&mut self, success: bool) {
        if success {
            self.alpha += 1.0;
        } else {
            self.beta += 1.0;
        }
    }

    /// Posterior mean `α/(α+β)`.
    pub fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    /// Posterior variance `αβ/((α+β)²(α+β+1))`.
    pub fn variance(&self) -> f64 {
        let s = self.alpha + self.beta;
        self.alpha * self.beta / (s * s * (s + 1.0))
    }

    /// 95% credible interval (normal approximation, clamped to `[0, 1]`).
    pub fn ci95(&self) -> (f64, f64) {
        let half = 1.96 * self.variance().sqrt();
        let m = self.mean();
        ((m - half).max(0.0), (m + half).min(1.0))
    }

    /// Width of the 95% credible interval — the convergence signal the
    /// autonomic plane reports (narrow interval ⇒ settled posterior).
    pub fn ci95_width(&self) -> f64 {
        let (lo, hi) = self.ci95();
        hi - lo
    }

    /// Total observations folded in (excluding the prior pseudo-counts
    /// only when the caller started from integer priors; reported as the
    /// raw pseudo-count mass `α+β` minus nothing — callers who need the
    /// observation count track it via [`Beta::weight`]).
    pub fn weight(&self) -> f64 {
        self.alpha + self.beta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmaint_des::SimRng;

    #[test]
    fn quantiles_exact_small() {
        let mut s = SampleSet::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.record(x);
        }
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.25), 2.0);
        assert!((s.quantile(0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn tiny_sample_quantiles_stay_on_order_statistics() {
        // One sample: every quantile is that sample.
        let mut one = SampleSet::new();
        one.record(7.0);
        assert_eq!(one.quantile(0.05), 7.0);
        assert_eq!(one.median(), 7.0);
        assert_eq!(one.quantile(0.95), 7.0);
        // Two samples: interpolating would invent a p95 of ~95.05 from
        // {1, 100} with zero tail evidence. Pin the nearest-order-
        // statistic behavior: below the median → low sample, above →
        // high sample, median → midpoint.
        let mut two = SampleSet::new();
        two.record(100.0);
        two.record(1.0);
        assert_eq!(two.quantile(0.0), 1.0);
        assert_eq!(two.quantile(0.25), 1.0);
        assert_eq!(two.median(), 50.5);
        assert_eq!(two.quantile(0.75), 100.0);
        assert_eq!(two.quantile(0.95), 100.0);
        assert_eq!(two.quantile(1.0), 100.0);
        // Three samples go back to R-7 interpolation untouched.
        let mut three = SampleSet::new();
        for x in [1.0, 2.0, 3.0] {
            three.record(x);
        }
        assert_eq!(three.median(), 2.0);
        assert!((three.quantile(0.75) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_empty_is_zero() {
        let mut s = SampleSet::new();
        assert_eq!(s.quantile(0.5), 0.0);
    }

    #[test]
    fn reservoir_caps_memory_and_stays_unbiased() {
        let mut rng = SimRng::root(5).stream("res", 0);
        let mut s = SampleSet::with_cap(500);
        for i in 0..50_000 {
            s.record_with(i as f64, &mut rng);
        }
        assert_eq!(s.len(), 500);
        assert_eq!(s.seen(), 50_000);
        // Mean of uniform 0..50_000 should be ~25_000.
        assert!((s.mean() - 25_000.0).abs() < 2_500.0, "mean {}", s.mean());
    }

    #[test]
    fn duration_samples_roundtrip() {
        let mut d = DurationSamples::new();
        d.record(SimDuration::from_secs(10));
        d.record(SimDuration::from_secs(20));
        d.record(SimDuration::from_secs(30));
        assert_eq!(d.median(), SimDuration::from_secs(20));
        assert_eq!(d.mean(), SimDuration::from_secs(20));
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn ci95_known_reference_values() {
        // n = 5, {1,2,3,4,5}: mean 3, s² = 2.5, se = √0.5 ≈ 0.70711,
        // t₀.₉₇₅,₄ = 2.776 → half ≈ 1.96294 (reference value from any
        // t-table walkthrough of this textbook sample).
        let ci = mean_ci95(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(ci.n, 5);
        assert!((ci.mean - 3.0).abs() < 1e-12);
        assert!(
            (ci.half - 2.776 * (0.5f64).sqrt()).abs() < 1e-9,
            "half {}",
            ci.half
        );
        assert!((ci.half - 1.96294).abs() < 1e-4);
    }

    #[test]
    fn ci95_degenerate_n1_and_n2() {
        // n = 0: no estimate.
        let none = mean_ci95(&[]);
        assert_eq!(none.n, 0);
        assert_eq!(none.mean, 0.0);
        assert!(none.half.is_infinite());
        // n = 1: point estimate, no interval.
        let one = mean_ci95(&[7.25]);
        assert_eq!(one.n, 1);
        assert_eq!(one.mean, 7.25);
        assert!(one.half.is_infinite());
        assert_eq!(one.cell(2), "7.25");
        // n = 2, {1,3}: mean 2, s = √2, se = 1, t₀.₉₇₅,₁ = 12.706 →
        // half = 12.706 exactly (se is exactly 1 here).
        let two = mean_ci95(&[1.0, 3.0]);
        assert_eq!(two.n, 2);
        assert!((two.mean - 2.0).abs() < 1e-12);
        assert!((two.half - 12.706).abs() < 1e-9, "half {}", two.half);
        assert_eq!(two.cell(1), "2.0 ±12.7");
    }

    #[test]
    fn ci95_t_table_brackets_conservatively() {
        // df 30 → 2.042; df 31..39 must reuse 2.042 (wider than the true
        // value, never narrower); df 40 → 2.021; df ≥ 121 → 1.96.
        assert!((t_crit_975(30) - 2.042).abs() < 1e-12);
        assert!((t_crit_975(35) - 2.042).abs() < 1e-12);
        assert!((t_crit_975(40) - 2.021).abs() < 1e-12);
        assert!((t_crit_975(119) - 2.000).abs() < 1e-12);
        assert!((t_crit_975(121) - 1.960).abs() < 1e-12);
    }

    #[test]
    fn ci95_ignores_non_finite_and_matches_sample_set() {
        let ci = mean_ci95(&[1.0, f64::NAN, 2.0, f64::INFINITY, 3.0]);
        assert_eq!(ci.n, 3);
        assert!((ci.mean - 2.0).abs() < 1e-12);
        let mut s = SampleSet::new();
        for x in [1.0, 2.0, 3.0] {
            s.record(x);
        }
        assert_eq!(s.mean_ci95(), ci);
    }

    #[test]
    fn beta_golden_reference_values() {
        // Uniform prior: mean 1/2, variance 1/12.
        let b = Beta::default();
        assert!((b.mean() - 0.5).abs() < 1e-15);
        assert!((b.variance() - 1.0 / 12.0).abs() < 1e-15);

        // Beta(1,1) + 7 successes + 3 failures = Beta(8, 4).
        // Hand-computed references:
        //   mean      = 8/12                       = 0.666666…
        //   variance  = 8·4/(12²·13) = 32/1872     = 0.017094017094…
        //   σ         = √variance                  = 0.130744…
        //   ci95 half = 1.96·σ                     = 0.256258…
        let mut b = Beta::default();
        for i in 0..10 {
            b.observe(i < 7);
        }
        assert!((b.mean() - 2.0 / 3.0).abs() < 1e-15);
        assert!((b.variance() - 32.0 / 1872.0).abs() < 1e-15);
        let (lo, hi) = b.ci95();
        assert!((lo - 0.410_408_250_086_106_15).abs() < 1e-12, "lo = {lo}");
        assert!((hi - 0.922_925_083_247_227_1).abs() < 1e-12, "hi = {hi}");
        assert!((b.ci95_width() - (hi - lo)).abs() < 1e-15);
        assert!((b.weight() - 12.0).abs() < 1e-15);

        // Informative prior Beta(3, 9): mean 1/4.
        let b = Beta::new(3.0, 9.0);
        assert!((b.mean() - 0.25).abs() < 1e-15);
        assert!((b.variance() - 27.0 / (144.0 * 13.0)).abs() < 1e-15);

        // Interval clamps to [0, 1] near the extremes.
        let skewed = Beta::new(0.5, 20.0);
        let (lo, hi) = skewed.ci95();
        assert_eq!(lo, 0.0);
        assert!(hi < 0.1);
        assert!(Beta::new(-1.0, 0.0).mean().is_finite());
    }

    #[test]
    fn beta_update_is_deterministic_and_order_sensitive_counts_agree() {
        // Two estimators fed the same sequence are bitwise identical;
        // permuted sequences with equal success counts agree too
        // (conjugate updates only see the counts).
        let seq = [true, false, true, true, false, true];
        let mut a = Beta::default();
        let mut b = Beta::default();
        for &s in &seq {
            a.observe(s);
            b.observe(s);
        }
        assert_eq!(a, b);
        let mut c = Beta::default();
        for &s in &[false, false, true, true, true, true] {
            c.observe(s);
        }
        assert_eq!(a, c);
        // More evidence ⇒ narrower credible interval.
        let mut wide = Beta::default();
        let mut narrow = Beta::default();
        for i in 0..4 {
            wide.observe(i % 2 == 0);
        }
        for i in 0..400 {
            narrow.observe(i % 2 == 0);
        }
        assert!(narrow.ci95_width() < wide.ci95_width() / 5.0);
    }

    #[test]
    fn beta_save_load_round_trips() {
        let mut b = Beta::new(2.0, 5.0);
        for i in 0..13 {
            b.observe(i % 3 == 0);
        }
        use dcmaint_ckpt::{Decode, Persist};
        let mut enc = dcmaint_ckpt::Enc::new();
        b.save(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = dcmaint_ckpt::Dec::new(&bytes);
        let back = Beta::decode(&mut dec).unwrap();
        assert!(dec.is_exhausted());
        assert_eq!(b, back);
    }
}
