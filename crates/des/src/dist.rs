//! Sampling distributions used by the failure, repair, and mobility models.
//!
//! Implemented in-house via inverse-transform / standard algorithms rather
//! than pulling in `rand_distr`: the set we need is small, the
//! implementations are a few lines each, and owning them guarantees the
//! sampled sequences are stable across dependency upgrades (experiment
//! reproducibility outlives `Cargo.lock`).
//!
//! All samplers take a [`Stream`] and return `f64` values; durations are
//! obtained through [`Dist::sample_duration`]. Parameters are validated at
//! construction via [`Dist::validated`] for code paths that take
//! user-supplied config.

use crate::rng::Stream;
use crate::time::SimDuration;

/// A parameterized distribution over non-negative reals.
#[derive(Debug, Clone, Copy, PartialEq)]
#[expect(missing_docs, reason = "variant parameter names are standard notation")]
pub enum Dist {
    /// Always `value`. Useful for pinning timings in tests.
    Constant(f64),
    /// Uniform on `[lo, hi)`.
    Uniform { lo: f64, hi: f64 },
    /// Exponential with the given mean (= 1/rate). The memoryless workhorse
    /// for failure inter-arrival times.
    Exp { mean: f64 },
    /// Weibull with scale λ and shape k. `k > 1` models wear-out (aging
    /// transceivers), `k < 1` infant mortality.
    Weibull { scale: f64, shape: f64 },
    /// Log-normal parameterized by the *median* and σ of the underlying
    /// normal. Human task durations (repairs, travel) are classically
    /// log-normal: most take the typical time, a long tail takes much more.
    LogNormal { median: f64, sigma: f64 },
    /// Pareto (Lomax-free, classic form) with minimum `xm` and tail index
    /// α. Heavy-tailed flow sizes and rare long outages.
    Pareto { xm: f64, alpha: f64 },
    /// Triangular on `[lo, hi]` with mode `mode`. Expert-elicited task
    /// times ("at best 2 min, usually 5, worst 15").
    Triangular { lo: f64, mode: f64, hi: f64 },
}

/// Error returned by [`Dist::validated`] for nonsensical parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistError(pub String);

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution: {}", self.0)
    }
}
impl std::error::Error for DistError {}

impl Dist {
    /// Validate parameters, returning the distribution unchanged on success.
    pub fn validated(self) -> Result<Self, DistError> {
        let bad = |m: &str| Err(DistError(m.to_string()));
        match self {
            Dist::Constant(v) if !v.is_finite() || v < 0.0 => bad("constant must be finite, >= 0"),
            Dist::Uniform { lo, hi } if lo > hi || lo < 0.0 || !hi.is_finite() => {
                bad("uniform requires 0 <= lo <= hi < inf")
            }
            Dist::Exp { mean } if mean <= 0.0 || mean.is_nan() || mean.is_infinite() => {
                bad("exp mean must be positive, finite")
            }
            Dist::Weibull { scale, shape } if !(scale > 0.0 && shape > 0.0) => {
                bad("weibull scale and shape must be positive")
            }
            Dist::LogNormal { median, sigma } if !(median > 0.0 && sigma >= 0.0) => {
                bad("lognormal median must be positive, sigma >= 0")
            }
            Dist::Pareto { xm, alpha } if !(xm > 0.0 && alpha > 0.0) => {
                bad("pareto xm and alpha must be positive")
            }
            Dist::Triangular { lo, mode, hi } if !(lo <= mode && mode <= hi && lo >= 0.0) => {
                bad("triangular requires 0 <= lo <= mode <= hi")
            }
            other => Ok(other),
        }
    }

    /// Draw one sample. Invalid parameters degrade to 0.0 rather than
    /// panicking (construction-time validation is the real guard).
    pub fn sample(&self, rng: &mut Stream) -> f64 {
        match *self {
            Dist::Constant(v) => v.max(0.0),
            Dist::Uniform { lo, hi } => rng.uniform_range(lo, hi),
            Dist::Exp { mean } => {
                if mean <= 0.0 {
                    return 0.0;
                }
                // Inverse transform; 1-u avoids ln(0).
                -mean * (1.0 - rng.uniform()).ln()
            }
            Dist::Weibull { scale, shape } => {
                if scale <= 0.0 || shape <= 0.0 {
                    return 0.0;
                }
                let u = 1.0 - rng.uniform();
                scale * (-u.ln()).powf(1.0 / shape)
            }
            Dist::LogNormal { median, sigma } => {
                if median <= 0.0 {
                    return 0.0;
                }
                let z = standard_normal(rng);
                median * (sigma * z).exp()
            }
            Dist::Pareto { xm, alpha } => {
                if xm <= 0.0 || alpha <= 0.0 {
                    return 0.0;
                }
                let u = 1.0 - rng.uniform();
                xm / u.powf(1.0 / alpha)
            }
            Dist::Triangular { lo, mode, hi } => {
                if !(lo <= mode && mode <= hi) {
                    return lo.max(0.0);
                }
                if hi <= lo {
                    return lo;
                }
                let u = rng.uniform();
                let fc = (mode - lo) / (hi - lo);
                if u < fc {
                    lo + ((hi - lo) * (mode - lo) * u).sqrt()
                } else {
                    hi - ((hi - lo) * (hi - mode) * (1.0 - u)).sqrt()
                }
            }
        }
    }

    /// Draw a sample and interpret it as seconds, producing a duration.
    pub fn sample_duration(&self, rng: &mut Stream) -> SimDuration {
        SimDuration::from_secs_f64(self.sample(rng))
    }

    /// Analytic mean where closed-form exists (Pareto with α ≤ 1 has none
    /// and returns infinity). Used by provisioning math and sanity tests.
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Constant(v) => v,
            Dist::Uniform { lo, hi } => 0.5 * (lo + hi),
            Dist::Exp { mean } => mean,
            Dist::Weibull { scale, shape } => scale * gamma(1.0 + 1.0 / shape),
            Dist::LogNormal { median, sigma } => median * (sigma * sigma / 2.0).exp(),
            Dist::Pareto { xm, alpha } => {
                if alpha > 1.0 {
                    alpha * xm / (alpha - 1.0)
                } else {
                    f64::INFINITY
                }
            }
            Dist::Triangular { lo, mode, hi } => (lo + mode + hi) / 3.0,
        }
    }
}

/// Box–Muller transform (basic form; one draw discarded for simplicity —
/// sampling cost is negligible next to event dispatch).
fn standard_normal(rng: &mut Stream) -> f64 {
    let u1 = (1.0 - rng.uniform()).max(f64::MIN_POSITIVE);
    let u2 = rng.uniform();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Lanczos approximation of Γ(x) for x > 0; accurate to ~1e-13, far beyond
/// what the Weibull mean needs.
fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    #[expect(
        clippy::excessive_precision,
        clippy::inconsistent_digit_grouping,
        reason = "the Lanczos coefficients exactly as published"
    )]
    const C: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = C[0];
        let t = x + G + 0.5;
        for (i, &c) in C.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (std::f64::consts::TAU).sqrt() * t.powf(x + 0.5) * (-t).exp() * a / 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn stream() -> Stream {
        SimRng::root(99).stream("dist-tests", 0)
    }

    fn empirical_mean(d: Dist, n: usize) -> f64 {
        let mut s = stream();
        (0..n).map(|_| d.sample(&mut s)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let mut s = stream();
        let d = Dist::Constant(4.2);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut s), 4.2);
        }
    }

    #[test]
    fn exp_mean_matches() {
        let m = empirical_mean(Dist::Exp { mean: 3.0 }, 60_000);
        assert!((m - 3.0).abs() < 0.1, "mean {m}");
    }

    #[test]
    fn weibull_mean_matches_analytic() {
        let d = Dist::Weibull {
            scale: 2.0,
            shape: 1.5,
        };
        let m = empirical_mean(d, 60_000);
        assert!((m - d.mean()).abs() < 0.05, "mean {m} vs {}", d.mean());
    }

    #[test]
    fn weibull_shape_one_is_exponential_mean() {
        let d = Dist::Weibull {
            scale: 5.0,
            shape: 1.0,
        };
        assert!((d.mean() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn lognormal_median_matches() {
        let d = Dist::LogNormal {
            median: 10.0,
            sigma: 0.8,
        };
        let mut s = stream();
        let mut xs: Vec<f64> = (0..20_001).map(|_| d.sample(&mut s)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[10_000];
        assert!((med - 10.0).abs() < 0.5, "median {med}");
    }

    #[test]
    fn lognormal_is_right_skewed() {
        let d = Dist::LogNormal {
            median: 10.0,
            sigma: 1.0,
        };
        let m = empirical_mean(d, 60_000);
        assert!(m > 12.0, "mean {m} should exceed median for sigma=1");
    }

    #[test]
    fn pareto_respects_minimum() {
        let d = Dist::Pareto {
            xm: 2.0,
            alpha: 2.5,
        };
        let mut s = stream();
        for _ in 0..5_000 {
            assert!(d.sample(&mut s) >= 2.0);
        }
    }

    #[test]
    fn pareto_mean_infinite_for_small_alpha() {
        let d = Dist::Pareto {
            xm: 1.0,
            alpha: 0.9,
        };
        assert!(d.mean().is_infinite());
    }

    #[test]
    fn triangular_bounded_and_mean() {
        let d = Dist::Triangular {
            lo: 1.0,
            mode: 2.0,
            hi: 6.0,
        };
        let mut s = stream();
        for _ in 0..5_000 {
            let x = d.sample(&mut s);
            assert!((1.0..=6.0).contains(&x));
        }
        let m = empirical_mean(d, 60_000);
        assert!((m - 3.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn uniform_bounds() {
        let d = Dist::Uniform { lo: 3.0, hi: 7.0 };
        let mut s = stream();
        for _ in 0..2_000 {
            let x = d.sample(&mut s);
            assert!((3.0..7.0).contains(&x));
        }
    }

    #[test]
    fn validation_rejects_bad_params() {
        assert!(Dist::Exp { mean: 0.0 }.validated().is_err());
        assert!(Dist::Exp { mean: -1.0 }.validated().is_err());
        assert!(Dist::Weibull {
            scale: 1.0,
            shape: 0.0
        }
        .validated()
        .is_err());
        assert!(Dist::Uniform { lo: 5.0, hi: 2.0 }.validated().is_err());
        assert!(Dist::Triangular {
            lo: 1.0,
            mode: 0.5,
            hi: 2.0
        }
        .validated()
        .is_err());
        assert!(Dist::Constant(f64::NAN).validated().is_err());
        assert!(Dist::Exp { mean: 2.0 }.validated().is_ok());
    }

    #[test]
    fn sample_duration_is_seconds() {
        let mut s = stream();
        let d = Dist::Constant(2.5).sample_duration(&mut s);
        assert_eq!(d, SimDuration::from_millis(2500));
    }

    #[test]
    fn gamma_known_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-10);
        assert!((gamma(2.0) - 1.0).abs() < 1e-10);
        assert!((gamma(5.0) - 24.0).abs() < 1e-8);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }
}
