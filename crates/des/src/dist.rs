//! Sampling distributions used by the failure, repair, and mobility models.
//!
//! Implemented in-house via inverse-transform / standard algorithms rather
//! than pulling in `rand_distr`: the set we need is small, the
//! implementations are a few lines each, and owning them guarantees the
//! sampled sequences are stable across dependency upgrades (experiment
//! reproducibility outlives `Cargo.lock`).
//!
//! All samplers take a [`Stream`] and return `f64` values; durations are
//! obtained through [`Dist::sample_duration`].

use crate::rng::Stream;
use crate::time::SimDuration;

/// A parameterized distribution over non-negative reals.
#[derive(Debug, Clone, Copy, PartialEq)]
#[expect(missing_docs, reason = "variant parameter names are standard notation")]
pub enum Dist {
    /// Exponential with the given mean (= 1/rate). The memoryless workhorse
    /// for failure inter-arrival times.
    Exp { mean: f64 },
    /// Log-normal parameterized by the *median* and σ of the underlying
    /// normal. Human task durations (repairs, travel) are classically
    /// log-normal: most take the typical time, a long tail takes much more.
    LogNormal { median: f64, sigma: f64 },
}

impl Dist {
    /// Draw one sample. A non-positive mean or median yields 0.0 rather
    /// than panicking.
    pub fn sample(&self, rng: &mut Stream) -> f64 {
        match *self {
            Dist::Exp { mean } => {
                if mean <= 0.0 {
                    return 0.0;
                }
                // Inverse transform; 1-u avoids ln(0).
                -mean * (1.0 - rng.uniform()).ln()
            }
            Dist::LogNormal { median, sigma } => {
                if median <= 0.0 {
                    return 0.0;
                }
                let z = standard_normal(rng);
                median * (sigma * z).exp()
            }
        }
    }

    /// Draw a sample and interpret it as seconds, producing a duration.
    pub fn sample_duration(&self, rng: &mut Stream) -> SimDuration {
        SimDuration::from_secs_f64(self.sample(rng))
    }
}

/// Box–Muller transform (basic form; one draw discarded for simplicity —
/// sampling cost is negligible next to event dispatch).
fn standard_normal(rng: &mut Stream) -> f64 {
    let u1 = (1.0 - rng.uniform()).max(f64::MIN_POSITIVE);
    let u2 = rng.uniform();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
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
    fn exp_mean_matches() {
        let m = empirical_mean(Dist::Exp { mean: 3.0 }, 60_000);
        assert!((m - 3.0).abs() < 0.1, "mean {m}");
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
    fn sample_duration_is_seconds() {
        let d = Dist::Exp { mean: 2.5 };
        let (mut a, mut b) = (stream(), stream());
        for _ in 0..100 {
            let secs = d.sample(&mut a);
            assert_eq!(d.sample_duration(&mut b), SimDuration::from_secs_f64(secs));
        }
    }
}
