//! Gilbert–Elliott flapping process.
//!
//! §1: "a flapping network link, a link that oscillates between periods of
//! normal operation and periods that exhibit high packet loss rates". The
//! standard two-state model: sojourn in *Good* (low loss) and *Bad* (high
//! loss) states with exponential holding times. The fault layer runs one
//! process per flapping link, emitting state-change events the telemetry
//! detectors then have to recognize as a flap (not two independent
//! failures — the false-positive trap the paper's fine-grained control is
//! meant to avoid).

use dcmaint_des::{Dist, SimDuration, Stream};

/// Which half of the Gilbert–Elliott cycle the link is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlapPhase {
    /// Normal operation (baseline loss).
    Good,
    /// High-loss burst.
    Bad,
}

dcmaint_ckpt::persist_enum!(FlapPhase: "flap-phase" { 0 => Good, 1 => Bad });

/// One link's flapping process.
#[derive(Debug, Clone)]
pub struct FlapProcess {
    /// Mean sojourn in Good.
    pub mean_good: SimDuration,
    /// Mean sojourn in Bad.
    pub mean_bad: SimDuration,
    /// Loss rate while Bad.
    pub loss_bad: f64,
    /// Loss rate while Good (residual).
    pub loss_good: f64,
    phase: FlapPhase,
}

dcmaint_ckpt::persist!(FlapProcess {
    mean_good,
    mean_bad,
    loss_bad,
    loss_good,
    phase,
});

impl FlapProcess {
    /// Standard flap profile: minutes-scale good periods, seconds-to-
    /// minutes bad bursts with percent-scale loss. `severity ∈ [0,1]`
    /// scales burst length and loss (driven by contamination level /
    /// environment).
    pub fn with_severity(severity: f64) -> Self {
        let severity = severity.clamp(0.0, 1.0);
        FlapProcess {
            mean_good: SimDuration::from_secs_f64(600.0 * (1.0 - 0.8 * severity) + 30.0),
            mean_bad: SimDuration::from_secs_f64(10.0 + 110.0 * severity),
            loss_bad: 0.02 + 0.28 * severity,
            loss_good: 0.0001,
            phase: FlapPhase::Good,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> FlapPhase {
        self.phase
    }

    /// Current loss rate.
    pub fn loss(&self) -> f64 {
        match self.phase {
            FlapPhase::Good => self.loss_good,
            FlapPhase::Bad => self.loss_bad,
        }
    }

    /// Flip to the other phase and return how long the *new* phase will
    /// hold (schedule the next transition after this delay).
    pub fn transition(&mut self, rng: &mut Stream) -> SimDuration {
        self.phase = match self.phase {
            FlapPhase::Good => FlapPhase::Bad,
            FlapPhase::Bad => FlapPhase::Good,
        };
        self.hold_time(rng)
    }

    /// Sample the holding time of the current phase.
    pub fn hold_time(&self, rng: &mut Stream) -> SimDuration {
        let mean = match self.phase {
            FlapPhase::Good => self.mean_good,
            FlapPhase::Bad => self.mean_bad,
        };
        Dist::Exp {
            mean: mean.as_secs_f64().max(1e-6),
        }
        .sample_duration(rng)
    }

    /// Long-run fraction of time spent in the Bad phase.
    pub fn bad_duty_cycle(&self) -> f64 {
        let g = self.mean_good.as_secs_f64();
        let b = self.mean_bad.as_secs_f64();
        if g + b <= 0.0 {
            0.0
        } else {
            b / (g + b)
        }
    }

    /// Long-run average loss rate.
    pub fn mean_loss(&self) -> f64 {
        let d = self.bad_duty_cycle();
        d * self.loss_bad + (1.0 - d) * self.loss_good
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmaint_des::SimRng;

    #[test]
    fn starts_good_and_alternates() {
        let mut rng = SimRng::root(1).stream("flap", 0);
        let mut p = FlapProcess::with_severity(0.5);
        assert_eq!(p.phase(), FlapPhase::Good);
        p.transition(&mut rng);
        assert_eq!(p.phase(), FlapPhase::Bad);
        p.transition(&mut rng);
        assert_eq!(p.phase(), FlapPhase::Good);
    }

    #[test]
    fn severity_scales_badness() {
        let mild = FlapProcess::with_severity(0.1);
        let severe = FlapProcess::with_severity(0.9);
        assert!(severe.loss_bad > mild.loss_bad);
        assert!(severe.mean_bad > mild.mean_bad);
        assert!(severe.mean_good < mild.mean_good);
        assert!(severe.bad_duty_cycle() > mild.bad_duty_cycle());
    }

    #[test]
    fn loss_follows_phase() {
        let mut rng = SimRng::root(2).stream("flap", 0);
        let mut p = FlapProcess::with_severity(0.5);
        assert!(p.loss() < 0.001);
        p.transition(&mut rng);
        assert!(p.loss() > 0.01);
    }

    #[test]
    fn hold_times_have_right_means() {
        let mut rng = SimRng::root(3).stream("flap", 0);
        let p = FlapProcess::with_severity(0.5);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| p.hold_time(&mut rng).as_secs_f64())
            .sum::<f64>()
            / f64::from(n);
        let expect = p.mean_good.as_secs_f64();
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn mean_loss_between_phase_losses() {
        let p = FlapProcess::with_severity(0.7);
        let m = p.mean_loss();
        assert!(m > p.loss_good && m < p.loss_bad);
    }

    #[test]
    fn severity_clamped() {
        let p = FlapProcess::with_severity(7.0);
        let q = FlapProcess::with_severity(1.0);
        assert_eq!(p.loss_bad, q.loss_bad);
    }
}
