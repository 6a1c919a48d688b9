//! Fiber end-face contamination: per-core dirt, inspection, cleaning.
//!
//! §3.2–§3.3.2: MPO trunks carry 8+ fiber cores; *each* core must be
//! inspected and cleaned to industry spec (IEC 61300-3-35 grades
//! end-faces by defects in concentric zones around the core). The
//! cleaning robot inspects every core (< 30 s for 8 cores, §3.3.2),
//! applies dry cleaning first, then wet cleaning for stubborn
//! contamination, and re-inspects — the exact pipeline modeled in
//! `dcmaint-robotics`. This module owns the underlying physical state.
//!
//! Dirt is a per-core scalar in `[0, 1]`: 0 = pristine, values above
//! [`EndFace::PASS_THRESHOLD`] fail inspection. Loss contribution grows
//! superlinearly with the worst core (one blocked core can kill the whole
//! lane group).

use dcmaint_des::Stream;

/// Contamination state of one connector end-face.
#[derive(Debug, Clone)]
pub struct EndFace {
    cores: Vec<f64>,
}

impl EndFace {
    /// Inspection pass threshold on per-core dirt (IEC-style pass/fail).
    pub const PASS_THRESHOLD: f64 = 0.25;

    /// A pristine end-face with the given core count (min 1).
    pub fn pristine(cores: u8) -> Self {
        EndFace {
            cores: vec![0.0; usize::from(cores.max(1))],
        }
    }

    /// An end-face contaminated according to field exposure: each core
    /// independently picks up dirt; `exposure ∈ [0,1]` scales severity
    /// (mating count, environment, time in service).
    pub fn contaminated(cores: u8, exposure: f64, rng: &mut Stream) -> Self {
        let mut ef = Self::pristine(cores);
        ef.contaminate(exposure, rng);
        ef
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Dirt level of one core.
    pub fn core(&self, i: usize) -> f64 {
        self.cores[i]
    }

    /// Worst (dirtiest) core level.
    pub fn worst(&self) -> f64 {
        self.cores.iter().copied().fold(0.0, f64::max)
    }

    /// Add field contamination: each core gains an exponential-ish dirt
    /// increment; a minority of cores take most of the dirt (a single
    /// fingerprint or dust particle lands somewhere specific).
    pub fn contaminate(&mut self, exposure: f64, rng: &mut Stream) {
        let exposure = exposure.clamp(0.0, 1.0);
        for c in &mut self.cores {
            // 30% of cores take a big hit, the rest take light haze.
            let hit = if rng.chance(0.3) {
                rng.uniform_range(0.3, 1.0)
            } else {
                rng.uniform_range(0.0, 0.15)
            };
            *c = (*c + exposure * hit).min(1.0);
        }
    }

    /// One mating cycle (plugging the connector) transfers a little dirt
    /// even in clean rooms; dirty mating (uncleaned bulkhead) transfers
    /// more. §3.3.2: the robot "reassembles … to minimize the risk of
    /// recontamination".
    pub fn mate(&mut self, dirty_environment: bool, rng: &mut Stream) {
        let scale = if dirty_environment { 0.15 } else { 0.02 };
        for c in &mut self.cores {
            *c = (*c + rng.uniform_range(0.0, scale)).min(1.0);
        }
    }

    /// Dry-clean every core (reel/click cleaner): removes most loose
    /// contamination but little of the bonded kind. Returns worst level
    /// after cleaning.
    pub fn clean_dry(&mut self, rng: &mut Stream) -> f64 {
        for c in &mut self.cores {
            let removal = rng.uniform_range(0.55, 0.85);
            *c *= 1.0 - removal;
        }
        self.worst()
    }

    /// Wet-then-dry clean: solvent dissolves bonded contamination;
    /// near-total removal (§3.3.2: "wet and dry methods to address a wide
    /// range of contaminants"). Returns worst level after cleaning.
    pub fn clean_wet(&mut self, rng: &mut Stream) -> f64 {
        for c in &mut self.cores {
            let removal = rng.uniform_range(0.90, 0.995);
            *c *= 1.0 - removal;
        }
        self.worst()
    }

    /// Whether every core passes inspection.
    pub fn passes_inspection(&self) -> bool {
        self.cores.iter().all(|&c| c <= Self::PASS_THRESHOLD)
    }

    /// Packet-loss contribution of this end-face: negligible below the
    /// pass threshold, rising superlinearly beyond it (insertion loss →
    /// BER → frame loss is a steep curve).
    pub fn loss_contribution(&self) -> f64 {
        let w = self.worst();
        if w <= Self::PASS_THRESHOLD {
            return 0.0;
        }
        let over = (w - Self::PASS_THRESHOLD) / (1.0 - Self::PASS_THRESHOLD);
        (0.001 + 0.3 * over * over).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmaint_des::SimRng;

    fn rng() -> Stream {
        SimRng::root(7).stream("contam", 0)
    }

    #[test]
    fn pristine_passes() {
        let ef = EndFace::pristine(8);
        assert_eq!(ef.core_count(), 8);
        assert!(ef.passes_inspection());
        assert_eq!(ef.loss_contribution(), 0.0);
        assert_eq!(ef.worst(), 0.0);
    }

    #[test]
    fn heavy_contamination_fails_inspection() {
        let mut r = rng();
        let ef = EndFace::contaminated(8, 1.0, &mut r);
        assert!(!ef.passes_inspection());
        assert!(ef.loss_contribution() > 0.0);
    }

    #[test]
    fn dry_clean_helps_wet_clean_restores() {
        let mut r = rng();
        let mut ef = EndFace::contaminated(8, 1.0, &mut r);
        let before = ef.worst();
        let after_dry = ef.clean_dry(&mut r);
        assert!(after_dry < before);
        let after_wet = ef.clean_wet(&mut r);
        assert!(
            after_wet < 0.1,
            "wet clean should near-restore: {after_wet}"
        );
        assert!(ef.passes_inspection());
    }

    #[test]
    fn single_dry_pass_may_not_suffice() {
        // Statistically, heavily bonded contamination survives one dry
        // pass often enough that the robot's re-inspect step matters.
        let mut r = rng();
        let mut survived = 0;
        for _ in 0..200 {
            let mut ef = EndFace::contaminated(8, 1.0, &mut r);
            ef.clean_dry(&mut r);
            if !ef.passes_inspection() {
                survived += 1;
            }
        }
        assert!(survived > 20, "only {survived} dirty after dry clean");
    }

    #[test]
    fn mating_recontaminates() {
        let mut r = rng();
        let mut ef = EndFace::pristine(8);
        for _ in 0..60 {
            ef.mate(true, &mut r);
        }
        assert!(ef.worst() > 0.5, "repeated dirty mating accumulates");
        let mut clean_env = EndFace::pristine(8);
        for _ in 0..10 {
            clean_env.mate(false, &mut r);
        }
        assert!(clean_env.passes_inspection());
    }

    #[test]
    fn loss_grows_with_dirt() {
        let mut light = EndFace::pristine(2);
        let mut heavy = EndFace::pristine(2);
        // Manually poke: contaminate one core just over vs far over.
        light.cores[0] = 0.35;
        heavy.cores[0] = 0.95;
        assert!(heavy.loss_contribution() > light.loss_contribution() * 3.0);
        assert!(heavy.loss_contribution() <= 1.0);
    }

    #[test]
    fn zero_core_request_clamps_to_one() {
        let ef = EndFace::pristine(0);
        assert_eq!(ef.core_count(), 1);
    }

    #[test]
    fn exposure_scales_contamination() {
        let mut r = rng();
        let mut worst_lo = 0.0;
        let mut worst_hi = 0.0;
        for _ in 0..100 {
            worst_lo += EndFace::contaminated(8, 0.1, &mut r).worst();
            worst_hi += EndFace::contaminated(8, 0.9, &mut r).worst();
        }
        assert!(worst_hi > 2.0 * worst_lo);
    }
}
