//! E6 — inspection and cleaning timing vs core count (claims C1 + C2,
//! Figure 2's pipeline).
//!
//! §3.3.2: "the end-face inspection for 8 cores takes less than 30
//! seconds which is less time than a well-trained human" and the full
//! operation "currently takes a few minutes". The experiment sweeps MPO
//! core counts and measures robot inspection-pass time, full cleaning
//! cycles (Monte Carlo over contamination states), and the manual
//! baseline.

use dcmaint_des::{SimDuration, SimRng};
use dcmaint_faults::EndFace;
use dcmaint_metrics::{Align, Cell, Table};
use dcmaint_robotics::{run_clean, OpTimings, VisionModel};

/// Parameters for E6.
#[derive(Debug, Clone)]
pub struct E6Params {
    /// RNG seed.
    pub seed: u64,
    /// Core counts to sweep.
    pub cores: Vec<u8>,
    /// Cleaning cycles sampled per point.
    pub samples: usize,
}

impl E6Params {
    /// CI-sized.
    pub fn quick(seed: u64) -> Self {
        E6Params {
            seed,
            cores: vec![1, 2, 8, 16],
            samples: 50,
        }
    }

    /// Paper-sized.
    pub fn full(seed: u64) -> Self {
        E6Params {
            seed,
            cores: vec![1, 2, 8, 12, 16, 24],
            samples: 500,
        }
    }
}

/// Manual inspection baseline: a trained human with a handheld scope
/// takes ~5 s per core plus ~30 s of handling/setup per connector
/// (industry training material for IEC 61300-3-35 workflows).
pub fn human_inspection(cores: u8) -> SimDuration {
    SimDuration::from_secs(30) + SimDuration::from_secs(5) * u64::from(cores.max(1))
}

/// One row of the E6 table.
#[derive(Debug, Clone)]
pub struct E6Row {
    /// MPO core count.
    pub cores: u8,
    /// Robot single inspection pass.
    pub robot_inspect: SimDuration,
    /// Human single inspection pass.
    pub human_inspect: SimDuration,
    /// Inspection speedup (human / robot).
    pub speedup: f64,
    /// Mean full robot cleaning cycle (detach → … → verify), successful
    /// cycles only.
    pub mean_clean_cycle: SimDuration,
    /// Fraction of cycles escalated to a human.
    pub escalation_frac: f64,
}

/// Run the sweep.
pub fn run_experiment(p: &E6Params) -> Vec<E6Row> {
    let timings = OpTimings::default();
    let vision = VisionModel::default();
    let rng = SimRng::root(p.seed);
    let mut stream = rng.stream("e6", 0);
    p.cores
        .iter()
        .map(|&cores| {
            let robot_inspect = timings.inspection(cores);
            let human_inspect = human_inspection(cores);
            let mut total = SimDuration::ZERO;
            let mut ok = 0u32;
            let mut escalated = 0u32;
            for _ in 0..p.samples {
                let mut ef = EndFace::contaminated(cores, 0.7, &mut stream);
                let res = run_clean(&timings, &vision, 5.0, 0.3, 0.3, &mut ef, &mut stream);
                if res.success {
                    total += res.total();
                    ok += 1;
                } else {
                    escalated += 1;
                }
            }
            E6Row {
                cores,
                robot_inspect,
                human_inspect,
                speedup: human_inspect.as_secs_f64() / robot_inspect.as_secs_f64(),
                mean_clean_cycle: if ok == 0 {
                    SimDuration::ZERO
                } else {
                    total / u64::from(ok)
                },
                escalation_frac: f64::from(escalated) / p.samples.max(1) as f64,
            }
        })
        .collect()
}

/// Render the E6 table.
pub fn table(rows: &[E6Row]) -> Table {
    let mut t = Table::new(
        "E6: end-face inspection & cleaning timing vs core count (C1/C2)",
        &[
            ("cores", Align::Right),
            ("robot inspect", Align::Right),
            ("human inspect", Align::Right),
            ("speedup", Align::Right),
            ("full clean cycle", Align::Right),
            ("escalated", Align::Right),
        ],
    );
    for r in rows {
        t.row(vec![
            r.cores.to_string().into(),
            Cell::Dur(r.robot_inspect),
            Cell::Dur(r.human_inspect),
            Cell::Ratio(r.speedup),
            Cell::Dur(r.mean_clean_cycle),
            Cell::Pct(r.escalation_frac, 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_cores_under_thirty_seconds() {
        // Claim C1, verbatim.
        let rows = run_experiment(&E6Params::quick(61));
        let r8 = rows.iter().find(|r| r.cores == 8).unwrap();
        assert!(
            r8.robot_inspect < SimDuration::from_secs(30),
            "8-core inspection {}",
            r8.robot_inspect
        );
        assert!(
            r8.robot_inspect < r8.human_inspect,
            "robot must beat the trained human"
        );
    }

    #[test]
    fn full_cycle_is_a_few_minutes() {
        // Claim C2.
        let rows = run_experiment(&E6Params::quick(62));
        let r8 = rows.iter().find(|r| r.cores == 8).unwrap();
        let mins = r8.mean_clean_cycle.as_secs_f64() / 60.0;
        assert!((1.0..15.0).contains(&mins), "clean cycle {mins:.1} min");
    }

    #[test]
    fn inspection_scales_linearly_with_cores() {
        let rows = run_experiment(&E6Params::quick(63));
        for w in rows.windows(2) {
            assert!(w[1].robot_inspect > w[0].robot_inspect);
        }
        // 16 cores ≈ 2x the 8-core per-core time plus shared setup.
        let r8 = rows.iter().find(|r| r.cores == 8).unwrap();
        let r16 = rows.iter().find(|r| r.cores == 16).unwrap();
        let ratio = r16.robot_inspect.as_secs_f64() / r8.robot_inspect.as_secs_f64();
        assert!((1.5..2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn escalations_are_rare_at_moderate_diversity() {
        let rows = run_experiment(&E6Params::quick(64));
        for r in &rows {
            assert!(
                r.escalation_frac < 0.2,
                "{} cores escalated {:.0}%",
                r.cores,
                r.escalation_frac * 100.0
            );
        }
    }
}
