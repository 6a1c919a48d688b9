//! E9 — flapping links and tail latency (claim C8, §1's motivation).
//!
//! "Layers in the network stack will ensure retransmission of lost
//! packets, the curse of a flapping link is the associated increase in
//! tail latency." The experiment plants one Gilbert–Elliott flapping
//! uplink in a healthy leaf-spine fabric and measures the fleet-wide
//! latency-multiplier distribution over all-to-all demands, sampling the
//! flap's good/bad phases over a long window. It then compares how much
//! flap-exposure time survives under a human MTTR (days) vs a robotic
//! MTTR (minutes).

use dcmaint_dcnet::flows::{all_to_all, allocate};
use dcmaint_dcnet::{DiversityProfile, LinkHealth, NetState};
use dcmaint_des::{SimDuration, SimRng};
use dcmaint_faults::FlapProcess;
use dcmaint_metrics::{Align, Cell, Table};

/// Parameters for E9.
#[derive(Debug, Clone)]
pub struct E9Params {
    /// RNG seed.
    pub seed: u64,
    /// Flap severities to sweep (0–1).
    pub severities: Vec<f64>,
    /// Time samples of the flap process per severity.
    pub time_samples: usize,
}

impl E9Params {
    /// CI-sized.
    pub fn quick(seed: u64) -> Self {
        E9Params {
            seed,
            severities: vec![0.2, 0.8],
            time_samples: 200,
        }
    }

    /// Paper-sized.
    pub fn full(seed: u64) -> Self {
        E9Params {
            seed,
            severities: vec![0.1, 0.3, 0.5, 0.7, 0.9],
            time_samples: 2_000,
        }
    }
}

/// One row of the E9 table.
#[derive(Debug, Clone)]
pub struct E9Row {
    /// Flap severity.
    pub severity: f64,
    /// Long-run mean loss of the flapping link.
    pub mean_loss: f64,
    /// Fleet p50 latency multiplier while the flap is live.
    pub p50: f64,
    /// Fleet p99 latency multiplier while the flap is live.
    pub p99: f64,
    /// Fleet p999 latency multiplier while the flap is live.
    pub p999: f64,
    /// 30-day p999 with human repair (flap lives ~2 days).
    pub p999_human_window: f64,
    /// 30-day p999 with robotic repair (flap lives ~15 minutes).
    pub p999_robot_window: f64,
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 1.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Run E9.
pub fn run_experiment(p: &E9Params) -> Vec<E9Row> {
    let rng = SimRng::root(p.seed);
    let topo = dcmaint_dcnet::gen::leaf_spine(2, 4, 2, 1, DiversityProfile::standardized(), &rng);
    let servers = topo.servers();
    let demands = all_to_all(&servers, 10.0);
    // Pick a leaf-spine uplink to flap.
    let uplink = topo
        .link_ids()
        .find(|&l| {
            let (a, b) = topo.endpoints(l);
            topo.node(a).is_switch() && topo.node(b).is_switch()
        })
        .expect("fabric has uplinks");
    let mut stream = rng.stream("e9", 0);
    p.severities
        .iter()
        .map(|&severity| {
            let mut flap = FlapProcess::with_severity(severity);
            // Sample the flap over time: collect per-demand multipliers
            // weighted by phase occupancy.
            let mut mults: Vec<f64> = Vec::new();
            for _ in 0..p.time_samples {
                flap.transition(&mut stream);
                let mut state = NetState::new(&topo);
                state.set_health(uplink, LinkHealth::Flapping, flap.loss());
                let report = allocate(&topo, &state, &demands);
                mults.extend(report.latency_multipliers());
            }
            mults.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let p50 = quantile(&mults, 0.50);
            let p99 = quantile(&mults, 0.99);
            let p999 = quantile(&mults, 0.999);
            // Repair-window mixing over a 30-day horizon: the flap
            // contributes its distribution only while alive; a fixed
            // link contributes multiplier 1. Human: ~2 days alive
            // (detect + queue + repair); robot: ~15 minutes. Because
            // ECMP diverts most demands around one bad uplink, the
            // monthly effect shows at p999, not p99 — exactly the
            // "tail latency" framing of §1.
            let mix = |alive: SimDuration| -> f64 {
                let frac =
                    (alive.as_secs_f64() / SimDuration::from_days(30).as_secs_f64()).min(1.0);
                let clean_frac = 1.0 - frac;
                if clean_frac >= 0.999 {
                    // Flap-alive time is under 0.1% of the month: the
                    // 99.9th percentile is clean traffic.
                    1.0
                } else {
                    let q = (0.999 - clean_frac) / frac;
                    quantile(&mults, q.clamp(0.0, 1.0))
                }
            };
            E9Row {
                severity,
                mean_loss: flap.mean_loss(),
                p50,
                p99,
                p999,
                p999_human_window: mix(SimDuration::from_days(2)),
                p999_robot_window: mix(SimDuration::from_mins(15)),
            }
        })
        .collect()
}

/// Render the E9 table.
pub fn table(rows: &[E9Row]) -> Table {
    let mut t = Table::new(
        "E9: flapping-link tail-latency inflation and repair-speed mixing (C8)",
        &[
            ("severity", Align::Right),
            ("mean loss", Align::Right),
            ("p50 live", Align::Right),
            ("p99 live", Align::Right),
            ("p999 live", Align::Right),
            ("30d p999 human", Align::Right),
            ("30d p999 robot", Align::Right),
        ],
    );
    for r in rows {
        t.row(vec![
            Cell::Num(r.severity, 1),
            Cell::Num(r.mean_loss, 4),
            Cell::Num(r.p50, 2),
            Cell::Num(r.p99, 1),
            Cell::Num(r.p999, 1),
            Cell::Num(r.p999_human_window, 2),
            Cell::Num(r.p999_robot_window, 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_inflates_far_more_than_median() {
        let rows = run_experiment(&E9Params::quick(91));
        for r in &rows {
            // The §1 curse: medians barely move (most paths avoid the
            // flapping link), tails explode.
            assert!(r.p50 < 2.0, "p50 {} at severity {}", r.p50, r.severity);
            assert!(
                r.p999 > 2.0 * r.p50,
                "p999 {} vs p50 {} at severity {}",
                r.p999,
                r.p50,
                r.severity
            );
        }
    }

    #[test]
    fn severity_worsens_the_tail() {
        let rows = run_experiment(&E9Params::quick(92));
        assert!(rows[1].p999 >= rows[0].p999 * 0.9);
        assert!(rows[1].mean_loss > rows[0].mean_loss);
    }

    #[test]
    fn fast_repair_erases_the_monthly_tail() {
        let rows = run_experiment(&E9Params::quick(93));
        for r in &rows {
            // A 15-minute robotic repair leaves the flap alive for
            // <0.04% of the month: the monthly p999 is clean. A 2-day
            // human window leaves 6.7% of the month exposed.
            assert!(
                r.p999_robot_window <= 1.01,
                "robot window p999 {}",
                r.p999_robot_window
            );
            assert!(
                r.p999_human_window >= r.p999_robot_window,
                "human {} < robot {}",
                r.p999_human_window,
                r.p999_robot_window
            );
        }
        // At high severity the human window visibly hurts the tail.
        assert!(
            rows.last().unwrap().p999_human_window > 1.1,
            "human p999 {}",
            rows.last().unwrap().p999_human_window
        );
    }

    #[test]
    fn table_renders() {
        let rows = run_experiment(&E9Params::quick(94));
        let out = table(&rows).render();
        assert!(out.contains("p999"));
    }
}
