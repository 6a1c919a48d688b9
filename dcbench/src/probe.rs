//! Fabric probes: direct, timed calls into single layers on a
//! workload's own fabric, outside any engine. Links and service pairs
//! come from seeded streams, so a probe's inputs depend on the seed
//! alone.

use std::hint::black_box;

use dcmaint_dcnet::routing::pair_connectivity;
use dcmaint_dcnet::{AdminState, LinkId, NetState, NodeId, Topology};
use dcmaint_des::{Scheduler, SimDuration, SimRng, SimTime};
use dcmaint_scenarios::ScenarioConfig;
use dcmaint_telemetry::{Detector, TelemetryPlane};
use maintctl::drain::{self, DrainConfig};

use crate::{median, now};

/// Scheduler operations per timed `des.push_pop_ns` sample: one pair
/// is too short to time on its own.
const PUSH_POP_BATCH: usize = 1000;
/// Pending events kept in the probed scheduler, about an E1 run's
/// queue high-water mark.
const QUEUE_DEPTH: usize = 2048;

/// Median times of the four fabric probes.
#[derive(Debug, Clone, Copy)]
pub struct Fabric {
    /// `maintctl::drain::plan` for a human actor, µs.
    pub drain_plan_us: f64,
    /// `routing::pair_connectivity` over the service pairs with one
    /// link drained, µs.
    pub pair_connectivity_us: f64,
    /// `TelemetryPlane::sample` of every link, µs.
    pub telemetry_sample_us: f64,
    /// One `Scheduler` schedule plus one pop, ns.
    pub push_pop_ns: f64,
}

/// The service pairs the engine samples for drain checks, drawn the
/// way `Engine::new` draws them.
fn service_pairs(topo: &Topology, rng: &SimRng, samples: usize) -> Vec<(NodeId, NodeId)> {
    let mut s = rng.stream("service-pairs", 0);
    let servers = topo.servers();
    if servers.len() < 2 {
        return Vec::new();
    }
    (0..samples)
        .map(|_| {
            (
                servers[s.index(servers.len())],
                servers[s.index(servers.len())],
            )
        })
        .filter(|(a, b)| a != b)
        .collect()
}

/// Time `calls` calls of each probe on `cfg`'s fabric.
pub fn fabric(cfg: &ScenarioConfig, calls: usize) -> Fabric {
    let rng = SimRng::root(cfg.seed);
    let topo = cfg.topology.build(cfg.diversity, &rng);
    let state = NetState::new(&topo);
    let pairs = service_pairs(&topo, &rng, cfg.service_pair_samples);
    let probe_rng = rng.child("dcbench-probe");
    let mut pick = probe_rng.stream("links", 0);
    let links: Vec<LinkId> = (0..calls)
        .map(|_| LinkId::from_index(pick.index(topo.link_count())))
        .collect();

    let drain_cfg = DrainConfig::default();
    let hour = SimDuration::from_hours(1);
    let drain_plan: Vec<f64> = links
        .iter()
        .map(|&l| {
            let t = now();
            black_box(drain::plan(
                &drain_cfg, &topo, &state, l, true, hour, &pairs,
            ));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();

    let connectivity: Vec<f64> = links
        .iter()
        .map(|&l| {
            let mut trial = state.clone();
            trial.set_admin(l, AdminState::Drained);
            let t = now();
            black_box(pair_connectivity(&topo, &trial, &pairs));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();

    let mut plane = TelemetryPlane::with_config(&topo, cfg.poll_period, Detector::default());
    let sample: Vec<f64> = (0..calls)
        .map(|i| {
            let at = SimTime::ZERO + cfg.poll_period.mul_f64((i + 1) as f64);
            let t = now();
            black_box(plane.sample(&topo, &state, at));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();

    let mut delays = probe_rng.stream("delays", 0);
    let mut sched: Scheduler<u64> = Scheduler::new();
    for i in 0..QUEUE_DEPTH {
        sched.schedule_in(SimDuration::from_secs(delays.below(86_400)), i as u64);
    }
    let push_pop: Vec<f64> = (0..calls)
        .map(|_| {
            let batch: Vec<SimDuration> = (0..PUSH_POP_BATCH)
                .map(|_| SimDuration::from_secs(delays.below(86_400)))
                .collect();
            let t = now();
            for (i, &d) in batch.iter().enumerate() {
                sched.schedule_in(d, i as u64);
                black_box(sched.pop());
            }
            t.elapsed().as_secs_f64() * 1e9 / PUSH_POP_BATCH as f64
        })
        .collect();

    Fabric {
        drain_plan_us: median(&drain_plan),
        pair_connectivity_us: median(&connectivity),
        telemetry_sample_us: median(&sample),
        push_pop_ns: median(&push_pop),
    }
}
