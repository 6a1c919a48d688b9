//! `dcbench`: one benchmark for the maintenance-plane simulator.
//!
//! It drives the scenario engine through public APIs only — nothing
//! inside the program is instrumented, and the engine's `cfg.obs` stays
//! off in every run (the obs registry rides in the checkpoint payload,
//! so switching it on would change checkpoint bytes and state hashes).
//!
//! # Workloads
//!
//! | name | world | ops | why |
//! |---|---|---|---|
//! | `e1-year` | E1 cell: L3, leaf-spine 4×16×8 (192 links), 365 days per seed | simulated days | The paper's headline world and the highest event rate (~0.9M events per seed). Dispatch (the drain check), telemetry poll and the scheduler all carry weight. |
//! | `fattree-1k` | fat-tree k=12 (1,296 links), L3, MTBI 304 d per link, 14 days per seed | dispatch decisions | The scale axis: the base fault rate per fabric matches `e1-year`, so a per-link cost shows as the gap between the two. One drain check costs several times more here, and dispatch takes nearly all of the time. |
//! | `twin-plan` | `selfmaint plan`'s cell: leaf-spine 2×6×2, poll 120 s, MTBI 12 d, L3, twin-guided (horizon 7 d, one job), 7 days per seed | twin decisions | The only workload where the checkpoint codec's fork path does the work; the parent's poll and routing costs are negligible on 24 links. A decision costs more the busier the world, so many short seeds give a steadier median than a few long ones. |
//! | `ckpt-hourly` | `e1-year`'s world, 45 days per seed, a checkpoint round trip every simulated hour | checkpointed hours | `serve --checkpoint-hours` on the same codec the twin uses in memory: `snapshot`→`to_bytes`, `from_bytes`→`restore`, then the restored engine's `state_hash` is checked and the run continues on it. Checkpointing takes most of the wall time. A codec change that speeds up forks but slows restore shows here and not in `twin-plan`. |
//!
//! A workload's seed count depends only on `--seconds` (see
//! [`Workload::sized`]), never on the clock, so the same arguments
//! always do the same work and produce the same digest. Seeds come
//! from `derive_seed(--seed, workload, k)`. All load comes from one
//! thread in a closed loop over the seed runs. `twin-plan` rehearses
//! its branches on one worker: with two, the fork-join fan-out made
//! repeated runs of the same seeds spread 11% apart on a shared 2-core
//! host, against 3% with one, so the pool's threaded path is out of
//! scope.
//!
//! # Metrics
//!
//! End to end (untraced run):
//!
//! * `ops_per_s` — the median over seed runs of [`Unit`]s completed per
//!   host second. Each workload counts the operation that carries its
//!   cost. Simulated days per second would be the natural unit
//!   everywhere, but where the work per day is random (cascades in
//!   `fattree-1k`, planning decisions in `twin-plan`) it varies by a
//!   quarter or more between seeds, while the rate in the costly unit
//!   does not. Days per second stays visible as `sim.days_per_s`.
//! * `setup_s` — the median `Engine::new` wall time over [`SETUP_REPS`]
//!   builds per seed: topology, service pairs, initial events.
//! * `peak_rss_mb` — `VmHWM` at exit.
//!
//! Per layer (traced run, `--trace 1`): the bench wraps every
//! `Engine::step_event` in `Instant` and files the time under a module
//! by event kind ([`Module::of`], mirroring `Ev::prof_attribution`
//! except that `poll` is filed under telemetry and the controller is
//! split into dispatch, scans and predictive labels). It times every
//! checkpoint call, and after the run it times direct calls into each
//! layer on the workload's own fabric ([`probe`]). Module shares plus
//! `bench.untimed_share` sum to 100%. The traced run repeats the
//! untraced pass first, so `obs.trace_overhead_pct` and the digest
//! check compare like with like.
//!
//! Which layer metric should move `ops_per_s`, and where:
//!
//! | layer metrics | mostly on / little on |
//! |---|---|
//! | `controller.dispatch.*`, `drain.plan_us`, `routing.pair_connectivity_us` | `fattree-1k`, `e1-year` / `ckpt-hourly`; in `twin-plan` the dispatch step also holds the planning forks |
//! | `telemetry.poll.*`, `telemetry.sample_us` | `e1-year` / `fattree-1k` |
//! | `controller.predictive_label.*`, `controller.scans.*` | `e1-year`, at a few percent — label batching can claim a count (`des.events`), not a speed-up |
//! | `des.events`, `des.step_p50_ns`, `des.push_pop_ns` | `e1-year` / `twin-plan` |
//! | `faults.*`, `robotics.*`, `tickets.*`, `controller.drains_deferred` | `fattree-1k` / `twin-plan`; the counts explain changes in work volume |
//! | `ckpt.{encode,frame,unframe,decode,hash}_us`, `ckpt.save_*`, `ckpt.restore_*`, `ckpt.bytes`, `ckpt.share` | `ckpt-hourly` / `e1-year`, `fattree-1k` (probed after the run, outside the measured loop) |
//! | `ckpt.fork_*`, `twin.*` | `twin-plan` / `ckpt-hourly` |
//!
//! # Correctness
//!
//! Every seed run is wrapped in `catch_unwind`. A panic, a checkpoint
//! error, a restored `state_hash` that differs from the live one, a
//! twin-planned run with no decisions, or an availability outside
//! (0, 1] counts as a failed operation. Each workload's digest is an
//! FNV-1a over every seed's `RunReport` summary; a traced run whose
//! digest differs from its own untraced pass is incorrect.
//!
//! # Comparing two commits
//!
//! Run at least ten alternating pairs of parent and change. A change
//! wins only if it wins at least 9 of 10 pairs and the medians differ
//! by more than the parent's own interquartile range. Deterministic
//! counts (`des.events`, `twin.*`, `ckpt.bytes`, `faults.incidents`,
//! `sim.unavailability_ppm`) must repeat exactly for a speed-only change.
//!
//! # Out of scope
//!
//! `serve` (its jobs/hour is bound by spool fsync and injected sleeps,
//! so it would measure the disk), the autonomic loop (under 1% of a
//! run), and the lint.

#![forbid(unsafe_code)]

pub mod probe;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dcmaint_ckpt::{fnv1a64, Snapshot, StateHash};
use dcmaint_des::{SimDuration, SimRng, SimTime};
use dcmaint_obs::WallProfile;
use dcmaint_scenarios::{Engine, RunReport, ScenarioConfig, TopologySpec};
use dcmaint_sweep::derive_seed;
use dcmaint_twin::{TwinConfig, TwinPolicy};
use maintctl::AutomationLevel;

/// `Engine::new` builds timed per seed; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
/// Checkpoint round trips and forks probed per seed, after the run, in
/// the traced pass of workloads that do not checkpoint while running.
pub const CODEC_PROBES: usize = 8;
/// Calls per fabric probe ([`probe::fabric`]).
pub const FABRIC_PROBES: usize = 200;
/// Fewest seed runs in a set, so every median has company.
pub const MIN_SEEDS: u64 = 3;

/// The fabric and policy a workload simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum World {
    /// One E1 cell at L3: leaf-spine 4×16×8.
    E1,
    /// Fat-tree k=12 with MTBI scaled so the base fault rate per fabric
    /// matches E1.
    FatTree1k,
    /// `selfmaint plan`'s small twin-guided cell.
    TwinPlan,
}

impl World {
    /// The scenario configuration of one seed run.
    pub fn config(self, seed: u64, days: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::at_level(seed, AutomationLevel::L3);
        cfg.duration = SimDuration::from_days(days);
        match self {
            World::E1 => {}
            World::FatTree1k => {
                cfg.topology = TopologySpec::FatTree { k: 12 };
                cfg.faults.mtbi_per_link = SimDuration::from_days(304);
            }
            World::TwinPlan => {
                cfg.topology = TopologySpec::LeafSpine {
                    spines: 2,
                    leaves: 6,
                    servers_per_leaf: 2,
                };
                cfg.poll_period = SimDuration::from_secs(120);
                cfg.faults.mtbi_per_link = SimDuration::from_days(12);
                // One branch worker (the default): see the crate docs.
                cfg.twin = TwinPolicy::TwinGuided(TwinConfig {
                    horizon: SimDuration::from_days(7),
                    ..TwinConfig::default()
                });
            }
        }
        cfg
    }
}

/// The unit of work a workload's `ops_per_s` counts: the operation
/// that carries most of its host time, so that throughput in it
/// varies little between seeds even where the work per simulated day
/// does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// One simulated day.
    SimDay,
    /// One `dispatch` event: a repair plan and its drain check.
    Dispatch,
    /// One twin planning decision (`TwinReport.decisions`).
    TwinDecision,
    /// One simulated hour ending in a checkpoint round trip; a
    /// workload counting these checkpoints every simulated hour.
    CheckpointedHour,
}

impl Unit {
    /// Short name for tables.
    pub fn label(self) -> &'static str {
        match self {
            Unit::SimDay => "simulated days",
            Unit::Dispatch => "dispatch decisions",
            Unit::TwinDecision => "twin decisions",
            Unit::CheckpointedHour => "checkpointed hours",
        }
    }
}

/// One benchmark workload: a world, a run length and a seed count.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Fabric and policy.
    pub world: World,
    /// Simulated days per seed run.
    pub days: u64,
    /// Seed runs per set; [`Workload::sized`] sets it from a run's
    /// length.
    pub seeds: u64,
    /// What `ops_per_s` counts.
    pub unit: Unit,
    /// Host seconds one seed run takes on a 2-core x86-64 host; sizes
    /// the seed count to `--seconds`.
    pub seed_cost_s: f64,
}

/// The four workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "e1-year",
        world: World::E1,
        days: 365,
        seeds: MIN_SEEDS,
        unit: Unit::SimDay,
        seed_cost_s: 3.0,
    },
    Workload {
        name: "fattree-1k",
        world: World::FatTree1k,
        days: 14,
        seeds: MIN_SEEDS,
        unit: Unit::Dispatch,
        seed_cost_s: 7.5,
    },
    Workload {
        name: "twin-plan",
        world: World::TwinPlan,
        days: 7,
        seeds: MIN_SEEDS,
        unit: Unit::TwinDecision,
        seed_cost_s: 0.33,
    },
    Workload {
        name: "ckpt-hourly",
        world: World::E1,
        days: 45,
        seeds: MIN_SEEDS,
        unit: Unit::CheckpointedHour,
        seed_cost_s: 4.6,
    },
];

impl Workload {
    fn ckpt_hourly(&self) -> bool {
        self.unit == Unit::CheckpointedHour
    }

    /// The workload called `name`, if any.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.name == name).cloned()
    }

    /// The same workload with as many seed runs as fit in `seconds` of
    /// measurement (at least [`MIN_SEEDS`]). The count depends on
    /// `seconds` alone, so equal arguments give equal work.
    pub fn sized(mut self, seconds: u64) -> Workload {
        self.seeds = ((seconds as f64 / self.seed_cost_s) as u64).max(MIN_SEEDS);
        self
    }

    /// The seed of run `k` under base seed `base`.
    pub fn seed(&self, base: u64, k: u64) -> u64 {
        derive_seed(base, self.name, k)
    }
}

/// Where a step's wall time is filed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Module {
    /// `dispatch` events (in `twin-plan` this includes planning forks).
    Dispatch,
    /// Proactive and predictive scans, campaign work items.
    Scans,
    /// Predictive label resolution.
    PredictiveLabel,
    /// Telemetry polls.
    Poll,
    /// Fault arrivals, self-heals, flaps, latents, burst ends.
    Faults,
    /// Robot work: repair start/done, stalls, aborts, recoveries.
    Robotics,
    /// Ticket verification.
    Tickets,
    /// Watchdogs, autonomic ticks and the final empty pop.
    Other,
    /// Checkpoint calls made by the bench.
    Ckpt,
}

impl Module {
    /// Every module, in report order.
    pub const ALL: [Module; 9] = [
        Module::Dispatch,
        Module::Scans,
        Module::PredictiveLabel,
        Module::Poll,
        Module::Faults,
        Module::Robotics,
        Module::Tickets,
        Module::Other,
        Module::Ckpt,
    ];

    /// The module an event kind returned by `Engine::step_event` runs
    /// in; `None` (the queue's final pop) is filed under `Other`.
    pub fn of(kind: Option<&str>) -> Module {
        match kind {
            Some("dispatch") => Module::Dispatch,
            Some("proactive-scan" | "proactive-open" | "predictive-scan") => Module::Scans,
            Some("predictive-label") => Module::PredictiveLabel,
            Some("poll") => Module::Poll,
            Some("fault" | "self-heal" | "flap" | "latent-manifest" | "burst-end" | "scripted") => {
                Module::Faults
            }
            Some(
                "repair-start" | "repair-done" | "op-stalled" | "op-aborted" | "robot-recovered",
            ) => Module::Robotics,
            Some("verify-done") => Module::Tickets,
            _ => Module::Other,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Wall times of one checkpoint round trip, in seconds.
#[derive(Debug, Clone, Copy, Default)]
struct CkptSample {
    /// `Engine::snapshot`.
    encode: f64,
    /// `Snapshot::to_bytes`.
    frame: f64,
    /// `Snapshot::from_bytes`.
    unframe: f64,
    /// `Engine::restore`.
    decode: f64,
    /// Restored engine's `state_hash` against the live payload's.
    hash: f64,
    /// Payload bytes.
    bytes: usize,
}

impl CkptSample {
    fn save(&self) -> f64 {
        self.encode + self.frame
    }

    fn restore(&self) -> f64 {
        self.unframe + self.decode
    }
}

/// Wall times of one fork probe, in seconds.
#[derive(Debug, Clone, Copy, Default)]
struct ForkSample {
    /// `Engine::fork_bytes`.
    encode: f64,
    /// `Engine::fork_from_bytes` (adopt the live RNG streams).
    adopt: f64,
    /// `Engine::from_fork_bytes_reseeded`.
    reseed: f64,
}

/// Per-step timings of a traced pass.
#[derive(Debug, Default)]
struct Trace {
    busy_ns: [u64; Module::ALL.len()],
    count: [u64; Module::ALL.len()],
    step_ns: Vec<u32>,
    dispatch_ns: Vec<u32>,
    poll_ns: Vec<u32>,
}

impl Trace {
    fn record(&mut self, m: Module, ns: u64) {
        self.busy_ns[m.index()] += ns;
        self.count[m.index()] += 1;
        let ns32 = u32::try_from(ns).unwrap_or(u32::MAX);
        if m != Module::Ckpt {
            self.step_ns.push(ns32);
        }
        match m {
            Module::Dispatch => self.dispatch_ns.push(ns32),
            Module::Poll => self.poll_ns.push(ns32),
            _ => {}
        }
    }
}

/// What one seed run measured.
#[derive(Debug, Default)]
struct SeedRun {
    wall_s: f64,
    setup_s: Vec<f64>,
    events: u64,
    dispatches: u64,
    digest: u64,
    checked: u64,
    errors: Vec<String>,
    incidents: u64,
    cascade_incidents: u64,
    robot_ops: u64,
    tickets_opened: u64,
    drains_deferred: u64,
    unavailability: f64,
    twin_decisions: u64,
    twin_forks: u64,
    twin_committed: u64,
    ckpt: Vec<CkptSample>,
    forks: Vec<ForkSample>,
}

/// One pass over a workload's seeds.
#[derive(Debug, Default)]
struct Pass {
    runs: Vec<SeedRun>,
    /// One message per seed run that panicked.
    panics: Vec<String>,
    trace: Option<Trace>,
}

impl Pass {
    fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(8 * self.runs.len() + 8);
        bytes.extend_from_slice(&self.panics.len().to_le_bytes());
        for r in &self.runs {
            bytes.extend_from_slice(&r.digest.to_le_bytes());
        }
        fnv1a64(&bytes)
    }

    fn checked(&self) -> u64 {
        self.panics.len() as u64 + self.runs.iter().map(|r| r.checked).sum::<u64>()
    }

    fn errors(&self) -> impl Iterator<Item = &String> {
        self.panics
            .iter()
            .chain(self.runs.iter().flat_map(|r| &r.errors))
    }

    fn sum(&self, f: impl Fn(&SeedRun) -> u64) -> u64 {
        self.runs.iter().map(f).sum()
    }
}

/// FNV-1a over the parts of a report that a speed-only change must
/// leave untouched.
fn report_digest(r: &mut RunReport) -> u64 {
    let mut b = Vec::with_capacity(64);
    b.extend_from_slice(&r.incidents.to_le_bytes());
    b.extend_from_slice(&r.tickets_fixed.to_le_bytes());
    b.extend_from_slice(&r.availability.availability.to_bits().to_le_bytes());
    b.extend_from_slice(&r.median_service_window().as_micros().to_le_bytes());
    b.extend_from_slice(&r.p95_service_window().as_micros().to_le_bytes());
    b.extend_from_slice(&r.robot_ops.to_le_bytes());
    b.extend_from_slice(&r.costs.total().to_bits().to_le_bytes());
    fnv1a64(&b)
}

/// The host clock, read through `obs::wall`: the one module the
/// repository's determinism lint lets read it.
pub(crate) fn now() -> Instant {
    WallProfile::enabled()
        .start()
        .expect("an enabled profile reads the clock")
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Snapshot, frame, unframe and restore `eng`, then check the restored
/// engine's state hash against the live payload's.
fn round_trip(eng: &Engine, cfg: &ScenarioConfig) -> (Result<Engine, String>, CkptSample) {
    let mut s = CkptSample::default();
    let t = now();
    let snap = eng.snapshot();
    s.encode = secs(t);
    let t = now();
    let bytes = snap.to_bytes();
    s.frame = secs(t);
    s.bytes = snap.payload.len();
    let live = StateHash(fnv1a64(&snap.payload));
    let t = now();
    let back = Snapshot::from_bytes(&bytes);
    s.unframe = secs(t);
    let back = match back {
        Ok(b) => b,
        Err(e) => return (Err(format!("from_bytes: {e:?}")), s),
    };
    let t = now();
    let restored = Engine::restore(cfg.clone(), &back);
    s.decode = secs(t);
    let restored = match restored {
        Ok(r) => r,
        Err(e) => return (Err(format!("restore: {e:?}")), s),
    };
    let t = now();
    let same = restored.state_hash() == live;
    s.hash = secs(t);
    if same {
        (Ok(restored), s)
    } else {
        (
            Err("restored state_hash differs from the live one".into()),
            s,
        )
    }
}

/// Time the three fork paths the twin planner uses on `eng`.
fn fork_probe(eng: &Engine, cfg: &ScenarioConfig, root: &SimRng) -> Result<ForkSample, String> {
    let mut s = ForkSample::default();
    let t = now();
    let bytes = eng.fork_bytes();
    s.encode = secs(t);
    let t = now();
    let adopted = eng.fork_from_bytes(&bytes);
    s.adopt = secs(t);
    let t = now();
    let reseeded = Engine::from_fork_bytes_reseeded(cfg.clone(), &bytes, root);
    s.reseed = secs(t);
    match (adopted, reseeded) {
        (Ok(_), Ok(_)) => Ok(s),
        (Err(e), _) | (_, Err(e)) => Err(format!("fork: {e:?}")),
    }
}

/// Run one seed. `trace` switches on per-step timing and the codec
/// probes; neither touches the engine's state.
fn run_seed(w: &Workload, seed: u64, mut trace: Option<&mut Trace>) -> SeedRun {
    let cfg = w.world.config(seed, w.days);
    let mut out = SeedRun::default();
    let mut eng = None;
    for _ in 0..SETUP_REPS {
        let c = cfg.clone();
        let t = now();
        let e = Engine::new(c);
        out.setup_s.push(secs(t));
        eng = Some(e);
    }
    let mut eng = eng.expect("SETUP_REPS > 0");
    let hour = SimDuration::from_hours(1);
    let mut next_ckpt = SimTime::ZERO + hour;
    let probe_root = SimRng::root(seed).child("dcbench-fork");
    // Probe time is spent inside the loop but belongs to no module and
    // to no step; it is taken out of the measured wall.
    let mut probe_s = 0.0;

    let t0 = now();
    loop {
        let step = match trace.as_deref_mut() {
            None => eng.step_event(),
            Some(tr) => {
                let t = now();
                let step = eng.step_event();
                tr.record(
                    Module::of(step.map(|(_, k)| k)),
                    t.elapsed().as_nanos() as u64,
                );
                step
            }
        };
        let Some((at, kind)) = step else { break };
        out.events += 1;
        if kind == "dispatch" {
            out.dispatches += 1;
        }
        if w.ckpt_hourly() && at >= next_ckpt {
            while next_ckpt <= at {
                next_ckpt += hour;
            }
            if trace.is_some() {
                let t = now();
                match fork_probe(&eng, &cfg, &probe_root) {
                    Ok(f) => out.forks.push(f),
                    Err(e) => fail(&mut out, w, seed, &e),
                }
                probe_s += secs(t);
            }
            out.checked += 1;
            // The span covers the whole swap, dropping the old engine
            // included; the phases in `s` are its timed parts.
            let t = now();
            let (restored, s) = round_trip(&eng, &cfg);
            match restored {
                Ok(r) => eng = r,
                Err(e) => fail(&mut out, w, seed, &e),
            }
            if let Some(tr) = trace.as_deref_mut() {
                tr.record(Module::Ckpt, t.elapsed().as_nanos() as u64);
            }
            out.ckpt.push(s);
        }
    }
    out.wall_s = secs(t0) - probe_s;

    if trace.is_some() && !w.ckpt_hourly() {
        for _ in 0..CODEC_PROBES {
            out.checked += 1;
            let (restored, s) = round_trip(&eng, &cfg);
            out.ckpt.push(s);
            if let Err(e) = restored {
                fail(&mut out, w, seed, &e);
            }
            match fork_probe(&eng, &cfg, &probe_root) {
                Ok(f) => out.forks.push(f),
                Err(e) => fail(&mut out, w, seed, &e),
            }
        }
    }

    let t = now();
    let mut report = eng.finish_report();
    out.wall_s += secs(t);
    out.checked += 1;
    out.digest = report_digest(&mut report);
    out.incidents = report.incidents;
    out.cascade_incidents = report.cascade_incidents;
    out.robot_ops = report.robot_ops;
    out.tickets_opened = report.tickets_total();
    out.drains_deferred = report.drains_deferred;
    let a = report.availability.availability;
    out.unavailability = 1.0 - a;
    if !(a > 0.0 && a <= 1.0) {
        fail(
            &mut out,
            w,
            seed,
            &format!("availability {a} outside (0, 1]"),
        );
    }
    if let Some(t) = &report.twin {
        out.twin_decisions = t.decisions;
        out.twin_forks = t.forks;
        out.twin_committed = t.committed;
    }
    if matches!(cfg.twin, TwinPolicy::TwinGuided(_)) && out.twin_decisions == 0 {
        fail(&mut out, w, seed, "twin-guided run made no decisions");
    }
    out
}

impl SeedRun {
    /// Units of `w.unit` this run completed.
    fn units(&self, w: &Workload) -> f64 {
        match w.unit {
            Unit::SimDay => w.days as f64,
            Unit::Dispatch => self.dispatches as f64,
            Unit::TwinDecision => self.twin_decisions as f64,
            Unit::CheckpointedHour => self.ckpt.len() as f64,
        }
    }
}

fn fail(out: &mut SeedRun, w: &Workload, seed: u64, why: &str) {
    out.errors.push(format!("{} seed {seed}: {why}", w.name));
}

/// Peak resident set size in MiB (`VmHWM`); 0 where unavailable.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_pass(w: &Workload, base_seed: u64, traced: bool) -> Pass {
    let mut pass = Pass {
        trace: traced.then(Trace::default),
        ..Pass::default()
    };
    for k in 0..w.seeds {
        let seed = w.seed(base_seed, k);
        let trace = pass.trace.as_mut();
        match catch_unwind(AssertUnwindSafe(|| run_seed(w, seed, trace))) {
            Ok(run) => pass.runs.push(run),
            Err(_) => {
                pass.panics
                    .push(format!("{} seed {seed}: panicked", w.name));
            }
        }
    }
    pass
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Everything a benchmark run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Seed runs per pass.
    pub seeds: u64,
    /// What `ops_per_s` counts.
    pub unit: Unit,
    /// Checked operations attempted: seed runs plus checkpoint round
    /// trips.
    pub attempted: u64,
    /// What went wrong, one line per failed operation.
    pub errors: Vec<String>,
    /// FNV-1a over every seed's report summary (untraced pass).
    pub digest: u64,
    /// Digest of the traced pass, when one ran.
    pub traced_digest: Option<u64>,
    /// End-to-end metrics, from the untraced pass.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, from the traced pass (empty when untraced).
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    /// No operation failed and the traced pass (if any) reproduced the
    /// untraced digest.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.traced_digest.is_none_or(|d| d == self.digest)
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.errors.len() as u64
    }

    /// Value of the metric called `name`, in either list.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// end-to-end metrics, or the per-layer ones when `traced`.
    pub fn result_json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut m = serde_json::Map::new();
        for x in metrics {
            m.insert(
                x.name.to_string(),
                serde_json::json!({ "value": x.value, "unit": x.unit }),
            );
        }
        let v = serde_json::json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed(),
            "metrics": m,
        });
        serde_json::to_string(&v).expect("the JSON writer is infallible")
    }

    /// A readable table of every metric, the digest and the op counts.
    pub fn table(&self) -> String {
        let mut s = format!(
            "dcbench {}: {} seeds, ops are {}, digest {:016x}{}, checked {}, failed {}\n",
            self.workload,
            self.seeds,
            self.unit.label(),
            self.digest,
            match self.traced_digest {
                Some(d) if d == self.digest => " (traced: same)".to_string(),
                Some(d) => format!(" (traced: {d:016x} DIFFERS)"),
                None => String::new(),
            },
            self.attempted,
            self.failed(),
        );
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            s += &format!("  {:<34} {:>16.6} {}\n", m.name, m.value, m.unit);
        }
        s
    }
}

pub(crate) fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile (`q` in [0, 1]); 0 for no samples.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn quantile_ns(v: &[u32], q: f64) -> f64 {
    let f: Vec<f64> = v.iter().map(|&x| f64::from(x)).collect();
    quantile(&f, q)
}

fn metrics(v: Vec<(&'static str, &'static str, f64)>) -> Vec<Metric> {
    v.into_iter()
        .map(|(name, unit, value)| Metric { name, unit, value })
        .collect()
}

/// Run `w` under base seed `base_seed`. Untraced, one pass gives the
/// end-to-end metrics. Traced, an untraced pass runs first and a traced
/// pass over the same seeds gives the per-layer metrics.
pub fn run(w: &Workload, base_seed: u64, traced: bool) -> Outcome {
    let plain = run_pass(w, base_seed, false);
    let rates: Vec<f64> = plain.runs.iter().map(|r| r.units(w) / r.wall_s).collect();
    let setups: Vec<f64> = plain.runs.iter().flat_map(|r| r.setup_s.clone()).collect();
    let mut out = Outcome {
        workload: w.name,
        seeds: w.seeds,
        unit: w.unit,
        attempted: plain.checked(),
        errors: plain.errors().cloned().collect(),
        digest: plain.digest(),
        traced_digest: None,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    if traced {
        let tp = run_pass(w, base_seed, true);
        out.attempted += tp.checked();
        out.errors.extend(tp.errors().cloned());
        out.traced_digest = Some(tp.digest());
        let probes = probe::fabric(&w.world.config(w.seed(base_seed, 0), w.days), FABRIC_PROBES);
        out.per_layer = per_layer(w, &plain, &tp, &probes);
    }
    out.end_to_end = metrics(vec![
        ("ops_per_s", "op/s", median(&rates)),
        ("setup_s", "s", median(&setups)),
        ("peak_rss_mb", "MiB", peak_rss_mb()),
    ]);
    out
}

fn per_layer(w: &Workload, plain: &Pass, tp: &Pass, probes: &probe::Fabric) -> Vec<Metric> {
    use Module::*;
    let tr = tp.trace.as_ref().expect("a traced pass carries a trace");
    let loop_s = |p: &Pass| p.runs.iter().map(|r| r.wall_s).sum::<f64>();
    let traced_s = loop_s(tp);
    let busy = |m: Module| tr.busy_ns[m.index()] as f64 / 1e9;
    let count = |m: Module| tr.count[m.index()] as f64;
    let share = |m: Module| 100.0 * busy(m) / traced_s;
    let timed: f64 = Module::ALL.iter().map(|&m| busy(m)).sum();
    let ck: Vec<CkptSample> = tp.runs.iter().flat_map(|r| r.ckpt.clone()).collect();
    let ck_q =
        |f: fn(&CkptSample) -> f64, q: f64| quantile(&ck.iter().map(f).collect::<Vec<_>>(), q);
    let fk: Vec<ForkSample> = tp.runs.iter().flat_map(|r| r.forks.clone()).collect();
    let fk_med = |f: fn(&ForkSample) -> f64| median(&fk.iter().map(f).collect::<Vec<_>>());
    let sum = |f: fn(&SeedRun) -> u64| tp.sum(f) as f64;
    let decisions = sum(|r| r.twin_decisions);
    let forks = sum(|r| r.twin_forks);
    let days_per_s: Vec<f64> = plain
        .runs
        .iter()
        .map(|r| w.days as f64 / r.wall_s)
        .collect();
    let unavailability: f64 =
        tp.runs.iter().map(|r| r.unavailability).sum::<f64>() / tp.runs.len().max(1) as f64;

    metrics(vec![
        ("controller.dispatch.count", "count", count(Dispatch)),
        ("controller.dispatch.busy_s", "s", busy(Dispatch)),
        ("controller.dispatch.share", "%", share(Dispatch)),
        (
            "controller.dispatch.p50_us",
            "us",
            quantile_ns(&tr.dispatch_ns, 0.5) / 1e3,
        ),
        (
            "controller.dispatch.p99_us",
            "us",
            quantile_ns(&tr.dispatch_ns, 0.99) / 1e3,
        ),
        ("controller.scans.count", "count", count(Scans)),
        ("controller.scans.busy_s", "s", busy(Scans)),
        ("controller.scans.share", "%", share(Scans)),
        (
            "controller.predictive_label.count",
            "count",
            count(PredictiveLabel),
        ),
        (
            "controller.predictive_label.busy_s",
            "s",
            busy(PredictiveLabel),
        ),
        (
            "controller.predictive_label.share",
            "%",
            share(PredictiveLabel),
        ),
        (
            "controller.drains_deferred",
            "count",
            sum(|r| r.drains_deferred),
        ),
        ("drain.plan_us", "us", probes.drain_plan_us),
        (
            "routing.pair_connectivity_us",
            "us",
            probes.pair_connectivity_us,
        ),
        ("telemetry.poll.count", "count", count(Poll)),
        ("telemetry.poll.busy_s", "s", busy(Poll)),
        ("telemetry.poll.share", "%", share(Poll)),
        (
            "telemetry.poll.p50_us",
            "us",
            quantile_ns(&tr.poll_ns, 0.5) / 1e3,
        ),
        ("telemetry.sample_us", "us", probes.telemetry_sample_us),
        ("des.events", "count", sum(|r| r.events)),
        ("des.step_p50_ns", "ns", quantile_ns(&tr.step_ns, 0.5)),
        ("des.push_pop_ns", "ns", probes.push_pop_ns),
        ("faults.events", "count", count(Faults)),
        ("faults.busy_s", "s", busy(Faults)),
        ("faults.share", "%", share(Faults)),
        ("faults.incidents", "count", sum(|r| r.incidents)),
        (
            "faults.cascade_incidents",
            "count",
            sum(|r| r.cascade_incidents),
        ),
        ("robotics.events", "count", count(Robotics)),
        ("robotics.busy_s", "s", busy(Robotics)),
        ("robotics.share", "%", share(Robotics)),
        ("robotics.ops", "count", sum(|r| r.robot_ops)),
        ("tickets.events", "count", count(Tickets)),
        ("tickets.busy_s", "s", busy(Tickets)),
        ("tickets.share", "%", share(Tickets)),
        ("tickets.opened", "count", sum(|r| r.tickets_opened)),
        ("other.share", "%", share(Other)),
        ("ckpt.share", "%", share(Ckpt)),
        ("ckpt.samples", "count", ck.len() as f64),
        ("ckpt.bytes", "B", ck_q(|s| s.bytes as f64, 0.5)),
        ("ckpt.encode_us", "us", ck_q(|s| s.encode, 0.5) * 1e6),
        ("ckpt.frame_us", "us", ck_q(|s| s.frame, 0.5) * 1e6),
        ("ckpt.unframe_us", "us", ck_q(|s| s.unframe, 0.5) * 1e6),
        ("ckpt.decode_us", "us", ck_q(|s| s.decode, 0.5) * 1e6),
        ("ckpt.hash_us", "us", ck_q(|s| s.hash, 0.5) * 1e6),
        ("ckpt.save_p50_ms", "ms", ck_q(CkptSample::save, 0.5) * 1e3),
        ("ckpt.save_p99_ms", "ms", ck_q(CkptSample::save, 0.99) * 1e3),
        (
            "ckpt.restore_p50_ms",
            "ms",
            ck_q(CkptSample::restore, 0.5) * 1e3,
        ),
        (
            "ckpt.restore_p99_ms",
            "ms",
            ck_q(CkptSample::restore, 0.99) * 1e3,
        ),
        ("ckpt.fork_encode_us", "us", fk_med(|s| s.encode) * 1e6),
        ("ckpt.fork_adopt_us", "us", fk_med(|s| s.adopt) * 1e6),
        ("ckpt.fork_reseed_us", "us", fk_med(|s| s.reseed) * 1e6),
        ("twin.decisions", "count", decisions),
        ("twin.forks", "count", forks),
        ("twin.committed", "count", sum(|r| r.twin_committed)),
        (
            "twin.forks_per_decision",
            "1",
            if decisions > 0.0 {
                forks / decisions
            } else {
                0.0
            },
        ),
        ("sim.days_per_s", "day/s", median(&days_per_s)),
        ("sim.unavailability_ppm", "ppm", 1e6 * unavailability),
        (
            "obs.trace_overhead_pct",
            "%",
            100.0 * (traced_s / loop_s(plain) - 1.0),
        ),
        (
            "bench.untimed_share",
            "%",
            100.0 * (traced_s - timed) / traced_s,
        ),
    ])
}
