//! The scenario engine: one deterministic event loop wiring faults,
//! telemetry, tickets, technicians, robots, and the maintenance
//! controller together.
//!
//! This is the execution half of the paper's architecture; the decision
//! half lives in `maintctl`. The loop (see [`run`]) processes one event
//! enum over the DES kernel:
//!
//! ```text
//! fault arrival ─▶ link state ─▶ telemetry poll ─▶ alert ─▶ ticket
//!        ▲                                                    │
//!        │                                              controller plan
//!   wear/latents                                     (action, executor,
//!        │                                             drain decision)
//!        └── repair done ◀─ hands-on work ◀─ dispatch ◀──────┘
//!             (efficacy roll,                (tech queue: hours-days,
//!              disturbance,                   robot queue: seconds)
//!              verify soak)
//! ```
//!
//! Design rules enforced here:
//!
//! * **The hidden root cause never reaches policy code.** The engine
//!   carries it only to roll repair-efficacy outcomes and to label
//!   prediction training data.
//! * **Every physical touch rolls the disturbance dice** with the
//!   executing actor's profile — that is where cascading failures come
//!   from, for humans and robots alike.
//! * **Stale events are epoch-checked.** Self-heals, flap transitions,
//!   and burst-ends carry the link epoch at scheduling time and are
//!   ignored if the link has since changed state.

use std::collections::BTreeMap;
use std::sync::Arc;

use dcmaint_dcnet::{AdminState, LinkHealth, LinkId, NetState, NodeId, RackLoc, Topology};
use dcmaint_des::{Fired, Scheduler, SimDuration, SimRng, SimTime, Stream};
use dcmaint_faults::EndFace;
use dcmaint_faults::{
    disturb, diurnal_utilization, ActorProfile, DisturbanceEffect, FaultInjector, FlapProcess,
    RepairAction, RootCause,
};
use dcmaint_metrics::{CostLedger, FleetAvailability, HardwareKind};
use dcmaint_obs::{JVal, Journal, ObsRegistry, ObsReport, Prof, TraceStore};
use dcmaint_robotics::{
    afflict, run_clean, run_replace, run_reseat, OpOutcome, ReplaceKind, RobotFleet, UnitHealth,
};
use dcmaint_telemetry::{extract, AlertKind, TelemetryPlane, FEATURE_DIM};
use dcmaint_tickets::{
    AttemptRecord, Priority, TechnicianPool, TicketBoard, TicketId, TicketState, TicketTrigger,
};
use dcmaint_twin::{BranchOutcome, Candidate, TwinConfig, TwinPlan, TwinPolicy};
use maintctl::{
    ClaimId, DrainDecision, Executor, MaintenanceController, PreContactAnnouncement, RecoveryState,
    RecoveryStep, SafetyConfig, ZoneActor, ZoneLedger,
};

use crate::config::ScenarioConfig;
use crate::report::{ActionStats, RunReport};

/// Engine events.
pub(crate) enum Ev {
    /// Next organic incident arrival.
    Fault,
    /// A gray incident clears on its own.
    SelfHeal { link: LinkId, epoch: u64 },
    /// Gilbert–Elliott phase change on a flapping link.
    Flap { link: LinkId, epoch: u64 },
    /// A disturbance-seeded latent fault manifests.
    LatentManifest { link: LinkId, cause: RootCause },
    /// A disturbance transient burst ends.
    BurstEnd { link: LinkId, epoch: u64 },
    /// Telemetry polling tick.
    Poll,
    /// Plan and dispatch repair for a ticket.
    Dispatch { ticket: TicketId },
    /// Hands-on work begins.
    RepairStart { ticket: TicketId },
    /// Hands-on work ends.
    RepairDone { ticket: TicketId },
    /// Post-repair verification soak ends.
    VerifyDone { ticket: TicketId },
    /// Proactive planner tick.
    ProactiveScan,
    /// One paced campaign work item (a single link of a campaign).
    ProactiveOpen { link: LinkId },
    /// Predictive scorer tick.
    PredictiveScan,
    /// MAPE-K autonomic loop tick (DESIGN §3.16): monitor the registry
    /// window, update the knowledge posteriors, and apply guarded knob
    /// moves.
    AutonomicTick,
    /// A scripted (failure-injection) incident fires.
    Scripted { link: LinkId, cause: RootCause },
    /// Resolve a prediction label after the horizon.
    PredictiveLabel {
        link: LinkId,
        features: [f64; FEATURE_DIM],
        flagged: bool,
        incidents_before: u64,
    },
    /// A robot operation physically freezes mid-work (actuator stall or
    /// whole-unit breakdown). Nothing is announced to the controller —
    /// only the watchdog notices later. `attempt` guards against acting
    /// on a superseded booking of the same ticket.
    OpStalled { ticket: TicketId, attempt: u64 },
    /// A robot operation aborts: safe back-out or unsafe half-extract.
    OpAborted { ticket: TicketId, attempt: u64 },
    /// The per-operation watchdog deadline expires.
    WatchdogFired { ticket: TicketId, attempt: u64 },
    /// A broken-down robot unit's repair completes.
    RobotRecovered { unit: usize },
}

impl Ev {
    /// Self-profiler attribution (DESIGN §3.13): the subsystem whose
    /// wall span this event's handler runs under, plus the static
    /// registry keys for the deterministic per-kind and per-subsystem
    /// counts. Subsystem names come from [`dcmaint_obs::prof::SUBSYSTEMS`];
    /// the event's kind name is the per-kind key's `prof/ev/` suffix.
    ///
    /// A variant without an arm is rustc error E0004; the two denied
    /// lints reject a `_` arm that would file it under another's.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn prof_attribution(&self) -> (&'static str, &'static str, &'static str) {
        match self {
            Ev::Fault => ("faults", "prof/ev/fault", "prof/sub/faults"),
            Ev::SelfHeal { .. } => ("faults", "prof/ev/self-heal", "prof/sub/faults"),
            Ev::Flap { .. } => ("faults", "prof/ev/flap", "prof/sub/faults"),
            Ev::LatentManifest { .. } => ("faults", "prof/ev/latent-manifest", "prof/sub/faults"),
            Ev::BurstEnd { .. } => ("faults", "prof/ev/burst-end", "prof/sub/faults"),
            Ev::Scripted { .. } => ("faults", "prof/ev/scripted", "prof/sub/faults"),
            Ev::Poll => ("dcnet", "prof/ev/poll", "prof/sub/dcnet"),
            Ev::Dispatch { .. } => ("controller", "prof/ev/dispatch", "prof/sub/controller"),
            Ev::ProactiveScan => (
                "controller",
                "prof/ev/proactive-scan",
                "prof/sub/controller",
            ),
            Ev::ProactiveOpen { .. } => (
                "controller",
                "prof/ev/proactive-open",
                "prof/sub/controller",
            ),
            Ev::PredictiveScan => (
                "controller",
                "prof/ev/predictive-scan",
                "prof/sub/controller",
            ),
            Ev::PredictiveLabel { .. } => (
                "controller",
                "prof/ev/predictive-label",
                "prof/sub/controller",
            ),
            Ev::AutonomicTick => ("autonomic", "prof/ev/autonomic-tick", "prof/sub/autonomic"),
            Ev::RepairStart { .. } => ("robotics", "prof/ev/repair-start", "prof/sub/robotics"),
            Ev::RepairDone { .. } => ("robotics", "prof/ev/repair-done", "prof/sub/robotics"),
            Ev::OpStalled { .. } => ("robotics", "prof/ev/op-stalled", "prof/sub/robotics"),
            Ev::OpAborted { .. } => ("robotics", "prof/ev/op-aborted", "prof/sub/robotics"),
            Ev::RobotRecovered { .. } => {
                ("robotics", "prof/ev/robot-recovered", "prof/sub/robotics")
            }
            Ev::VerifyDone { .. } => ("tickets", "prof/ev/verify-done", "prof/sub/tickets"),
            Ev::WatchdogFired { .. } => ("recovery", "prof/ev/watchdog-fired", "prof/sub/recovery"),
        }
    }
}

/// Active incident on a link (hidden from policy).
pub(crate) struct ActiveIncident {
    pub(crate) cause: RootCause,
    pub(crate) health: LinkHealth,
    pub(crate) loss: f64,
    /// When the fault manifested — the anchor for trace detect latency.
    pub(crate) started: SimTime,
}

/// Per-link runtime state beyond `NetState`.
pub(crate) struct LinkRt {
    pub(crate) incident: Option<ActiveIncident>,
    pub(crate) flap: Option<FlapProcess>,
    pub(crate) burst_loss: Option<f64>,
    /// Bumped whenever incident/burst state is replaced; stale events
    /// carrying an older epoch are ignored.
    pub(crate) epoch: u64,
    pub(crate) last_maintenance: SimTime,
    /// A fault developing but not yet manifested: either a gradual
    /// organic failure in its precursor phase or a disturbance-seeded
    /// cascade. While pending, the link carries a sub-clinical
    /// [`PRECURSOR_LOSS`] — below the alerting threshold, but visible in
    /// errored-seconds telemetry. This is the physical signal the §4
    /// predictive loop learns.
    pub(crate) pending_latent: Option<RootCause>,
    /// Whether the pending fault was seeded by physical disturbance
    /// (reporting: cascades are counted separately).
    pub(crate) pending_is_cascade: bool,
}

/// Sub-clinical loss carried by a link with a developing fault: above
/// the errored-second threshold (1e-4) so history accumulates, below the
/// gray-alert threshold (5e-4) so no reactive ticket fires.
const PRECURSOR_LOSS: f64 = 4e-4;

/// Fraction of gradual-cause organic incidents that develop through a
/// precursor phase instead of appearing instantly.
const GRADUAL_FRACTION: f64 = 0.7;

/// A dispatched repair in flight.
pub(crate) struct ActiveRepair {
    pub(crate) link: LinkId,
    pub(crate) action: RepairAction,
    pub(crate) executor: Executor,
    pub(crate) announcement: Option<PreContactAnnouncement>,
    pub(crate) robot_unit: Option<usize>,
    /// Robot op already determined to escalate to a human.
    pub(crate) robot_escalated: bool,
    /// Pre-sampled: will the human botch this action?
    pub(crate) human_botched: bool,
    /// Pre-simulated physical outcome (humans always `Completed`; the
    /// controller does not see this — it only observes the events the
    /// outcome produces, or their absence).
    pub(crate) outcome: OpOutcome,
    /// The operation's completion/escalation report was lost in
    /// transit; only the watchdog recovers it.
    pub(crate) lost: bool,
    /// Safety-zone claim held for the hands-on window.
    pub(crate) claim: ClaimId,
    /// Monotone booking id; stale per-attempt events are ignored.
    pub(crate) attempt: u64,
    /// Scheduled hands-on start.
    pub(crate) start: SimTime,
    /// Trace detail: travel share of the hands-on window (zero for
    /// humans). Recorded at booking, consumed at hands-on start.
    pub(crate) obs_travel: SimDuration,
    /// Trace detail: `(phase label, duration)` of the pre-simulated op.
    /// Populated only when traces are enabled (empty Vec allocates
    /// nothing), so disabled runs carry no extra weight.
    pub(crate) obs_phases: Vec<(&'static str, SimDuration)>,
    /// Trace detail: label for time past the last completed phase
    /// (stall wait, abort back-out, report-loss wait, manual work).
    pub(crate) obs_residue: &'static str,
}

/// The engine. Construct via [`run`]; exposed for the integration tests
/// that poke intermediate state.
pub struct Engine {
    pub(crate) cfg: ScenarioConfig,
    pub(crate) topo: Topology,
    pub(crate) state: NetState,
    pub(crate) telemetry: TelemetryPlane,
    pub(crate) board: TicketBoard,
    pub(crate) controller: MaintenanceController,
    pub(crate) techs: TechnicianPool,
    pub(crate) fleet: RobotFleet,
    pub(crate) injector: FaultInjector,
    pub(crate) links_rt: Vec<LinkRt>,
    pub(crate) active: BTreeMap<TicketId, ActiveRepair>,
    pub(crate) forced_action: BTreeMap<TicketId, RepairAction>,
    pub(crate) avail: FleetAvailability,
    pub(crate) costs: CostLedger,
    pub(crate) zones: ZoneLedger,
    pub(crate) service_pairs: Vec<(NodeId, NodeId)>,
    // RNG streams.
    pub(crate) hazard: Stream,
    pub(crate) causes: Stream,
    pub(crate) outcomes: Stream,
    pub(crate) ops: Stream,
    /// Maintenance-plane fault draws (robot hazards, dropout, message
    /// loss). A fresh stream so enabling faults never perturbs the
    /// draws of the pre-existing processes.
    pub(crate) faults_rng: Stream,
    /// Recovery-side draws (backoff jitter).
    pub(crate) recovery_rng: Stream,
    // Recovery plumbing.
    pub(crate) attempt_seq: u64,
    pub(crate) recovery_state: BTreeMap<TicketId, RecoveryState>,
    pub(crate) exclude_unit: BTreeMap<TicketId, usize>,
    pub(crate) forced_human: std::collections::BTreeSet<TicketId>,
    pub(crate) recovery_queue: Vec<TicketId>,
    // Report counters.
    pub(crate) incidents: u64,
    pub(crate) cascade_incidents: u64,
    pub(crate) cascade_bursts: u64,
    pub(crate) cascade_bursts_live: u64,
    pub(crate) burst_impact_loss_s: f64,
    pub(crate) tickets_by_trigger: BTreeMap<&'static str, u64>,
    pub(crate) actions: BTreeMap<RepairAction, ActionStats>,
    pub(crate) tech_time: SimDuration,
    pub(crate) human_escalations: u64,
    pub(crate) campaigns: u64,
    pub(crate) campaign_links: u64,
    pub(crate) prediction: maintctl::PredictionStats,
    pub(crate) drains_deferred: u64,
    pub(crate) drain_capacity_impact: f64,
    pub(crate) campaign_drain_impact: f64,
    pub(crate) trough_deferred: std::collections::BTreeSet<TicketId>,
    pub(crate) attempts_per_fix: Vec<u32>,
    pub(crate) fixed_attempts_by_ticket: BTreeMap<TicketId, bool>,
    pub(crate) defer_counts: BTreeMap<TicketId, u32>,
    // Robustness counters (all zero with faults disabled).
    pub(crate) op_stalls: u64,
    pub(crate) op_aborts_safe: u64,
    pub(crate) op_aborts_unsafe: u64,
    pub(crate) watchdog_fires: u64,
    pub(crate) robot_retries: u64,
    pub(crate) robot_reassigns: u64,
    pub(crate) robot_recoveries: u64,
    pub(crate) telemetry_dropouts: u64,
    pub(crate) dispatch_msgs_lost: u64,
    pub(crate) ports_flagged: u64,
    pub(crate) recovery_queued: u64,
    // Twin planner (DESIGN §3.14) — all inert when cfg.twin is Ladder.
    /// Committed plans awaiting consumption by `on_dispatch`. Entries
    /// persist across drain-defer retries of the same open episode and
    /// are dropped on close or verify-reopen.
    pub(crate) twin_plans: BTreeMap<TicketId, TwinPlan>,
    /// Tickets already planned this open episode (one fork fan-out per
    /// decision point, not per re-dispatch).
    pub(crate) twin_planned: std::collections::BTreeSet<TicketId>,
    /// Decision points evaluated; also the branch-RNG namespace index.
    pub(crate) twin_decisions: u64,
    /// Total branch engines forked.
    pub(crate) twin_forks: u64,
    /// Decisions where a non-ladder branch won and a plan was committed.
    pub(crate) twin_committed: u64,
    /// Σ predicted availability of the chosen branch (per decision).
    pub(crate) twin_pred_avail_sum: f64,
    // Autonomic MAPE-K plane (DESIGN §3.16) — None when cfg.autonomic
    // is None, leaving every pre-existing run byte-identical.
    pub(crate) autonomic: Option<dcmaint_autonomic::Mape>,
    /// Autonomic-loop draws (the per-tick exploration gate). A fresh
    /// stream so enabling the loop never perturbs the draws of the
    /// pre-existing processes.
    pub(crate) autonomic_rng: Stream,
    // Observability plane (all inert when cfg.obs is disabled).
    pub(crate) journal: Journal,
    pub(crate) registry: ObsRegistry,
    pub(crate) traces: TraceStore,
    /// Engine self-profiler (DESIGN §3.13): the engine's one wall
    /// timer, one span per event under its `(subsystem, kind)` leaf,
    /// plus the enabled flag the deterministic `prof/…` registry hooks
    /// key off. Inert unless `cfg.obs.profiling`.
    pub(crate) prof: Prof,
    // Owned event queue — part of the engine so checkpoints capture
    // pending events alongside the state they will act on.
    pub(crate) sched: Scheduler<Ev>,
}

/// Run a scenario to completion and produce its report.
pub fn run(cfg: ScenarioConfig) -> RunReport {
    Engine::new(cfg).execute()
}

/// Delay to the first whole hour within the next 24 whose diurnal
/// utilization is below `gate`; one hour when none is. A deterministic
/// scan of the diurnal curve — no RNG.
fn trough_delay(now: SimTime, gate: f64) -> SimDuration {
    (1..=24u64)
        .map(SimDuration::from_hours)
        .find(|&d| diurnal_utilization(now + d) < gate)
        .unwrap_or(SimDuration::from_hours(1))
}

/// Construct a ready-to-run engine: full component construction plus the
/// initial recurring-process events. Extracted from [`run`] so that
/// checkpoint restore can rebuild an identical engine before overlaying
/// snapshotted state.
fn build_engine(cfg: ScenarioConfig) -> Engine {
    let rng = SimRng::root(cfg.seed);
    let topo = cfg.topology.build(cfg.diversity, &rng);
    let state = NetState::new(&topo);
    let telemetry = TelemetryPlane::with_config(
        &topo,
        cfg.poll_period,
        dcmaint_telemetry::Detector::default(),
    );
    // One journal handle, cloned into every emitter. Disabled (the
    // default) it is a `None` and every emit is a no-op.
    let journal = if cfg.obs.enabled {
        Journal::enabled(cfg.obs.journal_capacity)
    } else {
        Journal::disabled()
    };
    let controller = MaintenanceController::new(cfg.controller_config());
    let techs = TechnicianPool::new(cfg.techs.clone(), &rng.child("techs"));
    let mut fleet = match cfg.hall_pool {
        Some(count) => RobotFleet::hall_pool(count, cfg.fleet.clone(), &rng.child("fleet")),
        None => RobotFleet::per_row(
            &topo.layout,
            cfg.robots_per_row,
            cfg.fleet.clone(),
            &rng.child("fleet"),
        ),
    };
    fleet.set_journal(journal.clone());
    let mut board = TicketBoard::new();
    board.set_journal(journal.clone());
    let injector = FaultInjector::new(cfg.faults.clone(), &rng.child("faults"));
    let n_links = topo.link_count();
    let links_rt = (0..n_links)
        .map(|_| LinkRt {
            incident: None,
            flap: None,
            burst_loss: None,
            epoch: 0,
            last_maintenance: SimTime::ZERO,
            pending_latent: None,
            pending_is_cascade: false,
        })
        .collect();
    // Sample service pairs deterministically.
    let mut pair_stream = rng.stream("service-pairs", 0);
    let servers = topo.servers();
    let mut service_pairs = Vec::new();
    if servers.len() >= 2 {
        for _ in 0..cfg.service_pair_samples {
            let a = servers[pair_stream.index(servers.len())];
            let b = servers[pair_stream.index(servers.len())];
            if a != b {
                service_pairs.push((a, b));
            }
        }
    }

    let horizon = SimTime::ZERO + cfg.duration;
    let mut eng = Engine {
        sched: Scheduler::with_horizon(horizon),
        hazard: rng.stream("hazard", 0),
        causes: rng.stream("engine-causes", 0),
        outcomes: rng.stream("engine-outcomes", 0),
        ops: rng.stream("engine-ops", 0),
        faults_rng: rng.stream("robot-faults", 0),
        recovery_rng: rng.stream("recovery", 0),
        autonomic_rng: rng.stream("autonomic", 0),
        autonomic: cfg.autonomic.clone().map(dcmaint_autonomic::Mape::new),
        attempt_seq: 0,
        recovery_state: BTreeMap::new(),
        exclude_unit: BTreeMap::new(),
        forced_human: std::collections::BTreeSet::new(),
        recovery_queue: Vec::new(),
        avail: FleetAvailability::new(SimTime::ZERO),
        costs: CostLedger::new(),
        zones: ZoneLedger::new(SafetyConfig::default()),
        // The registry is the meeting point of the observability
        // switches: journal/trace counters need `enabled`, the
        // self-profiler's `prof/…` counts need `profiling`, and the
        // autonomic monitor needs windowed reads. The trace store also
        // runs under autonomic (it feeds the window/span histograms the
        // monitor consumes), so toggling obs on top of an autonomic run
        // never changes what the MAPE loop sees.
        registry: if cfg.obs.enabled || cfg.obs.profiling || cfg.autonomic.is_some() {
            ObsRegistry::enabled()
        } else {
            ObsRegistry::disabled()
        },
        traces: if cfg.obs.enabled || cfg.autonomic.is_some() {
            TraceStore::enabled()
        } else {
            TraceStore::disabled()
        },
        prof: if cfg.obs.profiling {
            Prof::enabled()
        } else {
            Prof::disabled()
        },
        journal,
        cfg,
        topo,
        state,
        telemetry,
        board,
        controller,
        techs,
        fleet,
        injector,
        links_rt,
        active: BTreeMap::new(),
        forced_action: BTreeMap::new(),
        service_pairs,
        incidents: 0,
        cascade_incidents: 0,
        cascade_bursts: 0,
        cascade_bursts_live: 0,
        burst_impact_loss_s: 0.0,
        tickets_by_trigger: BTreeMap::new(),
        actions: BTreeMap::new(),
        tech_time: SimDuration::ZERO,
        human_escalations: 0,
        campaigns: 0,
        campaign_links: 0,
        prediction: maintctl::PredictionStats::default(),
        drains_deferred: 0,
        drain_capacity_impact: 0.0,
        campaign_drain_impact: 0.0,
        trough_deferred: std::collections::BTreeSet::new(),
        attempts_per_fix: Vec::new(),
        fixed_attempts_by_ticket: BTreeMap::new(),
        defer_counts: BTreeMap::new(),
        op_stalls: 0,
        op_aborts_safe: 0,
        op_aborts_unsafe: 0,
        watchdog_fires: 0,
        robot_retries: 0,
        robot_reassigns: 0,
        robot_recoveries: 0,
        telemetry_dropouts: 0,
        dispatch_msgs_lost: 0,
        ports_flagged: 0,
        recovery_queued: 0,
        twin_plans: BTreeMap::new(),
        twin_planned: std::collections::BTreeSet::new(),
        twin_decisions: 0,
        twin_forks: 0,
        twin_committed: 0,
        twin_pred_avail_sum: 0.0,
    };
    // Seed the recurring processes.
    if eng.cfg.organic_faults {
        let stress = eng.cfg.environment.stress_factor(SimTime::ZERO, 0);
        let first = eng
            .injector
            .arrival_delay(eng.topo.link_count() as f64, stress);
        eng.sched.schedule_in(first, Ev::Fault);
    }
    for inc in eng.cfg.scripted.clone() {
        if inc.link_index < eng.topo.link_count() {
            eng.sched.schedule(
                inc.at,
                Ev::Scripted {
                    link: LinkId::from_index(inc.link_index),
                    cause: inc.cause,
                },
            );
        }
    }
    eng.sched.schedule_in(eng.cfg.poll_period, Ev::Poll);
    eng.sched
        .schedule_in(SimDuration::from_hours(1), Ev::ProactiveScan);
    if let Some(pc) = eng.controller.predictive_config() {
        let period = pc.scan_period;
        eng.sched.schedule_in(period, Ev::PredictiveScan);
    }
    if let Some(ac) = &eng.cfg.autonomic {
        eng.sched.schedule_in(ac.tick_period, Ev::AutonomicTick);
        // Mirror the loop's proactive-trigger knob into the planner:
        // the planner's own save excludes config, so this is also what
        // re-applies a tuned trigger after a checkpoint restore.
        let trigger = eng.autonomic.as_ref().map(|m| m.proactive_trigger());
        if let Some(t) = trigger {
            if let Some(p) = eng.controller.proactive_mut() {
                p.set_trigger_count(t);
            }
        }
    }
    eng
}

impl Engine {
    /// A ready-to-run engine for `cfg`, with the initial events seeded.
    pub fn new(cfg: ScenarioConfig) -> Engine {
        build_engine(cfg)
    }

    /// Clone of the engine's journal handle (shares the underlying
    /// ring). Lets an embedding service — `selfmaint serve` — tail
    /// event lines live between `run_until` segments without the
    /// engine knowing it is being observed. Disabled (and free) when
    /// the run's obs plane is off.
    pub fn journal_handle(&self) -> Journal {
        self.journal.clone()
    }

    /// The scheduler clock: timestamp of the last dispatched event (or
    /// the horizon once drained). Lets checkpoint drivers resume their
    /// interval arithmetic after [`Engine::restore`].
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Drive the engine to completion and produce the report.
    pub fn execute(mut self) -> RunReport {
        while self.step_event().is_some() {}
        self.finish_report()
    }

    /// Dispatch the next pending event, returning its timestamp and
    /// kind. `None` once the queue is drained — the scheduler clamps its
    /// clock to the horizon on that final pop.
    pub fn step_event(&mut self) -> Option<(SimTime, &'static str)> {
        // Twin-guided planning hook: must run *before* the scheduler is
        // temporarily taken, because planning forks the whole engine
        // (which serializes `self.sched`). Peek → plan → pop is atomic
        // within this one call.
        self.maybe_plan_dispatch();
        // Temporarily take the queue so handlers can schedule into it
        // while borrowing the rest of the engine mutably.
        let mut sched = std::mem::replace(&mut self.sched, Scheduler::with_horizon(SimTime::ZERO));
        // Self-profiler: the pop is the scheduler's own share of the
        // loop. Every prof call below is a no-op returning `None` when
        // profiling is off.
        let t_pop = self.prof.start();
        let popped = sched.pop();
        self.prof.record("sched", "pop", t_pop);
        let out = if let Some(Fired { at, payload }) = popped {
            // Stamp the journal clock once per dispatch; emitters never
            // thread `now` through their signatures.
            self.journal.set_now(at);
            let (sub, ev_key, sub_key) = payload.prof_attribution();
            let kind = &ev_key["prof/ev/".len()..];
            if self.prof.is_enabled() {
                self.registry.inc(ev_key);
                self.registry.inc(sub_key);
            }
            let t = self.prof.start();
            self.handle(payload, at, &mut sched);
            self.prof.record(sub, kind, t);
            Some((at, kind))
        } else {
            None
        };
        self.sched = sched;
        out
    }

    /// Advance until the scheduler clock reaches `t`: dispatch every
    /// event with timestamp ≤ `t`, leaving later events pending. If the
    /// queue drains and `t` is at or past the horizon, the final pop
    /// clamps the clock to the horizon exactly as a full run would.
    pub fn run_until(&mut self, t: SimTime) {
        loop {
            match self.sched.peek_time() {
                Some(at) if at <= t => {
                    self.step_event();
                }
                Some(_) => break,
                None => {
                    if t >= self.sched.horizon() {
                        self.step_event();
                    }
                    break;
                }
            }
        }
    }

    /// Summarize and package the report for a drained engine.
    pub fn finish_report(self) -> RunReport {
        let horizon = SimTime::ZERO + self.cfg.duration;
        self.finish(horizon)
    }

    // ----- twin planning (DESIGN §3.14) -----------------------------

    /// If the next event is a dispatch decision for a ticket this open
    /// episode hasn't planned yet, fork the engine, rehearse the
    /// candidate decisions a virtual horizon ahead, and commit the
    /// argmax branch as a [`TwinPlan`]. Planning consumes zero parent
    /// RNG draws (branches reseed under a decision-indexed namespace),
    /// so twin-on runs stay byte-reproducible and jobs-invariant.
    fn maybe_plan_dispatch(&mut self) {
        let TwinPolicy::TwinGuided(tcfg) = &self.cfg.twin else {
            return;
        };
        let tcfg = tcfg.clone();
        let (now, ticket) = match self.sched.peek() {
            Some((at, &Ev::Dispatch { ticket })) => (at, ticket),
            _ => return,
        };
        if self.board.get(ticket).is_closed()
            || self.active.contains_key(&ticket)
            || self.twin_planned.contains(&ticket)
        {
            return;
        }
        // One fan-out per open episode: drain-defer retries of the same
        // ticket reuse the committed plan instead of re-forking.
        self.twin_planned.insert(ticket);
        let t = self.prof.start();
        self.plan_dispatch(ticket, now, &tcfg);
        self.prof.record("twin", "plan", t);
    }

    /// Enumerate candidates from inspectable state (no RNG draws), fork
    /// one branch engine per candidate on the sweep pool, score each at
    /// the horizon, and commit the winner.
    fn plan_dispatch(&mut self, ticket: TicketId, now: SimTime, tcfg: &TwinConfig) {
        let link = self.board.get(ticket).link;
        let medium = self.topo.link(link).cable.medium;
        let priority = self.board.get(ticket).priority;

        // Candidate 0 is always the pure ladder; `choose` breaks ties
        // toward it, so twin-guided never loses to the ladder on its
        // own predictions.
        let mut cands = vec![Candidate::ladder()];
        for a in RepairAction::LADDER {
            if a.applicable(medium) {
                // Live-posterior pruning (DESIGN §3.16): when the
                // autonomic knowledge base has enough evidence that an
                // action almost never fixes anything, skip its branch
                // instead of spending forks rehearsing it. The ladder
                // candidate itself is never pruned.
                if let Some(mape) = &self.autonomic {
                    if mape.action_discredited(a.label(), 0.12) {
                        continue;
                    }
                }
                cands.push(Candidate {
                    action: Some(a),
                    human: false,
                    defer_until: None,
                });
            }
        }
        // Robot-vs-human: only worth a branch when robots are deployed
        // and the ladder hasn't already forced humans.
        if tcfg.explore_executors
            && (self.cfg.robots_per_row > 0 || self.cfg.hall_pool.is_some())
            && !self.forced_human.contains(&ticket)
        {
            cands.push(Candidate {
                action: None,
                human: true,
                defer_until: None,
            });
        }
        // Act-now vs defer-to-trough: routine work on a still-carrying
        // link dispatched outside the utilization trough.
        let gate = self.controller.config().trough_gate;
        if tcfg.explore_defer
            && priority == Priority::P2
            && self.state.link(link).health.carries_traffic()
            && diurnal_utilization(now) >= gate
        {
            cands.push(Candidate {
                action: None,
                human: false,
                defer_until: Some(now + trough_delay(now, gate)),
            });
        }
        cands.truncate(tcfg.max_branches.max(1));

        let until = (now + tcfg.horizon).min(SimTime::ZERO + self.cfg.duration);
        let decision = self.twin_decisions;
        let samples = tcfg.samples.max(1);
        // Sample 0 is the *foresight* world: the branch continues the
        // parent's RNG tape, so it rehearses the future this run will
        // actually live. Samples 1.. reseed under
        // `twin/<decision>/<sample>` — alternative futures that hedge
        // the plan against tape-specific luck. Within every sample all
        // candidates share one namespace (common random numbers), so
        // scores differ through the decision, never through the draw.
        let decision_root = SimRng::root(self.cfg.seed)
            .child("twin")
            .child(&decision.to_string());
        let bytes = Arc::new(self.fork_bytes());
        let mut base_cfg = self.cfg.clone();
        // Branches never recurse into planning.
        base_cfg.twin = TwinPolicy::Ladder;

        let mut jobs = Vec::with_capacity(cands.len() * samples);
        for (i, cand) in cands.iter().enumerate() {
            for s in 0..samples {
                let bytes = Arc::clone(&bytes);
                let cfg = base_cfg.clone();
                let cand = cand.clone();
                let root = (s > 0).then(|| decision_root.child(&s.to_string()));
                jobs.push(move || {
                    let mut child = match &root {
                        None => Engine::from_fork_bytes(cfg, &bytes),
                        Some(root) => Engine::from_fork_bytes_reseeded(cfg, &bytes, root),
                    }
                    .expect("twin fork bytes decode");
                    if i != 0 {
                        child.twin_plans.insert(ticket, TwinPlan::from(&cand));
                    }
                    child.run_until(until);
                    BranchOutcome {
                        availability: child
                            .avail
                            .summarize(until, child.topo.link_count())
                            .availability,
                        cost: child.costs.total(),
                        open_tickets: child.board.open_count() as f64,
                        incidents: child.incidents,
                    }
                });
            }
        }
        let rollouts: Vec<Option<BranchOutcome>> = dcmaint_sweep::run_jobs(jobs, tcfg.jobs.max(1))
            .into_iter()
            .map(|r| r.ok())
            .collect();
        // Canonical merge: rollouts come back candidate-major regardless
        // of worker scheduling; collapse each candidate's samples to the
        // mean outcome.
        let outcomes: Vec<Option<BranchOutcome>> =
            rollouts.chunks(samples).map(dcmaint_twin::mean).collect();

        let best = dcmaint_twin::choose(&outcomes, &tcfg.weights, tcfg.commit_margin);
        self.twin_decisions += 1;
        self.twin_forks += (cands.len() * samples) as u64;
        if let Some(o) = &outcomes[best] {
            self.twin_pred_avail_sum += o.availability;
        }
        if best != 0 {
            self.twin_plans.insert(ticket, TwinPlan::from(&cands[best]));
            self.twin_committed += 1;
        }
        self.journal.set_now(now);
        self.journal.emit(
            "twin-plan",
            &[
                ("ticket", JVal::U(ticket.0)),
                ("branches", JVal::U(cands.len() as u64)),
                ("chosen", JVal::U(best as u64)),
            ],
        );
        if self.prof.is_enabled() {
            self.registry.inc("prof/twin/decision");
            for _ in 0..cands.len() * samples {
                self.registry.inc("prof/twin/fork");
            }
            if best != 0 {
                self.registry.inc("prof/twin/commit");
            }
        }
    }

    // ----- event dispatch -------------------------------------------

    fn handle(&mut self, ev: Ev, now: SimTime, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Fault => self.on_fault(now, sched),
            Ev::SelfHeal { link, epoch } => self.on_self_heal(link, epoch, now),
            Ev::Flap { link, epoch } => self.on_flap(link, epoch, now, sched),
            Ev::LatentManifest { link, cause } => self.on_latent(link, cause, now, sched),
            Ev::BurstEnd { link, epoch } => self.on_burst_end(link, epoch, now),
            Ev::Poll => self.on_poll(now, sched),
            Ev::Dispatch { ticket } => self.on_dispatch(ticket, now, sched),
            Ev::RepairStart { ticket } => self.on_repair_start(ticket, now, sched),
            Ev::RepairDone { ticket } => self.on_repair_done(ticket, now, sched),
            Ev::VerifyDone { ticket } => self.on_verify_done(ticket, now, sched),
            Ev::ProactiveScan => self.on_proactive_scan(now, sched),
            Ev::ProactiveOpen { link } => self.on_proactive_open(link, now, sched),
            Ev::PredictiveScan => self.on_predictive_scan(now, sched),
            Ev::AutonomicTick => self.on_autonomic_tick(now, sched),
            Ev::Scripted { link, cause } => {
                if self.links_rt[link.index()].incident.is_none() {
                    self.start_incident(link, cause, false, now, sched);
                }
            }
            Ev::PredictiveLabel {
                link,
                features,
                flagged,
                incidents_before,
            } => self.on_predictive_label(link, features, flagged, incidents_before),
            Ev::OpStalled { ticket, attempt } => self.on_op_stalled(ticket, attempt, now),
            Ev::OpAborted { ticket, attempt } => self.on_op_aborted(ticket, attempt, now, sched),
            Ev::WatchdogFired { ticket, attempt } => self.on_watchdog(ticket, attempt, now, sched),
            Ev::RobotRecovered { unit } => self.on_robot_recovered(unit, now, sched),
        }
    }

    // ----- link state plumbing --------------------------------------

    /// Recompute a link's externally-visible health/loss from its
    /// runtime components and propagate transitions to telemetry and
    /// availability.
    fn recompute_link(&mut self, l: LinkId, now: SimTime) {
        if self.prof.is_enabled() {
            self.registry.inc("prof/dcnet/link-recompute");
        }
        let rt = &self.links_rt[l.index()];
        let burst = rt.burst_loss.unwrap_or(0.0);
        let precursor = if rt.pending_latent.is_some() {
            PRECURSOR_LOSS
        } else {
            0.0
        };
        let (health, loss) = match &rt.incident {
            Some(inc) => match inc.health {
                LinkHealth::Down => (LinkHealth::Down, 1.0),
                LinkHealth::Flapping => {
                    let fl = rt.flap.as_ref().map_or(inc.loss, FlapProcess::loss);
                    (LinkHealth::Flapping, fl.max(burst))
                }
                LinkHealth::Degraded | LinkHealth::Up => {
                    (LinkHealth::Degraded, inc.loss.max(burst))
                }
            },
            None if burst > 0.0 => (LinkHealth::Degraded, burst.max(precursor)),
            // A pure precursor is sub-clinical: the link reads healthy,
            // only its loss counters carry the hint.
            None => (LinkHealth::Up, precursor),
        };
        let prev = self.state.link(l).health;
        self.state.set_health(l, health, loss);
        if prev != health {
            self.telemetry.on_transition(l, now);
        }
        self.update_availability(l, now);
    }

    /// A link is "available" when it physically carries traffic and is
    /// administratively in service (drained/maintenance time counts as
    /// unavailability — intentional drains are still capacity loss).
    fn update_availability(&mut self, l: LinkId, now: SimTime) {
        if self.state.link(l).routable() {
            self.avail.mark_up(l.key(), now);
        } else {
            self.avail.mark_down(l.key(), now);
        }
    }

    fn bump_epoch(&mut self, l: LinkId) -> u64 {
        self.links_rt[l.index()].epoch += 1;
        self.links_rt[l.index()].epoch
    }

    // ----- fault machinery ------------------------------------------

    fn wear_weight(&self, l: LinkId, now: SimTime) -> f64 {
        let days = now
            .since(self.links_rt[l.index()].last_maintenance)
            .as_days_f64();
        (1.0 + self.cfg.wear_growth * days / 90.0).min(4.0)
    }

    fn on_fault(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        // Schedule the next arrival first (Poisson chain). The rate is
        // the *sum* of per-link wear-adjusted hazards, so maintenance
        // that resets wear genuinely lowers the fabric incident rate —
        // the physical mechanism behind the §4 proactive claim.
        let stress = self
            .cfg
            .environment
            .stress_factor(now, self.topo.layout.rows / 2);
        let weights: Vec<f64> = self
            .topo
            .link_ids()
            .map(|l| self.wear_weight(l, now))
            .collect();
        let hazard_sum: f64 = weights.iter().sum();
        let delay = self.injector.arrival_delay(hazard_sum, stress);
        sched.schedule_in(delay, Ev::Fault);
        let mut target = self.hazard.weighted_index(&weights);
        if self.cfg.nondet_demo && weights.len() >= 2 {
            // Deliberate nondeterminism for the `selfmaint bisect` demo:
            // pass the weights through a HashMap and let its per-instance
            // iteration order shift which link the fault lands on. The
            // hazard sum and every RNG draw count are unchanged — only
            // the fault's target moves, which is exactly the class of
            // bug the bisector exists to localize.
            #[expect(
                clippy::disallowed_types,
                reason = "intentional nondeterminism, gated behind cfg.nondet_demo"
            )]
            let map: std::collections::HashMap<usize, f64> =
                weights.iter().copied().enumerate().collect();
            if let Some((&first, _)) = map.iter().next() {
                target = (target + 1 + first % (weights.len() - 1)) % weights.len();
            }
        }
        let l = LinkId::from_index(target);
        if self.links_rt[l.index()].incident.is_some() {
            return; // already broken; new fault is masked
        }
        let medium = self.topo.link(l).cable.medium;
        let cause = RootCause::sample(medium, &mut self.causes);
        // Contamination, oxidation, and wear build up gradually: most
        // such incidents pass through a precursor phase first (§1: the
        // impact of dirt "is often dependent on temperature, humidity,
        // vibration etc. Hence, the flapping can occur intermittently
        // over time"). Electrical/firmware faults stay instantaneous.
        let gradual = matches!(
            cause,
            RootCause::DirtyEndFace | RootCause::OxidizedContact | RootCause::TransceiverWear
        ) && self.causes.chance(GRADUAL_FRACTION)
            && self.links_rt[l.index()].pending_latent.is_none();
        if gradual {
            self.links_rt[l.index()].pending_latent = Some(cause);
            self.links_rt[l.index()].pending_is_cascade = false;
            self.recompute_link(l, now);
            let delay = self.injector.latent_manifest_delay();
            sched.schedule_in(delay, Ev::LatentManifest { link: l, cause });
        } else {
            self.start_incident(l, cause, false, now, sched);
        }
    }

    fn start_incident(
        &mut self,
        l: LinkId,
        cause: RootCause,
        from_cascade: bool,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let incident = self.injector.seeded_incident(l, cause);
        if self.prof.is_enabled() {
            self.registry.inc("prof/faults/incident");
        }
        self.incidents += 1;
        if from_cascade {
            self.cascade_incidents += 1;
        }
        let epoch = self.bump_epoch(l);
        let rt = &mut self.links_rt[l.index()];
        rt.incident = Some(ActiveIncident {
            cause,
            health: incident.health,
            loss: incident.loss,
            started: now,
        });
        rt.flap = None;
        self.journal.emit(
            "incident",
            &[
                ("link", JVal::U(l.key())),
                ("cause", JVal::S(cause.label())),
                ("health", JVal::S(incident.health.label())),
                ("cascade", JVal::B(from_cascade)),
            ],
        );
        if incident.health == LinkHealth::Flapping {
            let severity = (incident.loss / 0.05).clamp(0.1, 1.0);
            let flap = FlapProcess::with_severity(severity);
            let hold = flap.hold_time(&mut self.ops);
            rt.flap = Some(flap);
            sched.schedule_in(hold, Ev::Flap { link: l, epoch });
        }
        if let Some(heal) = incident.self_heal_after {
            sched.schedule_in(heal, Ev::SelfHeal { link: l, epoch });
        }
        self.recompute_link(l, now);
    }

    fn clear_incident(&mut self, l: LinkId, now: SimTime) {
        let rt = &mut self.links_rt[l.index()];
        rt.incident = None;
        rt.flap = None;
        rt.epoch += 1;
        self.recompute_link(l, now);
    }

    fn on_self_heal(&mut self, l: LinkId, epoch: u64, now: SimTime) {
        if self.links_rt[l.index()].epoch != epoch {
            return;
        }
        self.clear_incident(l, now);
    }

    fn on_flap(&mut self, l: LinkId, epoch: u64, now: SimTime, sched: &mut Scheduler<Ev>) {
        if self.links_rt[l.index()].epoch != epoch {
            return;
        }
        let Some(flap) = self.links_rt[l.index()].flap.as_mut() else {
            return;
        };
        let hold = flap.transition(&mut self.ops);
        sched.schedule_in(hold, Ev::Flap { link: l, epoch });
        self.telemetry.on_transition(l, now);
        self.recompute_link(l, now);
    }

    fn on_latent(&mut self, l: LinkId, cause: RootCause, now: SimTime, sched: &mut Scheduler<Ev>) {
        // Only manifest if the latent is still pending (maintenance may
        // have cleared it) and the link isn't already broken.
        if self.links_rt[l.index()].pending_latent != Some(cause) {
            return;
        }
        self.links_rt[l.index()].pending_latent = None;
        let from_cascade = self.links_rt[l.index()].pending_is_cascade;
        if self.links_rt[l.index()].incident.is_some() {
            self.recompute_link(l, now);
            return;
        }
        self.start_incident(l, cause, from_cascade, now, sched);
    }

    fn on_burst_end(&mut self, l: LinkId, epoch: u64, now: SimTime) {
        if self.links_rt[l.index()].epoch != epoch {
            return;
        }
        self.links_rt[l.index()].burst_loss = None;
        self.recompute_link(l, now);
    }

    // ----- telemetry → tickets --------------------------------------

    fn on_poll(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        sched.schedule_in(self.cfg.poll_period, Ev::Poll);
        // Telemetry dropout: the whole poll cycle is lost — counters
        // don't advance and no alerts fire until the next cycle. (Zero
        // draws when the fault model is disabled.)
        if self
            .cfg
            .robot_faults
            .telemetry_dropped(&mut self.faults_rng)
        {
            self.telemetry_dropouts += 1;
            return;
        }
        let alerts = self.telemetry.sample(&self.topo, &self.state, now);
        if self.prof.is_enabled() {
            self.registry.add("prof/dcnet/alert", alerts.len() as u64);
        }
        for alert in alerts {
            let trigger = match alert.kind {
                AlertKind::LinkDown => TicketTrigger::LinkDown,
                AlertKind::Flapping => TicketTrigger::Flapping,
                AlertKind::GrayLoss => TicketTrigger::GrayLoss,
            };
            let priority = Priority::from_trigger(trigger, alert.severity);
            self.open_ticket(alert.link, trigger, priority, now, sched);
        }
    }

    fn open_ticket(
        &mut self,
        link: LinkId,
        trigger: TicketTrigger,
        priority: Priority,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) -> Option<TicketId> {
        let (id, fresh) = self.board.open(link, trigger, priority, now);
        if !fresh {
            return None;
        }
        if self.prof.is_enabled() {
            self.registry.inc("prof/tickets/open");
        }
        *self.tickets_by_trigger.entry(trigger.label()).or_insert(0) += 1;
        // Begin the incident's trace. The fault-manifest anchor gives
        // the detect-latency span (pre-window, reported separately).
        let fault_at = self.links_rt[link.index()]
            .incident
            .as_ref()
            .map(|i| i.started);
        self.traces.open(
            id.0,
            link.index(),
            trigger.label(),
            priority.label(),
            fault_at,
            now,
        );
        if let Some(f) = fault_at {
            self.registry
                .observe("detect", trigger.label(), now.since(f));
        }
        self.registry.inc("ticket/opened");
        // Only reactive tickets count as incidents for telemetry
        // features and prediction labels — a predictive ticket must not
        // label its own target as "failed".
        if trigger.is_reactive() {
            self.telemetry.on_incident(link);
        }
        sched.schedule_now(Ev::Dispatch { ticket: id });
        Some(id)
    }

    // ----- dispatch & repair ----------------------------------------

    fn rack_of(&self, l: LinkId) -> RackLoc {
        let port = self.topo.link(l).a;
        self.topo.layout.rack_loc(self.topo.port(port).loc.rack)
    }

    fn density_of(&self, l: LinkId) -> f64 {
        (self.topo.disturb_neighbors(l).len() as f64 / 12.0).min(1.0)
    }

    /// Rough expected hands-on duration used for the pre-contact
    /// announcement (the real duration is sampled at booking).
    fn estimate_duration(&self, action: RepairAction, executor: Executor) -> SimDuration {
        let human = match action {
            RepairAction::Reseat => SimDuration::from_mins(10),
            RepairAction::CleanEndFace => SimDuration::from_mins(45),
            RepairAction::ReplaceTransceiver => SimDuration::from_mins(30),
            RepairAction::ReplaceCable => SimDuration::from_hours(4),
            RepairAction::ReplaceSwitchHardware => SimDuration::from_hours(8),
        };
        match executor {
            Executor::Human | Executor::HumanWithDevice => human,
            Executor::SupervisedRobot | Executor::AutonomousRobot => SimDuration::from_mins(5),
        }
    }

    fn on_dispatch(&mut self, ticket: TicketId, now: SimTime, sched: &mut Scheduler<Ev>) {
        if self.board.get(ticket).is_closed() || self.active.contains_key(&ticket) {
            return;
        }
        // A committed twin plan (DESIGN §3.14) steers this dispatch. A
        // defer-to-trough plan reschedules once; any plan suppresses the
        // built-in trough heuristic below — the twin already rehearsed
        // the timing question against the forked futures.
        if let Some(t) = self.twin_plans.get(&ticket).and_then(|p| p.defer_until) {
            if t > now {
                if let Some(p) = self.twin_plans.get_mut(&ticket) {
                    p.defer_until = None;
                }
                self.trough_deferred.insert(ticket);
                self.traces.event(ticket.0, now, "await-trough");
                self.registry.inc("defer/twin");
                sched.schedule(t, Ev::Dispatch { ticket });
                return;
            }
        }
        let twin_planned = self.twin_plans.contains_key(&ticket);
        // §2 timing optimization: routine (P2) work waits for the
        // diurnal trough when the policy asks for it, so its drains cost
        // the least capacity. Deferred at most once per ticket, and
        // never for hard-down links.
        let cfg_ctl = self.controller.config();
        if !twin_planned
            && cfg_ctl.trough_scheduling
            && self.board.get(ticket).priority == Priority::P2
            && diurnal_utilization(now) >= cfg_ctl.trough_gate
            && self
                .state
                .link(self.board.get(ticket).link)
                .health
                .carries_traffic()
            && !self.trough_deferred.contains(&ticket)
        {
            let delay = trough_delay(now, cfg_ctl.trough_gate);
            self.trough_deferred.insert(ticket);
            self.traces.event(ticket.0, now, "await-trough");
            self.registry.inc("defer/trough");
            sched.schedule_in(delay, Ev::Dispatch { ticket });
            return;
        }
        if self.prof.is_enabled() {
            self.registry.inc("prof/controller/decision");
        }
        let link = self.board.get(ticket).link;
        let medium = self.topo.link(link).cable.medium;
        let recent = self
            .board
            .recent_actions(link, now, self.controller.memory_window());
        // Precedence: recovery-ladder forced action (safety) > twin
        // plan (optimization) > the controller's degradation ladder.
        let twin_action = self
            .twin_plans
            .get(&ticket)
            .and_then(|p| p.action)
            .filter(|a| a.applicable(medium));
        let action = match (self.forced_action.get(&ticket), twin_action) {
            (Some(&a), _) if a.applicable(medium) => a,
            (_, Some(a)) => a,
            _ => self.controller.decide_action(medium, &recent),
        };
        let mut executor = self.controller.executor_for(action);
        if self.twin_plans.get(&ticket).is_some_and(|p| p.human) {
            executor = Executor::Human;
        }
        // The recovery ladder's human rung (and §3.4's flagged-port
        // rule after an unsafe abort): this ticket is humans-only now.
        if self.forced_human.contains(&ticket) {
            executor = Executor::Human;
        }
        // Robot-concurrency cap — the autonomic plane's live knob, or
        // the static `fleet_active_cap` when the loop is off. At the
        // cap, dispatch falls back to a technician instead of queueing
        // more work onto the saturated fleet.
        let cap = self
            .autonomic
            .as_ref()
            .map(|m| m.fleet_cap())
            .or(self.cfg.fleet_active_cap);
        if let Some(cap) = cap {
            if executor.is_robotic() {
                let busy = self
                    .active
                    .values()
                    .filter(|r| r.robot_unit.is_some())
                    .count();
                if busy >= cap {
                    executor = Executor::Human;
                    self.registry.inc("dispatch/cap-human");
                }
            }
        }
        let expected = self.estimate_duration(action, executor);
        if !self.cfg.coordinate_drains {
            // A1 ablation: no cross-layer coordination — book the actor
            // and touch the hardware hot, with no drain and no
            // pre-contact announcement.
            self.book_executor(ticket, link, action, executor, None, now, sched);
            return;
        }
        let plan = maintctl::drain::plan(
            &self.controller.config().drain,
            &self.topo,
            &self.state,
            link,
            matches!(executor, Executor::Human | Executor::HumanWithDevice),
            expected,
            &self.service_pairs,
        );
        let announcement = match plan {
            DrainDecision::Defer { .. } => {
                // Defer and retry — but not forever. Real fleets
                // eventually take an emergency maintenance window: after
                // a bounded number of deferrals the repair proceeds with
                // a target-only drain and the impact is accepted.
                let defers = self.defer_counts.entry(ticket).or_insert(0);
                if *defers < 8 {
                    let attempt = *defers;
                    *defers += 1;
                    self.drains_deferred += 1;
                    self.traces.event(ticket.0, now, "await-drain");
                    self.registry.inc("defer/drain");
                    // Capped exponential spacing (base `defer_retry`),
                    // jittered from the checkpointed recovery stream so
                    // a restored run re-issues the identical schedule.
                    let delay = self.cfg.recovery.defer.delay(
                        self.cfg.defer_retry,
                        attempt,
                        &mut self.recovery_rng,
                    );
                    sched.schedule_in(delay, Ev::Dispatch { ticket });
                    return;
                }
                PreContactAnnouncement {
                    target: link,
                    contacts: dcmaint_faults::contact_set(&self.topo, link),
                    expected_duration: expected,
                    drained: vec![link],
                }
            }
            DrainDecision::Proceed(ann) => ann,
        };
        self.book_executor(
            ticket,
            link,
            action,
            executor,
            Some(announcement),
            now,
            sched,
        );
    }

    /// Book the chosen executor and schedule the hands-on window.
    #[expect(
        clippy::too_many_arguments,
        reason = "the dispatch decision's parts, each chosen by a different rule"
    )]
    fn book_executor(
        &mut self,
        ticket: TicketId,
        link: LinkId,
        action: RepairAction,
        executor: Executor,
        announcement: Option<PreContactAnnouncement>,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        if self.prof.is_enabled() {
            self.registry.inc("prof/robotics/booking");
        }
        let medium = self.topo.link(link).cable.medium;
        let rack = self.rack_of(link);
        let walk_m = self
            .topo
            .layout
            .walk_distance_m(RackLoc { row: 0, col: 0 }, rack);
        let priority = self.board.get(ticket).priority;
        let diversity = self.topo.diversity.index();
        let density = self.density_of(link);
        let (
            start,
            hands_on,
            robot_unit,
            robot_escalated,
            human_botched,
            outcome,
            planned,
            obs_travel,
            obs_phases,
        ) = match executor {
            Executor::Human | Executor::HumanWithDevice => {
                let mut dur = self.techs.action_duration(action);
                if executor == Executor::HumanWithDevice && action == RepairAction::CleanEndFace {
                    // The Level-1 cleaning unit on the bench: the robot
                    // does the inspect/clean cycle while the technician
                    // handles transport — roughly half the manual time.
                    dur = dur.mul_f64(0.5);
                }
                let a = self.techs.assign(now, priority, walk_m, dur);
                let botched = self.techs.botched();
                self.tech_time += dur + SimDuration::from_secs_f64(walk_m);
                self.costs
                    .charge_technician(&self.cfg.costs, dur + SimDuration::from_secs_f64(walk_m));
                (
                    a.start,
                    dur,
                    None,
                    false,
                    botched,
                    OpOutcome::Completed,
                    Vec::new(),
                    SimDuration::ZERO,
                    Vec::new(),
                )
            }
            Executor::SupervisedRobot | Executor::AutonomousRobot => {
                // Run the op plan now to get its hands-on duration and
                // whether the robot will escalate; travel is charged by
                // the fleet from the chosen unit's actual distance.
                let travel_row_m = 0.0;
                let op = match action {
                    RepairAction::CleanEndFace => {
                        let cores = medium.cores().max(2);
                        let cause_dirty = self.links_rt[link.index()]
                            .incident
                            .as_ref()
                            .map(|i| i.cause == RootCause::DirtyEndFace)
                            .unwrap_or(false);
                        let exposure = if cause_dirty { 0.9 } else { 0.25 };
                        let mut ef = EndFace::contaminated(cores, exposure, &mut self.ops);
                        run_clean(
                            &self.fleet.timings,
                            &self.fleet.vision,
                            travel_row_m,
                            diversity,
                            density,
                            &mut ef,
                            &mut self.ops,
                        )
                    }
                    RepairAction::Reseat => run_reseat(
                        &self.fleet.timings,
                        &self.fleet.vision,
                        travel_row_m,
                        diversity,
                        density,
                        &mut self.ops,
                    ),
                    RepairAction::ReplaceTransceiver
                    | RepairAction::ReplaceCable
                    | RepairAction::ReplaceSwitchHardware => {
                        let kind = match action {
                            RepairAction::ReplaceTransceiver => ReplaceKind::Transceiver,
                            RepairAction::ReplaceCable => ReplaceKind::Cable {
                                route_m: self.topo.link(link).cable.length_m,
                            },
                            _ => ReplaceKind::SwitchHardware,
                        };
                        run_replace(
                            &self.fleet.timings,
                            &self.fleet.vision,
                            travel_row_m,
                            diversity,
                            density,
                            kind,
                            &mut self.ops,
                        )
                    }
                };
                // Planned phase durations feed the watchdog deadline —
                // the controller knows the plan, never the outcome.
                let planned: Vec<SimDuration> = op.phases.iter().map(|p| p.duration).collect();
                // Roll the maintenance-plane hazards: the plan may
                // truncate into a stall or an abort. Zero draws (and an
                // unchanged plan) when the fault model is disabled.
                let op = afflict(op, &self.cfg.robot_faults, &mut self.faults_rng);
                let dur = op.total();
                let exclude = self.exclude_unit.get(&ticket).copied();
                // Frozen units are skipped inside the fleet's assignment
                // loop itself; a fully-frozen fleet yields None here.
                let booking =
                    self.fleet
                        .assign_excluding(&self.topo.layout, now, rack, dur, exclude);
                match booking {
                    Some(a) => {
                        let mut start = a.start;
                        let dur = a.total; // travel + hands-on
                                           // Level 2: a human supervisor is reserved for the
                                           // whole operation (remote station; no walk).
                        if executor == Executor::SupervisedRobot {
                            let sup = self.techs.assign(now, priority, 0.0, dur);
                            start = start.max(sup.start);
                            self.tech_time += dur;
                            self.costs.charge_technician(&self.cfg.costs, dur);
                        }
                        self.costs.charge_robot(&self.cfg.costs, dur);
                        // Trace detail: the exact travel share of the
                        // booking (timings.travel, not a.total − work,
                        // which would mis-split for degraded units) and
                        // the op's phase ladder. Phases are collected
                        // only when traces record — an empty Vec costs
                        // nothing in disabled runs.
                        let obs_travel = self.fleet.timings.travel(a.travel_m);
                        let obs_phases: Vec<(&'static str, SimDuration)> =
                            if self.traces.is_enabled() {
                                op.phases
                                    .iter()
                                    .map(|p| (p.phase.label(), p.duration))
                                    .collect()
                            } else {
                                Vec::new()
                            };
                        (
                            start,
                            dur,
                            Some(a.unit),
                            op.escalated,
                            false,
                            op.outcome,
                            planned,
                            obs_travel,
                            obs_phases,
                        )
                    }
                    None => {
                        // No robot can reach this rack: human fallback.
                        let dur = self.techs.action_duration(action);
                        let a = self.techs.assign(now, priority, walk_m, dur);
                        let botched = self.techs.botched();
                        self.tech_time += dur;
                        self.costs.charge_technician(&self.cfg.costs, dur);
                        (
                            a.start,
                            dur,
                            None,
                            false,
                            botched,
                            OpOutcome::Completed,
                            Vec::new(),
                            SimDuration::ZERO,
                            Vec::new(),
                        )
                    }
                }
            }
        };
        // §3.4 safety interlock: humans and robots may not share an
        // exclusion zone. The booking may slip to the zone's next clear
        // window (the booked actor idles through the conflict).
        let actor_kind = match executor {
            Executor::Human | Executor::HumanWithDevice => ZoneActor::Human,
            Executor::SupervisedRobot | Executor::AutonomousRobot => ZoneActor::Robot,
        };
        let (start, claim) = self
            .zones
            .reserve_claim(actor_kind, rack, now, start, hands_on);
        let attempt = self.attempt_seq;
        self.attempt_seq += 1;
        // A finished robot op's completion report can be lost in
        // transit; the ticket then hangs until the watchdog queries the
        // unit. (No draw for human work or when faults are disabled.)
        let lost = robot_unit.is_some()
            && matches!(outcome, OpOutcome::Completed | OpOutcome::Escalated)
            && self.cfg.robot_faults.dispatch_lost(&mut self.faults_rng);
        if lost {
            self.dispatch_msgs_lost += 1;
        }
        // Residue label: what the tail of the hands-on window (past the
        // last completed phase) will have been spent on.
        let obs_residue = match outcome {
            OpOutcome::Stalled => "stalled",
            OpOutcome::AbortedSafe => "abort-backout",
            OpOutcome::AbortedUnsafe => "abort-unsafe",
            OpOutcome::Completed | OpOutcome::Escalated => {
                if lost {
                    "await-report"
                } else if robot_unit.is_some() {
                    "idle"
                } else {
                    "manual-work"
                }
            }
        };
        if robot_unit.is_some() {
            self.registry.inc(match outcome {
                OpOutcome::Completed => "op/completed",
                OpOutcome::Escalated => "op/escalated",
                OpOutcome::Stalled => "op/stalled",
                OpOutcome::AbortedSafe => "op/aborted-safe",
                OpOutcome::AbortedUnsafe => "op/aborted-unsafe",
            });
        }
        self.traces.event(ticket.0, now, "queued");
        self.journal.emit(
            "dispatch",
            &[
                ("ticket", JVal::U(ticket.0)),
                ("link", JVal::U(link.key())),
                ("action", JVal::S(action.label())),
                ("executor", JVal::S(executor.label())),
                ("robotic", JVal::B(robot_unit.is_some())),
                ("start_us", JVal::U(start.as_micros())),
            ],
        );
        self.active.insert(
            ticket,
            ActiveRepair {
                link,
                action,
                executor,
                announcement,
                robot_unit,
                robot_escalated,
                human_botched,
                outcome,
                lost,
                claim,
                attempt,
                start,
                obs_travel,
                obs_phases,
                obs_residue,
            },
        );
        self.board.set_state(ticket, TicketState::Dispatched);
        sched.schedule(start, Ev::RepairStart { ticket });
        match outcome {
            OpOutcome::Stalled => {
                self.op_stalls += 1;
                sched.schedule(start + hands_on, Ev::OpStalled { ticket, attempt });
            }
            OpOutcome::AbortedSafe | OpOutcome::AbortedUnsafe => {
                if outcome == OpOutcome::AbortedSafe {
                    self.op_aborts_safe += 1;
                } else {
                    self.op_aborts_unsafe += 1;
                }
                sched.schedule(start + hands_on, Ev::OpAborted { ticket, attempt });
            }
            OpOutcome::Completed | OpOutcome::Escalated => {
                if !lost {
                    sched.schedule(start + hands_on, Ev::RepairDone { ticket });
                }
            }
        }
        // Arm the per-operation watchdog: deadline from the *planned*
        // phase durations (plus slack over the actual booking, so a
        // healthy completion always reports first).
        if robot_unit.is_some() && self.cfg.robot_faults.enabled && self.cfg.recovery.enabled {
            let wd = self.cfg.recovery.watchdog.deadline(&planned).max(hands_on)
                + self.cfg.recovery.watchdog.min_slack;
            sched.schedule(start + wd, Ev::WatchdogFired { ticket, attempt });
        }
    }

    fn actor_profile(executor: Executor) -> ActorProfile {
        match executor {
            Executor::Human | Executor::HumanWithDevice => ActorProfile::human(),
            Executor::SupervisedRobot => ActorProfile::supervised_robot(),
            Executor::AutonomousRobot => ActorProfile::robot(),
        }
    }

    fn on_repair_start(&mut self, ticket: TicketId, now: SimTime, sched: &mut Scheduler<Ev>) {
        let Some(repair) = self.active.get(&ticket) else {
            return;
        };
        let link = repair.link;
        let executor = repair.executor;
        // Spurious check: a reactive ticket whose incident self-healed
        // before hands-on work closes as a false positive (the actor
        // inspects, finds nothing).
        let trigger = self.board.get(ticket).trigger;
        if trigger.is_reactive() && self.links_rt[link.index()].incident.is_none() {
            if let Some(r) = self.active.remove(&ticket) {
                self.zones.release(r.claim, now);
            }
            self.board.close(ticket, now, true);
            self.traces.close(ticket.0, now, true);
            self.registry.inc("close/spurious");
            self.forget_ticket(ticket);
            return;
        }
        // Apply the pre-announced drain.
        if let Some(ann) = self
            .active
            .get(&ticket)
            .and_then(|r| r.announcement.clone())
        {
            maintctl::drain::apply(&mut self.state, &ann);
            for &l in &ann.drained {
                self.update_availability(l, now);
            }
        }
        self.board.set_state(ticket, TicketState::InProgress);
        // Hands-on begins: the trace splits this window into travel,
        // op phases, and a residue tail; the registry sees each phase.
        if self.traces.is_enabled() {
            if let Some(r) = self.active.get(&ticket) {
                self.traces.hands_on(
                    ticket.0,
                    now,
                    r.executor.label(),
                    r.obs_travel,
                    r.obs_phases.clone(),
                    r.obs_residue,
                );
                for &(label, d) in &r.obs_phases {
                    self.registry.observe("phase", label, d);
                }
            }
        }
        // Physical contact: roll the disturbance dice.
        let profile = Self::actor_profile(executor);
        let effects = disturb(&self.topo, link, &profile, &mut self.ops);
        for e in effects {
            match e {
                DisturbanceEffect::TransientBurst {
                    link: nb,
                    duration,
                    loss,
                } => {
                    self.cascade_bursts += 1;
                    if self.state.link(nb).routable() {
                        // The burst hits live traffic: the co-design
                        // failure mode A1 measures.
                        self.cascade_bursts_live += 1;
                        self.burst_impact_loss_s += duration.as_secs_f64() * loss;
                    }
                    let epoch = self.bump_epoch(nb);
                    self.links_rt[nb.index()].burst_loss = Some(loss);
                    self.recompute_link(nb, now);
                    sched.schedule_in(duration, Ev::BurstEnd { link: nb, epoch });
                }
                DisturbanceEffect::LatentFault { link: nb, cause } => {
                    self.links_rt[nb.index()].pending_latent = Some(cause);
                    self.links_rt[nb.index()].pending_is_cascade = true;
                    self.recompute_link(nb, now);
                    let delay = self.injector.latent_manifest_delay();
                    sched.schedule_in(delay, Ev::LatentManifest { link: nb, cause });
                }
            }
        }
    }

    fn on_repair_done(&mut self, ticket: TicketId, now: SimTime, sched: &mut Scheduler<Ev>) {
        let Some(repair) = self.active.remove(&ticket) else {
            return;
        };
        let link = repair.link;
        // Release the drain, charging its capacity impact: drained
        // link-hours weighted by the utilization at the window midpoint.
        // (The window runs from the scheduled start — for a recovered
        // lost-dispatch it is longer than the hands-on time.)
        if let Some(ann) = &repair.announcement {
            let drained_for = now.since(repair.start);
            let mid = now - drained_for / 2;
            let util = diurnal_utilization(mid);
            let impact = util * drained_for.as_hours_f64() * ann.drained.len() as f64;
            self.drain_capacity_impact += impact;
            if self.board.get(ticket).trigger == TicketTrigger::Proactive {
                self.campaign_drain_impact += impact;
            }
            maintctl::drain::release(&mut self.state, ann);
            for &l in &ann.drained {
                self.update_availability(l, now);
            }
        }
        self.zones.release(repair.claim, now);
        let medium = self.topo.link(link).cable.medium;
        let robotic = repair.robot_unit.is_some();
        // Robot breakdown roll.
        if let Some(unit) = repair.robot_unit {
            self.fleet.breakdown_check(unit, now);
        }
        // Escalation: the robot could not complete; a human redoes the
        // same action (dispatched fresh through the tech pool).
        if repair.robot_escalated {
            self.human_escalations += 1;
            self.registry.inc("escalate/human");
            self.traces
                .event_note(ticket.0, now, "queued", "escalated-human");
            let st = self.actions.entry(repair.action).or_default();
            st.attempts += 1;
            st.robotic += 1;
            st.escalations += 1;
            self.board.record_attempt(
                ticket,
                AttemptRecord {
                    action: repair.action,
                    started: repair.start,
                    finished: now,
                    fixed: false,
                    robotic: true,
                },
            );
            self.forced_action.insert(ticket, repair.action);
            // Force human execution by re-dispatching at a level-0 view:
            // simplest honest model — book a technician directly.
            let dur = self.techs.action_duration(repair.action);
            let walk_m = self
                .topo
                .layout
                .walk_distance_m(RackLoc { row: 0, col: 0 }, self.rack_of(link));
            let priority = self.board.get(ticket).priority;
            let a = self.techs.assign(now, priority, walk_m, dur);
            let botched = self.techs.botched();
            self.tech_time += dur;
            self.costs.charge_technician(&self.cfg.costs, dur);
            let rack = self.rack_of(link);
            let (start, claim) =
                self.zones
                    .reserve_claim(ZoneActor::Human, rack, now, a.start, dur);
            let attempt = self.attempt_seq;
            self.attempt_seq += 1;
            self.active.insert(
                ticket,
                ActiveRepair {
                    link,
                    action: repair.action,
                    executor: Executor::Human,
                    announcement: repair.announcement,
                    robot_unit: None,
                    robot_escalated: false,
                    human_botched: botched,
                    outcome: OpOutcome::Completed,
                    lost: false,
                    claim,
                    attempt,
                    start,
                    obs_travel: SimDuration::ZERO,
                    obs_phases: Vec::new(),
                    obs_residue: "manual-work",
                },
            );
            sched.schedule(start, Ev::RepairStart { ticket });
            sched.schedule(start + dur, Ev::RepairDone { ticket });
            return;
        }
        // Resolve the repair outcome.
        let mut fixed = false;
        let cause = self.links_rt[link.index()]
            .incident
            .as_ref()
            .map(|i| i.cause);
        if let Some(cause) = cause {
            if !repair.human_botched {
                fixed = repair.action.attempt(cause, medium, &mut self.outcomes);
            }
            // Autonomic knowledge: every resolved reactive attempt
            // updates the cause×action efficacy posterior (the cause is
            // diagnosed during the hands-on work, so this is
            // policy-visible only post-repair).
            if let Some(mape) = self.autonomic.as_mut() {
                mape.observe_repair(cause.label(), repair.action.label(), fixed);
            }
        }
        // Maintenance side effects (apply whether or not an incident was
        // present — proactive work lands here with `cause == None`).
        self.links_rt[link.index()].last_maintenance = now;
        if let Some(latent) = self.links_rt[link.index()].pending_latent {
            // Maintenance can clear a latent fault before it manifests:
            // that is the entire proactive-value mechanism.
            if self.outcomes.chance(repair.action.efficacy(latent, medium)) {
                self.links_rt[link.index()].pending_latent = None;
            }
        }
        match repair.action {
            RepairAction::ReplaceTransceiver => {
                self.costs
                    .charge_hardware(&self.cfg.costs, HardwareKind::Transceiver);
                if let Some(unit) = repair.robot_unit {
                    if !self.fleet.take_spare(unit) {
                        self.fleet.restock(unit);
                    }
                }
            }
            RepairAction::ReplaceCable => {
                self.costs
                    .charge_hardware(&self.cfg.costs, HardwareKind::Cable);
            }
            RepairAction::ReplaceSwitchHardware => {
                // Modular chassis (spines) replace at line-card
                // granularity; fixed-config ToRs swap whole (§3.2:
                // "replace the NIC, line card, or switch").
                let (a, b) = self.topo.endpoints(link);
                let sw = if self.topo.node(a).is_switch() { a } else { b };
                let modular = match &self.topo.node(sw).kind {
                    dcmaint_dcnet::NodeKind::Switch { spec, .. } => {
                        spec.ports_per_linecard < spec.radix
                    }
                    dcmaint_dcnet::NodeKind::Server => false,
                };
                self.costs.charge_hardware(
                    &self.cfg.costs,
                    if modular {
                        HardwareKind::LineCard
                    } else {
                        HardwareKind::Switch
                    },
                );
            }
            _ => {}
        }
        if fixed {
            self.clear_incident(link, now);
            if repair.action == RepairAction::Reseat {
                if let Some(planner) = self.controller.proactive_mut() {
                    planner.record_reseat_fix(&self.topo, link, now);
                }
            }
            self.fixed_attempts_by_ticket.insert(ticket, true);
        }
        let st = self.actions.entry(repair.action).or_default();
        st.attempts += 1;
        if robotic {
            st.robotic += 1;
        }
        if fixed {
            st.fixes += 1;
        }
        self.board.record_attempt(
            ticket,
            AttemptRecord {
                action: repair.action,
                started: repair.start,
                finished: now,
                fixed,
                robotic,
            },
        );
        // Drop any cleared precursor loss from the link's visible state.
        self.recompute_link(link, now);
        self.traces.event(ticket.0, now, "verify");
        sched.schedule_in(
            self.controller.config().verify_soak,
            Ev::VerifyDone { ticket },
        );
    }

    fn on_verify_done(&mut self, ticket: TicketId, now: SimTime, sched: &mut Scheduler<Ev>) {
        if self.board.get(ticket).is_closed() {
            return;
        }
        let link = self.board.get(ticket).link;
        if self.links_rt[link.index()].incident.is_some() {
            // Still broken: climb the ladder. Drop any forced action so
            // the escalation engine decides, and any twin plan so the
            // reopened episode gets a fresh decision point.
            self.forced_action.remove(&ticket);
            self.twin_plans.remove(&ticket);
            self.twin_planned.remove(&ticket);
            self.traces.event_note(ticket.0, now, "triage", "reopen");
            sched.schedule_now(Ev::Dispatch { ticket });
            return;
        }
        // Healthy: close. Spurious iff nothing we did ever fixed it and
        // the ticket was reactive (it healed itself).
        let trigger = self.board.get(ticket).trigger;
        let had_fix = self
            .fixed_attempts_by_ticket
            .remove(&ticket)
            .unwrap_or(false);
        let spurious = trigger.is_reactive() && !had_fix;
        if !spurious && trigger.is_reactive() {
            self.attempts_per_fix
                .push(self.board.get(ticket).attempt_count() as u32);
        }
        self.board.close(ticket, now, spurious);
        self.traces.close(ticket.0, now, spurious);
        self.registry.inc(if spurious {
            "close/spurious"
        } else {
            "close/fixed"
        });
        // Feed the closed trace's decomposition into the histograms:
        // the whole window by trigger, and every depth-0 span by kind.
        if self.registry.is_enabled() {
            if let Some(t) = self.traces.get(ticket.0) {
                if let Some(w) = t.window() {
                    self.registry.observe("window", t.trigger, w);
                }
                for s in t.spans() {
                    if s.depth == 0 {
                        self.registry.observe("span", s.kind, s.duration());
                    }
                }
            }
        }
        self.forget_ticket(ticket);
        self.telemetry.on_maintenance(link, now);
    }

    /// Drop all per-ticket bookkeeping after a close.
    fn forget_ticket(&mut self, ticket: TicketId) {
        self.forced_action.remove(&ticket);
        self.defer_counts.remove(&ticket);
        self.trough_deferred.remove(&ticket);
        self.recovery_state.remove(&ticket);
        self.exclude_unit.remove(&ticket);
        self.forced_human.remove(&ticket);
        self.twin_plans.remove(&ticket);
        self.twin_planned.remove(&ticket);
    }

    // ----- maintenance-plane fault handling ---------------------------

    /// Release everything an operation physically held: its drain
    /// (charging the capacity actually consumed) and its safety-zone
    /// claim. The abort/stall invariant — a failed operation never
    /// leaks either — funnels through here.
    fn release_worksite(&mut self, repair: &ActiveRepair, now: SimTime) {
        if let Some(ann) = &repair.announcement {
            let drained_for = now.since(repair.start);
            let util = diurnal_utilization(now - drained_for / 2);
            self.drain_capacity_impact +=
                util * drained_for.as_hours_f64() * ann.drained.len() as f64;
            maintctl::drain::release(&mut self.state, ann);
            for &l in &ann.drained {
                self.update_availability(l, now);
            }
        }
        self.zones.release(repair.claim, now);
    }

    /// Book-keep a robot attempt that failed without a completion
    /// report (stall or abort).
    fn record_failed_attempt(&mut self, ticket: TicketId, repair: &ActiveRepair, now: SimTime) {
        let st = self.actions.entry(repair.action).or_default();
        st.attempts += 1;
        st.robotic += 1;
        self.board.record_attempt(
            ticket,
            AttemptRecord {
                action: repair.action,
                started: repair.start,
                finished: now,
                fixed: false,
                robotic: true,
            },
        );
    }

    /// An unsafe abort leaves the component half-extracted: the link is
    /// physically down until someone reseats it, regardless of what was
    /// (or wasn't) wrong before.
    fn force_link_down(&mut self, link: LinkId, now: SimTime) {
        let fresh = self.links_rt[link.index()].incident.is_none();
        if fresh {
            self.incidents += 1;
        }
        let _ = self.bump_epoch(link); // invalidate self-heal/flap events
        let rt = &mut self.links_rt[link.index()];
        match rt.incident.as_mut() {
            Some(inc) => {
                inc.health = LinkHealth::Down;
                inc.loss = 1.0;
            }
            None => {
                // A reseat (full re-insert + power cycle) restores it —
                // mechanically the same signature as a firmware hang.
                rt.incident = Some(ActiveIncident {
                    cause: RootCause::FirmwareHang,
                    health: LinkHealth::Down,
                    loss: 1.0,
                    started: now,
                });
            }
        }
        rt.flap = None;
        self.recompute_link(link, now);
    }

    fn on_op_stalled(&mut self, ticket: TicketId, attempt: u64, now: SimTime) {
        let Some(repair) = self.active.get(&ticket) else {
            return;
        };
        if repair.attempt != attempt {
            return;
        }
        // The unit freezes on the spot: it accepts no further work and
        // announces nothing. Detection is the watchdog's job.
        if let Some(unit) = repair.robot_unit {
            self.fleet.freeze(unit, now);
        }
    }

    fn on_op_aborted(
        &mut self,
        ticket: TicketId,
        attempt: u64,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        match self.active.get(&ticket) {
            Some(r) if r.attempt == attempt => {}
            _ => return,
        }
        let repair = self.active.remove(&ticket).expect("checked above");
        // The robot backs out (or is pulled out): worksite released
        // unconditionally — aborts never leak a drain or a zone claim,
        // with or without recovery.
        self.release_worksite(&repair, now);
        if let Some(unit) = repair.robot_unit {
            self.fleet.mark_degraded(unit);
        }
        self.record_failed_attempt(ticket, &repair, now);
        if repair.outcome == OpOutcome::AbortedUnsafe {
            // §3.4: half-extracted component — flag the port; only a
            // human may touch it next.
            self.ports_flagged += 1;
            self.force_link_down(repair.link, now);
            self.forced_human.insert(ticket);
        }
        self.recover(ticket, &repair, now, sched);
    }

    fn on_watchdog(
        &mut self,
        ticket: TicketId,
        attempt: u64,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        match self.active.get(&ticket) {
            Some(r) if r.attempt == attempt => {}
            _ => return, // completed/aborted/superseded — timer disarmed
        }
        match self.active.get(&ticket).map(|r| r.outcome) {
            Some(OpOutcome::Completed) | Some(OpOutcome::Escalated)
                if self.active.get(&ticket).is_some_and(|r| r.lost) =>
            {
                // The op finished but its report was lost: the watchdog
                // queries the unit and recovers the result late.
                self.watchdog_fires += 1;
                self.registry.inc("watchdog/lost-report");
                self.journal.emit(
                    "watchdog",
                    &[
                        ("ticket", JVal::U(ticket.0)),
                        ("kind", JVal::S("lost-report")),
                    ],
                );
                if let Some(r) = self.active.get_mut(&ticket) {
                    r.lost = false;
                }
                sched.schedule_now(Ev::RepairDone { ticket });
            }
            Some(OpOutcome::Stalled) => {
                // Declare the operation dead: free the worksite, send
                // the unit to repair, and climb the recovery ladder.
                self.watchdog_fires += 1;
                self.registry.inc("watchdog/stall");
                self.journal.emit(
                    "watchdog",
                    &[("ticket", JVal::U(ticket.0)), ("kind", JVal::S("stall"))],
                );
                let repair = self.active.remove(&ticket).expect("checked above");
                self.release_worksite(&repair, now);
                if let Some(unit) = repair.robot_unit {
                    let repair_for = self.fleet.mark_down(unit, now);
                    sched.schedule_in(repair_for, Ev::RobotRecovered { unit });
                }
                self.record_failed_attempt(ticket, &repair, now);
                self.recover(ticket, &repair, now, sched);
            }
            _ => {}
        }
    }

    /// Climb the degradation ladder after a failed robot attempt:
    /// retry the same unit (with backoff) → reassign to another unit →
    /// hand the ticket to a human → park it until the fleet recovers.
    /// With recovery disabled (the E14 ablation) failed work is simply
    /// abandoned: the ticket stays open and the link stays broken.
    fn recover(
        &mut self,
        ticket: TicketId,
        repair: &ActiveRepair,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        if !self.cfg.recovery.enabled || self.board.get(ticket).is_closed() {
            return;
        }
        if self.prof.is_enabled() {
            self.registry.inc("prof/recovery/step");
        }
        let rack = self.rack_of(repair.link);
        let st = *self.recovery_state.entry(ticket).or_default();
        let failed_unit_usable = repair
            .robot_unit
            .map(|u| self.fleet.health(u, now) != UnitHealth::Down)
            .unwrap_or(false);
        let fleet_has_capacity = !self.fleet.all_reachable_down(&self.topo.layout, rack, now);
        let step = if repair.outcome == OpOutcome::AbortedUnsafe {
            RecoveryStep::HumanTicket
        } else {
            self.cfg.recovery.next_step_logged(
                st,
                failed_unit_usable,
                fleet_has_capacity,
                &self.journal,
            )
        };
        let backoff_attempt = st.same_robot_retries + st.reassigns;
        match step {
            RecoveryStep::RetrySameRobot => {
                self.recovery_state
                    .get_mut(&ticket)
                    .expect("entry above")
                    .same_robot_retries += 1;
                self.robot_retries += 1;
                self.registry.inc("recovery/retry");
                self.traces
                    .event_note(ticket.0, now, "backoff", "retry-same");
                let delay = self
                    .cfg
                    .recovery
                    .backoff
                    .delay(backoff_attempt, &mut self.recovery_rng);
                sched.schedule_in(delay, Ev::Dispatch { ticket });
            }
            RecoveryStep::ReassignOtherUnit => {
                self.recovery_state
                    .get_mut(&ticket)
                    .expect("entry above")
                    .reassigns += 1;
                self.robot_reassigns += 1;
                self.registry.inc("recovery/reassign");
                self.traces.event_note(ticket.0, now, "backoff", "reassign");
                if let Some(u) = repair.robot_unit {
                    self.exclude_unit.insert(ticket, u);
                }
                let delay = self
                    .cfg
                    .recovery
                    .backoff
                    .delay(backoff_attempt, &mut self.recovery_rng);
                sched.schedule_in(delay, Ev::Dispatch { ticket });
            }
            RecoveryStep::HumanTicket => {
                // Graceful degradation: the L0 world still works.
                self.forced_human.insert(ticket);
                self.human_escalations += 1;
                self.registry.inc("recovery/human");
                self.traces
                    .event_note(ticket.0, now, "triage", "human-ticket");
                sched.schedule_now(Ev::Dispatch { ticket });
            }
            RecoveryStep::QueueUntilFleetRecovers => {
                self.recovery_queued += 1;
                self.registry.inc("recovery/parked");
                self.traces
                    .event_note(ticket.0, now, "parked", "fleet-down");
                self.recovery_queue.push(ticket);
            }
        }
    }

    fn on_robot_recovered(&mut self, unit: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        self.fleet.mark_repaired(unit, now);
        self.robot_recoveries += 1;
        // Capacity is back: drain the parked tickets.
        for ticket in std::mem::take(&mut self.recovery_queue) {
            sched.schedule_now(Ev::Dispatch { ticket });
        }
    }

    // ----- proactive & predictive loops ------------------------------

    fn on_proactive_scan(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        sched.schedule_in(SimDuration::from_hours(1), Ev::ProactiveScan);
        let util = diurnal_utilization(now);
        let Some(planner) = self.controller.proactive_mut() else {
            return;
        };
        let campaigns = planner.evaluate(&self.topo, util, now);
        for c in campaigns {
            self.campaigns += 1;
            // Pace the campaign: §4 schedules this work *because* it is
            // low-impact; opening every port of a switch at once would
            // drain a whole panel simultaneously and let the disturbance
            // rolls of back-to-back operations compound. One port every
            // 15 minutes keeps at most one campaign touch per switch in
            // flight.
            for (i, link) in c.links.into_iter().enumerate() {
                sched.schedule_in(
                    SimDuration::from_mins(15) * i as u64,
                    Ev::ProactiveOpen { link },
                );
            }
        }
    }

    fn on_proactive_open(&mut self, link: LinkId, now: SimTime, sched: &mut Scheduler<Ev>) {
        if self.board.open_on(link).is_some() || self.links_rt[link.index()].incident.is_some() {
            return;
        }
        self.campaign_links += 1;
        if let Some(id) = self.open_ticket(link, TicketTrigger::Proactive, Priority::P2, now, sched)
        {
            self.forced_action.insert(id, RepairAction::Reseat);
        }
    }

    fn on_predictive_scan(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        let Some(pc) = self.controller.predictive_config().cloned() else {
            return;
        };
        sched.schedule_in(pc.scan_period, Ev::PredictiveScan);
        let horizon = pc.label_horizon;
        // Score every link first; flag only the top few above threshold.
        // An uncapped flagger degenerates into cleaning the whole fabric
        // every scan — which both wastes robot time and destroys its own
        // training labels (every flagged link is intervened on).
        let mut scored: Vec<(LinkId, f64, [f64; FEATURE_DIM], u64)> = Vec::new();
        for l in self.topo.link_ids() {
            let features = {
                let counters = self.telemetry.counters(l);
                extract(&self.topo, l, counters, now)
            };
            let Some(pred) = self.controller.predictor() else {
                return;
            };
            let score = pred.score(&features);
            let incidents_before = self.telemetry.counters_ref(l).incidents_total();
            scored.push((l, score, features, incidents_before));
        }
        let max_flags = (self.topo.link_count() / 50).max(1);
        // Relative threshold: flag links whose risk is a multiple of the
        // fleet mean (subject to an absolute floor), so the flagger
        // tracks the base rate instead of assuming one.
        let mean_score =
            scored.iter().map(|&(_, s, _, _)| s).sum::<f64>() / scored.len().max(1) as f64;
        let threshold = (pc.risk_lift * mean_score).max(pc.score_floor);
        let mut candidates: Vec<usize> = (0..scored.len())
            .filter(|&i| {
                let (l, score, _, _) = scored[i];
                score >= threshold
                    && self.board.open_on(l).is_none()
                    && self.links_rt[l.index()].incident.is_none()
            })
            .collect();
        // total_cmp: a NaN score (however it arose) must not panic the
        // control plane mid-run; it just sorts last.
        candidates.sort_by(|&a, &b| scored[b].1.total_cmp(&scored[a].1));
        candidates.truncate(max_flags);
        let flagged_set: std::collections::BTreeSet<LinkId> =
            candidates.iter().map(|&i| scored[i].0).collect();
        for &i in &candidates {
            let l = scored[i].0;
            let medium = self.topo.link(l).cable.medium;
            let action = if medium.is_separable() {
                RepairAction::CleanEndFace
            } else {
                RepairAction::Reseat
            };
            if let Some(id) =
                self.open_ticket(l, TicketTrigger::Predictive, Priority::P2, now, sched)
            {
                self.forced_action.insert(id, action);
            }
        }
        for (l, _, features, incidents_before) in scored {
            sched.schedule_in(
                horizon,
                Ev::PredictiveLabel {
                    link: l,
                    features,
                    flagged: flagged_set.contains(&l),
                    incidents_before,
                },
            );
        }
    }

    fn on_predictive_label(
        &mut self,
        link: LinkId,
        features: [f64; FEATURE_DIM],
        flagged: bool,
        incidents_before: u64,
    ) {
        let failed = self.telemetry.counters_ref(link).incidents_total() > incidents_before;
        self.prediction.record(flagged, failed);
        // Train only on non-intervened links: a flagged link got
        // maintenance, so its (non-)failure is not a clean label.
        if !flagged {
            if let Some(pred) = self.controller.predictor_mut() {
                pred.train(&features, failed);
            }
        }
    }

    // ----- autonomic MAPE-K loop (DESIGN §3.16) -----------------------

    fn on_autonomic_tick(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        let Some(ac) = &self.cfg.autonomic else {
            return;
        };
        let tick_period = ac.tick_period;
        sched.schedule_in(tick_period, Ev::AutonomicTick);
        let robots_busy = self
            .active
            .values()
            .filter(|r| r.robot_unit.is_some())
            .count() as u64;
        let ctx = dcmaint_autonomic::TickContext {
            elapsed: tick_period,
            open_tickets: self.board.open_count() as u64,
            robots_busy,
            links: self.topo.link_count() as u64,
        };
        let Some(mape) = self.autonomic.as_mut() else {
            return;
        };
        let directives = mape.tick(&self.registry, ctx, &mut self.autonomic_rng);
        self.registry.inc("autonomic/tick");
        self.journal.set_now(now);
        for d in &directives {
            match *d {
                dcmaint_autonomic::Directive::Knob { knob, from, to }
                | dcmaint_autonomic::Directive::Rollback { knob, from, to } => {
                    let rollback = matches!(d, dcmaint_autonomic::Directive::Rollback { .. });
                    // Mirror the loop's tuned value into the component
                    // that actually consumes it. The fleet cap needs no
                    // mirror — dispatch reads it live off the Mape.
                    if knob == dcmaint_autonomic::KNOB_PROACTIVE_TRIGGER {
                        if let Some(p) = self.controller.proactive_mut() {
                            p.set_trigger_count(to as usize);
                        }
                    }
                    self.registry.inc(if rollback {
                        "autonomic/rollback"
                    } else {
                        "autonomic/knob-move"
                    });
                    self.journal.emit(
                        "autonomic",
                        &[
                            ("knob", JVal::S(knob)),
                            ("from", JVal::U(from)),
                            ("to", JVal::U(to)),
                            ("rollback", JVal::B(rollback)),
                        ],
                    );
                }
                dcmaint_autonomic::Directive::Reprior { rate_per_link_day } => {
                    // Re-anchor the predictive scorer's intercept to the
                    // drifted base rate, converted to its label horizon.
                    let horizon_days = self
                        .controller
                        .predictive_config()
                        .map(|pc| pc.label_horizon.as_micros() as f64 / 86_400e6);
                    if let (Some(h), Some(pred)) = (horizon_days, self.controller.predictor_mut()) {
                        pred.reprior((rate_per_link_day * h).clamp(1e-6, 0.5));
                    }
                    self.registry.inc("autonomic/reprior");
                    self.journal.emit(
                        "autonomic",
                        &[("reprior_rate_per_link_day", JVal::F(rate_per_link_day))],
                    );
                }
            }
        }
    }

    // ----- finish -----------------------------------------------------

    fn finish(mut self, horizon: SimTime) -> RunReport {
        // Robot fleet amortization for the whole run.
        let fleet_time = self.cfg.duration.mul_f64(self.fleet.len() as f64);
        self.costs.charge_robot(&self.cfg.costs, fleet_time);
        let availability = self.avail.summarize(horizon, self.topo.link_count());
        self.costs
            .charge_downtime(&self.cfg.costs, availability.down_total);
        let mut service_windows = dcmaint_metrics::DurationSamples::new();
        for t in self.board.all() {
            if t.state == TicketState::Closed && t.trigger.is_reactive() {
                if let Some(w) = t.service_window() {
                    service_windows.record(w);
                }
            }
        }
        let tickets_fixed = self
            .board
            .all()
            .iter()
            .filter(|t| t.state == TicketState::Closed)
            .count() as u64;
        let tickets_spurious = self
            .board
            .all()
            .iter()
            .filter(|t| t.state == TicketState::ClosedSpurious)
            .count() as u64;
        let mean_loss_ewma = {
            let n = self.topo.link_count().max(1);
            self.topo
                .link_ids()
                .map(|l| self.telemetry.counters_ref(l).loss_ewma())
                .sum::<f64>()
                / n as f64
        };
        // Leak audit: anything still held at the horizon must belong to
        // a repair genuinely in flight. A claim or drain owned by
        // nobody is a bug the abort invariant exists to prevent.
        let active_claims: std::collections::BTreeSet<ClaimId> =
            self.active.values().map(|r| r.claim).collect();
        let zone_claims_leaked = self
            .zones
            .open_claim_ids(horizon)
            .into_iter()
            .filter(|id| !active_claims.contains(id))
            .count() as u64;
        let drained_by_active: std::collections::BTreeSet<LinkId> = self
            .active
            .values()
            .filter_map(|r| r.announcement.as_ref())
            .flat_map(|a| a.drained.iter().copied())
            .collect();
        let drains_leaked = self
            .topo
            .link_ids()
            .filter(|&l| {
                !matches!(self.state.link(l).admin, AdminState::InService)
                    && !drained_by_active.contains(&l)
            })
            .count() as u64;
        // Self-profiler: fold the scheduler's lifetime counters into the
        // registry once, at the end — copying per-event would double
        // count across checkpoint/restore boundaries. All three are
        // functions of the deterministic event sequence.
        if self.prof.is_enabled() {
            let sp = self.sched.prof();
            self.registry.add("prof/sched/scheduled", sp.scheduled);
            self.registry
                .add("prof/sched/dropped-horizon", sp.dropped_horizon);
            self.registry.add("prof/sched/max-pending", sp.max_pending);
        }
        // Read before the registry moves into the obs report below.
        let cap_fallbacks = self.registry.counter("dispatch/cap-human");
        // Package the observability capture. `None` when both switches
        // are off, so disabled-mode reports (and anything serialized
        // from them) are unchanged. A profiling-only run carries an
        // empty journal and no traces — just the registry and the
        // profiler's wall spans.
        let obs = if self.cfg.obs.enabled || self.cfg.obs.profiling {
            let (journal_emitted, journal_dropped) = self.journal.counts();
            Some(ObsReport {
                journal: self.journal.lines(),
                journal_emitted,
                journal_dropped,
                traces: self.traces.into_traces(),
                registry: self.registry,
                prof_wall: self.prof.leaves(),
            })
        } else {
            None
        };
        // Twin planner stats: `None` under the plain ladder so existing
        // reports (and their serialized forms) are byte-unchanged.
        let twin = match &self.cfg.twin {
            TwinPolicy::Ladder => None,
            TwinPolicy::TwinGuided(_) => Some(crate::report::TwinReport {
                decisions: self.twin_decisions,
                forks: self.twin_forks,
                committed: self.twin_committed,
                mean_predicted_availability: if self.twin_decisions > 0 {
                    self.twin_pred_avail_sum / self.twin_decisions as f64
                } else {
                    1.0
                },
            }),
        };
        // Autonomic loop stats: `None` when the loop is off, so existing
        // reports (and their serialized forms) are byte-unchanged.
        let autonomic = self.autonomic.as_ref().map(|m| {
            let (posteriors_converged, posteriors_total) = m.convergence();
            crate::report::AutonomicReport {
                ticks: m.ticks(),
                decisions: m.decisions(),
                applied: m.applied(),
                rollbacks: m.rollbacks(),
                fleet_cap: m.fleet_cap() as u64,
                proactive_trigger: m.proactive_trigger() as u64,
                provision_spares: m.provision_spares() as u64,
                posteriors_converged,
                posteriors_total,
                cap_fallbacks,
            }
        });
        RunReport {
            duration: self.cfg.duration,
            ended_at: horizon,
            links: self.topo.link_count(),
            incidents: self.incidents,
            cascade_incidents: self.cascade_incidents,
            cascade_bursts: self.cascade_bursts,
            cascade_bursts_live: self.cascade_bursts_live,
            burst_impact_loss_s: self.burst_impact_loss_s,
            tickets_by_trigger: self.tickets_by_trigger,
            tickets_fixed,
            tickets_spurious,
            service_windows,
            attempts_per_fix: self.attempts_per_fix,
            actions: self.actions,
            availability,
            costs: self.costs,
            tech_time: self.tech_time,
            robot_time: self.fleet.total_busy(),
            robot_ops: self.fleet.total_ops(),
            human_escalations: self.human_escalations,
            campaigns: self.campaigns,
            campaign_links: self.campaign_links,
            prediction: self.prediction,
            drains_deferred: self.drains_deferred,
            drain_capacity_impact: self.drain_capacity_impact,
            campaign_drain_impact: self.campaign_drain_impact,
            mean_loss_ewma,
            op_stalls: self.op_stalls,
            op_aborts_safe: self.op_aborts_safe,
            op_aborts_unsafe: self.op_aborts_unsafe,
            watchdog_fires: self.watchdog_fires,
            robot_retries: self.robot_retries,
            robot_reassigns: self.robot_reassigns,
            robot_recoveries: self.robot_recoveries,
            robot_breakdowns: self.fleet.total_breakdowns(),
            telemetry_dropouts: self.telemetry_dropouts,
            dispatch_msgs_lost: self.dispatch_msgs_lost,
            ports_flagged: self.ports_flagged,
            recovery_queued: self.recovery_queued,
            zone_claims_leaked,
            drains_leaked,
            obs,
            twin,
            autonomic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ScenarioConfig, TopologySpec};
    use maintctl::AutomationLevel;

    fn small(seed: u64, level: AutomationLevel, days: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::at_level(seed, level);
        cfg.topology = TopologySpec::LeafSpine {
            spines: 2,
            leaves: 4,
            servers_per_leaf: 2,
        };
        cfg.duration = SimDuration::from_days(days);
        cfg.poll_period = SimDuration::from_secs(120);
        cfg.faults.mtbi_per_link = SimDuration::from_days(15); // busy fabric
        cfg
    }

    #[test]
    fn l0_run_produces_incidents_and_repairs() {
        let mut r = run(small(1, AutomationLevel::L0, 20));
        assert!(r.incidents > 5, "incidents {}", r.incidents);
        assert!(r.tickets_total() > 0);
        assert!(r.tickets_fixed > 0, "some tickets must close fixed");
        assert!(
            r.median_service_window() > SimDuration::from_mins(30),
            "human repairs take hours+: {}",
            r.median_service_window()
        );
        assert!(r.availability.availability < 1.0);
        assert!(r.availability.availability > 0.5);
        assert!(r.costs.labor > 0.0);
        assert_eq!(r.robot_ops, 0, "no robots at L0");
    }

    #[test]
    fn l3_run_uses_robots_and_is_fast() {
        let mut r = run(small(1, AutomationLevel::L3, 20));
        assert!(r.robot_ops > 0, "robots must execute at L3");
        assert!(
            r.median_service_window() < SimDuration::from_hours(2),
            "robotic repair is minutes-scale: {}",
            r.median_service_window()
        );
    }

    #[test]
    fn service_window_shrinks_with_automation() {
        // The headline claim (C3): L3 service windows are orders of
        // magnitude below L0.
        let mut l0 = run(small(2, AutomationLevel::L0, 20));
        let mut l3 = run(small(2, AutomationLevel::L3, 20));
        let w0 = l0.median_service_window();
        let w3 = l3.median_service_window();
        assert!(
            w3.as_secs_f64() * 5.0 < w0.as_secs_f64(),
            "L0 {w0} vs L3 {w3}"
        );
        // And availability improves.
        assert!(l3.availability.availability >= l0.availability.availability);
    }

    #[test]
    fn deterministic_runs() {
        let a = run(small(7, AutomationLevel::L2, 10));
        let b = run(small(7, AutomationLevel::L2, 10));
        assert_eq!(a.incidents, b.incidents);
        assert_eq!(a.tickets_total(), b.tickets_total());
        assert_eq!(a.tickets_fixed, b.tickets_fixed);
        assert_eq!(a.robot_ops, b.robot_ops);
        assert!((a.availability.availability - b.availability.availability).abs() < 1e-12);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(small(1, AutomationLevel::L0, 10));
        let b = run(small(99, AutomationLevel::L0, 10));
        assert_ne!(
            (a.incidents, a.tickets_total()),
            (b.incidents, b.tickets_total())
        );
    }

    #[test]
    fn multiple_attempts_happen() {
        let r = run(small(3, AutomationLevel::L0, 25));
        // §1: failures frequently require multiple attempts.
        assert!(
            r.mean_attempts() > 1.05,
            "mean attempts {}",
            r.mean_attempts()
        );
        // And reseat is attempted most (first rung).
        let reseats = r.action(RepairAction::Reseat);
        assert!(reseats.attempts > 0);
        for a in [
            RepairAction::ReplaceCable,
            RepairAction::ReplaceSwitchHardware,
        ] {
            assert!(
                r.action(a).attempts <= reseats.attempts,
                "{a:?} attempted more than reseat"
            );
        }
    }

    #[test]
    fn spurious_tickets_exist() {
        // Self-healing incidents + hours-long human queues → false
        // positives at L0.
        let r = run(small(4, AutomationLevel::L0, 25));
        assert!(r.tickets_spurious > 0, "self-healed tickets close spurious");
    }

    #[test]
    fn proactive_campaigns_fire_at_l3() {
        // Needs the full-size baseline fabric: campaign triggers count
        // reseat-fixes per switch, and a 4-link toy spine never crosses
        // the "several links" threshold.
        let mut cfg = ScenarioConfig::at_level(5, AutomationLevel::L3);
        cfg.duration = SimDuration::from_days(30);
        cfg.poll_period = SimDuration::from_secs(300);
        cfg.faults.mtbi_per_link = SimDuration::from_days(8);
        let r = run(cfg);
        assert!(r.campaigns > 0, "campaigns should trigger in 40 busy days");
        assert!(r.campaign_links > 0);
        let proactive = r.tickets_by_trigger.get("proactive").copied().unwrap_or(0);
        assert!(proactive > 0);
    }

    #[test]
    fn cascades_follow_human_touches() {
        let l0 = run(small(6, AutomationLevel::L0, 20));
        let l3 = run(small(6, AutomationLevel::L3, 20));
        // Humans brush far more neighbors than robot grippers — *per
        // physical operation*. (L3 executes many more operations overall
        // because proactive/predictive work is nearly free, so absolute
        // counts are not comparable.)
        let ops = |r: &crate::report::RunReport| {
            r.actions.values().map(|s| s.attempts).sum::<u64>().max(1) as f64
        };
        let rate0 = l0.cascade_bursts as f64 / ops(&l0);
        let rate3 = l3.cascade_bursts as f64 / ops(&l3);
        assert!(
            rate0 > 2.0 * rate3,
            "bursts/op: human {rate0:.2} vs robot {rate3:.2}"
        );
    }

    #[test]
    fn scripted_incident_runs_the_whole_pipeline() {
        // Failure injection: one hard firmware hang at a known time with
        // no organic noise. The pipeline must detect it, ticket it,
        // reseat it (FW hang: 90% reseat efficacy), and close.
        use crate::config::ScriptedIncident;
        let mut cfg = small(42, AutomationLevel::L3, 3);
        cfg.organic_faults = false;
        cfg.controller = Some({
            let mut c = maintctl::ControllerConfig::at_level(AutomationLevel::L3);
            c.proactive = None;
            c.predictive = None;
            c
        });
        cfg.scripted = vec![ScriptedIncident {
            at: SimTime::ZERO + SimDuration::from_hours(5),
            link_index: 0,
            cause: RootCause::FirmwareHang,
        }];
        let mut r = run(cfg);
        assert_eq!(r.incidents, 1);
        assert_eq!(r.tickets_total(), 1);
        assert_eq!(
            r.tickets_by_trigger.get("down").copied().unwrap_or(0),
            1,
            "FW hang manifests hard-down"
        );
        assert_eq!(r.tickets_fixed, 1);
        assert!(r.action(RepairAction::Reseat).attempts >= 1);
        // Detection + robotic repair: the single window is minutes-scale.
        assert!(
            r.median_service_window() < SimDuration::from_hours(1),
            "window {}",
            r.median_service_window()
        );
    }

    #[test]
    fn scripted_multi_incident_fault_injection() {
        use crate::config::ScriptedIncident;
        let mut cfg = small(43, AutomationLevel::L0, 8);
        cfg.organic_faults = false;
        let causes = [
            RootCause::DirtyEndFace,
            RootCause::SwitchPortFault,
            RootCause::DamagedFiber,
        ];
        cfg.scripted = (0..3)
            .map(|i| ScriptedIncident {
                at: SimTime::ZERO + SimDuration::from_hours(2 + i),
                link_index: i as usize * 5,
                cause: causes[i as usize],
            })
            .collect();
        let r = run(cfg);
        // The three scripted incidents, plus any cascades the human
        // repairs themselves seeded (organic faults are off, so every
        // extra incident is attributable to the repairs).
        assert!(r.incidents >= 3);
        assert_eq!(r.incidents - 3, r.cascade_incidents);
        assert!(r.tickets_total() >= 3);
        // Every scripted link eventually recovers (or the run ends with
        // open work — either way, the pipeline made attempts).
        let total_attempts: u64 = r.actions.values().map(|s| s.attempts).sum();
        assert!(total_attempts >= 3);
    }

    #[test]
    fn no_faults_no_tickets() {
        let mut cfg = small(44, AutomationLevel::L3, 5);
        cfg.organic_faults = false;
        cfg.controller = Some({
            let mut c = maintctl::ControllerConfig::at_level(AutomationLevel::L3);
            c.proactive = None;
            c.predictive = None;
            c
        });
        let r = run(cfg);
        assert_eq!(r.incidents, 0);
        assert_eq!(r.tickets_total(), 0);
        assert_eq!(r.availability.availability, 1.0);
        assert_eq!(r.costs.labor, 0.0);
    }

    #[test]
    fn uncoordinated_repairs_skip_drains() {
        let mut cfg = small(45, AutomationLevel::L0, 15);
        cfg.coordinate_drains = false;
        let r = run(cfg);
        assert_eq!(r.drains_deferred, 0, "no planning, nothing defers");
        assert!(r.cascade_bursts_live > 0);
    }

    #[test]
    fn trough_deferral_delays_routine_repairs() {
        use crate::config::ScriptedIncident;
        // A single gray (P2) incident at 18:00 — peak hours. With trough
        // scheduling the dispatch waits for the morning trough.
        let build = |trough: bool| {
            let mut cfg = small(46, AutomationLevel::L4, 3);
            cfg.organic_faults = false;
            cfg.faults.self_heal_prob = 0.0; // keep the incident alive
            let mut ctl = maintctl::ControllerConfig::at_level(AutomationLevel::L4);
            ctl.proactive = None;
            ctl.predictive = None;
            ctl.trough_scheduling = trough;
            cfg.controller = Some(ctl);
            cfg.scripted = vec![ScriptedIncident {
                at: SimTime::ZERO + SimDuration::from_hours(18),
                link_index: 2,
                cause: RootCause::OxidizedContact,
            }];
            cfg
        };
        let mut eager = run(build(false));
        let mut patient = run(build(true));
        // The incident may manifest hard-down (P0, never deferred); only
        // assert when it came up gray in both (same seed → same
        // manifestation).
        if eager.tickets_by_trigger.contains_key("gray")
            || eager.tickets_by_trigger.contains_key("flap")
        {
            let we = eager.median_service_window();
            let wp = patient.median_service_window();
            assert!(
                wp > we + SimDuration::from_hours(4),
                "deferred window {wp} should exceed eager {we} by hours"
            );
        } else {
            // Hard-down: identical behaviour either way.
            assert_eq!(
                eager.median_service_window(),
                patient.median_service_window()
            );
        }
    }

    #[test]
    fn hall_pool_config_is_honored() {
        let mut cfg = small(47, AutomationLevel::L3, 10);
        cfg.robots_per_row = 0;
        cfg.hall_pool = Some(2);
        let r = run(cfg);
        assert!(r.robot_ops > 0, "hall AGVs execute repairs");
        let mut none = small(47, AutomationLevel::L3, 10);
        none.robots_per_row = 0;
        none.hall_pool = Some(0);
        let r0 = run(none);
        assert_eq!(r0.robot_ops, 0, "empty hall pool falls back to humans");
    }

    #[test]
    fn defer_cap_forces_emergency_maintenance() {
        use crate::config::ScriptedIncident;
        // A gray fault on a single-homed server link: its drain always
        // disconnects the server, so the planner defers — but only up to
        // the cap, after which the repair proceeds anyway.
        let mut cfg = small(48, AutomationLevel::L3, 6);
        cfg.organic_faults = false;
        cfg.faults.self_heal_prob = 0.0;
        let mut ctl = maintctl::ControllerConfig::at_level(AutomationLevel::L3);
        ctl.proactive = None;
        ctl.predictive = None;
        cfg.controller = Some(ctl);
        // Find a server access link: use a Degraded-manifesting cause on
        // a DAC (OxidizedContact mostly gray). Link index: server links
        // exist; scripted link 3 may be an uplink — search isn't
        // possible here, so script several links and rely on at least
        // one being single-homed.
        cfg.scripted = (0..6)
            .map(|i| ScriptedIncident {
                at: SimTime::ZERO + SimDuration::from_hours(2),
                link_index: i * 3,
                cause: RootCause::OxidizedContact,
            })
            .collect();
        let r = run(cfg);
        // All tickets eventually close (nothing deferred forever).
        assert_eq!(
            r.tickets_fixed + r.tickets_spurious,
            r.tickets_total(),
            "every ticket resolves despite defer-worthy drains"
        );
    }

    #[test]
    fn l2_supervision_consumes_technician_time_without_walks() {
        let r = run(small(49, AutomationLevel::L2, 15));
        // Supervised robots: tech time accrues (supervision) and robots
        // do physical work.
        assert!(r.robot_ops > 0);
        assert!(r.tech_time > SimDuration::ZERO);
        let supervised: u64 = r.actions.values().map(|s| s.robotic).sum();
        assert!(supervised > 0);
    }

    #[test]
    fn costs_accumulate_sanely() {
        let r = run(small(8, AutomationLevel::L2, 15));
        assert!(r.costs.labor > 0.0, "L2 supervision costs technician time");
        assert!(r.costs.robots > 0.0);
        assert!(r.costs.total() > r.costs.labor);
    }

    // ----- observability plane ---------------------------------------

    fn small_obs(seed: u64, level: AutomationLevel, days: u64) -> ScenarioConfig {
        let mut cfg = small(seed, level, days);
        cfg.obs = dcmaint_obs::ObsConfig::enabled();
        cfg
    }

    #[test]
    fn every_closed_reactive_window_decomposes_exactly() {
        // The tentpole invariant: for every E1-style incident, the sum
        // of depth-0 span durations equals the service window in exact
        // SimTime ticks — no gaps, no overlap, no rounding.
        let mut cfg = small_obs(11, AutomationLevel::L3, 20);
        // Turn the fault model on so stalls/aborts/retries appear in
        // traces too, not just the happy path.
        cfg.robot_faults = dcmaint_faults::RobotFaultConfig::chaos();
        let r = run(cfg);
        let obs = r.obs.as_ref().expect("obs enabled");
        let closed: Vec<_> = obs.closed_reactive_traces().collect();
        assert!(closed.len() > 5, "need real incidents: {}", closed.len());
        for t in &closed {
            assert!(
                t.tiles_exactly(),
                "ticket {} spans must tile the window: sum {} vs window {:?}",
                t.ticket,
                t.depth0_sum(),
                t.window()
            );
        }
        // At least one trace decomposes into multiple states, and the
        // hands-on detail splits out travel + phases somewhere.
        assert!(closed
            .iter()
            .any(|t| t.spans().iter().filter(|s| s.depth == 0).count() >= 3));
        assert!(closed.iter().flat_map(|t| t.spans()).any(|s| s.depth == 1));
        // And the windows the traces report match the ticket board's
        // (the board stores seconds; compare in that unit).
        // (Spurious closes are traced too but never enter the board's
        // service-window stats — compare only genuinely fixed tickets.)
        let mut trace_windows: Vec<f64> = closed
            .iter()
            .filter(|t| !t.spurious)
            .filter_map(|t| t.window())
            .map(|w| w.as_secs_f64())
            .collect();
        trace_windows.sort_by(f64::total_cmp);
        let mut sw = r.service_windows.clone();
        let mut board_windows: Vec<f64> = sw.as_samples().iter().collect();
        board_windows.sort_by(f64::total_cmp);
        assert_eq!(trace_windows, board_windows);
    }

    #[test]
    fn journal_is_byte_identical_across_same_seed_runs() {
        let a = run(small_obs(12, AutomationLevel::L2, 10));
        let b = run(small_obs(12, AutomationLevel::L2, 10));
        let (ja, jb) = (a.obs.unwrap(), b.obs.unwrap());
        assert!(ja.journal_emitted > 0, "journal must see traffic");
        assert_eq!(ja.journal, jb.journal);
        assert_eq!(ja.registry.snapshot_lines(), jb.registry.snapshot_lines());
    }

    #[test]
    fn enabling_obs_does_not_perturb_the_simulation() {
        // Same seed, obs on vs off: every simulated quantity matches —
        // the plane observes, it never draws RNG or schedules events.
        let mut off = run(small(13, AutomationLevel::L3, 15));
        let mut on = run(small_obs(13, AutomationLevel::L3, 15));
        assert!(off.obs.is_none());
        assert!(on.obs.is_some());
        assert_eq!(off.incidents, on.incidents);
        assert_eq!(off.tickets_total(), on.tickets_total());
        assert_eq!(off.tickets_fixed, on.tickets_fixed);
        assert_eq!(off.robot_ops, on.robot_ops);
        assert_eq!(off.median_service_window(), on.median_service_window());
        assert!((off.availability.availability - on.availability.availability).abs() < 1e-15);
        // Their JSON summaries differ only by the "obs" key.
        let mut js_on = on.summary_json();
        if let serde_json::Value::Object(m) = &mut js_on {
            assert!(m.remove("obs").is_some());
        }
        assert_eq!(off.summary_json(), js_on);
    }

    #[test]
    fn journal_records_the_maintenance_story() {
        let mut cfg = small_obs(14, AutomationLevel::L3, 15);
        cfg.robot_faults = dcmaint_faults::RobotFaultConfig::chaos();
        let r = run(cfg);
        let obs = r.obs.as_ref().unwrap();
        let text = obs.journal.join("\n");
        for ev in [
            "\"ev\":\"journal-meta\"",
            "\"ev\":\"incident\"",
            "\"ev\":\"ticket-open\"",
            "\"ev\":\"dispatch\"",
            "\"ev\":\"ticket-attempt\"",
            "\"ev\":\"ticket-close\"",
        ] {
            assert!(text.contains(ev), "journal missing {ev}");
        }
        // Registry counters line up with the report's own tallies.
        assert_eq!(obs.registry.counter("ticket/opened"), r.tickets_total());
        assert_eq!(
            obs.registry.counter("close/fixed"),
            r.tickets_fixed,
            "fixed-close counter matches board"
        );
        assert_eq!(
            obs.registry.counter("watchdog/lost-report") + obs.registry.counter("watchdog/stall"),
            r.watchdog_fires
        );
    }

    // ----- engine self-profiler (DESIGN §3.13) -----------------------

    fn small_prof(seed: u64, level: AutomationLevel, days: u64) -> ScenarioConfig {
        let mut cfg = small(seed, level, days);
        cfg.obs = dcmaint_obs::ObsConfig::profiled();
        cfg
    }

    #[test]
    fn profiling_does_not_perturb_the_simulation() {
        // Same seed, profiling on vs off: every simulated quantity
        // matches — the profiler observes the machinery, it never draws
        // RNG or schedules events.
        let off = run(small(15, AutomationLevel::L3, 15));
        let on = run(small_prof(15, AutomationLevel::L3, 15));
        assert!(off.obs.is_none());
        let obs = on.obs.as_ref().expect("profiled run packages obs");
        assert_eq!(off.incidents, on.incidents);
        assert_eq!(off.tickets_fixed, on.tickets_fixed);
        assert_eq!(off.robot_ops, on.robot_ops);
        assert!((off.availability.availability - on.availability.availability).abs() < 1e-15);
        // Profiling alone keeps the journal and traces off.
        assert_eq!(obs.journal_emitted, 0);
        assert!(obs.journal.is_empty());
        assert!(obs.traces.is_empty());
    }

    #[test]
    fn profiler_counts_are_deterministic_and_consistent() {
        // Run `a` by hand so every dispatched event's attribution can be
        // read off the queue head before it is popped.
        let mut eng = Engine::new(small_prof(16, AutomationLevel::L3, 15));
        let mut attributed: BTreeMap<&'static str, &'static str> = BTreeMap::new();
        while let Some((_, ev)) = eng.sched.peek() {
            let (sub, ev_key, _) = ev.prof_attribution();
            attributed.insert(&ev_key["prof/ev/".len()..], sub);
            eng.step_event();
        }
        // The final drain pop, as `execute` makes it.
        assert!(eng.step_event().is_none());
        let a = eng.finish_report();
        let b = run(small_prof(16, AutomationLevel::L3, 15));
        let (oa, ob) = (a.obs.unwrap(), b.obs.unwrap());
        // Counts (the deterministic half) are byte-identical.
        assert_eq!(oa.registry.snapshot_lines(), ob.registry.snapshot_lines());
        // Per-kind and per-subsystem tallies decompose the same total:
        // every delivered event is attributed exactly once on each axis.
        let counters = oa.registry.counters_sorted();
        let ev_total: u64 = counters
            .iter()
            .filter(|(k, _)| k.starts_with("prof/ev/"))
            .map(|&(_, v)| v)
            .sum();
        let sub_total: u64 = counters
            .iter()
            .filter(|(k, _)| k.starts_with("prof/sub/"))
            .map(|&(_, v)| v)
            .sum();
        assert!(ev_total > 0, "a busy run must deliver events");
        assert_eq!(ev_total, sub_total);
        // Every prof/sub/* key is a sanctioned subsystem name.
        for (k, _) in counters.iter().filter(|(k, _)| k.starts_with("prof/sub/")) {
            let sub = &k["prof/sub/".len()..];
            assert!(
                dcmaint_obs::prof::SUBSYSTEMS.contains(&sub),
                "unsanctioned subsystem {sub}"
            );
        }
        // Scheduler lifetime counters made it into the registry, and
        // delivered events cannot exceed accepted schedules.
        let scheduled = oa.registry.counter("prof/sched/scheduled");
        assert!(
            scheduled >= ev_total,
            "scheduled {scheduled} < delivered {ev_total}"
        );
        assert!(oa.registry.counter("prof/sched/max-pending") > 0);
        // Hot-path site counters fired.
        assert!(oa.registry.counter("prof/dcnet/link-recompute") > 0);
        assert!(oa.registry.counter("prof/tickets/open") > 0);
        assert!(oa.registry.counter("prof/robotics/booking") > 0);
        // The timing half (nondeterministic values; only shape is
        // asserted). Every event-kind leaf sits under the subsystem
        // `prof_attribution` gives it, and — this run has no restore —
        // spans exactly as many events as its `prof/ev/<kind>` count.
        // The only other leaf is the scheduler pop, once per pop
        // including the final drain pop.
        for leaf in &oa.prof_wall {
            match attributed.get(leaf.kind) {
                Some(&sub) => {
                    assert_eq!(leaf.sub, sub, "{} filed under {}", leaf.kind, leaf.sub);
                    let key = format!("prof/ev/{}", leaf.kind);
                    assert_eq!(leaf.spans, oa.registry.counter(&key), "{key}");
                }
                None => assert_eq!((leaf.sub, leaf.kind), ("sched", "pop")),
            }
        }
        let ev_leaves = oa.prof_wall.iter().filter(|l| l.kind != "pop").count();
        assert_eq!(ev_leaves, attributed.len(), "an event kind without a leaf");
        let pops = oa.prof_wall.iter().find(|l| l.kind == "pop").unwrap();
        assert_eq!(pops.spans, ev_total + 1);
        let rows = dcmaint_obs::prof::rows(&oa.prof_wall);
        let pct: f64 = dcmaint_obs::prof::shares(rows.iter().map(|&(s, ns, _)| (s, ns)))
            .iter()
            .map(|&(_, p)| p)
            .sum();
        assert!((pct - 100.0).abs() < 1e-6, "shares sum to {pct}");
    }

    #[test]
    fn profiler_off_leaves_zero_prof_entries() {
        // The zero-overhead contract: an obs-enabled (but unprofiled)
        // run's registry carries no prof/ keys at all.
        let r = run(small_obs(17, AutomationLevel::L3, 10));
        let obs = r.obs.as_ref().unwrap();
        assert!(obs
            .registry
            .counters_sorted()
            .iter()
            .all(|(k, _)| !k.starts_with(dcmaint_obs::prof::PROF_PREFIX)));
        assert!(obs.prof_wall.is_empty());
    }

    // ----- emission audit --------------------------------------------

    /// Why an event kind writes neither a journal line nor a trace
    /// event, or `None` if its handler emits. Exhaustive with the same
    /// two lints denied as `prof_attribution`, so a new variant does
    /// not compile until it is classified here.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn silent_because(ev: &Ev) -> Option<&'static str> {
        match ev {
            Ev::SelfHeal { .. } | Ev::Flap { .. } | Ev::BurstEnd { .. } => {
                Some("changes link state, which the next poll's alert and ticket journal")
            }
            Ev::ProactiveScan => Some("only paces ProactiveOpen items, and those emit"),
            Ev::PredictiveLabel { .. } => Some(
                "label resolution is pure training bookkeeping; its outcome \
                 surfaces in the prediction metrics at finish()",
            ),
            Ev::Fault
            | Ev::LatentManifest { .. }
            | Ev::Poll
            | Ev::Dispatch { .. }
            | Ev::RepairStart { .. }
            | Ev::RepairDone { .. }
            | Ev::VerifyDone { .. }
            | Ev::ProactiveOpen { .. }
            | Ev::PredictiveScan
            | Ev::AutonomicTick
            | Ev::Scripted { .. }
            | Ev::OpStalled { .. }
            | Ev::OpAborted { .. }
            | Ev::WatchdogFired { .. }
            | Ev::RobotRecovered { .. } => None,
        }
    }

    #[test]
    fn every_event_kind_emits_unless_classified_silent() {
        use crate::config::ScriptedIncident;
        // One run that dispatches every kind: L4's proactive and
        // predictive loops, robot chaos (stalls, aborts, watchdogs,
        // breakdowns), the autonomic loop and three scripted incidents.
        let mut cfg = small_obs(12, AutomationLevel::L4, 30);
        cfg.robot_faults = dcmaint_faults::RobotFaultConfig::chaos();
        cfg.autonomic = Some(dcmaint_autonomic::AutonomicConfig::default());
        cfg.scripted = (0..3)
            .map(|i| ScriptedIncident {
                at: SimTime::ZERO + SimDuration::from_hours(2 + i as u64),
                link_index: 3 * i,
                cause: RootCause::OxidizedContact,
            })
            .collect();
        let mut eng = Engine::new(cfg);
        // What the run has written so far: journal lines, then traces,
        // closed traces and spans (every trace write adds a span).
        let written = |eng: &Engine| {
            let traces = eng.traces.all();
            (
                eng.journal.counts().0,
                traces.len(),
                traces.iter().filter(|t| t.closed.is_some()).count(),
                traces.iter().map(|t| t.spans().len()).sum::<usize>(),
            )
        };
        // kind → (silent reason, dispatches, dispatches that wrote).
        let mut kinds: BTreeMap<&'static str, (Option<&'static str>, u64, u64)> = BTreeMap::new();
        let mut before = written(&eng);
        // Read each event off the queue head before it is dispatched.
        while let Some((_, ev)) = eng.sched.peek() {
            let (_, ev_key, _) = ev.prof_attribution();
            let silent = silent_because(ev);
            let kind = kinds
                .entry(&ev_key["prof/ev/".len()..])
                .or_insert((silent, 0, 0));
            eng.step_event();
            let after = written(&eng);
            kind.1 += 1;
            kind.2 += u64::from(after != before);
            before = after;
        }
        assert_eq!(kinds.len(), 20, "kinds dispatched: {:?}", kinds.keys());
        for (kind, &(silent, dispatched, wrote)) in &kinds {
            match silent {
                None => assert!(wrote > 0, "{kind}: {dispatched} dispatches, none emitted"),
                Some(why) => assert_eq!(
                    wrote, 0,
                    "{kind} is classified silent ({why}), yet {wrote} of {dispatched} dispatches emitted"
                ),
            }
        }
    }
}
