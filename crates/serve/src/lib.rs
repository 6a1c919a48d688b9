//! `dcmaint-serve` — the crash-tolerant maintenance-plane daemon behind
//! `selfmaint serve`.
//!
//! The paper's §4 controller is a service, not a batch job: it must
//! accept work from many clients, keep running through worker panics and
//! process kills, and never trade away the determinism contract the rest
//! of this workspace is built on. The daemon earns those properties by
//! construction rather than by heroics:
//!
//! * **Nondeterminism stays at the edge.** The TCP front end is the only
//!   racy component. Every accepted job is appended (and fsynced) to a
//!   durable ingress journal *before* the client sees 202, so the set of
//!   accepted jobs is replayable. The engine side is a single worker
//!   thread consuming that journal in job-id order — the simulator never
//!   observes connection interleavings.
//! * **Panics are contained, crashes are rewound.** The worker runs each
//!   job segment under `catch_unwind` and snapshots engine state every
//!   checkpoint quantum (tmp + rename). A panic or SIGKILL costs at most
//!   one quantum: the supervisor (or the next process) restores the last
//!   snapshot and replays forward, and because snapshots cut at event
//!   boundaries the uninterrupted run also passes through, the final
//!   output is byte-identical (PR 5's restore ≡ continuous contract).
//! * **Misbehaving clients cannot reach the engine.** Subscribers tail a
//!   bounded broadcast ring; a slow or stalled one is evicted when it
//!   lags the ring or blocks past the write timeout. A full queue sheds
//!   load with `503 + Retry-After` instead of buffering unboundedly.
//!
//! The degradation ladder, in order: stream eviction → load shedding →
//! per-job wall-clock timeout (kill the attempt, requeue from the last
//! snapshot, fail deterministically after `max_attempts`) → graceful
//! drain (`POST /v1/shutdown`: snapshot the in-flight job at the next
//! quantum, park it, exit 0) → fail-stop (SIGTERM/SIGKILL: the ingress
//! journal plus the last snapshot make the restart lossless).
//!
//! Endpoints: `POST /v1/jobs` (spec line in the body), `GET
//! /v1/jobs/<id>`, `GET /v1/jobs/<id>/output`, `GET /v1/stream`
//! (live JSONL fan-out), `GET /status`, `GET /metrics`, `POST
//! /v1/shutdown`.

#![warn(missing_docs)]

use dcmaint_des::SimDuration;

pub mod client;
pub mod fanout;
pub mod http;
pub mod lock;
pub mod queue;
pub mod server;
pub mod spec;
pub mod worker;

pub use fanout::{Fanout, Poll};
pub use queue::{Spool, SpoolState};
pub use server::Server;
pub use spec::{Boom, JobKind, JobSpec};
pub use worker::{JobRecord, JobState};

/// Daemon configuration. Everything that shapes *behavior under load*
/// is a knob here; everything that shapes *simulation output* lives in
/// the job spec, so two daemons with different serve configs still
/// produce byte-identical job outputs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port to bind on 127.0.0.1 (0 = pick an ephemeral port).
    pub port: u16,
    /// Spool directory: ingress/done journals, per-job snapshots,
    /// attempt counters, and outputs.
    pub spool: String,
    /// Simulated time between engine snapshots; also the granularity of
    /// shutdown, timeout, and panic-recovery cuts.
    pub checkpoint_every: SimDuration,
    /// Queue depth above which new jobs are shed with 503 + Retry-After.
    pub max_queue: usize,
    /// Attempts per job (first run + retries) before it is failed
    /// deterministically.
    pub max_attempts: u32,
    /// Per-job wall-clock budget per attempt, in milliseconds
    /// (`None` = unlimited). Checked at quantum boundaries.
    pub job_timeout_ms: Option<u64>,
    /// Broadcast ring capacity (lines) for `/v1/stream` subscribers.
    pub ring_capacity: usize,
    /// Socket write timeout for stream subscribers, in milliseconds — a
    /// subscriber that blocks longer is evicted.
    pub write_timeout_ms: u64,
    /// Base pause before restarting a panicked/timed-out attempt, in
    /// milliseconds (grows exponentially per attempt, seeded jitter).
    pub restart_base_ms: u64,
    /// Ceiling on the restart pause, in milliseconds.
    pub restart_cap_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            spool: "serve-spool".to_string(),
            checkpoint_every: SimDuration::from_days(1),
            max_queue: 64,
            max_attempts: 3,
            job_timeout_ms: None,
            ring_capacity: 4096,
            write_timeout_ms: 2000,
            restart_base_ms: 25,
            restart_cap_ms: 1000,
        }
    }
}
