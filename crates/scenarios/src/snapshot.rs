//! Checkpoint/restore for the scenario engine.
//!
//! A snapshot is the *complete* mutable state of a mid-run [`Engine`],
//! canonically encoded: the scheduler's clock and pending queue (with
//! sequence tiebreakers and cancellation tombstones), every component's
//! state, all counters, the observability plane, and the position of
//! every RNG substream. The encoding is deterministic byte-for-byte, so
//! two engines are in the same logical state **iff** their snapshots are
//! byte-equal — which is what makes [`Engine::state_hash`] a meaningful
//! equivalence check and what the divergence bisector builds on.
//!
//! The payload layout is the [`Persist`] definition below: one ordered
//! field list per state type, from which `snapshot`, `fork_bytes`,
//! `state_hash` and every restore path derive (DESIGN §3.11).
//!
//! The contract enforced by `tests/ckpt.rs` and CI: **restore ≡
//! continuous**. Running N days, snapshotting, restoring into a fresh
//! process, and running N more days produces byte-identical reports,
//! journals, and traces to a single uninterrupted 2N-day run.
//!
//! What is deliberately *not* in the payload — the `skip` list:
//!
//! * The topology, service pairs, and component configurations — all
//!   derived deterministically from [`ScenarioConfig`], whose
//!   fingerprint the snapshot header pins ([`Snapshot::require_config`]).
//! * The self-profiler's wall spans ([`dcmaint_obs::Prof`]) —
//!   observational only, never feeds back into the simulation.

use dcmaint_ckpt::{fnv1a64, CkptError, Dec, Enc, Persist, Snapshot, StateHash};
use dcmaint_des::{RngRestore, SimRng, Stream, StreamRestore};

use crate::config::ScenarioConfig;
use crate::engine::{ActiveIncident, ActiveRepair, Engine, Ev, LinkRt};

/// FNV-1a fingerprint of a configuration's `Debug` rendering. Snapshots
/// only load under the exact configuration that produced them.
pub fn config_fingerprint(cfg: &ScenarioConfig) -> u64 {
    fnv1a64(format!("{cfg:?}").as_bytes())
}

// Event tags are part of the format: never renumber without bumping
// `dcmaint_ckpt::VERSION`.
dcmaint_ckpt::persist_enum!(Ev: "event" {
    0 => Fault,
    1 => SelfHeal { link, epoch },
    2 => Flap { link, epoch },
    3 => LatentManifest { link, cause },
    4 => BurstEnd { link, epoch },
    5 => Poll,
    6 => Dispatch { ticket },
    7 => RepairStart { ticket },
    8 => RepairDone { ticket },
    9 => VerifyDone { ticket },
    10 => ProactiveScan,
    11 => ProactiveOpen { link },
    12 => PredictiveScan,
    13 => Scripted { link, cause },
    14 => PredictiveLabel { link, features, flagged, incidents_before },
    15 => OpStalled { ticket, attempt },
    16 => OpAborted { ticket, attempt },
    17 => WatchdogFired { ticket, attempt },
    18 => RobotRecovered { unit },
    19 => AutonomicTick,
});

dcmaint_ckpt::persist!(ActiveIncident {
    cause,
    health,
    loss,
    started,
});

dcmaint_ckpt::persist!(LinkRt {
    incident,
    flap,
    burst_loss,
    epoch,
    last_maintenance,
    pending_latent,
    pending_is_cascade,
});

dcmaint_ckpt::persist!(ActiveRepair {
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
});

// The payload, in order. Format v2 added the scheduler's lifetime
// profile counters, v3 the twin-planner state (`twin_*`), v4 the
// autonomic MAPE-K section (`autonomic`, `autonomic_rng`).
dcmaint_ckpt::persist!(Engine {
    sched,
    state,
    telemetry,
    board,
    controller,
    techs,
    fleet,
    injector,
    links_rt with dcmaint_ckpt::fixed_len,
    active,
    forced_action,
    avail,
    costs,
    zones,
    hazard,
    causes,
    outcomes,
    ops,
    faults_rng,
    recovery_rng,
    attempt_seq,
    recovery_state,
    exclude_unit,
    forced_human,
    recovery_queue,
    incidents,
    cascade_incidents,
    cascade_bursts,
    cascade_bursts_live,
    burst_impact_loss_s,
    tickets_by_trigger,
    actions,
    tech_time,
    human_escalations,
    campaigns,
    campaign_links,
    prediction,
    drains_deferred,
    drain_capacity_impact,
    campaign_drain_impact,
    trough_deferred,
    attempts_per_fix,
    fixed_attempts_by_ticket,
    defer_counts,
    op_stalls,
    op_aborts_safe,
    op_aborts_unsafe,
    watchdog_fires,
    robot_retries,
    robot_reassigns,
    robot_recoveries,
    telemetry_dropouts,
    dispatch_msgs_lost,
    ports_flagged,
    recovery_queued,
    twin_plans,
    twin_planned,
    twin_decisions,
    twin_forks,
    twin_committed,
    twin_pred_avail_sum,
    journal,
    registry,
    traces,
    // Presence must match the config: a snapshot taken with the loop on
    // cannot restore into a config with it off, or vice versa.
    autonomic with dcmaint_ckpt::gated,
    autonomic_rng,
} skip {
    cfg: "pinned by the snapshot header's config fingerprint",
    topo: "built from the config",
    service_pairs: "sampled from the topology and seed at construction",
    prof: "self-profiler; a restored run re-counts from its resume point",
});

/// How a decode reinstates RNG stream positions — the engine-level
/// mirror of [`dcmaint_des::StreamRestore`]:
///
/// * `Replay` — fast-forward each freshly derived stream by its recorded
///   draw count. O(total draws); the disk-checkpoint path.
/// * `Adopt` — clone each stream from the live donor engine, which must
///   sit exactly at the recorded positions. O(1) per stream; the
///   in-memory [`Engine::fork`] path.
/// * `Reseed` — re-derive every stream under a different root at draw 0.
///   O(1) per stream; the twin-branch path, where branches deliberately
///   diverge from the parent's noise while staying fully seeded.
#[derive(Clone, Copy)]
pub(crate) enum RestoreRng<'a> {
    Replay,
    Adopt(&'a Engine),
    Reseed(&'a SimRng),
}

impl Engine {
    /// Capture the engine's complete mutable state as a versioned
    /// snapshot, restorable with [`Engine::restore`] under the same
    /// configuration.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::new(config_fingerprint(&self.cfg), self.fork_bytes())
    }

    /// Canonical state hash over the encoded payload alone (no config
    /// fingerprint): equal hashes ⇔ equal logical engine state. Leaving
    /// the configuration out lets the bisector compare runs under
    /// *different* configurations — the whole point of divergence
    /// hunting.
    pub fn state_hash(&self) -> StateHash {
        StateHash(fnv1a64(&self.fork_bytes()))
    }

    /// Rebuild an engine from a snapshot taken under `cfg`. The engine
    /// is constructed exactly as [`Engine::new`] would, then every piece
    /// of mutable state is overlaid from the payload and every RNG
    /// substream fast-forwarded to its recorded position.
    pub fn restore(cfg: ScenarioConfig, snap: &Snapshot) -> Result<Engine, CkptError> {
        snap.require_config(config_fingerprint(&cfg))?;
        Engine::from_payload(
            cfg,
            &snap.payload,
            RestoreRng::Replay,
            "snapshot-trailing-bytes",
        )
    }

    /// Raw in-memory fork payload: the complete state encoding with no
    /// envelope, version header, or config fingerprint. Feed it to
    /// [`Engine::fork_from_bytes`] / [`Engine::from_fork_bytes_reseeded`]
    /// only — disk checkpoints go through [`Engine::snapshot`].
    pub fn fork_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        self.save(&mut enc);
        enc.into_bytes()
    }

    /// In-memory fork: semantically `snapshot()` + `restore()` under the
    /// same configuration, but skipping the envelope/hash path and
    /// *adopting* the parent's live RNG streams instead of replaying
    /// their recorded draw counts — O(1) per stream instead of
    /// O(draws). The fork is byte-equivalent to the full codec path
    /// (`fork().snapshot() == parent.snapshot()`), pinned by a test.
    pub fn fork(&self) -> Engine {
        let bytes = self.fork_bytes();
        self.fork_from_bytes(&bytes).expect("fork bytes round-trip")
    }

    /// [`Engine::fork`] split in two so callers holding several forks of
    /// one parent (e.g. the twin planner, the bisector's lockstep
    /// replay) encode once and decode many times.
    pub fn fork_from_bytes(&self, bytes: &[u8]) -> Result<Engine, CkptError> {
        Engine::from_payload(
            self.cfg.clone(),
            bytes,
            RestoreRng::Adopt(self),
            "fork-trailing-bytes",
        )
    }

    /// Twin-branch constructor for the *foresight* sample: rebuild an
    /// engine from fork bytes alone, replaying each stream's recorded
    /// draw count so the branch continues on the parent's exact RNG
    /// tape — it rehearses the future the parent will actually live
    /// (perfect-model MPC), without borrowing the parent into the
    /// worker closure. O(draws) fast-forward, paid per branch.
    pub fn from_fork_bytes_replayed(
        cfg: ScenarioConfig,
        bytes: &[u8],
    ) -> Result<Engine, CkptError> {
        Engine::from_payload(cfg, bytes, RestoreRng::Replay, "fork-trailing-bytes")
    }

    /// Twin-branch constructor: rebuild an engine from fork bytes with
    /// every RNG stream re-derived under `branch_root` at draw 0. The
    /// branch deliberately diverges from the parent's noise while
    /// staying fully seeded — the same `branch_root` always yields the
    /// same branch, and the parent consumes zero draws.
    pub fn from_fork_bytes_reseeded(
        cfg: ScenarioConfig,
        bytes: &[u8],
        branch_root: &SimRng,
    ) -> Result<Engine, CkptError> {
        Engine::from_payload(
            cfg,
            bytes,
            RestoreRng::Reseed(branch_root),
            "fork-trailing-bytes",
        )
    }

    /// Bench-harness hook: capture a snapshot under the self-profiler's
    /// `ckpt/encode` wall span, recording deterministic encode count and
    /// payload size as `prof/ckpt/…` registry entries. The increments
    /// land *after* encoding so the snapshot never includes its own
    /// bookkeeping.
    pub fn profiled_snapshot(&mut self) -> Snapshot {
        let t = self.prof.start();
        let snap = self.snapshot();
        self.prof.record("ckpt", "encode", t);
        if self.prof.is_enabled() {
            self.registry.inc("prof/ckpt/encode");
            self.registry
                .add("prof/ckpt/bytes", snap.payload.len() as u64);
        }
        snap
    }

    /// Bench-harness hook: decode `snap` into a throwaway engine under
    /// the `ckpt/decode` wall span. The restored engine is dropped — this
    /// measures decode cost without disturbing the running simulation.
    pub fn profiled_restore(&mut self, snap: &Snapshot) -> Result<(), CkptError> {
        let t = self.prof.start();
        let restored = Engine::restore(self.cfg.clone(), snap)?;
        self.prof.record("ckpt", "decode", t);
        drop(restored);
        if self.prof.is_enabled() {
            self.registry.inc("prof/ckpt/decode");
        }
        Ok(())
    }

    /// The one bytes → engine path: build the engine exactly as
    /// [`Engine::new`] would, position its RNG streams for `rng`, load
    /// the payload over it, and reject trailing bytes under `trailing`.
    /// Every decoded link id is range-checked against the topology.
    fn from_payload(
        cfg: ScenarioConfig,
        bytes: &[u8],
        rng: RestoreRng<'_>,
        trailing: &'static str,
    ) -> Result<Engine, CkptError> {
        let mut eng = Engine::new(cfg);
        let mut dec = Dec::new(bytes).with_link_count(eng.topo.link_count());
        eng.reposition_streams(rng);
        if let RestoreRng::Reseed(_) = rng {
            dec = dec.keep_positions();
        }
        eng.load(&mut dec)?;
        if !dec.is_exhausted() {
            return Err(CkptError::BadTag(trailing, dec.remaining() as u64));
        }
        // The tuned trigger lives in the Mape; the planner was rebuilt
        // from config, so re-mirror the restored value into it.
        let trigger = eng.autonomic.as_ref().map(|m| m.proactive_trigger());
        if let (Some(t), Some(p)) = (trigger, eng.controller.proactive_mut()) {
            p.set_trigger_count(t);
        }
        Ok(eng)
    }

    /// Position every RNG stream for a fork before the payload loads:
    /// adopt the donor's live streams, or re-derive them under the
    /// branch root. `Replay` leaves them for the load to fast-forward.
    fn reposition_streams(&mut self, rng: RestoreRng<'_>) {
        // Components project the engine-level mode onto their own type.
        // The reseed namespaces ("techs"/"fleet"/"faults") must match
        // `build_engine`.
        let (techs, fleet, faults) = match rng {
            RestoreRng::Replay => return,
            RestoreRng::Adopt(e) => (
                RngRestore::Adopt(&e.techs),
                RngRestore::Adopt(&e.fleet),
                RngRestore::Adopt(&e.injector),
            ),
            RestoreRng::Reseed(root) => (
                RngRestore::Reseed(root.child("techs")),
                RngRestore::Reseed(root.child("fleet")),
                RngRestore::Reseed(root.child("faults")),
            ),
        };
        self.techs.reposition_streams(techs);
        self.fleet.reposition_streams(fleet);
        self.injector.reposition_streams(faults);
        // The engine's own streams derive straight from the scenario
        // root, so Reseed re-derives them under the branch root directly.
        let s = |pick: fn(&Engine) -> &Stream| match rng {
            RestoreRng::Replay => StreamRestore::Replay,
            RestoreRng::Adopt(e) => StreamRestore::Adopt(pick(e)),
            RestoreRng::Reseed(root) => StreamRestore::Reseed(root),
        };
        self.hazard.reposition(s(|e| &e.hazard));
        self.causes.reposition(s(|e| &e.causes));
        self.outcomes.reposition(s(|e| &e.outcomes));
        self.ops.reposition(s(|e| &e.ops));
        self.faults_rng.reposition(s(|e| &e.faults_rng));
        self.recovery_rng.reposition(s(|e| &e.recovery_rng));
        self.autonomic_rng.reposition(s(|e| &e.autonomic_rng));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopologySpec;
    use crate::engine::run;
    use dcmaint_des::{SimDuration, SimTime};
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
        cfg.faults.mtbi_per_link = SimDuration::from_days(15);
        cfg
    }

    #[test]
    fn snapshot_roundtrips_to_identical_state() {
        let cfg = small(7, AutomationLevel::L3, 12);
        let mut eng = Engine::new(cfg.clone());
        eng.run_until(SimTime::ZERO + SimDuration::from_days(6));
        let snap = eng.snapshot();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        let restored = Engine::restore(cfg, &back).unwrap();
        assert_eq!(
            restored.snapshot(),
            snap,
            "restore must land in the exact snapshotted state"
        );
        assert_eq!(restored.state_hash(), eng.state_hash());
    }

    #[test]
    fn restore_equals_continuous_summary() {
        for seed in [3, 11] {
            let cfg = small(seed, AutomationLevel::L3, 12);
            let mut full = run(cfg.clone());
            let mut eng = Engine::new(cfg.clone());
            eng.run_until(SimTime::ZERO + SimDuration::from_days(6));
            let snap = eng.snapshot();
            let mut resumed = Engine::restore(cfg, &snap).unwrap();
            while resumed.step_event().is_some() {}
            let mut split = resumed.finish_report();
            assert_eq!(full.summary_json(), split.summary_json(), "seed {seed}");
        }
    }

    #[test]
    fn restore_equals_continuous_with_obs_enabled() {
        let mut cfg = small(5, AutomationLevel::L3, 12);
        cfg.obs.enabled = true;
        let full = run(cfg.clone());
        let mut eng = Engine::new(cfg.clone());
        eng.run_until(SimTime::ZERO + SimDuration::from_days(6));
        let snap = eng.snapshot();
        let mut resumed = Engine::restore(cfg, &snap).unwrap();
        while resumed.step_event().is_some() {}
        let split = resumed.finish_report();
        let (f, s) = (full.obs.as_ref().unwrap(), split.obs.as_ref().unwrap());
        assert_eq!(f.journal, s.journal, "journal must be byte-identical");
        assert_eq!(f.journal_emitted, s.journal_emitted);
        assert_eq!(
            f.registry.snapshot_lines(),
            s.registry.snapshot_lines(),
            "metrics registry must match"
        );
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let cfg = small(1, AutomationLevel::L2, 4);
        let mut eng = Engine::new(cfg.clone());
        eng.run_until(SimTime::ZERO + SimDuration::from_days(2));
        let snap = eng.snapshot();
        let mut other = cfg;
        other.seed = 999;
        assert!(Engine::restore(other, &snap).is_err());
    }

    /// Satellite contract: `fork()` ≡ snapshot + restore, byte-for-byte
    /// — the O(1) stream-adoption shortcut must land in the exact state
    /// the full codec path would, and leave the parent untouched.
    #[test]
    fn fork_is_byte_equivalent_to_the_codec_path() {
        let cfg = small(13, AutomationLevel::L3, 10);
        let mut eng = Engine::new(cfg.clone());
        eng.run_until(SimTime::ZERO + SimDuration::from_days(5));
        let before = eng.snapshot();
        let fork = eng.fork();
        assert_eq!(
            fork.snapshot(),
            before,
            "fork must be byte-equivalent to snapshot+restore"
        );
        assert_eq!(fork.state_hash(), eng.state_hash());
        assert_eq!(
            eng.snapshot(),
            before,
            "forking must not disturb the parent"
        );
        // And the fork *behaves* identically, not just encodes
        // identically: both runs finish byte-equal.
        let restored = Engine::restore(cfg, &before).unwrap();
        let (mut a, mut b, mut c) = (eng, fork, restored);
        while a.step_event().is_some() {}
        while b.step_event().is_some() {}
        while c.step_event().is_some() {}
        let (ha, hb, hc) = (a.state_hash(), b.state_hash(), c.state_hash());
        assert_eq!(ha, hb);
        assert_eq!(ha, hc);
    }

    /// A reseeded branch is a valid engine in the same logical state but
    /// on different noise: state matches everywhere except stream
    /// positions, and it can run to its horizon without issue.
    #[test]
    fn reseeded_fork_runs_and_starts_from_the_same_state() {
        let cfg = small(17, AutomationLevel::L3, 8);
        let mut eng = Engine::new(cfg.clone());
        eng.run_until(SimTime::ZERO + SimDuration::from_days(4));
        let bytes = eng.fork_bytes();
        let root = SimRng::root(cfg.seed).child("twin").child("0");
        let mut branch = Engine::from_fork_bytes_reseeded(cfg, &bytes, &root).unwrap();
        assert_eq!(branch.now(), eng.now());
        // Same branch root twice → byte-identical branches.
        let branch2 = Engine::from_fork_bytes_reseeded(branch.cfg.clone(), &bytes, &root).unwrap();
        assert_eq!(branch.state_hash(), branch2.state_hash());
        branch.run_until(SimTime::ZERO + SimDuration::from_days(6));
        assert!(branch.now() >= SimTime::ZERO + SimDuration::from_days(4));
    }
}
