//! Checkpoint/restore properties over the public API: the subsystem's
//! core contract — **restore ≡ continuous** — must hold for arbitrary
//! seeds, cut points, and automation levels, not just the examples the
//! unit tests picked. This is the property CI's `ckpt` job gates on.

use proptest::prelude::*;
use selfmaint::ckpt::Snapshot;
use selfmaint::prelude::*;
use selfmaint::scenarios::Engine;

fn small(seed: u64, level: AutomationLevel, obs: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::at_level(seed, level);
    cfg.topology = TopologySpec::LeafSpine {
        spines: 2,
        leaves: 4,
        servers_per_leaf: 2,
    };
    cfg.duration = SimDuration::from_days(10);
    cfg.poll_period = SimDuration::from_secs(120);
    cfg.faults.mtbi_per_link = SimDuration::from_days(12);
    if obs {
        cfg.obs = ObsConfig::enabled();
    }
    cfg
}

fn small_autonomic(seed: u64, level: AutomationLevel, obs: bool) -> ScenarioConfig {
    let mut cfg = small(seed, level, obs);
    // A fast loop so several MAPE-K ticks (and likely a knob move) land
    // on both sides of any cut point — the adaptation state and the
    // monitor's cursor baselines must survive the snapshot.
    cfg.autonomic = Some(selfmaint::autonomic::AutonomicConfig {
        tick_period: SimDuration::from_hours(2),
        fleet_cap_start: 1,
        ..selfmaint::autonomic::AutonomicConfig::default()
    });
    cfg
}

/// Levels that exercise the three interesting regimes: humans only,
/// autonomous robots, and the full proactive/predictive loop.
const LEVELS: [AutomationLevel; 3] = [
    AutomationLevel::L1,
    AutomationLevel::L3,
    AutomationLevel::L4,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cut a run anywhere, snapshot, restore into a fresh engine, and
    /// finish: the restored engine's state hash matches at the cut, the
    /// final state hash matches the uninterrupted run, and so does the
    /// whole report — with the observability plane on, down to every
    /// journal line.
    #[test]
    fn restore_equals_continuous(
        seed in 0u64..10_000,
        cut_days in 1u64..10,
        level_i in 0usize..LEVELS.len(),
        obs_bit in 0u8..2,
    ) {
        let obs = obs_bit == 1;
        let cfg = small(seed, LEVELS[level_i], obs);
        let end = SimTime::ZERO + cfg.duration;

        let mut cont = Engine::new(cfg.clone());
        cont.run_until(end);

        let mut head = Engine::new(cfg.clone());
        head.run_until(SimTime::ZERO + SimDuration::from_days(cut_days));
        let snap = head.snapshot();
        let mut tail = Engine::restore(cfg, &snap).expect("restore");
        prop_assert_eq!(tail.state_hash(), head.state_hash(), "restore is lossless");
        tail.run_until(end);

        prop_assert_eq!(cont.state_hash(), tail.state_hash(), "final states match");
        let mut a = cont.finish_report();
        let mut b = tail.finish_report();
        prop_assert_eq!(a.summary_json(), b.summary_json());
        if obs {
            let ja = &a.obs.as_ref().expect("obs on").journal;
            let jb = &b.obs.as_ref().expect("obs on").journal;
            prop_assert_eq!(ja, jb, "journals must be byte-identical");
        }
    }

    /// The same contract with the MAPE-K loop running: posteriors, EWMA
    /// drift state, tuned knobs, guardrail bookkeeping, the monitor's
    /// cursor baselines, and the loop's RNG position all ride the
    /// snapshot, so a restored run keeps adapting exactly as the
    /// uninterrupted one — down to the adaptation counters in the
    /// summary JSON (and every journal line when obs is on).
    #[test]
    fn restore_equals_continuous_with_autonomic(
        seed in 0u64..10_000,
        cut_days in 1u64..10,
        level_i in 0usize..LEVELS.len(),
        obs_bit in 0u8..2,
    ) {
        let obs = obs_bit == 1;
        let cfg = small_autonomic(seed, LEVELS[level_i], obs);
        let end = SimTime::ZERO + cfg.duration;

        let mut cont = Engine::new(cfg.clone());
        cont.run_until(end);

        let mut head = Engine::new(cfg.clone());
        head.run_until(SimTime::ZERO + SimDuration::from_days(cut_days));
        let snap = head.snapshot();
        let mut tail = Engine::restore(cfg, &snap).expect("restore");
        prop_assert_eq!(tail.state_hash(), head.state_hash(), "restore is lossless");
        tail.run_until(end);

        prop_assert_eq!(cont.state_hash(), tail.state_hash(), "final states match");
        let mut a = cont.finish_report();
        let mut b = tail.finish_report();
        prop_assert_eq!(
            a.autonomic.clone().expect("loop on"),
            b.autonomic.clone().expect("loop on"),
            "adaptation state diverged across the restore"
        );
        prop_assert_eq!(a.summary_json(), b.summary_json());
        if obs {
            let ja = &a.obs.as_ref().expect("obs on").journal;
            let jb = &b.obs.as_ref().expect("obs on").journal;
            prop_assert_eq!(ja, jb, "journals must be byte-identical");
        }
    }

    /// Any single-byte corruption of a snapshot file is detected: the
    /// trailing integrity hash (or the decode it guards) rejects it.
    #[test]
    fn corrupted_snapshots_are_rejected(
        seed in 0u64..10_000,
        flip in 0usize..1_000_000,
    ) {
        let mut eng = Engine::new(small(seed, AutomationLevel::L3, false));
        eng.run_until(SimTime::ZERO + SimDuration::from_days(2));
        let mut bytes = eng.snapshot().to_bytes();
        let i = flip % bytes.len();
        bytes[i] ^= 0x5a;
        prop_assert!(
            Snapshot::from_bytes(&bytes).is_err(),
            "flipping byte {} went undetected",
            i
        );
    }
}

/// Checkpoints of restored engines are as good as first-generation
/// ones: chain restore → advance → snapshot across every 2-day
/// boundary, finish from the last link, and the report still matches
/// the uninterrupted run — journal included.
#[test]
fn chained_restores_equal_continuous() {
    let cfg = small(11, AutomationLevel::L3, true);
    let end = SimTime::ZERO + cfg.duration;
    let mut reference = Engine::new(cfg.clone()).execute();

    let mut snap = Engine::new(cfg.clone()).snapshot();
    let mut t = SimTime::ZERO;
    while t < end {
        t = (t + SimDuration::from_days(2)).min(end);
        let mut eng = Engine::restore(cfg.clone(), &snap).expect("restore mid-chain");
        eng.run_until(t);
        snap = eng.snapshot();
    }
    let mut eng = Engine::restore(cfg, &snap).expect("restore final link");
    while eng.step_event().is_some() {}
    let mut resumed = eng.finish_report();

    assert_eq!(reference.summary_json(), resumed.summary_json());
    assert_eq!(
        reference.obs.as_ref().expect("obs on").journal,
        resumed.obs.as_ref().expect("obs on").journal
    );
}

/// The golden fixture's configuration: a 2×4×2 leaf-spine at L4 with the
/// observability plane, twin-guided planning, the MAPE-K loop and robot
/// faults all on, so every section of the payload carries data.
fn golden_cfg() -> ScenarioConfig {
    let mut cfg = small_autonomic(9, AutomationLevel::L4, true);
    cfg.twin = TwinPolicy::TwinGuided(TwinConfig {
        horizon: SimDuration::from_hours(12),
        ..TwinConfig::default()
    });
    cfg.robot_faults = selfmaint::faults::RobotFaultConfig::chaos();
    cfg
}

/// Byte-for-byte pin of the checkpoint format. `tests/fixtures/golden-v4.ckpt`
/// was written once, by the hand-written codec that preceded the
/// `Persist` trait, as
/// `{ let mut e = Engine::new(golden_cfg()); e.run_until(SimTime::ZERO +
/// SimDuration::from_hours(72)); e.snapshot().to_bytes() }` — at that
/// cut three repairs are in flight, a twin plan is committed, and the
/// loop has ticked. It must never be regenerated: any codec change that
/// moves a byte fails here.
#[test]
fn golden_checkpoint_round_trips_byte_equal() {
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden-v4.ckpt"
    ))
    .expect("golden fixture");
    let snap = Snapshot::from_bytes(&golden).expect("golden fixture parses");
    assert_eq!(snap.version, selfmaint::ckpt::VERSION);
    let eng = Engine::restore(golden_cfg(), &snap).expect("golden fixture restores");
    assert!(
        eng.snapshot().to_bytes() == golden,
        "re-encoding the golden checkpoint moved bytes"
    );
    assert_eq!(
        eng.state_hash().0,
        selfmaint::ckpt::fnv1a64(&snap.payload),
        "state_hash must stay fnv1a64 of the payload"
    );
}

/// A snapshot from a faulty producer: a scheduled event naming a link
/// the topology does not have. The integrity hash is recomputed, so
/// only the decoder's range check stands between the file and an
/// out-of-bounds index mid-run; restore must refuse it cleanly.
#[test]
fn out_of_range_link_id_is_rejected_on_decode() {
    use selfmaint::ckpt::CkptError;

    let cfg = small(7, AutomationLevel::L4, false);
    let mut eng = Engine::new(cfg.clone());
    eng.run_until(SimTime::ZERO + SimDuration::from_days(3));
    let snap = eng.snapshot();
    let mut payload = snap.payload.clone();

    // Walk the scheduler section (clock, seq, delivered, horizon, then
    // `(at, seq, tag, fields)` entries) to the first predictive label.
    let u64_at = |p: &[u8], i: usize| u64::from_le_bytes(p[i..i + 8].try_into().unwrap());
    let entries = u64_at(&payload, 32);
    let mut pos = 40;
    let mut label_link = None;
    for _ in 0..entries {
        let tag = payload[pos + 16];
        pos += 17;
        if tag == 14 {
            label_link = Some(pos);
            break;
        }
        pos += match tag {
            0 | 5 | 10 | 12 | 19 => 0,
            3 | 13 => 9,
            6..=9 | 11 | 18 => 8,
            1 | 2 | 4 | 15..=17 => 16,
            t => panic!("unexpected event tag {t}"),
        };
    }
    let at = label_link.expect("an L4 run schedules predictive labels");
    payload[at..at + 8].copy_from_slice(&1_000_000u64.to_le_bytes());

    let forged = Snapshot::new(snap.config_hash, payload).to_bytes();
    let back = Snapshot::from_bytes(&forged).expect("frame hash recomputed");
    assert_eq!(
        Engine::restore(cfg, &back).err(),
        Some(CkptError::BadTag("link-id", 1_000_000))
    );
}
