//! Digital-twin planner properties over the public API (DESIGN §3.14).
//!
//! Three contracts of the twin planner:
//!
//! 1. **Fork-evaluate-discard is free**: forking the engine, running the
//!    branch ahead, and dropping it leaves the parent byte-identical —
//!    state hash, journal, registry, everything.
//! 2. **Twin-on runs are deterministic**: same seed → byte-identical
//!    summary, and `--jobs 1` ≡ `--jobs N` (branch scores merge in
//!    canonical candidate order regardless of worker scheduling).
//! 3. **Restore ≡ continuous holds with the planner on**: the planner's
//!    own state (committed plans, decision counter) checkpoints.

use proptest::prelude::*;
use selfmaint::des::SimRng;
use selfmaint::prelude::*;
use selfmaint::scenarios::Engine;

fn small(seed: u64, level: AutomationLevel) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::at_level(seed, level);
    cfg.topology = TopologySpec::LeafSpine {
        spines: 2,
        leaves: 4,
        servers_per_leaf: 2,
    };
    cfg.duration = SimDuration::from_days(6);
    cfg.poll_period = SimDuration::from_secs(120);
    cfg.faults.mtbi_per_link = SimDuration::from_days(10);
    cfg
}

fn twin_cfg(jobs: usize) -> TwinPolicy {
    TwinPolicy::TwinGuided(TwinConfig {
        horizon: SimDuration::from_hours(12),
        jobs,
        ..TwinConfig::default()
    })
}

/// Levels spanning humans-only and autonomous-robot regimes.
const LEVELS: [AutomationLevel; 2] = [AutomationLevel::L1, AutomationLevel::L3];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fork a mid-run engine, rehearse a reseeded branch ahead, discard
    /// it: the parent must be byte-identical before and after — and the
    /// continued parent must finish exactly like an undisturbed run.
    #[test]
    fn fork_evaluate_discard_leaves_parent_byte_identical(
        seed in 0u64..10_000,
        cut_days in 1u64..6,
        level_i in 0usize..LEVELS.len(),
        obs_bit in 0u8..2,
    ) {
        let mut cfg = small(seed, LEVELS[level_i]);
        if obs_bit == 1 {
            cfg.obs = ObsConfig::enabled();
        }
        let end = SimTime::ZERO + cfg.duration;

        let mut undisturbed = Engine::new(cfg.clone());
        undisturbed.run_until(end);

        let mut parent = Engine::new(cfg.clone());
        parent.run_until(SimTime::ZERO + SimDuration::from_days(cut_days));
        let before = parent.state_hash();

        // Evaluate-and-discard: an adopted fork and a reseeded branch.
        let fork = parent.fork();
        prop_assert_eq!(fork.state_hash(), before);
        drop(fork);
        let bytes = parent.fork_bytes();
        let root = SimRng::root(cfg.seed).child("twin").child("prop");
        let mut branch = Engine::from_fork_bytes_reseeded(cfg, &bytes, &root).unwrap();
        branch.run_until(end);
        drop(branch);

        prop_assert_eq!(parent.state_hash(), before, "parent disturbed by forking");
        parent.run_until(end);
        prop_assert_eq!(
            parent.state_hash(),
            undisturbed.state_hash(),
            "continued parent diverged from the undisturbed run"
        );
    }
}

/// Same seed, twin planning on → byte-identical reports across reruns.
#[test]
fn twin_runs_are_deterministic() {
    let mut cfg = small(42, AutomationLevel::L3);
    cfg.obs = ObsConfig::enabled();
    cfg.twin = twin_cfg(1);
    let mut a = selfmaint::scenarios::run(cfg.clone());
    let mut b = selfmaint::scenarios::run(cfg);
    let (ja, jb) = (a.summary_json(), b.summary_json());
    assert_eq!(ja, jb, "twin-on rerun diverged");
    let (oa, ob) = (a.obs.as_ref().unwrap(), b.obs.as_ref().unwrap());
    assert_eq!(oa.journal, ob.journal, "journal lines diverged");
    let ta = a.twin.as_ref().expect("twin stats present");
    assert!(ta.decisions > 0, "planner must actually run");
    assert!(ta.forks >= ta.decisions);
}

/// `jobs: 1` ≡ `jobs: 4`: worker scheduling of branch fan-out must not
/// leak into the committed decisions (canonical merge identity).
#[test]
fn twin_branch_merge_is_jobs_invariant() {
    let mut one = small(7, AutomationLevel::L3);
    one.obs = ObsConfig::enabled();
    let mut four = one.clone();
    one.twin = twin_cfg(1);
    four.twin = twin_cfg(4);
    let mut a = selfmaint::scenarios::run(one);
    let mut b = selfmaint::scenarios::run(four);
    assert_eq!(
        a.summary_json(),
        b.summary_json(),
        "jobs=1 vs jobs=4 diverged"
    );
    assert_eq!(
        a.obs.as_ref().unwrap().journal,
        b.obs.as_ref().unwrap().journal
    );
}

/// Restore ≡ continuous with the planner on: the twin section of the
/// checkpoint (plans, planned set, decision counter) must reposition the
/// planner exactly, so a resumed run forks the same branches under the
/// same derived seeds.
#[test]
fn twin_restore_equals_continuous() {
    let mut cfg = small(11, AutomationLevel::L3);
    cfg.twin = twin_cfg(1);
    let end = SimTime::ZERO + cfg.duration;

    let mut cont = Engine::new(cfg.clone());
    cont.run_until(end);

    let mut head = Engine::new(cfg.clone());
    head.run_until(SimTime::ZERO + SimDuration::from_days(3));
    let snap = head.snapshot();
    let mut tail = Engine::restore(cfg, &snap).expect("restore under twin policy");
    tail.run_until(end);

    assert_eq!(
        tail.state_hash(),
        cont.state_hash(),
        "restore ≡ continuous must hold with twin planning on"
    );
}
