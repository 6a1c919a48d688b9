//! Sweep orchestration: replicated experiments on the work-stealing pool.
//!
//! Two front doors, both built on `dcmaint-sweep`:
//!
//! * [`run_experiment_sweep`] — the `selfmaint experiments` engine. Fans
//!   (experiment × seed-replicate) jobs across the pool, then folds each
//!   experiment's K replicate tables into one mean ±95% CI table with
//!   [`Table::fold`]. With `--seeds 1` the fold is the identity, so the
//!   legacy single-seed output is reproduced byte-for-byte.
//! * [`run_engine_sweep`] — the `selfmaint sweep` subcommand's engine.
//!   Fans (automation level × seed-replicate) full engine runs, extracts
//!   the [`SweepMetrics`] vector per job, and folds each level's
//!   replicates with [`Cell::fold_row`] into one row of E1's columns
//!   ([`e1::cells`]). Observability merges too: replicate registries
//!   fold via `ObsRegistry::merge` and journals concatenate in canonical
//!   job order under `sweep-job` header lines.
//!
//! Both sweeps therefore fold typed cells the one way `dcmaint_metrics`
//! defines: the value of a cell, not its rounded text, becomes the mean
//! ±95% CI.
//!
//! The determinism contract is inherited from the pool: jobs share
//! nothing, completions are merged back to plan order before anything
//! renders, so stdout and journal bytes are identical for `--jobs 1`
//! and `--jobs N`. A panicking job (including one injected with
//! [`EngineSweepParams::inject_panic`]) surfaces as a [`SweepFailure`]
//! row, never a hang.

use dcmaint_des::SimDuration;
use dcmaint_metrics::{Align, Cell, Table};
use dcmaint_obs::{ObsConfig, ObsRegistry};
use dcmaint_sweep::{derive_seed, run_jobs, JobResult};
use maintctl::AutomationLevel;

use crate::config::ScenarioConfig;
use crate::engine::run;
use crate::experiments::{
    ablations as ab, e1, e10, e11, e12, e13, e14, e15, e16, e2, e3, e4, e5, e6, e7, e8, e9,
};
use crate::report::SweepMetrics;

/// Canonical experiment order — the order the legacy binary printed in.
pub const EXPERIMENTS: [&str; 19] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "a1", "a2", "a3",
];

/// Is `name` a known experiment id?
pub fn is_experiment(name: &str) -> bool {
    EXPERIMENTS.contains(&name)
}

/// One failed sweep job: which experiment (or level), which replicate,
/// under which derived seed, and the contained panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFailure {
    /// Experiment id (`e4`) or automation-level label (`L3`).
    pub label: String,
    /// Replicate index within the label.
    pub replicate: u64,
    /// Derived root seed the job ran under.
    pub seed: u64,
    /// Panic or aggregation error message.
    pub message: String,
}

/// Render a failure list as a table (empty table when there are none —
/// callers usually skip emitting it then).
pub fn failures_table(failures: &[SweepFailure]) -> Table {
    let mut t = Table::new(
        "sweep failures",
        &[
            ("job", Align::Left),
            ("replicate", Align::Right),
            ("seed", Align::Right),
            ("error", Align::Left),
        ],
    );
    for f in failures {
        t.row(vec![
            f.label.clone(),
            f.replicate.to_string(),
            f.seed.to_string(),
            f.message.clone(),
        ]);
    }
    t
}

/// Run one experiment end to end at one seed, returning its rendered
/// tables (E11 yields two; everything else one). E5's provisioning math
/// is seed-free. `quick` switches only E14, E15 and E16 to their
/// CI-sized presets; the other 16 always run full size, so
/// `selfmaint experiments --quick` prints the full-size tables
/// EXPERIMENTS.md publishes next to quick E14–E16.
///
/// Panics on an unknown name — callers validate with [`is_experiment`]
/// first (and the pool would contain the panic anyway).
pub fn run_one(name: &str, seed: u64, quick: bool) -> Vec<Table> {
    match name {
        "e1" => vec![e1::table(&e1::run_experiment(&e1::E1Params::full(seed)))],
        "e2" => vec![e2::table(&e2::run_experiment(&e2::E2Params::full(seed)))],
        "e3" => vec![e3::table(&e3::run_experiment(&e3::E3Params::full(seed)))],
        "e4" => vec![e4::table(&e4::run_experiment(&e4::E4Params::full(seed)))],
        "e5" => vec![e5::table(&e5::run_experiment(&e5::E5Params::standard()))],
        "e6" => vec![e6::table(&e6::run_experiment(&e6::E6Params::full(seed)))],
        "e7" => vec![e7::table(&e7::run_experiment(&e7::E7Params::full(seed)))],
        "e8" => vec![e8::table(&e8::run_experiment(&e8::E8Params::full(seed)))],
        "e9" => vec![e9::table(&e9::run_experiment(&e9::E9Params::full(seed)))],
        "e10" => vec![e10::table(&e10::run_experiment(&e10::E10Params::full(
            seed,
        )))],
        "e11" => vec![
            e11::table(&e11::run_experiment(&e11::E11Params::full(seed))),
            e11::weights_table(),
        ],
        "e12" => vec![e12::table(&e12::run_experiment(&e12::E12Params::full(
            seed,
        )))],
        "e13" => vec![e13::table(&e13::run_experiment(&e13::E13Params::full(
            seed,
        )))],
        "e14" => {
            let p = if quick {
                e14::E14Params::quick(seed)
            } else {
                e14::E14Params::full(seed)
            };
            vec![e14::table(&e14::run_experiment(&p))]
        }
        "e15" => {
            let p = if quick {
                e15::E15Params::quick(seed)
            } else {
                e15::E15Params::full(seed)
            };
            vec![e15::table(&e15::run_experiment(&p))]
        }
        "e16" => {
            let p = if quick {
                e16::E16Params::quick(&[seed])
            } else {
                e16::E16Params::full(&[seed])
            };
            vec![e16::table(&e16::run_experiment(&p))]
        }
        "a1" => vec![ab::a1_table(&ab::run_a1(&ab::AblationParams::full(seed)))],
        "a2" => vec![ab::a2_table(&ab::run_a2(&ab::AblationParams::full(seed)))],
        "a3" => vec![ab::a3_table(&ab::run_a3(&ab::AblationParams::full(seed)))],
        other => panic!("unknown experiment {other:?}"),
    }
}

/// Result of [`run_experiment_sweep`]: tables in canonical experiment
/// order (aggregated across replicates when `seeds > 1`), plus every
/// failed job.
#[derive(Debug)]
pub struct ExperimentSweep {
    /// Output tables, canonical order.
    pub tables: Vec<Table>,
    /// Failed jobs / aggregations, canonical order.
    pub failures: Vec<SweepFailure>,
}

/// Fan (experiment × replicate) jobs across the pool and fold each
/// experiment's replicates into mean ±95% CI tables.
///
/// `picks` filters by experiment id (empty = all) but never reorders:
/// output follows [`EXPERIMENTS`]. `seeds == 1` reproduces the legacy
/// single-seed tables byte-for-byte; output bytes are independent of
/// `jobs`.
pub fn run_experiment_sweep(
    picks: &[&str],
    base_seed: u64,
    seeds: u64,
    jobs: usize,
    quick: bool,
) -> ExperimentSweep {
    let selected: Vec<&'static str> = EXPERIMENTS
        .iter()
        .copied()
        .filter(|n| picks.is_empty() || picks.contains(n))
        .collect();
    let seeds = seeds.max(1);

    let mut plan: Vec<Box<dyn FnOnce() -> Vec<Table> + Send>> = Vec::new();
    for &name in &selected {
        for k in 0..seeds {
            let seed = derive_seed(base_seed, name, k);
            plan.push(Box::new(move || run_one(name, seed, quick)));
        }
    }
    let results = run_jobs(plan, jobs);

    let mut tables = Vec::new();
    let mut failures = Vec::new();
    for (i, &name) in selected.iter().enumerate() {
        let mut ok: Vec<Vec<Table>> = Vec::new();
        for k in 0..seeds {
            match &results[i * seeds as usize + k as usize] {
                Ok(t) => ok.push(t.clone()),
                Err(e) => failures.push(SweepFailure {
                    label: name.to_string(),
                    replicate: k,
                    seed: derive_seed(base_seed, name, k),
                    message: e.message.clone(),
                }),
            }
        }
        // No survivor yields no table; the failures rows tell the story.
        for j in 0..ok.first().map_or(0, Vec::len) {
            let position: Vec<Table> = ok.iter().map(|ts| ts[j].clone()).collect();
            match Table::fold(&position) {
                Ok(t) => tables.push(t),
                Err(e) => failures.push(SweepFailure {
                    label: name.to_string(),
                    replicate: 0,
                    seed: base_seed,
                    message: format!("aggregation failed: {e}"),
                }),
            }
        }
    }
    ExperimentSweep { tables, failures }
}

/// Parameters for [`run_engine_sweep`] (`selfmaint sweep`).
#[derive(Debug, Clone)]
pub struct EngineSweepParams {
    /// Base seed; replicate k of level L runs under
    /// `derive_seed(base, L.label(), k)`.
    pub base_seed: u64,
    /// Seed replicates per level (≥ 1).
    pub seeds: u64,
    /// Worker cap for the pool.
    pub jobs: usize,
    /// Simulated days per run.
    pub days: u64,
    /// Levels to sweep, in output order.
    pub levels: Vec<AutomationLevel>,
    /// Use the small CI fabric (E1-quick shape) instead of the baseline.
    pub small_fabric: bool,
    /// Capture and merge the observability plane.
    pub obs: bool,
    /// Run every job with the engine self-profiler on and merge the
    /// per-job `prof/…` registries into one fleet profile. Independent
    /// of `obs` — it adds no journal lines.
    pub profiling: bool,
    /// Run every job with the MAPE-K autonomic loop on (default
    /// config). The loop's own RNG stream and the pool's plan-order
    /// merge keep output bytes independent of `jobs` — the exact-A/B
    /// contract `selfmaint sweep --autonomic` is gated on in CI.
    pub autonomic: bool,
    /// Test hook: make plan job #i panic instead of running, to
    /// demonstrate (and test) panic containment end to end.
    pub inject_panic: Option<usize>,
    /// Directory for per-job checkpoint files (`job-NNNN.bin`). Each
    /// completed job persists its result here, so a killed sweep can be
    /// resumed without redoing finished work.
    pub manifest: Option<String>,
    /// Resume from `manifest`: jobs whose checkpoint file loads (and
    /// matches the job's configuration fingerprint) are taken from disk;
    /// only the rest run.
    pub resume: bool,
}

impl EngineSweepParams {
    /// Defaults matching `selfmaint sweep` with no flags.
    pub fn new(base_seed: u64) -> Self {
        EngineSweepParams {
            base_seed,
            seeds: 8,
            jobs: 1,
            days: 14,
            levels: AutomationLevel::ALL.to_vec(),
            small_fabric: false,
            obs: false,
            profiling: false,
            autonomic: false,
            inject_panic: None,
            manifest: None,
            resume: false,
        }
    }
}

/// What one engine-sweep job brings home.
struct EngineJobOut {
    metrics: SweepMetrics,
    journal: Vec<String>,
    registry: ObsRegistry,
}

dcmaint_ckpt::persist!(EngineJobOut {
    metrics,
    journal,
    registry,
});

/// Path of one job's checkpoint file inside a manifest directory.
fn job_path(dir: &str, index: usize) -> std::path::PathBuf {
    std::path::Path::new(dir).join(format!("job-{index:04}.bin"))
}

/// Persist one finished job under the manifest. Written via temp file +
/// rename so a kill mid-write leaves no half-file; the checkpoint
/// container's integrity hash catches anything that slips through.
fn save_job(path: &std::path::Path, config_fp: u64, out: &EngineJobOut) {
    let mut enc = dcmaint_ckpt::Enc::new();
    dcmaint_ckpt::Persist::save(out, &mut enc);
    let bytes = dcmaint_ckpt::Snapshot::new(config_fp, enc.into_bytes()).to_bytes();
    let tmp = path.with_extension("tmp");
    if std::fs::write(&tmp, &bytes).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

/// Load one job checkpoint, verifying integrity and that it was produced
/// by exactly this job configuration. Any failure means "not done".
fn load_job(path: &std::path::Path, config_fp: u64) -> Option<EngineJobOut> {
    let bytes = std::fs::read(path).ok()?;
    let snap = dcmaint_ckpt::Snapshot::from_bytes(&bytes).ok()?;
    snap.require_config(config_fp).ok()?;
    let mut dec = dcmaint_ckpt::Dec::new(&snap.payload);
    let out: EngineJobOut = dcmaint_ckpt::Decode::decode(&mut dec).ok()?;
    dec.is_exhausted().then_some(out)
}

/// Pre-flight a manifest directory for `--resume`: every `job-*.bin`
/// present must be a structurally sound snapshot container (magic,
/// version, integrity hash). Returns how many checkpoint files were
/// verified, or a diagnostic naming the first bad file.
///
/// A *corrupt* file is a hard error — silently re-running the job would
/// mask disk trouble and quietly discard work the operator believes is
/// done. A checkpoint for a *different configuration* is not checked
/// here: [`run_engine_sweep`] detects the fingerprint mismatch per job
/// and re-runs it, which is the right call when the operator changed a
/// parameter between attempts.
pub fn verify_manifest(dir: &str) -> Result<usize, String> {
    let rd = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read sweep manifest directory {dir}: {e}"))?;
    let mut names: Vec<String> = rd
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("job-") && n.ends_with(".bin"))
        .collect();
    names.sort();
    for name in &names {
        let path = std::path::Path::new(dir).join(name);
        let shown = path.display();
        let bytes = std::fs::read(&path)
            .map_err(|e| format!("cannot read sweep checkpoint {shown}: {e}"))?;
        dcmaint_ckpt::Snapshot::from_bytes(&bytes).map_err(|e| {
            format!(
                "corrupt sweep checkpoint {shown}: {e}\n\
                 (delete the file to redo that job, or rerun without --resume \
                 to redo the whole sweep)"
            )
        })?;
    }
    Ok(names.len())
}

/// Result of [`run_engine_sweep`].
#[derive(Debug)]
pub struct EngineSweepOutcome {
    /// Level × metric table, CI columns when `seeds > 1`.
    pub table: Table,
    /// Failed jobs, canonical order.
    pub failures: Vec<SweepFailure>,
    /// Merged observability registry (when `obs` or `profiling` was
    /// on): per-job registries folded with [`ObsRegistry::merge`].
    pub registry: Option<ObsRegistry>,
    /// Concatenated journals in canonical job order, each replicate
    /// prefixed by a `{"ev":"sweep-job",…}` header line (when `obs`).
    pub journal: Vec<String>,
}

fn engine_config(p: &EngineSweepParams, level: AutomationLevel, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::at_level(seed, level);
    cfg.duration = SimDuration::from_days(p.days);
    if p.small_fabric {
        cfg.apply_quick_fabric();
    }
    if p.obs {
        cfg.obs = ObsConfig::enabled();
    }
    if p.profiling {
        cfg.obs.profiling = true;
    }
    if p.autonomic {
        cfg.autonomic = Some(dcmaint_autonomic::AutonomicConfig::default());
    }
    cfg
}

/// Fan (level × replicate) engine runs across the pool, extract the
/// sweep metric vector from each, and merge everything — table rows,
/// registries, journals — in canonical plan order.
pub fn run_engine_sweep(p: &EngineSweepParams) -> EngineSweepOutcome {
    let seeds = p.seeds.max(1);
    if let Some(dir) = &p.manifest {
        std::fs::create_dir_all(dir).expect("create sweep manifest directory");
    }
    // Lay out the full plan, then split it into jobs already completed
    // under the manifest (loaded from disk) and jobs that must run.
    let mut merged: Vec<Option<JobResult<EngineJobOut>>> = Vec::new();
    let mut plan: Vec<Box<dyn FnOnce() -> EngineJobOut + Send>> = Vec::new();
    let mut plan_slots: Vec<usize> = Vec::new();
    for &level in &p.levels {
        for k in 0..seeds {
            let seed = derive_seed(p.base_seed, level.label(), k);
            let cfg = engine_config(p, level, seed);
            let config_fp = crate::snapshot::config_fingerprint(&cfg);
            let index = merged.len();
            let path = p.manifest.as_deref().map(|d| job_path(d, index));
            if p.resume {
                if let Some(out) = path.as_deref().and_then(|pp| load_job(pp, config_fp)) {
                    merged.push(Some(Ok(out)));
                    continue;
                }
            }
            merged.push(None);
            plan_slots.push(index);
            let boom = p.inject_panic == Some(index);
            plan.push(Box::new(move || {
                if boom {
                    panic!("injected sweep panic (plan job #{index})");
                }
                let mut report = run(cfg);
                let metrics = report.sweep_metrics();
                let (journal, registry) = match report.obs.take() {
                    Some(obs) => (obs.journal, obs.registry),
                    None => (Vec::new(), ObsRegistry::disabled()),
                };
                let out = EngineJobOut {
                    metrics,
                    journal,
                    registry,
                };
                if let Some(path) = &path {
                    save_job(path, config_fp, &out);
                }
                out
            }));
        }
    }
    for (slot, r) in plan_slots.into_iter().zip(run_jobs(plan, p.jobs)) {
        merged[slot] = Some(r);
    }
    let results: Vec<JobResult<EngineJobOut>> = merged
        .into_iter()
        .map(|r| r.expect("every plan slot resolved"))
        .collect();

    let mut table = Table::new(
        &format!(
            "engine sweep — {} days, {} seed{} per level (base seed {})",
            p.days,
            seeds,
            if seeds == 1 { "" } else { "s" },
            p.base_seed
        ),
        &e1::COLUMNS,
    );
    let mut failures = Vec::new();
    let mut registry = if p.obs || p.profiling {
        ObsRegistry::enabled()
    } else {
        ObsRegistry::disabled()
    };
    let mut journal = Vec::new();

    for (li, &level) in p.levels.iter().enumerate() {
        let mut replicates: Vec<Vec<Cell>> = Vec::new();
        for k in 0..seeds {
            let seed = derive_seed(p.base_seed, level.label(), k);
            match &results[li * seeds as usize + k as usize] {
                Ok(out) => {
                    if p.obs {
                        journal.push(format!(
                            "{{\"ev\":\"sweep-job\",\"level\":\"{}\",\
                             \"replicate\":{k},\"seed\":{seed}}}",
                            level.label()
                        ));
                        journal.extend(out.journal.iter().cloned());
                    }
                    if p.obs || p.profiling {
                        registry.merge(&out.registry);
                    }
                    replicates.push(e1::cells(level, &out.metrics));
                }
                Err(e) => failures.push(SweepFailure {
                    label: level.label().to_string(),
                    replicate: k,
                    seed,
                    message: e.message.clone(),
                }),
            }
        }
        if replicates.is_empty() {
            // Every replicate failed; the failures table tells the story.
            let mut row = vec![Cell::from("-"); e1::COLUMNS.len()];
            row[0] = level.label().into();
            table.row(row);
            continue;
        }
        table.row(Cell::fold_row(&replicates));
    }

    // Registry snapshot lines close the merged journal, mirroring how a
    // single run's journal dump ends with its registry snapshot.
    if p.obs {
        journal.extend(registry.snapshot_lines());
    }
    EngineSweepOutcome {
        table,
        failures,
        registry: if p.obs || p.profiling {
            Some(registry)
        } else {
            None
        },
        journal,
    }
}

/// Convenience used by tests: a tiny, deterministic fingerprint of an
/// outcome (table bytes + journal line count + failure count) for
/// byte-identity comparisons across worker counts.
pub fn outcome_fingerprint(o: &EngineSweepOutcome) -> String {
    let mut s = o.table.render();
    s.push_str(&format!(
        "journal_lines={} failures={}\n",
        o.journal.len(),
        o.failures.len()
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params(seeds: u64, jobs: usize) -> EngineSweepParams {
        EngineSweepParams {
            base_seed: 42,
            seeds,
            jobs,
            days: 5,
            levels: vec![AutomationLevel::L0, AutomationLevel::L3],
            small_fabric: true,
            obs: false,
            profiling: false,
            autonomic: false,
            inject_panic: None,
            manifest: None,
            resume: false,
        }
    }

    #[test]
    fn engine_sweep_autonomic_is_byte_identical_across_worker_counts() {
        // The exact-A/B contract for `--autonomic`: the loop's own RNG
        // stream and the plan-order merge keep bytes independent of the
        // worker count, so `--jobs 1` vs `--jobs N` diffs clean in CI.
        let mut p = quick_params(2, 1);
        p.autonomic = true;
        let a = run_engine_sweep(&p);
        p.jobs = 4;
        let b = run_engine_sweep(&p);
        assert_eq!(outcome_fingerprint(&a), outcome_fingerprint(&b));
        assert_eq!(a.table.render(), b.table.render());
        assert!(a.failures.is_empty());
    }

    #[test]
    fn merged_profile_is_byte_identical_across_worker_counts() {
        // The self-profiler's determinism contract under the pool: the
        // merged `prof/…` registry is a pure fold of per-job counts, so
        // worker scheduling cannot leak into it.
        let mut p1 = quick_params(2, 1);
        p1.profiling = true;
        let mut p4 = p1.clone();
        p4.jobs = 4;
        let a = run_engine_sweep(&p1);
        let b = run_engine_sweep(&p4);
        let (ra, rb) = (a.registry.unwrap(), b.registry.unwrap());
        assert_eq!(ra.snapshot_lines(), rb.snapshot_lines());
        assert!(ra.counter("prof/sched/scheduled") > 0);
        // Profiling alone adds no journal lines (that is `obs`'s job).
        assert!(a.journal.is_empty());
    }

    #[test]
    fn killed_sweep_resumes_from_manifest_byte_identically() {
        let dir =
            std::env::temp_dir().join(format!("dcmaint-sweep-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut p = quick_params(2, 2);
        p.obs = true;
        // Uninterrupted reference run (no manifest involved).
        let reference = run_engine_sweep(&p);

        // First attempt: job #1 panics (stand-in for a killed sweep);
        // the other three complete and persist under the manifest.
        let mut broken = p.clone();
        broken.manifest = Some(dir.to_string_lossy().into_owned());
        broken.inject_panic = Some(1);
        let partial = run_engine_sweep(&broken);
        assert_eq!(partial.failures.len(), 1);
        assert!(job_path(broken.manifest.as_deref().unwrap(), 0).exists());
        assert!(!job_path(broken.manifest.as_deref().unwrap(), 1).exists());

        // Resume: only the missing job runs; merged output must be
        // byte-identical to the uninterrupted run.
        let mut resumed = broken.clone();
        resumed.inject_panic = None;
        resumed.resume = true;
        let out = run_engine_sweep(&resumed);
        assert!(out.failures.is_empty());
        assert_eq!(outcome_fingerprint(&reference), outcome_fingerprint(&out));
        assert_eq!(reference.table.render(), out.table.render());
        assert_eq!(
            reference.journal, out.journal,
            "merged journal must be byte-identical"
        );
        assert_eq!(
            reference.registry.as_ref().unwrap().snapshot_lines(),
            out.registry.as_ref().unwrap().snapshot_lines()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_manifest_flags_corrupt_checkpoints_but_tolerates_valid_ones() {
        let dir = std::env::temp_dir().join(format!(
            "dcmaint-verify-manifest-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let dirs = dir.to_string_lossy().into_owned();
        // Missing directory: a readable diagnostic, not a panic.
        assert!(verify_manifest(&dirs)
            .unwrap_err()
            .contains("cannot read sweep manifest directory"));
        // Populate with two real checkpoints via a manifest sweep.
        let mut p = quick_params(1, 1);
        p.manifest = Some(dirs.clone());
        run_engine_sweep(&p);
        assert_eq!(verify_manifest(&dirs), Ok(2));
        // Truncate one: the diagnostic names the file.
        let victim = job_path(&dirs, 1);
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
        let err = verify_manifest(&dirs).unwrap_err();
        assert!(
            err.contains("corrupt sweep checkpoint") && err.contains("job-0001.bin"),
            "{err}"
        );
        // Outright garbage is also caught; unrelated files are ignored.
        std::fs::write(&victim, b"not a snapshot at all").unwrap();
        assert!(verify_manifest(&dirs).is_err());
        std::fs::remove_file(&victim).unwrap();
        std::fs::write(dir.join("README.txt"), b"hands off").unwrap();
        assert_eq!(verify_manifest(&dirs), Ok(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_sweep_is_byte_identical_across_worker_counts() {
        let base = run_engine_sweep(&quick_params(3, 1));
        for jobs in [2, 4] {
            let other = run_engine_sweep(&quick_params(3, jobs));
            assert_eq!(
                outcome_fingerprint(&base),
                outcome_fingerprint(&other),
                "jobs={jobs} diverged"
            );
        }
    }

    #[test]
    fn engine_sweep_obs_merge_is_byte_identical_across_worker_counts() {
        let mut p = quick_params(2, 1);
        p.obs = true;
        let a = run_engine_sweep(&p);
        p.jobs = 4;
        let b = run_engine_sweep(&p);
        assert_eq!(a.journal, b.journal);
        assert_eq!(
            a.registry.as_ref().unwrap().snapshot_lines(),
            b.registry.as_ref().unwrap().snapshot_lines()
        );
        // The merged journal carries one header per job.
        let headers = a
            .journal
            .iter()
            .filter(|l| l.contains("\"ev\":\"sweep-job\""))
            .count();
        assert_eq!(headers, 4, "2 levels × 2 replicates");
    }

    #[test]
    fn single_seed_row_matches_e1_rendering() {
        let p = quick_params(1, 1);
        let out = run_engine_sweep(&p);
        // No ± anywhere: single replicate renders plain E1-style cells.
        assert!(!out.table.render().contains('±'), "{}", out.table.render());
        assert!(out.failures.is_empty());
    }

    #[test]
    fn multi_seed_rows_carry_ci_columns() {
        let out = run_engine_sweep(&quick_params(3, 2));
        let rendered = out.table.render();
        assert!(rendered.contains('±'), "no CI columns in:\n{rendered}");
        assert!(out.failures.is_empty());
    }

    #[test]
    fn injected_panic_is_contained_and_reported() {
        let mut p = quick_params(2, 2);
        p.inject_panic = Some(1); // L0 replicate 1
        let out = run_engine_sweep(&p);
        assert_eq!(out.failures.len(), 1);
        let f = &out.failures[0];
        assert_eq!(f.label, "L0");
        assert_eq!(f.replicate, 1);
        assert!(f.message.contains("injected sweep panic"));
        // The L0 row still renders from the surviving replicate, and L3
        // aggregates both of its replicates.
        assert_eq!(out.table.len(), 2);
        let ft = failures_table(&out.failures);
        assert!(ft.render().contains("injected sweep panic"));
    }

    #[test]
    fn experiment_sweep_single_seed_matches_direct_run() {
        // e5 is fast (pure provisioning math) — the sweep must reproduce
        // its direct table byte-for-byte at K=1.
        let direct = run_one("e5", 2024, false);
        let sweep = run_experiment_sweep(&["e5"], 2024, 1, 4, false);
        assert!(sweep.failures.is_empty());
        assert_eq!(sweep.tables.len(), direct.len());
        assert_eq!(sweep.tables[0].render(), direct[0].render());
    }

    #[test]
    fn experiment_sweep_multi_seed_titles_the_aggregate() {
        let sweep = run_experiment_sweep(&["e5"], 2024, 3, 2, false);
        assert!(sweep.failures.is_empty());
        // e5 is seed-free, so every replicate is identical: cells pass
        // through and only the title announces the fold.
        assert!(sweep.tables[0].title().ends_with("3 seeds, mean ±95% CI"));
        let direct = run_one("e5", 2024, false);
        assert_eq!(sweep.tables[0].rows(), direct[0].rows());
    }

    #[test]
    fn experiment_order_is_canonical_not_pick_order() {
        let sweep = run_experiment_sweep(&["e5", "a1", "e3"], 7, 1, 2, false);
        let titles: Vec<&str> = sweep.tables.iter().map(|t| t.title()).collect();
        let e3 = titles.iter().position(|t| t.starts_with("E3")).unwrap();
        let e5 = titles.iter().position(|t| t.starts_with("E5")).unwrap();
        let a1 = titles.iter().position(|t| t.starts_with("A1")).unwrap();
        assert!(e3 < e5 && e5 < a1, "order was {titles:?}");
    }

    /// The quick presets rerun to the same bytes, and those bytes are
    /// the committed tables: E14 (maintenance-plane faults), E15 (the
    /// one experiment whose twin branches decode through both
    /// `from_fork_bytes` and `from_fork_bytes_reseeded`) and E16 (the
    /// MAPE-K loop).
    #[test]
    fn quick_presets_rerun_to_their_committed_tables() {
        let fixture = include_str!("../../../tests/fixtures/experiments-quick.txt");
        for name in ["e14", "e15", "e16"] {
            let render = || {
                run_one(name, 2024, true)
                    .iter()
                    .map(|t| format!("{}\n", t.render()))
                    .collect::<String>()
            };
            let first = render();
            assert_eq!(first, render(), "{name} reran to different bytes");
            assert!(fixture.contains(&first), "{name} left its golden:\n{first}");
        }
    }

    #[test]
    fn is_experiment_knows_the_registry() {
        assert!(is_experiment("e1"));
        assert!(is_experiment("a3"));
        assert!(is_experiment("e15"));
        assert!(is_experiment("e16"));
        assert!(!is_experiment("e17"));
        assert!(!is_experiment("--csv"));
    }
}
