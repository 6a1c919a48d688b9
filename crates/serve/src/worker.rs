//! The supervised engine worker: the single thread where simulation
//! happens, wrapped so nothing it does can take the daemon down.
//!
//! One job runs at a time, in accepted order. Each *attempt* runs under
//! `catch_unwind`; each attempt advances the engine one checkpoint
//! quantum at a time, snapshotting (tmp + rename) before publishing that
//! quantum's journal lines — so the restore point always covers exactly
//! what subscribers have seen, and a retry never duplicates stream
//! lines. A panic or wall-clock timeout costs one attempt; the
//! supervisor pauses (capped exponential backoff, jitter from the job's
//! own seeded RNG stream — deterministic, no wall-clock entropy) and
//! retries from the last snapshot. Because snapshots cut at `run_until`
//! boundaries the uninterrupted engine also passes through, a recovered
//! job's output is byte-identical to an undisturbed one. After
//! `max_attempts` the job is *failed deterministically*: same journals,
//! same message, every time.
//!
//! The attempt counter lives in the spool, not in memory, so a job that
//! panics and then takes the whole process down with it (or is
//! SIGKILLed mid-attempt) still converges: the next process reads the
//! counter and continues the same ladder.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::Duration;

use dcmaint_ckpt::Snapshot;
use dcmaint_des::{SimRng, SimTime};
use dcmaint_obs::ObsRegistry;
use dcmaint_scenarios::sweep::{failures_table, run_engine_sweep, EngineSweepParams};
use dcmaint_scenarios::Engine;
use maintctl::AutomationLevel;

use crate::lock::{Shared, Unlocked};
use crate::spec::{Boom, JobKind, JobSpec};
use crate::ServeConfig;

/// Where a job is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and journaled, waiting for the worker.
    Queued,
    /// The worker is on it.
    Running,
    /// Finished; output available.
    Done,
    /// Failed deterministically after `max_attempts`.
    Failed,
    /// Snapshotted and set aside by a graceful drain; becomes `Queued`
    /// again at the next start.
    Parked,
}

impl JobState {
    /// Lowercase label used in JSON responses.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Parked => "parked",
        }
    }
}

/// One job as the daemon tracks it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Ingress-assigned id.
    pub id: u64,
    /// The accepted spec.
    pub spec: JobSpec,
    /// Current state.
    pub state: JobState,
    /// Attempts consumed so far (persisted in the spool).
    pub attempts: u32,
    /// Failure message (empty unless `Failed`).
    pub message: String,
}

/// The engine profile of one finished `profile=1` job, held in memory
/// for `/metrics` exposition. Not persisted: a daemon restart recovers
/// the job as done without re-running it, so its profile is gone —
/// scrape before restarting, or resubmit the job.
#[derive(Debug, Clone)]
pub struct JobProfile {
    /// Counter name → value, in registry (sorted) order.
    pub counters: Vec<(String, u64)>,
    /// Histogram `(family, key, observation count, sum in simulated
    /// microseconds)`, in registry order.
    pub histograms: Vec<(String, String, u64, u64)>,
}

/// Hold a finished job's engine-profile registry for `/metrics`.
fn stash_profile(shared: &Shared, t: &mut Unlocked, id: u64, reg: &ObsRegistry) {
    let counters = reg
        .counters_sorted()
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
    let histograms = reg
        .histograms_sorted()
        .into_iter()
        .map(|h| {
            (
                h.family.to_string(),
                h.key.to_string(),
                h.total,
                h.sum.as_micros(),
            )
        })
        .collect();
    shared.state(t).profiles.insert(
        id,
        JobProfile {
            counters,
            histograms,
        },
    );
}

/// How one attempt ended.
enum Attempt {
    /// Output bytes ready; the job is done.
    Finished(Vec<u8>),
    /// Drain requested; engine snapshotted and parked.
    Parked,
    /// Wall-clock budget exceeded at a quantum boundary.
    TimedOut,
    /// Spool I/O failed (counts like a crash: retry, then fail).
    Io(String),
}

/// The worker thread body: consume the queue until drained.
pub fn run_worker(shared: &Shared, t: &mut Unlocked) {
    loop {
        let job = {
            let mut g = shared.state(t);
            loop {
                if shared.draining.load(Ordering::SeqCst) {
                    shared.worker_stopped.store(true, Ordering::SeqCst);
                    return;
                }
                if let Some(id) = g.queue.pop_front() {
                    let rec = g.jobs.get_mut(&id).expect("queued job has a record");
                    rec.state = JobState::Running;
                    break rec.clone();
                }
                // Bounded wait so drain requests are observed promptly
                // even with no traffic, or when one lands between the
                // check above and this wait.
                let (guard, _) = shared
                    .cv
                    .wait_timeout(g, Duration::from_millis(100))
                    .expect("serve lock");
                g = guard;
            }
        };
        run_job(shared, t, &job);
    }
}

/// Drive one job through its attempt ladder to a terminal state.
fn run_job(shared: &Shared, t: &mut Unlocked, job: &JobRecord) {
    let max_attempts = shared.cfg.max_attempts.max(1);
    loop {
        let attempts = shared.spool.read_attempts(job.id);
        if let Some(rec) = shared.state(t).jobs.get_mut(&job.id) {
            rec.attempts = attempts;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| attempt(shared, t, job, attempts)));
        let failure = match outcome {
            Ok(Attempt::Finished(output)) => {
                let io = shared
                    .spool
                    .write_output(job.id, &output)
                    .and_then(|()| shared.spool.append_done(job.id, true, ""));
                match io {
                    Ok(()) => {
                        shared.spool.clear_recovery(job.id);
                        finish(shared, t, job.id, JobState::Done, String::new());
                        shared.count(t, "serve/jobs-done");
                        return;
                    }
                    Err(e) => format!("spool write failed: {e}"),
                }
            }
            Ok(Attempt::Parked) => {
                finish(shared, t, job.id, JobState::Parked, String::new());
                shared.count(t, "serve/jobs-parked");
                return;
            }
            Ok(Attempt::TimedOut) => {
                shared.count(t, "serve/attempt-timeouts");
                format!("attempt {} exceeded the wall-clock budget", attempts + 1)
            }
            Ok(Attempt::Io(msg)) => msg,
            Err(payload) => {
                shared.count(t, "serve/worker-panics");
                format!("panic: {}", panic_message(&*payload))
            }
        };
        let next = attempts + 1;
        let _ = shared.spool.write_attempts(job.id, next);
        if next >= max_attempts {
            // Deterministic terminal failure: fixed message shape, no
            // wall-clock content beyond what the panic itself carried.
            let msg = format!("failed after {next} attempt(s): {failure}");
            let _ = shared.spool.append_done(job.id, false, &msg);
            shared.spool.clear_recovery(job.id);
            finish(shared, t, job.id, JobState::Failed, msg);
            shared.count(t, "serve/jobs-failed");
            return;
        }
        shared.count(t, "serve/attempt-restarts");
        std::thread::sleep(restart_pause(&shared.cfg, job, attempts));
    }
}

/// Capped exponential restart pause with jitter drawn from the job's own
/// seeded stream — reproducible across daemon restarts, no wall clock.
fn restart_pause(cfg: &ServeConfig, job: &JobRecord, attempts: u32) -> Duration {
    let mut rng = SimRng::root(job.spec.seed ^ job.id).stream("serve-restart", u64::from(attempts));
    let nominal = (cfg.restart_base_ms.max(1) as f64) * 2f64.powi(attempts.min(16) as i32);
    let capped = nominal.min(cfg.restart_cap_ms.max(1) as f64);
    Duration::from_millis((capped * (0.5 + rng.uniform())) as u64)
}

fn finish(shared: &Shared, t: &mut Unlocked, id: u64, state: JobState, message: String) {
    if let Some(rec) = shared.state(t).jobs.get_mut(&id) {
        rec.state = state;
        rec.message = message;
        rec.attempts = shared.spool.read_attempts(id);
    }
}

/// Best-effort text of a panic payload (same idiom as the sweep pool).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// One attempt of one job.
fn attempt(shared: &Shared, t: &mut Unlocked, job: &JobRecord, attempts: u32) -> Attempt {
    match job.spec.kind {
        JobKind::Run => attempt_run(shared, t, job, attempts),
        JobKind::Sweep => attempt_sweep(shared, t, job),
    }
}

/// One attempt of a `kind=run` job: quantum loop with snapshot-then-
/// publish at every cut.
fn attempt_run(shared: &Shared, t: &mut Unlocked, job: &JobRecord, attempts: u32) -> Attempt {
    let spec = &job.spec;
    let cfg = spec.scenario_config();
    let end = SimTime::ZERO + cfg.duration;
    // Boom fires at the first cut past the midpoint — an absolute
    // simulated time, so the trigger is independent of where a restore
    // landed us.
    let boom_at = SimTime::ZERO + cfg.duration.mul_f64(0.5);
    let boom_now = match spec.boom {
        Boom::None => false,
        Boom::Once => attempts == 0,
        Boom::Always => true,
    };

    let mut eng = match shared.spool.read_ckpt(job.id) {
        // A snapshot that doesn't load or doesn't match the spec is
        // treated as absent: rerunning from scratch is always correct
        // (restore ≡ continuous), just slower.
        Some(bytes) => match Snapshot::from_bytes(&bytes)
            .ok()
            .and_then(|snap| Engine::restore(cfg.clone(), &snap).ok())
        {
            Some(eng) => {
                shared.count(t, "serve/attempt-resumes");
                eng
            }
            None => {
                shared.count(t, "serve/ckpt-discarded");
                Engine::new(cfg)
            }
        },
        None => Engine::new(cfg),
    };

    let journal = eng.journal_handle();
    // Everything emitted up to the restore point was published by the
    // attempt that cut the snapshot — mark it seen.
    let (_, mut seen, _) = journal.tail(u64::MAX);

    #[expect(
        clippy::disallowed_methods,
        reason = "the per-attempt wall budget is operational policy at the daemon edge; it never feeds the simulation"
    )]
    let started = std::time::Instant::now();
    let quantum = shared.cfg.checkpoint_every.as_micros().max(1);

    for cut in dcmaint_ckpt::Cadence::new(eng.now().as_micros(), end.as_micros(), quantum) {
        let t = SimTime::ZERO + dcmaint_des::SimDuration::from_micros(cut);
        if boom_now && t >= boom_at {
            // `resume_unwind` skips the panic hook: the supervisor's
            // `catch_unwind` sees the same `String` payload, but the
            // injected crash prints no message or backtrace.
            std::panic::resume_unwind(Box::new(format!(
                "injected boom at {cut}us (attempt {attempts})"
            )));
        }
        if spec.slow_ms > 0 {
            std::thread::sleep(Duration::from_millis(spec.slow_ms));
        }
        eng.run_until(t);
        if let Err(e) = shared.spool.write_ckpt(job.id, &eng.snapshot().to_bytes()) {
            return Attempt::Io(format!("cannot write job checkpoint: {e}"));
        }
        seen = publish_tail(shared, &journal, seen);
        if shared.draining.load(Ordering::SeqCst) {
            return Attempt::Parked;
        }
        if let Some(budget) = shared.cfg.job_timeout_ms {
            if started.elapsed().as_millis() as u64 > budget {
                return Attempt::TimedOut;
            }
        }
    }
    while eng.step_event().is_some() {}
    let mut report = eng.finish_report();
    if spec.profile {
        if let Some(obs) = report.obs.as_ref() {
            stash_profile(shared, t, job.id, &obs.registry);
        }
    }
    publish_tail(shared, &journal, seen);
    let mut out = serde_json::to_string_pretty(&report.summary_json()).expect("serializable");
    out.push('\n');
    Attempt::Finished(out.into_bytes())
}

/// Publish fresh journal lines to the fan-out; returns the new cursor.
fn publish_tail(shared: &Shared, journal: &dcmaint_obs::Journal, seen: u64) -> u64 {
    let (lines, emitted, missed) = journal.tail(seen);
    if missed > 0 {
        shared
            .fanout
            .publish(format!("{{\"ev\":\"journal-gap\",\"missed\":{missed}}}"));
    }
    for line in lines {
        shared.fanout.publish(line);
    }
    emitted
}

/// One attempt of a `kind=sweep` job. The sweep engine brings its own
/// manifest-based resume, so every attempt runs with `resume: true`
/// against a manifest inside the spool: finished replicates are loaded,
/// only the remainder runs. Its journal arrives at completion (sweep
/// replicates run concurrently; interleaved live lines would not be
/// deterministic).
fn attempt_sweep(shared: &Shared, t: &mut Unlocked, job: &JobRecord) -> Attempt {
    let spec = &job.spec;
    let params = EngineSweepParams {
        base_seed: spec.seed,
        seeds: spec.seeds,
        jobs: 1,
        days: spec.days,
        levels: match spec.level {
            Some(l) => vec![l],
            None => AutomationLevel::ALL.to_vec(),
        },
        small_fabric: spec.quick,
        obs: spec.obs,
        profiling: spec.profile,
        autonomic: false,
        inject_panic: None,
        manifest: Some(
            shared
                .spool
                .manifest_dir(job.id)
                .to_string_lossy()
                .into_owned(),
        ),
        resume: true,
    };
    let outcome = run_engine_sweep(&params);
    if spec.profile {
        if let Some(reg) = &outcome.registry {
            stash_profile(shared, t, job.id, reg);
        }
    }
    for line in &outcome.journal {
        shared.fanout.publish(line.clone());
    }
    let mut out = outcome.table.render();
    if !outcome.failures.is_empty() {
        out.push_str(&failures_table(&outcome.failures).render());
    }
    Attempt::Finished(out.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restart_pause_is_deterministic_capped_and_growing() {
        let cfg = ServeConfig {
            restart_base_ms: 20,
            restart_cap_ms: 100,
            ..ServeConfig::default()
        };
        let job = JobRecord {
            id: 3,
            spec: JobSpec::run(AutomationLevel::L3, 2, 9),
            state: JobState::Queued,
            attempts: 0,
            message: String::new(),
        };
        let a: Vec<Duration> = (0..6).map(|k| restart_pause(&cfg, &job, k)).collect();
        let b: Vec<Duration> = (0..6).map(|k| restart_pause(&cfg, &job, k)).collect();
        assert_eq!(a, b, "same job, same attempt → same pause");
        for (k, d) in a.iter().enumerate() {
            let nominal = (20f64 * 2f64.powi(k as i32)).min(100.0);
            assert!(d.as_millis() as f64 >= nominal * 0.5 - 1.0, "jitter floor");
            assert!(
                d.as_millis() as f64 <= nominal * 1.5 + 1.0,
                "jitter ceiling"
            );
        }
        let other = JobRecord {
            id: 4,
            ..job.clone()
        };
        assert_ne!(
            (0..6)
                .map(|k| restart_pause(&cfg, &other, k))
                .collect::<Vec<_>>(),
            a,
            "different jobs decorrelate"
        );
    }

    #[test]
    fn panic_messages_survive_both_payload_shapes() {
        let e1 = catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(&*e1), "static str");
        let e2 = catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(&*e2), "formatted 7");
    }
}
