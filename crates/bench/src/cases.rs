//! The suite's five cases. Each function runs one rep and returns its
//! [`BenchReport`], or an error naming the check that failed. Every
//! case reads the clock through [`WallProfile`], the one module the
//! determinism lint lets read it, and nothing it measures reaches
//! seeded output.

use std::io::BufRead;
use std::time::{Duration, Instant};

use dcmaint_des::{SimDuration, SimTime};
use dcmaint_obs::{ObsReport, WallProfile};
use dcmaint_scenarios::experiments::e16;
use dcmaint_scenarios::sweep::{run_engine_sweep, EngineSweepParams};
use dcmaint_scenarios::ScenarioConfig;
use dcmaint_serve::{client, ServeConfig, Server};
use dcmaint_sweep::derive_seed;
use dcmaint_twin::{TwinConfig, TwinPolicy};
use maintctl::AutomationLevel;

use crate::profile::{run_profile, ProfileParams};
use crate::report::{ppb, BenchReport};

fn clock() -> Instant {
    WallProfile::enabled()
        .start()
        .expect("an enabled clock reads")
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Events one profiled run dispatched, and the wall ns and span count
/// of subsystem `sub`'s leaves.
fn profiled(obs: &ObsReport, sub: &str) -> (u64, u64, u64) {
    let events = obs
        .registry
        .counters_sorted()
        .into_iter()
        .filter(|(name, _)| name.starts_with("prof/ev/"))
        .map(|(_, v)| v)
        .sum();
    let leaves = obs.prof_wall.iter().filter(|l| l.sub == sub);
    let (ns, spans) = leaves.fold((0, 0), |(ns, n), l| (ns + l.ns, n + l.spans));
    (events, ns, spans)
}

/// `engine`: `selfmaint profile`'s default cell (E1, L3, 14 d, seed
/// 42). Fails unless it dispatched events, the subsystem shares sum to
/// ~100%, and each subsystem's leaf shares sum to its share.
pub fn engine() -> Result<BenchReport, String> {
    let report = run_profile(&ProfileParams::default()).report;
    if report.deterministic["events"] == 0 {
        return Err("the profile ran no events".to_string());
    }
    let timing = &report.timing;
    let shares: Vec<(&str, f64)> = timing
        .iter()
        .filter_map(|(k, &v)| k.strip_prefix("share/").map(|sub| (sub, v)))
        .collect();
    let total: f64 = shares.iter().map(|s| s.1).sum();
    if (total - 100.0).abs() >= 0.5 {
        return Err(format!("span shares sum to {total}, not ~100"));
    }
    for (sub, share) in shares {
        let prefix = format!("leaf-share/{sub}/");
        let leaves: Vec<f64> = timing
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, &v)| v)
            .collect();
        let sum: f64 = leaves.iter().sum();
        if leaves.is_empty() || (sum - share).abs() >= 0.01 {
            return Err(format!("{sub}: leaves sum to {sum}, the row is {share}"));
        }
    }
    Ok(report)
}

/// `twin`: a quick-fabric L3 cell under the plain ladder and under
/// twin-guided planning (horizon `horizon_days`, `jobs` branch
/// workers) at `seeds` derived seeds. Planner accounting and both arms'
/// availability are deterministic; only the twin arms are timed. Fails
/// if the planner never fired or forked fewer branches than decisions.
pub fn twin(
    days: u64,
    horizon_days: u64,
    base_seed: u64,
    seeds: u64,
    jobs: usize,
) -> Result<BenchReport, String> {
    let config = |seed: u64, twin: bool| {
        let mut cfg = ScenarioConfig::at_level(seed, AutomationLevel::L3);
        cfg.duration = SimDuration::from_days(days);
        cfg.apply_quick_fabric();
        cfg.obs.profiling = true;
        if twin {
            cfg.twin = TwinPolicy::TwinGuided(TwinConfig {
                horizon: SimDuration::from_days(horizon_days),
                jobs,
                ..TwinConfig::default()
            });
        }
        cfg
    };
    let (mut decisions, mut forks, mut committed, mut events) = (0, 0, 0, 0);
    let (mut twin_avail, mut ladder_avail, mut predicted) = (0.0, 0.0, 0.0);
    let (mut span_ns, mut spans, mut wall_s) = (0, 0, 0.0);
    for k in 0..seeds {
        let seed = derive_seed(base_seed, "twin-bench", k);
        ladder_avail += dcmaint_scenarios::run(config(seed, false))
            .availability
            .availability;
        let t0 = clock();
        let run = dcmaint_scenarios::run(config(seed, true));
        wall_s += t0.elapsed().as_secs_f64();
        twin_avail += run.availability.availability;
        let stats = run.twin.as_ref().expect("twin policy was on");
        decisions += stats.decisions;
        forks += stats.forks;
        committed += stats.committed;
        predicted += stats.mean_predicted_availability;
        let (ev, ns, sp) = profiled(run.obs.as_ref().expect("profiling was on"), "twin");
        events += ev;
        span_ns += ns;
        spans += sp;
    }
    if decisions == 0 || forks < decisions {
        return Err(format!(
            "the planner made {decisions} decisions and {forks} forks"
        ));
    }

    let n = seeds as f64;
    let mut r = BenchReport::new(&format!(
        "twin/L3 {days}d h{horizon_days}d seed={base_seed} seeds={seeds} quick"
    ));
    for (k, v) in [
        ("decisions", decisions),
        ("forks", forks),
        ("committed", committed),
        ("events", events),
        ("seeds", seeds),
        ("twin-availability-ppb", ppb(twin_avail / n)),
        ("ladder-availability-ppb", ppb(ladder_avail / n)),
        ("predicted-availability-ppb", ppb(predicted / n)),
    ] {
        r.deterministic.insert(k.to_string(), v);
    }
    let span_s = span_ns as f64 / 1e9;
    for (k, v) in [
        ("wall-s", wall_s),
        ("twin-span-s", span_s),
        ("decisions-per-sec", ratio(decisions as f64, span_s)),
        ("forks-per-decision", ratio(forks as f64, decisions as f64)),
        ("mean-decision-latency-s", ratio(span_s, spans as f64)),
    ] {
        r.timing.insert(k.to_string(), v);
    }
    Ok(r)
}

/// `autonomic`: the E16-quick drift cell (`days` long, the wave at
/// half time, a 2 h loop) statically tuned and with the MAPE-K loop on,
/// at one seed derived from `base_seed`. Loop accounting and both arms'
/// availability are deterministic; only the loop arm is timed. Fails if
/// the loop never ticked or the loop arm lost availability to static.
pub fn autonomic(days: u64, base_seed: u64) -> Result<BenchReport, String> {
    let seed = derive_seed(base_seed, "autonomic-bench", 0);
    let mut p = e16::E16Params::quick(&[seed]);
    p.duration = SimDuration::from_days(days);
    p.burst_at = SimTime::ZERO + SimDuration::from_days(days / 2);
    let stat = dcmaint_scenarios::run(e16::cell_config(&p, seed, false));
    let mut cfg = e16::cell_config(&p, seed, true);
    cfg.obs.profiling = true;
    let t0 = clock();
    let auto = dcmaint_scenarios::run(cfg);
    let wall_s = t0.elapsed().as_secs_f64();

    let s = auto.autonomic.as_ref().expect("autonomic was on");
    let auto_avail = auto.availability.availability;
    let static_avail = stat.availability.availability;
    if s.ticks == 0 {
        return Err("the loop never ticked".to_string());
    }
    if auto_avail < static_avail {
        return Err(format!(
            "autonomic availability {auto_avail} < static {static_avail}"
        ));
    }
    let (events, span_ns, spans) =
        profiled(auto.obs.as_ref().expect("profiling was on"), "autonomic");

    let mut r = BenchReport::new(&format!(
        "autonomic/L3 {days}d tick=2h seed={base_seed} seeds=1 quick"
    ));
    for (k, v) in [
        ("ticks", s.ticks),
        ("decisions", s.decisions),
        ("applied", s.applied),
        ("rollbacks", s.rollbacks),
        ("cap-fallbacks", s.cap_fallbacks),
        ("posteriors-converged", s.posteriors_converged),
        ("posteriors-total", s.posteriors_total),
        ("events", events),
        ("seeds", 1),
        ("autonomic-availability-ppb", ppb(auto_avail)),
        ("static-availability-ppb", ppb(static_avail)),
    ] {
        r.deterministic.insert(k.to_string(), v);
    }
    let span_s = span_ns as f64 / 1e9;
    for (k, v) in [
        ("wall-s", wall_s),
        ("autonomic-span-s", span_s),
        ("decisions-per-sec", ratio(s.decisions as f64, span_s)),
        ("mean-tick-latency-s", ratio(span_s, spans as f64)),
    ] {
        r.timing.insert(k.to_string(), v);
    }
    Ok(r)
}

/// `sweep`: `selfmaint sweep --quick --days 14 --seeds 8` (all five
/// levels) with the profiler on, at 1, 2, 4 and 8 workers. The merged
/// profile is deterministic; wall time and speedup per worker count are
/// timed. Fails unless the table and the merged profile are identical
/// at every worker count.
pub fn sweep() -> Result<BenchReport, String> {
    let mut p = EngineSweepParams::new(42);
    p.small_fabric = true;
    p.profiling = true;
    let mut r = BenchReport::new(&format!(
        "{} level(s) × {} seed(s), {}d, seed={} quick",
        p.levels.len(),
        p.seeds,
        p.days,
        p.base_seed
    ));
    let mut first: Option<(String, Vec<String>)> = None;
    let mut base_wall = 0.0;
    for workers in [1, 2, 4, 8] {
        p.jobs = workers;
        let t0 = clock();
        let out = run_engine_sweep(&p);
        let wall = t0.elapsed().as_secs_f64();
        let profile = out.registry.expect("profiling was on");
        let run = (out.table.render(), profile.snapshot_lines());
        match &first {
            None => {
                base_wall = wall;
                for (name, v) in profile.counters_sorted() {
                    r.deterministic.insert(name.to_string(), v);
                }
                first = Some(run);
            }
            Some((table, lines)) => {
                if *table != run.0 {
                    return Err(format!("the table differs at {workers} workers"));
                }
                if *lines != run.1 {
                    return Err(format!("the merged profile differs at {workers} workers"));
                }
            }
        }
        r.timing.insert(format!("wall-s/{workers}"), wall);
        r.timing
            .insert(format!("speedup/{workers}"), ratio(base_wall, wall));
    }
    // Both checks above passed at every worker count.
    r.deterministic
        .insert("jobs-identical-stdout".to_string(), 1);
    r.deterministic.insert("profile-identical".to_string(), 1);
    Ok(r)
}

/// `serve`: an in-process daemon over real TCP. Six small jobs run
/// under eight concurrent journal streams (throughput), then one spec
/// runs clean and once with an injected mid-run panic (the cost of one
/// supervised restart: backoff, snapshot restore, one-quantum replay).
/// Fails unless the crash-recovered output matches the clean run's.
pub fn serve() -> Result<BenchReport, String> {
    const JOBS: u64 = 6;
    const STREAMS: usize = 8;
    const DEADLINE: Duration = Duration::from_secs(300);
    let dir = std::env::temp_dir().join(format!("dcmaint-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig {
        spool: dir.to_string_lossy().into_owned(),
        checkpoint_every: SimDuration::from_hours(12),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).map_err(|e| format!("cannot start the daemon: {e}"))?;
    let port = server.port();

    // Subscribers first, so the whole case runs under streaming load.
    let mut subs = Vec::new();
    for _ in 0..STREAMS {
        let mut reader = client::open_stream(port).map_err(|e| format!("stream: {e}"))?;
        subs.push(std::thread::spawn(move || {
            let (mut lines, mut buf) = (0u64, String::new());
            while reader.read_line(&mut buf).is_ok_and(|n| n > 0) {
                lines += 1;
                buf.clear();
            }
            lines
        }));
    }

    let done = |id: u64| match client::wait_terminal(port, id, DEADLINE)?.as_str() {
        "done" => Ok(()),
        state => Err(format!("job {id} ended {state}")),
    };
    // Throughput: the batch is accepted up front and drained by the
    // single worker.
    let t0 = clock();
    let mut ids = Vec::new();
    for k in 0..JOBS {
        let spec = format!("kind=run level=L3 days=2 quick=1 obs=1 seed={}", 100 + k);
        ids.push(client::submit(port, &spec)?);
    }
    for id in ids {
        done(id)?;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let timed = |spec: &str| -> Result<(f64, String), String> {
        let t = clock();
        let id = client::submit(port, spec)?;
        done(id)?;
        Ok((t.elapsed().as_secs_f64(), client::fetch_output(port, id)?))
    };
    let base = "kind=run level=L2 days=4 quick=1 obs=1 seed=777";
    let (clean_s, clean_out) = timed(base)?;
    let (crashed_s, crashed_out) = timed(&format!("{base} boom=once"))?;

    server.request_shutdown();
    server.join();
    let counts: Vec<u64> = subs.into_iter().map(|t| t.join().unwrap_or(0)).collect();
    let _ = std::fs::remove_dir_all(&dir);
    if clean_out != crashed_out {
        return Err("the crash-recovered output differs from the clean run".to_string());
    }

    let mut r = BenchReport::new(&format!(
        "{JOBS} jobs (L3 2d quick), {STREAMS} streams, one recovered crash (L2 4d)"
    ));
    for (k, v) in [
        ("jobs", JOBS),
        ("streams", STREAMS as u64),
        ("output-bytes", clean_out.len() as u64),
    ] {
        r.deterministic.insert(k.to_string(), v);
    }
    for (k, v) in [
        ("wall-s", wall_s),
        ("jobs-per-hour", ratio(JOBS as f64 * 3600.0, wall_s)),
        ("clean-ms", clean_s * 1e3),
        ("crash-recovered-ms", crashed_s * 1e3),
        (
            "recovery-overhead-ms",
            ((crashed_s - clean_s) * 1e3).max(0.0),
        ),
        (
            "stream-lines-min",
            counts.iter().copied().min().unwrap_or(0) as f64,
        ),
        (
            "stream-lines-max",
            counts.iter().copied().max().unwrap_or(0) as f64,
        ),
    ] {
        r.timing.insert(k.to_string(), v);
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twin_case_repeats_and_is_jobs_invariant() {
        let a = twin(6, 3, 9, 1, 1).unwrap();
        let b = twin(6, 3, 9, 1, 1).unwrap();
        assert_eq!(a.deterministic, b.deterministic);
        let four = twin(6, 3, 9, 1, 4).unwrap();
        assert_eq!(
            a.deterministic, four.deterministic,
            "branch fan-out workers leaked into the deterministic subtree"
        );
        let det = &a.deterministic;
        assert!(det["decisions"] > 0, "planner never fired");
        assert!(
            det["forks"] >= det["decisions"],
            "fewer forks than decisions"
        );
        assert!(a.timing.contains_key("decisions-per-sec"));
        assert!(a.timing.contains_key("mean-decision-latency-s"));
        assert!(a.timing["wall-s"] > 0.0);
        assert!(a.timing["twin-span-s"] > 0.0, "no twin spans");
    }

    #[test]
    fn autonomic_case_repeats_and_does_not_lose_to_static() {
        let a = autonomic(8, 9).unwrap();
        let b = autonomic(8, 9).unwrap();
        assert_eq!(a.deterministic, b.deterministic);
        let det = &a.deterministic;
        assert!(det["ticks"] > 0, "loop never ticked");
        assert!(det["autonomic-availability-ppb"] >= det["static-availability-ppb"]);
        assert!(a.timing.contains_key("decisions-per-sec"));
        assert!(a.timing.contains_key("mean-tick-latency-s"));
        assert!(a.timing["wall-s"] > 0.0);
        assert!(a.timing["autonomic-span-s"] > 0.0, "no autonomic spans");
    }
}
