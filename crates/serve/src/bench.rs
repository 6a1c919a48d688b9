//! The serve-plane benchmark behind `selfmaint serve --bench`: an
//! in-process daemon exercised over real TCP, measuring the three
//! numbers ISSUE cares about — job throughput, concurrent stream
//! delivery, and recovery latency after an injected crash.
//!
//! Like `--bench-sweep`, every wall-clock number lands
//! in a side file (`BENCH_serve.json`, written by the CLI) and stderr,
//! never on deterministic stdout. The bench doubles as a determinism
//! check: the crash-recovered job's output must byte-match the clean
//! run's.

use std::io::BufRead;
use std::time::Duration;

use dcmaint_des::SimDuration;

use crate::client;
use crate::server::Server;
use crate::ServeConfig;

/// Wait-deadline generous enough for CI boxes.
const DEADLINE: Duration = Duration::from_secs(300);

/// Run the bench against a fresh spool; returns the `BENCH_serve.json`
/// payload or a diagnostic.
pub fn run_serve_bench(jobs: u64, streams: usize) -> Result<String, String> {
    let dir = std::env::temp_dir().join(format!("dcmaint-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig {
        spool: dir.to_string_lossy().into_owned(),
        checkpoint_every: SimDuration::from_hours(12),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).map_err(|e| format!("cannot start bench daemon: {e}"))?;
    let port = server.port();

    // Subscribers first, so the whole bench runs under streaming load.
    let mut subs = Vec::new();
    for _ in 0..streams {
        let mut reader = client::open_stream(port).map_err(|e| format!("stream: {e}"))?;
        subs.push(std::thread::spawn(move || {
            let mut lines = 0u64;
            let mut buf = String::new();
            loop {
                buf.clear();
                match reader.read_line(&mut buf) {
                    Ok(0) | Err(_) => return lines,
                    Ok(_) => lines += 1,
                }
            }
        }));
    }

    // Throughput: a batch of small obs-emitting jobs, accepted up front,
    // drained by the single worker.
    // lint:allow(wall-clock): benchmark measurement, side-file only.
    let t0 = std::time::Instant::now();
    let mut ids = Vec::new();
    for k in 0..jobs {
        let spec = format!("kind=run level=L3 days=2 quick=1 obs=1 seed={}", 100 + k);
        ids.push(client::submit(port, &spec)?);
    }
    for &id in &ids {
        let state = client::wait_terminal(port, id, DEADLINE)?;
        if state != "done" {
            return Err(format!("bench job {id} ended {state}"));
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let jobs_per_hour = jobs as f64 * 3600.0 / wall_s.max(1e-9);

    // Recovery latency: identical specs, one clean, one with an injected
    // mid-run panic. The delta is the cost of one supervised restart
    // (backoff pause + snapshot restore + one-quantum replay).
    let timed = |spec: &str| -> Result<(f64, String), String> {
        // lint:allow(wall-clock): benchmark measurement, side-file only.
        let t = std::time::Instant::now();
        let id = client::submit(port, spec)?;
        let state = client::wait_terminal(port, id, DEADLINE)?;
        if state != "done" {
            return Err(format!("recovery-bench job {id} ended {state}"));
        }
        Ok((
            t.elapsed().as_secs_f64() * 1e3,
            client::fetch_output(port, id)?,
        ))
    };
    let base = "kind=run level=L2 days=4 quick=1 obs=1 seed=777";
    let (clean_ms, clean_out) = timed(base)?;
    let (crashed_ms, crashed_out) = timed(&format!("{base} boom=once"))?;
    let outputs_match = clean_out == crashed_out;

    server.request_shutdown();
    server.join();
    let counts: Vec<u64> = subs.into_iter().map(|t| t.join().unwrap_or(0)).collect();
    let _ = std::fs::remove_dir_all(&dir);
    if !outputs_match {
        return Err("crash-recovered output differs from the clean run".to_string());
    }

    Ok(format!(
        "{{\"bench\":\"serve\",\"jobs\":{jobs},\"wall_s\":{wall_s:.3},\
         \"jobs_per_hour\":{jobs_per_hour:.1},\"streams\":{streams},\
         \"stream_lines_min\":{},\"stream_lines_max\":{},\
         \"clean_ms\":{clean_ms:.1},\"crash_recovered_ms\":{crashed_ms:.1},\
         \"recovery_overhead_ms\":{:.1},\"recovery_outputs_match\":true}}\n",
        counts.iter().min().copied().unwrap_or(0),
        counts.iter().max().copied().unwrap_or(0),
        (crashed_ms - clean_ms).max(0.0),
    ))
}
