//! In-process integration tests for the serve daemon: real TCP, real
//! spool, real engine — only the process boundary is elided (the root
//! `tests/serve.rs` suite covers SIGKILL and cross-process resume).

use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use dcmaint_des::SimDuration;
use dcmaint_serve::client;
use dcmaint_serve::{ServeConfig, Server, Spool};

fn scratch(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("dcmaint-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_string_lossy().into_owned()
}

fn config(tag: &str) -> ServeConfig {
    ServeConfig {
        spool: scratch(tag),
        // 2 simulated days / 6h quantum = 8 cuts per quick job.
        checkpoint_every: SimDuration::from_hours(6),
        restart_base_ms: 5,
        restart_cap_ms: 20,
        ..ServeConfig::default()
    }
}

const QUICK: &str = "kind=run level=L3 days=2 quick=1 obs=1 seed=5";
const DEADLINE: Duration = Duration::from_secs(120);

/// A response body parsed as JSON.
fn json(body: &str) -> serde_json::Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("{e}: {body:?}"))
}

/// Run one spec on a throwaway daemon and return its output bytes — the
/// reference for byte-identity assertions.
fn reference_output(tag: &str, spec: &str) -> String {
    let server = Server::start(config(tag)).expect("start");
    let port = server.port();
    let id = client::submit(port, spec).expect("submit");
    assert_eq!(client::wait_terminal(port, id, DEADLINE).unwrap(), "done");
    let out = client::fetch_output(port, id).expect("output");
    server.request_shutdown();
    server.join();
    out
}

#[test]
fn submit_complete_status_and_metrics() {
    let server = Server::start(config("basic")).expect("start");
    let port = server.port();

    let id = client::submit(port, QUICK).expect("submit");
    assert_eq!(client::wait_terminal(port, id, DEADLINE).unwrap(), "done");

    let out = client::fetch_output(port, id).expect("output");
    assert!(out.contains("\"availability\""), "summary json: {out:?}");
    assert!(out.contains("\"obs\""), "obs plane captured");

    let status = client::request(port, "GET", "/status", "").unwrap();
    assert_eq!(status.status, 200);
    assert_eq!(json(&status.body)["state"].as_str(), Some("running"));
    assert_eq!(json(&status.body)["done"].as_u64(), Some(1));

    let metrics = client::request(port, "GET", "/metrics", "").unwrap();
    assert!(
        metrics.body.contains("serve/accepted 1"),
        "{}",
        metrics.body
    );
    assert!(
        metrics.body.contains("serve/jobs-done 1"),
        "{}",
        metrics.body
    );

    // Unknown routes and ids answer crisply instead of hanging.
    assert_eq!(
        client::request(port, "GET", "/nope", "").unwrap().status,
        404
    );
    assert_eq!(
        client::request(port, "GET", "/v1/jobs/999", "")
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        client::request(port, "DELETE", "/v1/jobs", "")
            .unwrap()
            .status,
        405
    );
    let bad = client::request(port, "POST", "/v1/jobs", "kind=walk").unwrap();
    assert_eq!(bad.status, 400);
    // Spec errors quote the offending token with `{:?}`; the escaped
    // quotes read back whole.
    assert_eq!(
        json(&bad.body)["error"].as_str(),
        Some("unknown kind \"walk\"")
    );

    server.request_shutdown();
    server.join();
}

#[test]
fn graceful_drain_parks_the_job_and_resume_is_byte_identical() {
    let reference = reference_output("drain-ref", &format!("{QUICK} seed=6"));

    let cfg = config("drain");
    let spool_dir = cfg.spool.clone();
    let server = Server::start(cfg.clone()).expect("start");
    let port = server.port();
    // slow_ms stretches each quantum so the drain lands mid-job.
    let id = client::submit(port, &format!("{QUICK} seed=6 slow_ms=60")).expect("submit");
    std::thread::sleep(Duration::from_millis(150));
    let resp = client::request(port, "POST", "/v1/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
    // New work is shed while draining.
    let shed = client::request(port, "POST", "/v1/jobs", QUICK).unwrap();
    assert_eq!(shed.status, 503);
    server.join();

    // The job is pending (not done) in the spool, with a snapshot cut.
    let spool = Spool::open(&spool_dir).unwrap();
    assert_eq!(spool.load().pending(), [id], "job parked, not finished");
    assert!(spool.read_ckpt(id).is_some(), "drain cut a snapshot");

    // A new daemon on the same spool picks the job up and finishes it —
    // byte-identically to a run that was never interrupted. (slow_ms is
    // wall-side only, so the spec difference cannot show in the output.)
    let server = Server::start(cfg).expect("restart");
    let port = server.port();
    assert_eq!(client::wait_terminal(port, id, DEADLINE).unwrap(), "done");
    assert_eq!(client::fetch_output(port, id).unwrap(), reference);
    let metrics = client::request(port, "GET", "/metrics", "").unwrap();
    assert!(
        metrics.body.contains("serve/jobs-recovered 1"),
        "{}",
        metrics.body
    );
    server.request_shutdown();
    server.join();
}

#[test]
fn injected_panic_recovers_to_byte_identical_output() {
    let reference = reference_output("boom-ref", &format!("{QUICK} seed=7"));

    let server = Server::start(config("boom-once")).expect("start");
    let port = server.port();
    let id = client::submit(port, &format!("{QUICK} seed=7 boom=once")).expect("submit");
    assert_eq!(client::wait_terminal(port, id, DEADLINE).unwrap(), "done");
    assert_eq!(
        client::fetch_output(port, id).unwrap(),
        reference,
        "restart-from-snapshot must reproduce the uninterrupted run"
    );
    let metrics = client::request(port, "GET", "/metrics", "").unwrap();
    assert!(
        metrics.body.contains("serve/worker-panics 1"),
        "{}",
        metrics.body
    );
    assert!(
        metrics.body.contains("serve/attempt-restarts 1"),
        "{}",
        metrics.body
    );
    server.request_shutdown();
    server.join();
}

#[test]
fn persistent_panics_fail_deterministically_without_taking_the_daemon() {
    let mut cfg = config("boom-always");
    cfg.max_attempts = 2;
    let server = Server::start(cfg).expect("start");
    let port = server.port();

    let bad = client::submit(port, &format!("{QUICK} seed=8 boom=always")).expect("submit");
    let good = client::submit(port, &format!("{QUICK} seed=9")).expect("submit");

    assert_eq!(
        client::wait_terminal(port, bad, DEADLINE).unwrap(),
        "failed"
    );
    let rec = client::request(port, "GET", &format!("/v1/jobs/{bad}"), "").unwrap();
    let rec = json(&rec.body);
    let msg = rec["message"].as_str().unwrap();
    assert!(
        msg.starts_with("failed after 2 attempt(s): panic: injected boom at"),
        "deterministic failure message, got {msg:?}"
    );
    let output = client::request(port, "GET", &format!("/v1/jobs/{bad}/output"), "").unwrap();
    assert_eq!(
        output.status, 409,
        "failed jobs expose the message, not bytes"
    );

    // The panicking job did not poison the worker: the next job lands.
    assert_eq!(client::wait_terminal(port, good, DEADLINE).unwrap(), "done");
    server.request_shutdown();
    server.join();
}

#[test]
fn full_queue_sheds_load_with_retry_after() {
    let mut cfg = config("shed");
    cfg.max_queue = 1;
    let server = Server::start(cfg).expect("start");
    let port = server.port();

    // Occupy the worker with a slow job, then fill the queue of one.
    let running = client::submit(port, &format!("{QUICK} slow_ms=80")).expect("submit");
    let t0 = std::time::Instant::now();
    loop {
        let rec = client::request(port, "GET", &format!("/v1/jobs/{running}"), "").unwrap();
        if json(&rec.body)["state"].as_str() == Some("running") {
            break;
        }
        assert!(t0.elapsed() < DEADLINE, "job never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    client::submit(port, QUICK).expect("fills the queue");

    // Raw request so the Retry-After header is visible.
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    write!(
        stream,
        "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{QUICK}",
        QUICK.len()
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
    assert!(raw.contains("Retry-After: 30"), "{raw}");

    let metrics = client::request(port, "GET", "/metrics", "").unwrap();
    assert!(
        metrics.body.contains("serve/rejected-full 1"),
        "{}",
        metrics.body
    );
    server.request_shutdown();
    server.join();
}

#[test]
fn stream_delivers_journal_lines_live() {
    let server = Server::start(config("stream")).expect("start");
    let port = server.port();

    let mut reader = client::open_stream(port).expect("stream");
    let collector = std::thread::spawn(move || {
        let mut lines = Vec::new();
        let mut buf = String::new();
        loop {
            buf.clear();
            match reader.read_line(&mut buf) {
                Ok(0) | Err(_) => return lines,
                Ok(_) => lines.push(buf.trim_end().to_string()),
            }
        }
    });

    let id = client::submit(port, QUICK).expect("submit");
    assert_eq!(client::wait_terminal(port, id, DEADLINE).unwrap(), "done");
    server.request_shutdown();
    server.join(); // closes the fan-out → collector sees EOF

    let lines = collector.join().unwrap();
    assert!(!lines.is_empty(), "subscriber saw the live journal");
    assert!(
        lines
            .iter()
            .all(|l| l.starts_with('{') && l.contains("\"ev\"")),
        "journal lines are JSONL: {:?}",
        lines.first()
    );
}

#[test]
fn wall_clock_timeout_kills_and_fails_deterministically() {
    let mut cfg = config("timeout");
    cfg.job_timeout_ms = Some(1);
    cfg.max_attempts = 2;
    let server = Server::start(cfg).expect("start");
    let port = server.port();

    // Every quantum sleeps 30ms against a 1ms budget: each attempt times
    // out at its first cut, and the ladder ends in a deterministic fail.
    let id = client::submit(port, &format!("{QUICK} slow_ms=30")).expect("submit");
    assert_eq!(client::wait_terminal(port, id, DEADLINE).unwrap(), "failed");
    let rec = client::request(port, "GET", &format!("/v1/jobs/{id}"), "").unwrap();
    assert_eq!(
        json(&rec.body)["message"].as_str(),
        Some("failed after 2 attempt(s): attempt 2 exceeded the wall-clock budget")
    );
    let metrics = client::request(port, "GET", "/metrics", "").unwrap();
    assert!(
        metrics.body.contains("serve/attempt-timeouts 2"),
        "{}",
        metrics.body
    );

    // The timed-out job did not take the daemon with it.
    let status = client::request(port, "GET", "/status", "").unwrap();
    assert_eq!(json(&status.body)["state"].as_str(), Some("running"));
    server.request_shutdown();
    server.join();
}

#[test]
fn sweep_jobs_run_and_render_the_level_table() {
    let server = Server::start(config("sweep")).expect("start");
    let port = server.port();
    let id =
        client::submit(port, "kind=sweep level=all days=2 seeds=1 quick=1 seed=4").expect("submit");
    assert_eq!(client::wait_terminal(port, id, DEADLINE).unwrap(), "done");
    let out = client::fetch_output(port, id).unwrap();
    assert!(out.contains("engine sweep"), "table title: {out:?}");
    for level in ["L0", "L1", "L2", "L3", "L4"] {
        assert!(out.contains(level), "row for {level}: {out:?}");
    }
    server.request_shutdown();
    server.join();
}

#[test]
fn profiled_job_exposes_prometheus_engine_counters() {
    let server = Server::start(config("prof")).expect("start");
    let port = server.port();

    let id =
        client::submit(port, "kind=run level=L3 days=2 quick=1 profile=1 seed=11").expect("submit");
    assert_eq!(client::wait_terminal(port, id, DEADLINE).unwrap(), "done");

    let metrics = client::request(port, "GET", "/metrics", "").unwrap();
    assert_eq!(metrics.status, 200);
    let body = &metrics.body;
    // The historical plain `name value` lines come first, unchanged.
    assert!(body.contains("serve/jobs-done 1"), "{body}");
    // Then the Prometheus exposition of the finished job's profile.
    assert!(
        body.contains("# TYPE selfmaint_engine_prof_total counter"),
        "{body}"
    );
    let needle =
        format!("selfmaint_engine_prof_total{{job=\"{id}\",key=\"prof/sched/scheduled\"}} ");
    let line = body
        .lines()
        .find(|l| l.starts_with(&needle))
        .unwrap_or_else(|| panic!("missing {needle} in:\n{body}"));
    let v: u64 = line
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .expect("counter value");
    assert!(v > 0, "scheduled counter should be nonzero: {line}");

    // A job without profile=1 contributes no exposition lines.
    let plain = client::submit(port, QUICK).expect("submit");
    assert_eq!(
        client::wait_terminal(port, plain, DEADLINE).unwrap(),
        "done"
    );
    let metrics2 = client::request(port, "GET", "/metrics", "").unwrap();
    assert!(
        !metrics2.body.contains(&format!("job=\"{plain}\"")),
        "unprofiled job leaked into /metrics:\n{}",
        metrics2.body
    );

    server.request_shutdown();
    server.join();
}
