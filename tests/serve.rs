//! Process-level crash-recovery e2e for `selfmaint serve`: the daemon
//! binary is started for real, killed for real (SIGKILL / SIGTERM /
//! the graceful endpoint), restarted on the same spool, and must finish
//! the interrupted job with output byte-identical to a run nothing ever
//! happened to. Also the sweep half of the satellite: a sweep that
//! panics mid-manifest resumes to byte-identical stdout.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use selfmaint::des::SimDuration;
use selfmaint::serve::{client, ServeConfig, Server};

const DEADLINE: Duration = Duration::from_secs(120);
/// 2 simulated days at a 6h quantum = 8 snapshot cuts; slow_ms=60
/// stretches the job to ~500ms of wall time so kills land mid-run.
const SPEC: &str = "kind=run level=L3 days=2 quick=1 obs=1 seed=21 slow_ms=60";

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_selfmaint")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcmaint-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Start the daemon binary on `spool`, returning the child and the port
/// it bound (discovered through `--port-file`).
#[expect(
    clippy::zombie_processes,
    reason = "the child is returned live; every caller reaps it"
)]
fn start_daemon(spool: &Path) -> (Child, u16) {
    let port_file = spool.join("port.txt");
    let _ = std::fs::remove_file(&port_file);
    let child = Command::new(bin())
        .args([
            "serve",
            "--port",
            "0",
            "--spool",
            spool.to_str().unwrap(),
            "--checkpoint-hours",
            "6",
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn selfmaint serve");
    #[expect(clippy::disallowed_methods, reason = "a test's wait deadline")]
    let t0 = std::time::Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(port) = text.trim().parse::<u16>() {
                return (child, port);
            }
        }
        assert!(t0.elapsed() < DEADLINE, "daemon never wrote its port file");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The spec's output from a daemon nothing ever happened to.
fn reference_output(tag: &str) -> String {
    let dir = scratch(tag);
    let server = Server::start(ServeConfig {
        spool: dir.to_string_lossy().into_owned(),
        checkpoint_every: SimDuration::from_hours(6),
        ..ServeConfig::default()
    })
    .expect("reference daemon");
    let port = server.port();
    let id = client::submit(port, SPEC).expect("submit");
    assert_eq!(client::wait_terminal(port, id, DEADLINE).unwrap(), "done");
    let out = client::fetch_output(port, id).expect("output");
    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Restart the daemon on a spool holding an interrupted job and assert
/// the job completes byte-identically to `reference`.
fn recover_and_compare(spool: &Path, id: u64, reference: &str) {
    let (mut child, port) = start_daemon(spool);
    assert_eq!(
        client::wait_terminal(port, id, DEADLINE).expect("terminal"),
        "done",
        "recovered job must finish"
    );
    assert_eq!(
        client::fetch_output(port, id).expect("output"),
        reference,
        "recovered output must be byte-identical to the uninterrupted run"
    );
    let resp = client::request(port, "POST", "/v1/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
    let status = child.wait().expect("wait");
    assert!(status.success(), "graceful drain exits 0, got {status:?}");
}

/// Submit SPEC and give the daemon a moment to be visibly mid-job.
fn submit_and_settle(port: u16) -> u64 {
    let id = client::submit(port, SPEC).expect("submit");
    std::thread::sleep(Duration::from_millis(200));
    id
}

#[test]
fn sigkill_mid_job_then_restart_is_byte_identical() {
    let reference = reference_output("kill9-ref");
    let spool = scratch("kill9");
    let (mut child, port) = start_daemon(&spool);
    let id = submit_and_settle(port);
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
    recover_and_compare(&spool, id, &reference);
}

#[test]
fn sigterm_is_fail_stop_and_recovers_identically() {
    let reference = reference_output("term-ref");
    let spool = scratch("term");
    let (mut child, port) = start_daemon(&spool);
    let id = submit_and_settle(port);
    // Plain SIGTERM: the std-only daemon installs no handler, so this is
    // the fail-stop path — death now, lossless recovery at next start.
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success());
    let status = child.wait().expect("reap");
    assert!(!status.success(), "SIGTERM kills the process");
    recover_and_compare(&spool, id, &reference);
}

#[test]
fn graceful_endpoint_drains_exits_zero_and_resumes_identically() {
    let reference = reference_output("drain-ref");
    let spool = scratch("drain");
    let (mut child, port) = start_daemon(&spool);
    let id = submit_and_settle(port);
    let resp = client::request(port, "POST", "/v1/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
    let status = child.wait().expect("wait");
    assert!(status.success(), "drain must exit 0, got {status:?}");
    // The job was parked, not finished: no done-journal entry yet.
    let done = std::fs::read_to_string(spool.join("done.log")).unwrap_or_default();
    assert!(
        !done.lines().any(|l| l.starts_with(&format!("{id}\t"))),
        "job must be parked across the drain, done.log: {done:?}"
    );
    recover_and_compare(&spool, id, &reference);
}

#[test]
fn sweep_killed_mid_manifest_resumes_to_byte_identical_stdout() {
    let dir = scratch("sweep-resume");
    let manifest = dir.join("manifest");
    let sweep_args = |extra: &[&str]| {
        let mut args = vec![
            "sweep".to_string(),
            "--quick".into(),
            "--seeds".into(),
            "2".into(),
            "--days".into(),
            "2".into(),
            "--seed".into(),
            "7".into(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        args
    };
    let run = |args: &[String]| {
        let out = Command::new(bin()).args(args).output().expect("run sweep");
        (
            out.status,
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };

    // Uninterrupted reference.
    let (st, reference) = run(&sweep_args(&[]));
    assert!(st.success());

    // A sweep whose plan job #1 panics mid-manifest: completes with a
    // failure row, finished jobs checkpointed under the manifest.
    let (st, wounded) = run(&sweep_args(&[
        "--manifest",
        manifest.to_str().unwrap(),
        "--inject-panic",
        "1",
    ]));
    assert_eq!(
        st.code(),
        Some(1),
        "a sweep with failures exits 1 (contained, not a crash)"
    );
    assert!(wounded.contains("injected sweep panic"), "{wounded}");
    assert_ne!(wounded, reference);

    // Resume: only the panicked job re-runs; stdout is byte-identical
    // to the sweep nothing ever happened to.
    let (st, resumed) = run(&sweep_args(&[
        "--manifest",
        manifest.to_str().unwrap(),
        "--resume",
    ]));
    assert!(st.success());
    assert_eq!(
        resumed, reference,
        "resumed sweep stdout must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
