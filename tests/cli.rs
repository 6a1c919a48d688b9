//! CLI tests: a damaged checkpoint or an argument a command does not
//! declare must always surface as a clear diagnostic and a nonzero exit
//! — never a panic, never a silent run that hides the mistake from the
//! operator — and pinned outputs must equal their committed goldens.
//!
//! These spawn the real `selfmaint` binary (via `CARGO_BIN_EXE_*`), so
//! they exercise the exact paths an operator hits.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use selfmaint::ckpt::fnv1a64;

fn selfmaint(args: &[&str]) -> Output {
    selfmaint_in(Path::new("."), args)
}

fn selfmaint_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_selfmaint"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn selfmaint")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A successful run whose stdout equals its committed golden.
fn assert_golden(out: &Output, golden: &str) {
    assert!(out.status.success(), "{}", stderr(out));
    assert_eq!(stdout(out), golden, "stdout left its golden");
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcmaint-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run a tiny checkpointed run and return the final snapshot's path.
fn make_checkpoint(dir: &Path, days: u64) -> PathBuf {
    let out = selfmaint(&[
        "run",
        "--days",
        &days.to_string(),
        "--seed",
        "9",
        "--checkpoint-every",
        "1",
        "--checkpoint-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "seed run failed: {}", stderr(&out));
    let path = dir.join(format!("ckpt-day-{days:04}.bin"));
    assert!(path.exists(), "expected checkpoint at {}", path.display());
    path
}

#[test]
fn run_resume_rejects_garbage_checkpoint_cleanly() {
    let dir = scratch("garbage");
    let bad = dir.join("bad.bin");
    std::fs::write(&bad, b"this is not a snapshot").unwrap();
    let out = selfmaint(&["run", "--days", "2", "--resume", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("corrupt checkpoint") && err.contains("bad.bin"),
        "diagnostic must name the file and the problem: {err}"
    );
    assert!(
        !err.contains("panicked"),
        "must exit cleanly, not panic: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_resume_rejects_truncated_checkpoint_cleanly() {
    let dir = scratch("truncated");
    let path = make_checkpoint(&dir, 2);
    let bytes = std::fs::read(&path).unwrap();
    // Chop the tail off: the integrity hash (and likely the payload
    // length) no longer line up.
    std::fs::write(&path, &bytes[..bytes.len() * 2 / 3]).unwrap();
    let out = selfmaint(&[
        "run",
        "--days",
        "2",
        "--seed",
        "9",
        "--resume",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("corrupt checkpoint"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_resume_rejects_mismatched_configuration_cleanly() {
    let dir = scratch("mismatch");
    let path = make_checkpoint(&dir, 2);
    // Same file, different scenario (--days changes the config
    // fingerprint): refuse rather than resume into the wrong world.
    let out = selfmaint(&[
        "run",
        "--days",
        "3",
        "--seed",
        "9",
        "--resume",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("does not match this configuration"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_resume_rejects_corrupt_manifest_cleanly() {
    let dir = scratch("sweep-manifest");
    std::fs::write(dir.join("job-0000.bin"), b"garbage, not a snapshot").unwrap();
    let out = selfmaint(&[
        "sweep",
        "--quick",
        "--seeds",
        "1",
        "--days",
        "2",
        "--level",
        "L3",
        "--manifest",
        dir.to_str().unwrap(),
        "--resume",
    ]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("corrupt sweep checkpoint") && err.contains("job-0000.bin"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_resume_without_manifest_is_a_usage_error() {
    let out = selfmaint(&[
        "sweep", "--quick", "--seeds", "1", "--days", "2", "--resume",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--resume requires --manifest"));
}

/// The trace stdout, its journal's length and FNV-1a digest (the 152 KB
/// journal is not committed) and the quick sweep stdout, pinned byte for
/// byte. A changed golden is re-blessed only with a reason in CHANGES.md.
#[test]
fn trace_and_sweep_match_their_goldens() {
    let dir = scratch("goldens");
    let journal = dir.join("trace.jsonl");
    let trace = ["trace", "--level", "L3", "--days", "14", "--seed", "42"];
    let out = selfmaint(&[&trace[..], &["--journal", journal.to_str().unwrap()]].concat());
    assert_golden(&out, include_str!("fixtures/trace-l3-14d-seed42.txt"));
    let bytes = std::fs::read(&journal).unwrap();
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (151_835, 0x5f16_175b_fa52_1ff2),
        "trace journal (length, FNV-1a digest)"
    );

    let sweep = [
        "sweep", "--quick", "--days", "14", "--seeds", "4", "--jobs", "2",
    ];
    let out = selfmaint(&sweep);
    assert_golden(&out, include_str!("fixtures/sweep-quick-14d-4seeds.txt"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restore ≡ continuous on the real binary: a 14-day L3 run prints the
/// same JSON plain, checkpointed every 5 days, and resumed from its
/// day-10 checkpoint.
#[test]
fn checkpointed_and_resumed_runs_print_the_continuous_json() {
    let dir = scratch("restore");
    let run = [
        "run", "--level", "L3", "--days", "14", "--seed", "42", "--json",
    ];
    let plain = selfmaint(&run);
    assert!(plain.status.success(), "{}", stderr(&plain));
    let every = ["--checkpoint-every", "5", "--checkpoint-dir"];
    let checkpointed = selfmaint(&[&run[..], &every, &[dir.to_str().unwrap()]].concat());
    let day10 = dir.join("ckpt-day-0010.bin");
    let resumed = selfmaint(&[&run[..], &["--resume", day10.to_str().unwrap()]].concat());
    for (what, out) in [("checkpointed", &checkpointed), ("resumed", &resumed)] {
        assert!(out.status.success(), "{what}: {}", stderr(out));
        assert_eq!(
            stdout(out),
            stdout(&plain),
            "the {what} run left the continuous one"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bisect demo finds its planted nondeterminism: exit 1, and a
/// report that marks the divergent checkpoint and names the first
/// divergent event.
#[test]
fn bisect_demo_reports_the_planted_divergence() {
    let dir = scratch("bisect");
    let report = dir.join("r.txt");
    let out = selfmaint(&["bisect", "--quick", "--out", report.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = std::fs::read_to_string(&report).expect("bisect writes its report");
    assert!(
        text.contains("DIVERGED") && text.contains("first divergent event"),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each argument a command does not accept is refused with exit 2 and
/// named on stderr: nothing on stdout, no file written. Only the
/// out-of-range `--incident` needs the run; the rest are refused before
/// anything runs.
#[test]
fn undeclared_repeated_and_valueless_arguments_exit_2_before_running() {
    let dir = scratch("strict");
    let cases: [(&[&str], &str); 12] = [
        (&["run", "--dayz", "1"], "--dayz"),
        (&["run", "--help"], "--help"),
        (&["run", "30"], "\"30\""),
        (&["run", "--seed", "5", "--seed", "9"], "--seed"),
        (&["levels", "--bogus-flag"], "--bogus-flag"),
        (&["sweep", "--seedz", "2"], "--seedz"),
        (&["sweep", "--jobs", "0"], "--jobs"),
        (&["advise", "--target"], "--target"),
        (&["trace", "--journal", "--days", "1"], "--journal"),
        (&["experiments", "e17"], "\"e17\""),
        (&["experiments", "--quik"], "--quik"),
        (&["trace", "--days", "1", "--incident", "999"], "999"),
    ];
    for (argv, named) in cases {
        let out = selfmaint_in(&dir, argv);
        let err = stderr(&out);
        // The reason, then the command's synopsis, end stderr.
        let mut last = err.lines().rev();
        let (synopsis, reason) = (last.next().unwrap_or(""), last.next().unwrap_or(""));
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {err}");
        let usage = format!("usage: selfmaint {}", argv[0]);
        assert!(
            synopsis.starts_with(&usage) && reason.contains(named),
            "{argv:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{argv:?} printed {}", stdout(&out));
    }
    assert!(
        !dir.join("--days").exists(),
        "trace wrote its journal to a file named --days"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One run of each command that no other test or CI step runs, so that
/// every handler has read its arguments against its declared list at
/// least once (reading an undeclared one panics). `experiments e5` also
/// checks the front door's bytes against the committed tables.
#[test]
fn every_handler_reads_only_declared_arguments() {
    let fixture = include_str!("fixtures/experiments-quick.txt");
    for argv in [
        &["profile", "--quick", "--days", "1"][..],
        &["topo"],
        &["levels"],
        &["advise"],
        &["experiments", "e5"],
    ] {
        let out = selfmaint(argv);
        assert!(out.status.success(), "{argv:?}: {}", stderr(&out));
        let printed = stdout(&out);
        assert!(!printed.is_empty(), "{argv:?} printed nothing");
        let e5 = argv[0] == "experiments";
        assert!(
            !e5 || fixture.contains(&printed),
            "E5 left its golden:\n{printed}"
        );
    }
}
