//! `dcbench --workload NAME|all [--seed N] [--seconds N] [--trace 0|1]`
//!
//! Runs one workload and prints its result as one JSON line on stdout
//! (the end-to-end metrics, or the per-layer metrics with `--trace 1`)
//! and a readable table on stderr. `all` runs every workload, each in a
//! child process of its own, one after another.

#![forbid(unsafe_code)]

use std::process::{exit, Command};

use dcbench::{Workload, WORKLOADS};

const USAGE: &str = "usage: dcbench [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        seed: 42,
        seconds: 20,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.max(1),
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// Run every workload in a child process; pass their results through.
fn run_all(a: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("dcbench: cannot find own executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in &WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("dcbench: {} exited with {s}", w.name);
                code = 1;
            }
            Err(e) => {
                eprintln!("dcbench: cannot run {}: {e}", w.name);
                code = 1;
            }
        }
    }
    code
}

fn main() {
    let a = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dcbench: {e}\n{USAGE}");
            exit(2);
        }
    };
    if a.workload == "all" {
        exit(run_all(&a));
    }
    let Some(w) = Workload::named(&a.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "dcbench: unknown workload {} (one of: {}, all)",
            a.workload,
            names.join(", ")
        );
        exit(2);
    };
    let out = dcbench::run(&w.sized(a.seconds), a.seed, a.trace);
    for e in &out.errors {
        eprintln!("dcbench: {e}");
    }
    eprint!("{}", out.table());
    println!("{}", out.result_json(a.trace));
    if !out.correct() {
        exit(1);
    }
}
