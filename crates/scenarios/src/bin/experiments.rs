//! Regenerate every table and figure series in EXPERIMENTS.md at full
//! size, printing text tables (default), CSV (`--csv`), or JSONL
//! (`--jsonl`).
//!
//! Usage:
//!   experiments                    # all experiments, text tables
//!   experiments --csv              # all experiments, CSV blocks
//!   experiments --jsonl            # all experiments, one JSON object per table
//!   experiments e4 e8              # a subset
//!   experiments e14 --quick        # CI-sized E14 (determinism check)
//!   experiments --seeds 8 --jobs 4 # 8 seed replicates per experiment,
//!                                  # mean ±95% CI columns, 4 workers
//!
//! A fixed base seed (2024, override with `--seed`) makes the output
//! byte-reproducible — including across `--jobs` values: the sweep pool
//! merges results in canonical order, so `--jobs 1` and `--jobs N`
//! print identical bytes.

#![expect(
    clippy::print_stderr,
    reason = "usage errors go to stderr; tables go through ReportWriter"
)]

use dcmaint_scenarios::cli::{flag, parse_opt_or_exit};
use dcmaint_scenarios::sweep;
use dcmaint_scenarios::{ReportFormat, ReportWriter};

const SEED: u64 = 2024;

/// Flags that consume the following argument (their values must not be
/// mistaken for experiment picks).
const VALUE_FLAGS: [&str; 3] = ["--seeds", "--jobs", "--seed"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = flag(&args, "--csv");
    let jsonl = flag(&args, "--jsonl");
    let quick = flag(&args, "--quick");
    let seeds: u64 = parse_opt_or_exit(&args, "--seeds", 1);
    let jobs: usize = parse_opt_or_exit(&args, "--jobs", 1);
    let seed: u64 = parse_opt_or_exit(&args, "--seed", SEED);

    let mut picks: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if VALUE_FLAGS.contains(&a) {
            i += 2;
            continue;
        }
        if a.starts_with("--") {
            i += 1;
            continue;
        }
        picks.push(a);
        i += 1;
    }
    for p in &picks {
        if !sweep::is_experiment(p) {
            eprintln!("unknown experiment {p:?} (known: e1..e14, a1..a3)");
            std::process::exit(2);
        }
    }
    if seeds == 0 {
        eprintln!("--seeds must be at least 1");
        std::process::exit(2);
    }
    if jobs == 0 {
        eprintln!("--jobs must be at least 1");
        std::process::exit(2);
    }

    let format = if jsonl {
        ReportFormat::Jsonl
    } else if csv {
        ReportFormat::Csv
    } else {
        ReportFormat::Text
    };
    let mut w = ReportWriter::stdout(format);

    let out = sweep::run_experiment_sweep(&picks, seed, seeds, jobs, quick);
    w.emit_all(&out.tables)
        .expect("write experiment tables to stdout");
    if !out.failures.is_empty() {
        w.emit(&sweep::failures_table(&out.failures))
            .expect("write failures table to stdout");
        std::process::exit(1);
    }
}
