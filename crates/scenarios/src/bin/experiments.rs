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
//! print identical bytes. Any other argument (`--help` included) prints
//! the usage on stderr and exits 2.

#![expect(
    clippy::print_stderr,
    reason = "usage errors go to stderr; tables go through ReportWriter"
)]

use dcmaint_scenarios::cli::{flag, parse_opt};
use dcmaint_scenarios::sweep::{self, EXPERIMENTS};
use dcmaint_scenarios::{ReportFormat, ReportWriter};

const USAGE: &str = "usage: experiments [e1..e16 a1..a3 ...] [--quick] [--csv | --jsonl] \
                     [--seeds K] [--jobs N] [--seed S]";

/// One invocation, parsed.
#[derive(Debug)]
struct Args {
    /// Experiment ids to run; empty means all of them.
    picks: Vec<String>,
    format: ReportFormat,
    quick: bool,
    seeds: u64,
    jobs: usize,
    seed: u64,
}

/// Parse the arguments after the program name. `--csv`, `--jsonl` and
/// `--quick` are bare flags, `--seeds`, `--jobs` and `--seed` take a
/// value, and an argument not starting with `-` picks an experiment.
/// Anything else is an error whose message names it.
fn parse(args: &[String]) -> Result<Args, String> {
    let mut picks = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" | "--jsonl" | "--quick" => {}
            "--seeds" | "--jobs" | "--seed" => {
                it.next().ok_or_else(|| format!("{a} needs a value"))?;
            }
            pick if !pick.starts_with('-') => {
                if !sweep::is_experiment(pick) {
                    return Err(format!(
                        "unknown experiment {pick:?} (known: {})",
                        EXPERIMENTS.join(" ")
                    ));
                }
                picks.push(pick.to_string());
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let out = Args {
        picks,
        format: if flag(args, "--jsonl") {
            ReportFormat::Jsonl
        } else if flag(args, "--csv") {
            ReportFormat::Csv
        } else {
            ReportFormat::Text
        },
        quick: flag(args, "--quick"),
        seeds: parse_opt(args, "--seeds", 1)?,
        jobs: parse_opt(args, "--jobs", 1)?,
        seed: parse_opt(args, "--seed", 2024)?,
    };
    if out.seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    if out.jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let mut w = ReportWriter::stdout(a.format);

    let picks: Vec<&str> = a.picks.iter().map(String::as_str).collect();
    let out = sweep::run_experiment_sweep(&picks, a.seed, a.seeds, a.jobs, a.quick);
    w.emit_all(&out.tables)
        .expect("write experiment tables to stdout");
    if !out.failures.is_empty() {
        w.emit(&sweep::failures_table(&out.failures))
            .expect("write failures table to stdout");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(list: &[&str]) -> Result<Args, String> {
        parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn misspelt_and_help_flags_are_rejected() {
        for flag in ["--quik", "--help", "-h"] {
            let err = parse_strs(&["e4", flag]).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn a_value_flag_without_its_value_names_the_flag() {
        let err = parse_strs(&["e4", "--seeds"]).unwrap_err();
        assert!(err.contains("--seeds"), "{err}");
        assert!(parse_strs(&["--jobs", "two"])
            .unwrap_err()
            .contains("--jobs"));
    }

    #[test]
    fn unknown_experiment_lists_the_registry() {
        let err = parse_strs(&["e17"]).unwrap_err();
        assert!(err.contains("\"e17\""), "{err}");
        for known in ["e15", "e16", "a3"] {
            assert!(err.contains(known), "{err}");
        }
    }

    #[test]
    fn values_are_not_mistaken_for_picks() {
        let a = parse_strs(&["e4", "--seeds", "2", "e8", "--csv"]).unwrap();
        assert_eq!(a.picks, ["e4", "e8"]);
        assert_eq!((a.seeds, a.jobs, a.seed), (2, 1, 2024));
        assert_eq!(a.format, ReportFormat::Csv);
        let b = parse_strs(&["--quick", "--jsonl", "--csv", "--seed", "7", "--jobs", "3"]).unwrap();
        assert!(b.quick && b.picks.is_empty());
        assert_eq!((b.seed, b.jobs, b.format), (7, 3, ReportFormat::Jsonl));
        assert!(parse_strs(&["--seeds", "0"]).is_err());
        assert!(parse_strs(&["--jobs", "0"]).is_err());
    }
}
