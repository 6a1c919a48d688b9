//! `dcmaint-lint` — determinism & hygiene static analysis for this
//! workspace, with a CI gate.
//!
//! The whole reproduction stands on byte-identical seeded runs: the
//! event journal diffs clean across runs, and the sweep output diffs
//! clean across `--jobs` values. Those are *dynamic* checks — they
//! prove the tree as-is, not the next PR. This crate is the static
//! half: a dependency-free, hand-rolled pass (in the same spirit as
//! the sweep crate's hand-rolled work-stealing pool) that walks every
//! workspace `.rs` file with a comment/string-aware scanner
//! ([`lexer`]) and runs a registry of repo-specific rules ([`rules`]):
//!
//! * `wall-clock` — `Instant::now`/`SystemTime` outside `obs::wall`;
//! * `unseeded-rng` — `thread_rng` & friends (all randomness must
//!   derive from the run seed);
//! * `hash-iteration` — `HashMap`/`HashSet`, whose iteration order
//!   varies per process;
//! * `float-fold` — float reductions over map `values()`/`keys()`;
//! * `print-in-lib` — `println!`-family output from library code;
//! * `forbid-unsafe` — crate roots missing `#![forbid(unsafe_code)]`.
//!
//! Justified exceptions carry `// lint:allow(rule): reason`
//! ([`suppress`]; the reason is mandatory), legacy debt lives in a
//! checked-in baseline that can only shrink ([`baseline`]), and both
//! reporters emit stable `(path, line, rule)` order ([`report`]), so
//! the linter's own output is byte-deterministic too. The pass runs as
//! `cargo run -p dcmaint-lint`, as `selfmaint lint`, and as a hard CI
//! gate that exits nonzero on any non-baseline finding.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod docs;
pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;
pub mod semantic;
pub mod suppress;
pub mod tokens;
pub mod walk;

use std::path::Path;

pub use report::Outcome;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// `/`-separated path relative to the workspace root.
    pub path: String,
    /// 1-based line (1 for whole-file findings).
    pub line: u32,
    /// Rule name (one of [`rules::ALL_RULES`]).
    pub rule: &'static str,
    pub message: String,
}

impl Finding {
    pub(crate) fn new(path: &str, line: u32, rule: &'static str, message: String) -> Self {
        Finding {
            path: path.to_string(),
            line,
            rule,
            message,
        }
    }
}

/// What a file is, inferred from its workspace path. Determines which
/// rules apply (library hygiene rules don't bind tests or benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/lib.rs` of some crate.
    LibRoot,
    /// Any other module of a library target.
    Lib,
    /// A binary crate root (`src/main.rs`, `src/bin/*.rs`).
    BinRoot,
    /// An example (its own crate root).
    Example,
    /// Integration tests (`tests/`).
    Test,
    /// Benches.
    Bench,
}

/// Classify a workspace-relative path.
pub fn classify(rel: &str) -> FileKind {
    let p = rel;
    if p.starts_with("tests/") || p.contains("/tests/") {
        FileKind::Test
    } else if p.starts_with("benches/") || p.contains("/benches/") {
        FileKind::Bench
    } else if p.starts_with("examples/") || p.contains("/examples/") {
        FileKind::Example
    } else if p.contains("src/bin/") || p.ends_with("src/main.rs") {
        FileKind::BinRoot
    } else if p.ends_with("src/lib.rs") {
        FileKind::LibRoot
    } else {
        FileKind::Lib
    }
}

/// Lint in-memory sources. `files` is `(rel_path, contents)` in *any*
/// order — findings come out in canonical order regardless. The
/// optional baseline is `(label, text)`.
pub fn lint_sources(
    files: &[(String, String)],
    baseline: Option<(&str, &str)>,
) -> Result<Outcome, String> {
    lint_sources_with(files, baseline, None)
}

/// [`lint_sources`] plus a lock-hierarchy declaration (the contents
/// of `lint-locks.txt`) enabling the `lock-order` rule.
///
/// Two passes: the per-line rules run file-by-file, then the semantic
/// rules ([`semantic`]) run over the whole item model at once. All
/// findings are grouped back to their anchor file *before* inline
/// suppressions apply, so a `lint:allow(event-coverage)` on an `Ev`
/// variant works exactly like the syntactic allows — and unused-allow
/// hygiene stays accurate.
pub fn lint_sources_with(
    files: &[(String, String)],
    baseline: Option<(&str, &str)>,
    locks: Option<&str>,
) -> Result<Outcome, String> {
    let hierarchy = match locks {
        Some(text) => Some(semantic::LockHierarchy::parse(text)?),
        None => None,
    };
    let scans: Vec<lexer::Scan> = files.iter().map(|(_, src)| lexer::scan(src)).collect();
    let masks: Vec<Vec<bool>> = scans
        .iter()
        .map(|s| lexer::test_line_mask(&s.blanked))
        .collect();
    let models: Vec<model::FileModel> = scans
        .iter()
        .map(|s| model::parse(tokens::tokenize(&s.blanked)))
        .collect();

    // Pass 1: per-line rules, grouped per file.
    let mut per_file: Vec<Vec<Finding>> = files
        .iter()
        .zip(&scans)
        .map(|((rel, _), scan)| rules::check(rel, classify(rel), scan))
        .collect();

    // Pass 2: semantic rules over the whole model; group each finding
    // back to its anchor file so suppressions can see it.
    let sem_files: Vec<semantic::SemFile<'_>> = files
        .iter()
        .enumerate()
        .map(|(i, (rel, _))| semantic::SemFile {
            rel,
            kind: classify(rel),
            mask: &masks[i],
            model: &models[i],
        })
        .collect();
    for finding in semantic::check(&sem_files, hierarchy.as_ref()) {
        match files.iter().position(|(rel, _)| *rel == finding.path) {
            Some(i) => per_file[i].push(finding),
            None => per_file[0].push(finding), // unreachable: anchors are scanned files
        }
    }

    let mut findings = Vec::new();
    let mut suppressed = 0;
    for (i, (rel, _)) in files.iter().enumerate() {
        let raw = std::mem::take(&mut per_file[i]);
        let (kept, n) = suppress::apply(rel, &scans[i], raw);
        suppressed += n;
        findings.extend(kept);
    }
    report::sort(&mut findings);
    let mut baselined = 0;
    if let Some((label, text)) = baseline {
        let entries = baseline::parse(text)?;
        let (kept, n) = baseline::apply(findings, &entries, label);
        findings = kept;
        baselined = n;
        report::sort(&mut findings);
    }
    Ok(Outcome {
        findings,
        files: files.len(),
        suppressed,
        baselined,
    })
}

/// Lint a single source file (test/fixture convenience).
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    lint_sources(&[(rel_path.to_string(), src.to_string())], None)
        .expect("no baseline, cannot fail")
        .findings
}

/// Default location of the lock-hierarchy declaration.
pub const LOCKS_FILE: &str = "lint-locks.txt";

/// Lint the workspace tree at `root`. Reads the baseline at
/// `baseline_path` and the lock hierarchy at `locks_path` when they
/// exist (`None` locks path falls back to `root/lint-locks.txt`).
pub fn lint_tree(root: &Path, baseline_path: &Path) -> Result<Outcome, String> {
    lint_tree_with(root, baseline_path, None)
}

/// [`lint_tree`] with an explicit lock-hierarchy path override.
pub fn lint_tree_with(
    root: &Path,
    baseline_path: &Path,
    locks_path: Option<&Path>,
) -> Result<Outcome, String> {
    let rels = walk::workspace_files(root).map_err(|e| format!("walk {root:?}: {e}"))?;
    let mut files = Vec::with_capacity(rels.len());
    for rel in rels {
        let src =
            std::fs::read_to_string(root.join(&rel)).map_err(|e| format!("read {rel}: {e}"))?;
        files.push((rel, src));
    }
    let text;
    let baseline = if baseline_path.exists() {
        text = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("read {baseline_path:?}: {e}"))?;
        let label = baseline_path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| baseline_path.display().to_string());
        Some((label, text))
    } else {
        None
    };
    let default_locks = root.join(LOCKS_FILE);
    let locks_path = locks_path.unwrap_or(&default_locks);
    let locks_text = if locks_path.exists() {
        Some(std::fs::read_to_string(locks_path).map_err(|e| format!("read {locks_path:?}: {e}"))?)
    } else {
        None
    };
    lint_sources_with(
        &files,
        baseline.as_ref().map(|(l, t)| (l.as_str(), t.as_str())),
        locks_text.as_deref(),
    )
}

/// Every flag [`run_cli`] accepts, in usage order. The `selfmaint`
/// dispatcher's doc text and this crate's own usage string are both
/// test-pinned to this list, so a new flag cannot ship undocumented.
pub const CLI_FLAGS: &[&str] = &[
    "--root",
    "--baseline",
    "--locks",
    "--json",
    "--write-baseline",
    "--list-rules",
    "--explain",
];

/// Shared CLI entry for the `dcmaint-lint` binary and the
/// `selfmaint lint` subcommand. Returns the process exit code:
/// 0 clean, 1 findings, 2 usage/IO error.
pub fn run_cli(args: &[String]) -> i32 {
    let mut root = String::from(".");
    let mut baseline: Option<String> = None;
    let mut locks: Option<String> = None;
    let mut json = false;
    let mut write_baseline = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--write-baseline" => write_baseline = true,
            "--list-rules" => {
                let mut out = String::new();
                for r in rules::ALL_RULES {
                    out.push_str(&format!("{r:22} {}\n", rules::describe(r)));
                }
                // lint:allow(print-in-lib): this is the CLI entry point shared by both binaries; stdout is its output contract
                print!("{out}");
                return 0;
            }
            "--root" | "--baseline" | "--locks" | "--explain" if i + 1 >= args.len() => {
                return usage(&format!("{} needs a value", args[i]));
            }
            "--explain" => {
                i += 1;
                let rule = args[i].as_str();
                let Some(doc) = docs::doc_for(rule) else {
                    return usage(&format!(
                        "unknown rule {rule:?} (see --list-rules for the registry)"
                    ));
                };
                // lint:allow(print-in-lib): this is the CLI entry point shared by both binaries; stdout is its output contract
                print!("{}", docs::render_explain(doc));
                return 0;
            }
            "--root" => {
                i += 1;
                root = args[i].clone();
            }
            "--baseline" => {
                i += 1;
                baseline = Some(args[i].clone());
            }
            "--locks" => {
                i += 1;
                locks = Some(args[i].clone());
            }
            other => return usage(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    let root = Path::new(&root);
    let baseline_path = baseline
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| root.join("lint-baseline.txt"));
    let locks_path = locks.map(std::path::PathBuf::from);
    match lint_tree_with(root, &baseline_path, locks_path.as_deref()) {
        Ok(outcome) => {
            if write_baseline {
                let text = baseline::render(&outcome.findings);
                if let Err(e) = std::fs::write(&baseline_path, text) {
                    // lint:allow(print-in-lib): CLI error path; stderr before nonzero exit
                    eprintln!("dcmaint-lint: write {baseline_path:?}: {e}");
                    return 2;
                }
            }
            let rendered = if json {
                report::render_json(&outcome)
            } else {
                report::render_text(&outcome)
            };
            // lint:allow(print-in-lib): this is the CLI entry point shared by both binaries; stdout is its output contract
            print!("{rendered}");
            i32::from(!outcome.clean())
        }
        Err(e) => {
            // lint:allow(print-in-lib): CLI error path; stderr before nonzero exit
            eprintln!("dcmaint-lint: {e}");
            2
        }
    }
}

fn usage(err: &str) -> i32 {
    // lint:allow(print-in-lib): CLI error path; stderr before nonzero exit
    eprintln!(
        "dcmaint-lint: {err}\n\
         usage: dcmaint-lint [--root DIR] [--baseline PATH] [--locks PATH] [--json] \
         [--write-baseline] [--list-rules] [--explain RULE]"
    );
    2
}
