//! `dcmaint-lint` — the workspace's cross-file contracts, with a CI
//! gate.
//!
//! The whole reproduction stands on byte-identical seeded runs. The
//! per-expression determinism rules — no wall-clock reads, no
//! `HashMap`/`HashSet`/`RandomState`, no bare `SmallRng`, no prints in
//! library code, no `unsafe` — are clippy's, configured by the root
//! `clippy.toml` and `[workspace.lints]`, which see resolved paths. This
//! crate keeps the two contracts no per-expression lint can express:
//! a dependency-free pass (in the same spirit as the sweep crate's
//! hand-rolled work-stealing pool) walks every workspace `.rs` file
//! with a comment/string-aware scanner ([`lexer`]), builds an item
//! model ([`model`]), and runs the cross-file rules ([`semantic`]):
//!
//! * `event-coverage` — every `Ev` variant has an explicit
//!   `prof_attribution` arm and reaches a journal/trace emission;
//! * `lock-order` — nested `Mutex` acquisitions follow
//!   `lint-locks.txt`.
//!
//! Justified exceptions carry `// lint:allow(rule): reason`
//! ([`suppress`]; the reason is mandatory, and a malformed or unused
//! allow is an `allow-hygiene` finding). Both reporters emit stable
//! `(path, line, rule)` order ([`report`]), so the linter's own output
//! is byte-deterministic too. The pass runs as `cargo run -p
//! dcmaint-lint` and as a hard CI gate that exits nonzero on any
//! finding.

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
    /// 1-based line.
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

/// What a file is, inferred from its workspace path. The cross-file
/// rules read production code only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library, binary or example code.
    Lib,
    /// Integration tests (`tests/`).
    Test,
    /// Benches.
    Bench,
}

/// Classify a workspace-relative path.
pub fn classify(rel: &str) -> FileKind {
    if rel.starts_with("tests/") || rel.contains("/tests/") {
        FileKind::Test
    } else if rel.starts_with("benches/") || rel.contains("/benches/") {
        FileKind::Bench
    } else {
        FileKind::Lib
    }
}

/// Lint in-memory sources. `files` is `(rel_path, contents)` in *any*
/// order — findings come out in canonical order regardless. `locks` is
/// the lock-hierarchy declaration (the contents of `lint-locks.txt`)
/// that enables the `lock-order` rule.
///
/// The rules run over the whole item model at once; each finding is
/// grouped back to its anchor file *before* inline suppressions apply,
/// so a `lint:allow(event-coverage)` on an `Ev` variant silences it and
/// unused-allow hygiene stays accurate.
pub fn lint_sources(files: &[(String, String)], locks: Option<&str>) -> Result<Outcome, String> {
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
    let mut per_file: Vec<Vec<Finding>> = vec![Vec::new(); files.len()];
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
    Ok(Outcome {
        findings,
        files: files.len(),
        suppressed,
    })
}

/// Location of the lock-hierarchy declaration, relative to the root.
pub const LOCKS_FILE: &str = "lint-locks.txt";

/// Lint the workspace tree at `root`, with the lock hierarchy at
/// `root/lint-locks.txt` when it exists.
pub fn lint_tree(root: &Path) -> Result<Outcome, String> {
    let rels = walk::workspace_files(root).map_err(|e| format!("walk {root:?}: {e}"))?;
    let mut files = Vec::with_capacity(rels.len());
    for rel in rels {
        let src =
            std::fs::read_to_string(root.join(&rel)).map_err(|e| format!("read {rel}: {e}"))?;
        files.push((rel, src));
    }
    let locks_path = root.join(LOCKS_FILE);
    let locks = if locks_path.exists() {
        Some(
            std::fs::read_to_string(&locks_path)
                .map_err(|e| format!("read {locks_path:?}: {e}"))?,
        )
    } else {
        None
    };
    lint_sources(&files, locks.as_deref())
}
