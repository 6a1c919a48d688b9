//! The rule registry: repo-specific determinism & hygiene lints.
//!
//! Every rule matches over *blanked* code (see [`crate::lexer`]), so
//! comments and string literals can never trigger a finding. Rules are
//! deliberately syntactic over-approximations — a tokenizer cannot
//! prove that a `HashMap` is never iterated, so the contract is the
//! reverse: hazardous *types and calls* are flagged wholesale, and the
//! justified exceptions carry a `// lint:allow(rule): reason`
//! suppression at the use site (see [`crate::suppress`]). That keeps
//! the reasoning local and reviewable, which is the property the
//! byte-identity CI gates actually rely on.

use crate::lexer::{test_line_mask, Scan};
use crate::{FileKind, Finding};

/// Wall-clock reads (`Instant::now`, `SystemTime::…`) outside the
/// sanctioned `obs::wall` profiling module.
pub const WALL_CLOCK: &str = "wall-clock";
/// Ambient-entropy RNG constructors (`thread_rng`, `from_entropy`, …).
pub const UNSEEDED_RNG: &str = "unseeded-rng";
/// `HashMap`/`HashSet`: iteration order varies per process.
pub const HASH_ITERATION: &str = "hash-iteration";
/// Float reduction over a map's `values()`/`keys()` — addition is not
/// associative, so the fold order must be deterministic.
pub const FLOAT_FOLD: &str = "float-fold";
/// `println!`-family output from library code; report output must
/// route through `ReportWriter`/the journal.
pub const PRINT_IN_LIB: &str = "print-in-lib";
/// Crate roots must carry `#![forbid(unsafe_code)]`.
pub const FORBID_UNSAFE: &str = "forbid-unsafe";
/// Semantic: every `Ev` variant needs a `prof_attribution` arm and a
/// reachable journal/trace emission.
pub const EVENT_COVERAGE: &str = "event-coverage";
/// Semantic: engine RNG draws must go through named `Stream`s.
pub const RNG_STREAM: &str = "rng-stream-discipline";
/// Semantic: nested `Mutex` acquisitions must follow `lint-locks.txt`.
pub const LOCK_ORDER: &str = "lock-order";
/// Meta: malformed/unused `lint:allow` suppressions.
pub const ALLOW_HYGIENE: &str = "allow-hygiene";
/// Meta: baseline entries no longer matched by any finding.
pub const STALE_BASELINE: &str = "stale-baseline";

/// Every rule name, in the registry's canonical order.
pub const ALL_RULES: &[&str] = &[
    WALL_CLOCK,
    UNSEEDED_RNG,
    HASH_ITERATION,
    FLOAT_FOLD,
    PRINT_IN_LIB,
    FORBID_UNSAFE,
    EVENT_COVERAGE,
    RNG_STREAM,
    LOCK_ORDER,
    ALLOW_HYGIENE,
    STALE_BASELINE,
];

/// Rules a `lint:allow` may name (the meta rules are not suppressible —
/// a suppression of the suppression checker would be circular).
pub const SUPPRESSIBLE_RULES: &[&str] = &[
    WALL_CLOCK,
    UNSEEDED_RNG,
    HASH_ITERATION,
    FLOAT_FOLD,
    PRINT_IN_LIB,
    FORBID_UNSAFE,
    EVENT_COVERAGE,
    RNG_STREAM,
    LOCK_ORDER,
];

/// Rules a baseline entry may grandfather (same set: the meta rules
/// describe the lint configuration itself and must always be fixed).
pub const BASELINE_RULES: &[&str] = SUPPRESSIBLE_RULES;

/// One-line description per rule, for `--list-rules`.
pub fn describe(rule: &str) -> &'static str {
    match rule {
        WALL_CLOCK => "wall-clock read outside obs::wall (Instant::now, SystemTime)",
        UNSEEDED_RNG => "ambient-entropy RNG (thread_rng, from_entropy, OsRng, rand::random)",
        HASH_ITERATION => "HashMap/HashSet: iteration order is nondeterministic per process",
        FLOAT_FOLD => "float reduction over map values()/keys() — order-sensitive",
        PRINT_IN_LIB => "println!/eprintln!/dbg! in library code (use ReportWriter/journal)",
        FORBID_UNSAFE => "crate root missing #![forbid(unsafe_code)]",
        EVENT_COVERAGE => "Ev variant without prof_attribution arm or reachable journal emission",
        RNG_STREAM => "RNG draw outside a named Stream field / sanctioned derivation",
        LOCK_ORDER => "nested Mutex acquisition violating the declared lint-locks.txt order",
        ALLOW_HYGIENE => "malformed or unused lint:allow suppression",
        STALE_BASELINE => "baseline entry matches fewer findings than it allows",
        _ => "unknown rule",
    }
}

/// The module sanctioned to read the wall clock: profiling lives here
/// and is kept off every deterministic output path by construction.
const WALL_CLOCK_SANCTUARY: &str = "crates/obs/src/wall.rs";
/// The module sanctioned to print: the `ReportWriter` implementation
/// itself, the single funnel all experiment output goes through.
const PRINT_SANCTUARY: &str = "crates/scenarios/src/writer.rs";

const WALL_CLOCK_PATTERNS: &[&str] = &["Instant::now", "SystemTime"];
const RNG_PATTERNS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "rand::random"];
const PRINT_PATTERNS: &[&str] = &["println!", "eprintln!", "print!", "eprint!", "dbg!"];
const HASH_PATTERNS: &[&str] = &["HashMap", "HashSet"];
const FOLD_SOURCES: &[&str] = &[".values()", ".keys()"];
const FOLD_SINKS: &[&str] = &["sum::<f64>", "product::<f64>", "fold(0.0", "fold(0f64"];

/// `pat` occurs in `line` delimited by non-identifier characters (so
/// `println!` does not match inside `eprintln!`).
fn contains_ident(line: &str, pat: &str) -> bool {
    let lb = line.as_bytes();
    let first_is_ident = pat
        .as_bytes()
        .first()
        .is_some_and(u8::is_ascii_alphanumeric);
    let last_is_ident = pat
        .as_bytes()
        .last()
        .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_');
    let mut from = 0;
    while let Some(rel) = line[from..].find(pat) {
        let at = from + rel;
        let ok_before = !first_is_ident
            || at == 0
            || !(lb[at - 1].is_ascii_alphanumeric() || lb[at - 1] == b'_');
        let end = at + pat.len();
        let ok_after = !last_is_ident
            || end >= lb.len()
            || !(lb[end].is_ascii_alphanumeric() || lb[end] == b'_');
        if ok_before && ok_after {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Run every code rule over one scanned file, producing raw findings
/// (suppressions and baseline are applied by the caller).
pub fn check(rel_path: &str, kind: FileKind, scan: &Scan) -> Vec<Finding> {
    let mut out = Vec::new();
    // Whole-file contexts where determinism hazards cannot reach any
    // rendered output: integration tests and benches.
    let lintable = !matches!(kind, FileKind::Test | FileKind::Bench);
    let lines = scan.lines();
    let mask = test_line_mask(&scan.blanked);
    let in_test = |ln: usize| mask.get(ln).copied().unwrap_or(false);

    if lintable {
        for (idx, line) in lines.iter().enumerate() {
            let ln = idx + 1;
            if in_test(ln) {
                continue;
            }
            if rel_path != WALL_CLOCK_SANCTUARY {
                for pat in WALL_CLOCK_PATTERNS {
                    if contains_ident(line, pat) {
                        out.push(Finding::new(
                            rel_path,
                            ln as u32,
                            WALL_CLOCK,
                            format!("`{pat}` reads the wall clock; only obs::wall may (route profiling through WallProfile)"),
                        ));
                    }
                }
            }
            for pat in RNG_PATTERNS {
                if contains_ident(line, pat) {
                    out.push(Finding::new(
                        rel_path,
                        ln as u32,
                        UNSEEDED_RNG,
                        format!("`{pat}` draws ambient entropy; derive every stream from the run seed (SimRng)"),
                    ));
                }
            }
            for pat in HASH_PATTERNS {
                if contains_ident(line, pat) {
                    out.push(Finding::new(
                        rel_path,
                        ln as u32,
                        HASH_ITERATION,
                        format!("`{pat}` iterates in per-process random order; use BTreeMap/BTreeSet or justify a lookup-only use"),
                    ));
                }
            }
            if FOLD_SOURCES.iter().any(|s| line.contains(s))
                && FOLD_SINKS.iter().any(|s| line.contains(s))
            {
                out.push(Finding::new(
                    rel_path,
                    ln as u32,
                    FLOAT_FOLD,
                    "float fold over map values()/keys(); float addition is order-sensitive — fold in key order".to_string(),
                ));
            }
            if matches!(kind, FileKind::Lib | FileKind::LibRoot) && rel_path != PRINT_SANCTUARY {
                for pat in PRINT_PATTERNS {
                    if contains_ident(line, pat) {
                        out.push(Finding::new(
                            rel_path,
                            ln as u32,
                            PRINT_IN_LIB,
                            format!("`{pat}` in library code bypasses ReportWriter/journal; output would not be capturable or deterministic"),
                        ));
                    }
                }
            }
        }
    }

    if matches!(
        kind,
        FileKind::LibRoot | FileKind::BinRoot | FileKind::Example
    ) && !scan.blanked.contains("#![forbid(unsafe_code)]")
    {
        out.push(Finding::new(
            rel_path,
            1,
            FORBID_UNSAFE,
            "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_boundaries() {
        assert!(contains_ident("let m = HashMap::new();", "HashMap"));
        assert!(!contains_ident("let m = MyHashMapLike::new();", "HashMap"));
        assert!(contains_ident("eprintln!(\"x\")", "eprintln!"));
        assert!(!contains_ident("eprintln!(\"x\")", "println!"));
        assert!(contains_ident("t.print!", "print!"));
    }
}
