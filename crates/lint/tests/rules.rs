//! Suppression and allow-hygiene fixtures over findings of the
//! retained rules, and a property test that lint output bytes are
//! invariant to file-discovery order.
//!
//! Fixtures are inline source snippets (not files on disk), so the
//! real tree-wide lint run never sees them.

use dcmaint_lint::{classify, lint_sources, report, rules, FileKind, Finding};
use proptest::prelude::*;

const LOCKS: &str = "[crates/serve]\ninner\nring\n";

/// `ring` taken before `inner`: one `lock-order` finding, on line 3.
const INVERTED: &str =
    "fn f(s: &S) {\n    let r = s.ring.lock().unwrap();\n    let g = s.inner.lock().unwrap();\n}\n";

fn file(path: &str, src: &str) -> (String, String) {
    (path.to_string(), src.to_string())
}

fn lint(src: &str) -> Vec<Finding> {
    lint_sources(&[file("crates/serve/src/x.rs", src)], Some(LOCKS))
        .expect("fixture lint")
        .findings
}

fn rules_of(findings: &[Finding]) -> Vec<(&'static str, u32)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

// ----- file-kind classification -------------------------------------

#[test]
fn classification() {
    assert_eq!(classify("src/lib.rs"), FileKind::Lib);
    assert_eq!(classify("crates/des/src/sched.rs"), FileKind::Lib);
    assert_eq!(classify("src/bin/selfmaint.rs"), FileKind::Lib);
    assert_eq!(classify("examples/quickstart.rs"), FileKind::Lib);
    assert_eq!(classify("tests/integration.rs"), FileKind::Test);
    assert_eq!(classify("crates/des/tests/props.rs"), FileKind::Test);
    assert_eq!(classify("crates/bench/benches/hot.rs"), FileKind::Bench);
}

// ----- suppressions -------------------------------------------------

#[test]
fn unsuppressed_fixture_is_one_finding() {
    assert_eq!(rules_of(&lint(INVERTED)), vec![(rules::LOCK_ORDER, 3)]);
}

#[test]
fn suppression_standalone_and_trailing() {
    let standalone = INVERTED.replace(
        "    let g = s.inner",
        "    // lint:allow(lock-order): the ring guard is dropped before inner in practice\n    let g = s.inner",
    );
    assert!(lint(&standalone).is_empty());
    let trailing = INVERTED.replace(
        "s.inner.lock().unwrap();",
        "s.inner.lock().unwrap(); // lint:allow(lock-order): guards never overlap",
    );
    assert!(lint(&trailing).is_empty());
}

#[test]
fn suppression_reason_is_mandatory() {
    let src = INVERTED.replace(
        "    let g = s.inner",
        "    // lint:allow(lock-order)\n    let g = s.inner",
    );
    let f = lint(&src);
    // The bare allow is a hygiene finding AND the lock finding stands.
    let rules: Vec<&str> = f.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&rules::ALLOW_HYGIENE));
    assert!(rules.contains(&rules::LOCK_ORDER));
}

#[test]
fn suppression_unknown_rule_is_flagged() {
    let src = "// lint:allow(no-such-rule): whatever\nfn f() {}\n";
    assert_eq!(rules_of(&lint(src)), vec![(rules::ALLOW_HYGIENE, 1)]);
}

#[test]
fn unused_suppression_is_flagged() {
    let src = "fn f() {\n    // lint:allow(lock-order): stale excuse for code since removed\n    let x = 1;\n}\n";
    assert_eq!(rules_of(&lint(src)), vec![(rules::ALLOW_HYGIENE, 2)]);
}

#[test]
fn suppression_only_covers_its_rule() {
    let src = INVERTED.replace(
        "    let g = s.inner",
        "    // lint:allow(event-coverage): names the wrong rule\n    let g = s.inner",
    );
    let f = lint(&src);
    // The lock finding survives; the event-coverage allow is unused.
    let rules: Vec<&str> = f.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&rules::LOCK_ORDER));
    assert!(rules.contains(&rules::ALLOW_HYGIENE));
}

// ----- determinism of the linter itself -----------------------------

/// A small synthetic workspace with findings in several files.
fn corpus() -> Vec<(String, String)> {
    vec![
        file("crates/serve/src/a.rs", INVERTED),
        file(
            "crates/serve/src/b.rs",
            "fn g(s: &S) {\n    let r = s.ring.lock().unwrap();\n    s.inner.lock().unwrap().tick();\n}\n",
        ),
        file(
            "crates/scenarios/src/engine.rs",
            "enum Ev { Tick, Lost }\nfn prof_attribution(ev: &Ev) -> u8 {\n    match ev { Ev::Tick => 0, _ => 1 }\n}\n",
        ),
        file(
            "crates/sweep/src/c.rs",
            "// lint:allow(no-such-rule): typo\nfn h() {}\n",
        ),
        file("tests/t.rs", INVERTED),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lint output bytes (text and JSON) are invariant to the order
    /// files are discovered in.
    #[test]
    fn output_invariant_to_discovery_order(seed in 0u64..1000) {
        let mut files = corpus();
        // Deterministic shuffle from the case seed.
        let mut s = seed;
        for i in (1..files.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            files.swap(i, (s >> 33) as usize % (i + 1));
        }
        let canon = lint_sources(&corpus(), Some(LOCKS)).unwrap();
        let shuffled = lint_sources(&files, Some(LOCKS)).unwrap();
        prop_assert!(canon.findings.len() >= 4, "corpus lost its findings: {:?}", canon.findings);
        prop_assert_eq!(report::render_text(&canon), report::render_text(&shuffled));
        prop_assert_eq!(report::render_json(&canon), report::render_json(&shuffled));
    }
}
