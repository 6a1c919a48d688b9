//! The static determinism gate, as a test: the workspace tree must be
//! lint-clean (zero non-baseline findings). This is the same check CI
//! runs via `cargo run -p dcmaint-lint`; running it under `cargo test`
//! too means a hazard can't land even where CI is skipped.

use std::path::Path;

use dcmaint_lint::{classify, lexer, lint_sources_with, walk, FileKind};

#[test]
fn workspace_is_lint_clean() {
    // CARGO_MANIFEST_DIR of the root package is the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let outcome =
        dcmaint_lint::lint_tree(root, &root.join("lint-baseline.txt")).expect("lint run failed");
    assert!(
        outcome.clean(),
        "dcmaint-lint found non-baseline findings:\n{}",
        dcmaint_lint::report::render_text(&outcome)
    );
    assert!(
        outcome.files > 100,
        "walk found too few files — wrong root?"
    );
}

/// The wall-clock allow-audit: `lint:allow(wall-clock)` keeps the lint
/// itself quiet, but every sanctioned consumer is *named here*, so a
/// new `Instant::now`/`SystemTime` site cannot slip in behind a copied
/// allow marker — it has to be added to this list in review. The
/// sanctioned set is the `obs::wall` sanctuary (the one module allowed
/// to read the clock; the profiler and the bench suite read it through
/// `WallProfile`) and the daemon edges (the worker's attempt budget and
/// the client's deadline).
#[test]
fn wall_clock_consumers_are_exactly_the_sanctioned_set() {
    const SANCTUARY: &str = "crates/obs/src/wall.rs";
    const SANCTIONED: &[&str] = &[
        "crates/obs/src/wall.rs",
        "crates/serve/src/client.rs",
        "crates/serve/src/worker.rs",
    ];

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut consumers = Vec::new();
    for rel in walk::workspace_files(root).expect("workspace walk") {
        // The lint itself skips tests and benches; the audit matches.
        if matches!(classify(&rel), FileKind::Test | FileKind::Bench) {
            continue;
        }
        let src = std::fs::read_to_string(root.join(&rel)).expect("readable source");
        // Scan over comment/literal-blanked source, exactly like the
        // lint — pattern strings in the lint's own tables don't count.
        let scan = lexer::scan(&src);
        if ["Instant::now", "SystemTime"]
            .iter()
            .any(|p| scan.blanked.contains(p))
        {
            consumers.push(rel);
        }
    }
    consumers.sort();
    assert_eq!(
        consumers, SANCTIONED,
        "the set of wall-clock consumers changed — if the new site is \
         legitimate (measurement-only, off the deterministic stdout), add \
         a lint:allow(wall-clock) with a reason AND list it here"
    );

    for rel in SANCTIONED {
        if *rel == SANCTUARY {
            continue;
        }
        let src = std::fs::read_to_string(root.join(rel)).expect("readable source");
        assert!(
            src.contains("lint:allow(wall-clock)"),
            "{rel} reads the wall clock without a lint:allow(wall-clock) marker"
        );
    }
}

/// README ↔ registry sync: every rule in `ALL_RULES` must be named in
/// the README's `dcmaint-lint` section, so adding a rule without
/// documenting it is a test failure, not a doc-drift. (`docs.rs`
/// separately pins one `RuleDoc` per registry entry for `--explain`.)
#[test]
fn every_rule_is_named_in_readme() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md readable");
    let missing: Vec<&str> = dcmaint_lint::rules::ALL_RULES
        .iter()
        .copied()
        .filter(|r| !readme.contains(&format!("`{r}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "rules registered but not documented in README.md: {missing:?}"
    );
}

// ------------------------------------------------------------------ //
// Mutation pins for the semantic rule family: a healthy miniature
// engine tree lints clean, and each contract mutation — dropping a
// prof_attribution arm, reordering a lock acquisition, drawing on an
// unnamed stream — produces *exactly one* finding of the matching
// rule. These pin the rules' sensitivity: a refactor that silently
// blinds a rule fails here, not in a postmortem.
// ------------------------------------------------------------------ //

const FIX_ENGINE: &str = r#"
pub struct Engine {
    pub now: u64,
    pub links: Vec<LinkRt>,
    pub hazard: Stream,
    pub journal: Journal,
}
pub struct LinkRt {
    pub loss: f64,
}
pub enum Ev {
    Tick,
    RepairDone { ok: bool },
}
impl Engine {
    fn prof_attribution(ev: &Ev) -> &'static str {
        match ev {
            Ev::Tick => "tick",
            Ev::RepairDone { .. } => "repair",
        }
    }
    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Tick => self.on_tick(),
            Ev::RepairDone { ok } => self.on_repair_done(ok),
        }
    }
    fn on_tick(&mut self) {
        self.now += 1;
        self.journal.emit("tick");
    }
    fn on_repair_done(&mut self, ok: bool) {
        let heal = self.hazard.uniform();
        self.links[0].loss = if ok { 0.0 } else { heal };
        self.journal.emit("repair");
    }
}
"#;

const FIX_SERVE: &str = r#"
pub fn status(shared: &Shared) -> String {
    let g = shared.inner.lock().unwrap();
    let seq = shared.ring.lock().unwrap().seq;
    format_status(&g, seq)
}
"#;

const FIX_LOCKS: &str = "[crates/serve]\ninner\nring\n";

/// Semantic-rule findings from a miniature tree (paths match the real
/// anchors the rules key on).
fn semantic_findings(engine: &str, serve: &str) -> Vec<dcmaint_lint::Finding> {
    let files = vec![
        (
            "crates/scenarios/src/engine.rs".to_string(),
            engine.to_string(),
        ),
        ("crates/serve/src/server.rs".to_string(), serve.to_string()),
    ];
    let outcome = lint_sources_with(&files, None, Some(FIX_LOCKS)).expect("fixture lint");
    outcome
        .findings
        .into_iter()
        .filter(|f| {
            matches!(
                f.rule,
                "event-coverage" | "rng-stream-discipline" | "lock-order"
            )
        })
        .collect()
}

#[test]
fn fixture_tree_is_semantically_clean() {
    let findings = semantic_findings(FIX_ENGINE, FIX_SERVE);
    assert!(
        findings.is_empty(),
        "healthy fixture must produce no semantic findings, got: {findings:?}"
    );
}

#[test]
fn deleting_a_prof_attribution_arm_is_one_finding() {
    // Mutation: RepairDone loses its explicit attribution arm (a
    // wildcard takes over — which is precisely the blind spot).
    let engine = FIX_ENGINE.replace(
        "            Ev::RepairDone { .. } => \"repair\",",
        "            _ => \"repair\",",
    );
    let findings = semantic_findings(&engine, FIX_SERVE);
    assert_eq!(
        findings.len(),
        1,
        "exactly one finding expected, got: {findings:?}"
    );
    assert_eq!(findings[0].rule, "event-coverage");
    assert!(findings[0].message.contains("RepairDone"));
}

#[test]
fn reordering_a_lock_acquisition_is_one_finding() {
    // Mutation: ring is grabbed first, then inner — against the
    // declared [crates/serve] order.
    let serve = r#"
pub fn status(shared: &Shared) -> String {
    let r = shared.ring.lock().unwrap();
    let g = shared.inner.lock().unwrap();
    format_status(&g, r.seq)
}
"#;
    let findings = semantic_findings(FIX_ENGINE, serve);
    assert_eq!(
        findings.len(),
        1,
        "exactly one finding expected, got: {findings:?}"
    );
    assert_eq!(findings[0].rule, "lock-order");
    assert!(findings[0].message.contains("`inner`"));
}

#[test]
fn ad_hoc_rng_draw_is_one_finding() {
    // Mutation: a draw on a receiver that is not a named stream.
    let engine = FIX_ENGINE.replace(
        "        let heal = self.hazard.uniform();",
        "        let heal = self.scratch.uniform();",
    );
    let findings = semantic_findings(&engine, FIX_SERVE);
    assert_eq!(
        findings.len(),
        1,
        "exactly one finding expected, got: {findings:?}"
    );
    assert_eq!(findings[0].rule, "rng-stream-discipline");
}
