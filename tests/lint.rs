//! The static determinism gates, as tests: the workspace tree must be
//! lint-clean (zero findings), every member must inherit the workspace
//! lint levels clippy enforces, and the wall clock is read only where
//! it is sanctioned. The first is the same check CI runs via `cargo run
//! -p dcmaint-lint`; running it under `cargo test` too means a hazard
//! can't land even where CI is skipped.

use std::path::Path;

use dcmaint_lint::{classify, lexer, lint_sources, walk, FileKind};

#[test]
fn workspace_is_lint_clean() {
    // CARGO_MANIFEST_DIR of the root package is the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let outcome = dcmaint_lint::lint_tree(root).expect("lint run failed");
    assert!(
        outcome.clean(),
        "dcmaint-lint found findings:\n{}",
        dcmaint_lint::report::render_text(&outcome)
    );
    assert!(
        outcome.files > 100,
        "walk found too few files — wrong root?"
    );
}

/// The wall-clock audit: an `#[expect(clippy::disallowed_methods)]`
/// keeps clippy quiet, but every sanctioned consumer is *named here*,
/// so a new `Instant::now`/`SystemTime` site cannot slip in behind a
/// copied expectation — it has to be added to this list in review.
/// The sanctioned set is `obs::wall` (the profiler and the bench suite
/// read the clock through `WallProfile`) and the daemon edges (the
/// worker's attempt budget and the client's deadline).
#[test]
fn wall_clock_consumers_are_exactly_the_sanctioned_set() {
    const SANCTIONED: &[&str] = &[
        "crates/obs/src/wall.rs",
        "crates/serve/src/client.rs",
        "crates/serve/src/worker.rs",
    ];

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut consumers = Vec::new();
    for rel in walk::workspace_files(root).expect("workspace walk") {
        // Test clocks bound how long a test waits; they carry their
        // own expectation and are not audited.
        if matches!(classify(&rel), FileKind::Test | FileKind::Bench) {
            continue;
        }
        let src = std::fs::read_to_string(root.join(&rel)).expect("readable source");
        // Scan over comment/literal-blanked source, so prose and
        // string literals that name the clock don't count.
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
         an #[expect(clippy::disallowed_methods, reason = …)] AND list it here"
    );

    for rel in SANCTIONED {
        let src = std::fs::read_to_string(root.join(rel)).expect("readable source");
        // rustfmt splits a long attribute over lines; match it unwrapped.
        let unwrapped: String = src.split_whitespace().collect();
        assert!(
            unwrapped.contains("expect(clippy::disallowed_methods"),
            "{rel} reads the wall clock without an expect(clippy::disallowed_methods) marker"
        );
    }
}

/// The lint levels clippy enforces (`unsafe_code = "forbid"`, the
/// print, `dbg!`, disallowed-path and `#[allow]` rules) are declared
/// once, in the root manifest's `[workspace.lints]`, and bind a package
/// only when its manifest says `[lints] workspace = true`. A member
/// that drops the line silently leaves every rule, so the root package
/// and every `crates/*` member must carry it.
#[test]
fn every_member_inherits_the_workspace_lints() {
    fn inherits(manifest: &str) -> bool {
        let mut in_lints = false;
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                in_lints = line == "[lints]";
            } else if in_lints && line.replace(' ', "") == "workspace=true" {
                return true;
            }
        }
        false
    }

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(
        root_manifest.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""),
        "the root manifest no longer forbids unsafe code for the workspace"
    );
    let mut manifests = vec![("Cargo.toml".to_string(), root_manifest)];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ readable") {
        let path = entry.expect("crates/ entry").path().join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&path) {
            let rel = path.strip_prefix(root).expect("under the root");
            manifests.push((rel.display().to_string(), text));
        }
    }
    assert!(manifests.len() > 10, "too few manifests — wrong root?");
    let missing: Vec<&str> = manifests
        .iter()
        .filter(|(_, text)| !inherits(text))
        .map(|(rel, _)| rel.as_str())
        .collect();
    assert!(
        missing.is_empty(),
        "manifests without `[lints] workspace = true`: {missing:?}"
    );
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
// Mutation pins for the semantic rules: a healthy miniature engine
// tree lints clean, and each contract mutation — dropping a
// prof_attribution arm, reordering a lock acquisition — produces
// *exactly one* finding of the matching rule. These pin the rules'
// sensitivity: a refactor that silently blinds a rule fails here, not
// in a postmortem. (A draw on an unnamed stream needs no pin: it does
// not compile — see the `compile_fail` example on `dcmaint_des::Stream`.)
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
    lint_sources(&files, Some(FIX_LOCKS))
        .expect("fixture lint")
        .findings
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
