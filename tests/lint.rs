//! The lint gates that live outside clippy's own checks: the wall
//! clock is read only where it is sanctioned, and every member inherits
//! the workspace lint levels clippy enforces.

use std::path::Path;

/// The wall-clock audit. Clippy denies every clock read
/// (`disallowed_methods`) unless the site carries an
/// `#[expect(clippy::disallowed_methods, reason = …)]`, and a stale
/// expectation fails as `unfulfilled_lint_expectations`. So the files
/// carrying that marker are exactly the clock consumers, and each one
/// is *named here*: a new site cannot slip in behind a copied
/// expectation without being added to this list in review. The
/// sanctioned set is `obs::wall` (the profiler and the bench suite read
/// the clock through `WallProfile`) and the daemon edges (the worker's
/// attempt budget and the client's deadline). Test clocks bound how
/// long a test waits; they carry their own expectation and are not
/// audited.
#[test]
fn wall_clock_consumers_are_exactly_the_sanctioned_set() {
    const SANCTIONED: &[&str] = &[
        "crates/obs/src/wall.rs",
        "crates/serve/src/client.rs",
        "crates/serve/src/worker.rs",
    ];

    fn walk(root: &Path, rel: &str, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(root.join(rel)).expect("readable dir") {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            let path = if rel.is_empty() {
                name.clone()
            } else {
                format!("{rel}/{name}")
            };
            let ty = entry.file_type().expect("file type");
            if ty.is_dir()
                && !matches!(name.as_str(), "target" | "vendor" | "tests")
                && !name.starts_with('.')
            {
                walk(root, &path, out);
            } else if ty.is_file() && name.ends_with(".rs") {
                // rustfmt splits a long attribute over lines; match it unwrapped.
                let src = std::fs::read_to_string(root.join(&path)).expect("readable source");
                let unwrapped: String = src.split_whitespace().collect();
                if unwrapped.contains("expect(clippy::disallowed_methods") {
                    out.push(path);
                }
            }
        }
    }

    let mut consumers = Vec::new();
    walk(Path::new(env!("CARGO_MANIFEST_DIR")), "", &mut consumers);
    consumers.sort();
    assert_eq!(
        consumers, SANCTIONED,
        "the set of wall-clock consumers changed — if the new site is \
         legitimate (measurement-only, off the deterministic stdout), list it here"
    );
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
