//! Text and JSON reporters.
//!
//! Both renderings sort findings by `(path, line, rule, message)`, so
//! lint output is itself byte-deterministic — invariant to file
//! discovery order, thread counts, anything. The JSON is hand-rolled
//! (the engine is dependency-free) and emits keys in a fixed order.

use crate::Finding;

/// Final result of a lint run.
#[derive(Debug)]
pub struct Outcome {
    /// Surviving findings, sorted.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files: usize,
    /// Findings silenced by inline `lint:allow`s.
    pub suppressed: usize,
}

impl Outcome {
    /// Gate verdict: anything surviving fails the run.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Canonical finding order.
pub fn sort(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
}

/// Human-readable report.
pub fn render_text(o: &Outcome) -> String {
    let mut out = String::new();
    for f in &o.findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.path, f.line, f.rule, f.message
        ));
    }
    out.push_str(&format!(
        "dcmaint-lint: {} finding(s), {} suppressed, {} file(s) scanned\n",
        o.findings.len(),
        o.suppressed,
        o.files
    ));
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Machine-readable report (one object; findings array in canonical
/// order) — the CI artifact.
///
/// Schema v3: a `schema` tag, and a `by_rule` object counting
/// surviving findings per registered rule (rules with zero findings
/// are present too, so consumers can diff coverage across runs).
pub fn render_json(o: &Outcome) -> String {
    let mut out = String::from("{\n  \"schema\": 3,\n  \"findings\": [");
    for (i, f) in o.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            escape_json(&f.path),
            f.line,
            f.rule,
            escape_json(&f.message)
        ));
    }
    if !o.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"by_rule\": {");
    for (i, rule) in crate::rules::ALL_RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let n = o.findings.iter().filter(|f| f.rule == *rule).count();
        out.push_str(&format!("\n    \"{rule}\": {n}"));
    }
    out.push_str("\n  },");
    out.push_str(&format!(
        "\n  \"files_scanned\": {},\n  \"suppressed\": {},\n  \"clean\": {}\n}}\n",
        o.files,
        o.suppressed,
        o.clean()
    ));
    out
}
