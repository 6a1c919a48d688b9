//! Inline suppressions: `// lint:allow(rule[, rule…]): reason`.
//!
//! A suppression silences matching findings on its own line (trailing
//! comment) or, when the comment stands alone, on the next line that
//! carries code. The reason is mandatory — a suppression is a claim
//! ("this event is internal bookkeeping") and the claim must be
//! written down where the reviewer will read it. Malformed and *unused*
//! suppressions are themselves findings ([`crate::rules::ALLOW_HYGIENE`]),
//! so stale annotations can't accumulate after the hazard they
//! excused is gone.

use crate::lexer::{Comment, Scan};
use crate::rules::{ALLOW_HYGIENE, SUPPRESSIBLE_RULES};
use crate::Finding;

const MARKER: &str = "lint:allow(";

#[derive(Debug)]
struct Allow {
    /// Line of the comment.
    line: u32,
    /// Line whose findings it suppresses.
    target: u32,
    rules: Vec<String>,
    used: bool,
}

/// Parse suppressions and apply them to `findings`. Returns the
/// surviving findings, the number suppressed, and any hygiene findings
/// produced along the way (appended to the result).
pub fn apply(rel_path: &str, scan: &Scan, findings: Vec<Finding>) -> (Vec<Finding>, usize) {
    let mut allows: Vec<Allow> = Vec::new();
    let mut hygiene: Vec<Finding> = Vec::new();
    let lines = scan.lines();
    for c in &scan.comments {
        parse_allow(rel_path, c, &lines, &mut allows, &mut hygiene);
    }
    let mut kept = Vec::new();
    let mut suppressed = 0;
    for f in findings {
        let hit = allows
            .iter_mut()
            .find(|a| a.target == f.line && a.rules.iter().any(|r| r == f.rule));
        match hit {
            Some(a) => {
                a.used = true;
                suppressed += 1;
            }
            None => kept.push(f),
        }
    }
    for a in &allows {
        if !a.used {
            hygiene.push(Finding::new(
                rel_path,
                a.line,
                ALLOW_HYGIENE,
                format!(
                    "unused suppression for ({}): no matching finding on line {} — remove it",
                    a.rules.join(", "),
                    a.target
                ),
            ));
        }
    }
    kept.extend(hygiene);
    (kept, suppressed)
}

fn parse_allow(
    rel_path: &str,
    c: &Comment,
    lines: &[&str],
    allows: &mut Vec<Allow>,
    hygiene: &mut Vec<Finding>,
) {
    // Directive style: the comment must *start* with the marker, so
    // prose and docs that merely mention `lint:allow(...)` never parse.
    let text = c.text.trim_start();
    if !text.starts_with(MARKER) {
        return;
    }
    let rest = &text[MARKER.len()..];
    let bad = |msg: String, hygiene: &mut Vec<Finding>| {
        hygiene.push(Finding::new(rel_path, c.line, ALLOW_HYGIENE, msg));
    };
    let Some(close) = rest.find(')') else {
        return bad("malformed lint:allow — missing `)`".to_string(), hygiene);
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return bad("lint:allow names no rule".to_string(), hygiene);
    }
    for r in &rules {
        if !SUPPRESSIBLE_RULES.contains(&r.as_str()) {
            bad(
                format!("lint:allow names unknown or unsuppressible rule `{r}`"),
                hygiene,
            );
            return;
        }
    }
    let reason = rest[close + 1..].trim_start_matches(':').trim();
    if reason.is_empty() {
        return bad(
            format!(
                "lint:allow({}) has no reason — write down why the hazard is safe here",
                rules.join(", ")
            ),
            hygiene,
        );
    }
    // Trailing comment → same line; standalone comment → next line
    // that carries code.
    let own_line_has_code = lines
        .get(c.line as usize - 1)
        .is_some_and(|l| !l.trim().is_empty());
    let target = if own_line_has_code {
        c.line
    } else {
        let mut t = c.line + 1;
        while (t as usize) <= lines.len() && lines[t as usize - 1].trim().is_empty() {
            t += 1;
        }
        t
    };
    allows.push(Allow {
        line: c.line,
        target,
        rules,
        used: false,
    });
}
