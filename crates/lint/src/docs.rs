//! Per-rule documentation: rationale, a minimal example, and the
//! suppression syntax. One table, three consumers — `--explain <rule>`
//! on the CLI, the `--list-rules` descriptions (via
//! [`crate::rules::describe`]), and the README's rule table (a test
//! pins the README to this registry so they cannot drift).

use crate::rules;

/// Documentation for one rule.
pub struct RuleDoc {
    pub rule: &'static str,
    /// Why the rule exists — which contract it protects.
    pub rationale: &'static str,
    /// A minimal triggering example.
    pub example: &'static str,
    /// How to suppress it at a justified use site, or why you can't.
    pub suppression: &'static str,
}

/// The docs table, in registry order ([`rules::ALL_RULES`]).
pub const RULE_DOCS: &[RuleDoc] = &[
    RuleDoc {
        rule: rules::EVENT_COVERAGE,
        rationale: "The profiler's attribution tiling and the journal's completeness are only \
                    as good as their coverage: an Ev variant without an explicit prof_attribution \
                    arm or without a reachable journal/trace emission is a blind spot every later \
                    analysis inherits.",
        example: "enum Ev { …, NewKind } // prof_attribution has no NewKind arm",
        suppression:
            "// lint:allow(event-coverage): <why this variant is internal and needs no emission>",
    },
    RuleDoc {
        rule: rules::LOCK_ORDER,
        rationale: "serve/sweep hold multiple Mutexes; acquiring them in inconsistent order \
                    deadlocks under contention. lint-locks.txt declares the one legal order per \
                    scope, and nested acquisitions (including through calls) must follow it.",
        example: "let g = shared.ring.lock(); shared.inner.lock(); // inner is ranked before ring",
        suppression: "// lint:allow(lock-order): <why these guards can never overlap in practice>",
    },
    RuleDoc {
        rule: rules::ALLOW_HYGIENE,
        rationale: "Suppressions are the audit trail of every justified exception; a malformed, \
                    reasonless, or unused lint:allow is debt that hides real findings.",
        example: "// lint:allow(lock-order) — missing `: reason`",
        suppression: "not suppressible: fix or remove the allow itself",
    },
];

/// Look up one rule's docs.
pub fn doc_for(rule: &str) -> Option<&'static RuleDoc> {
    RULE_DOCS.iter().find(|d| d.rule == rule)
}

/// Render `--explain <rule>` output.
pub fn render_explain(d: &RuleDoc) -> String {
    format!(
        "{}\n  {}\n\nwhy\n  {}\n\nexample\n  {}\n\nsuppression\n  {}\n",
        d.rule,
        rules::describe(d.rule),
        d.rationale,
        d.example,
        d.suppression,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_documented_in_registry_order() {
        let documented: Vec<&str> = RULE_DOCS.iter().map(|d| d.rule).collect();
        assert_eq!(
            documented,
            rules::ALL_RULES,
            "RULE_DOCS must mirror ALL_RULES"
        );
    }

    #[test]
    fn explain_renders_all() {
        for d in RULE_DOCS {
            let s = render_explain(d);
            assert!(s.contains(d.rule));
            assert!(s.contains("suppression"));
        }
    }
}
