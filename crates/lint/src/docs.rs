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
        rule: rules::WALL_CLOCK,
        rationale: "Every run must be byte-reproducible from its seed. A wall-clock read \
                    (Instant::now, SystemTime) injects host time into the output; only the \
                    quarantined obs::wall profiling module may observe it.",
        example: "let t0 = Instant::now(); // in crates/scenarios",
        suppression: "// lint:allow(wall-clock): <why this read cannot reach any deterministic output>",
    },
    RuleDoc {
        rule: rules::UNSEEDED_RNG,
        rationale: "All randomness must derive from the run seed via SimRng so reruns and \
                    sweeps replay exactly. thread_rng/OsRng/from_entropy draw ambient entropy \
                    the seed does not control.",
        example: "let mut rng = rand::thread_rng();",
        suppression: "// lint:allow(unseeded-rng): <why this entropy never reaches an output byte>",
    },
    RuleDoc {
        rule: rules::HASH_ITERATION,
        rationale: "HashMap/HashSet iterate in per-process random order, so any output folded \
                    from iteration differs across runs. State that is ever iterated must be a \
                    BTreeMap/BTreeSet.",
        example: "for (k, v) in metrics { … } // metrics: HashMap",
        suppression: "// lint:allow(hash-iteration): <why this map is lookup-only, never iterated>",
    },
    RuleDoc {
        rule: rules::FLOAT_FOLD,
        rationale: "Float addition is not associative: summing map values() in nondeterministic \
                    order changes low bits, which the byte-identity gates then catch hours later. \
                    Fold in key order.",
        example: "let s: f64 = m.values().sum::<f64>();",
        suppression: "// lint:allow(float-fold): <why the fold order is already deterministic>",
    },
    RuleDoc {
        rule: rules::PRINT_IN_LIB,
        rationale: "Library output must route through ReportWriter/the journal so it is \
                    capturable, diffable, and byte-deterministic; println! to a shared stdout \
                    interleaves nondeterministically under the sweep pool.",
        example: "println!(\"repair done\"); // in crates/scenarios/src/…",
        suppression: "// lint:allow(print-in-lib): <why stdout is this code's output contract>",
    },
    RuleDoc {
        rule: rules::FORBID_UNSAFE,
        rationale: "The workspace is 100% safe Rust; #![forbid(unsafe_code)] at every crate \
                    root makes that a compile-time guarantee rather than a review convention.",
        example: "// src/lib.rs without the attribute",
        suppression: "// lint:allow(forbid-unsafe): <why this crate root cannot carry the attribute>",
    },
    RuleDoc {
        rule: rules::EVENT_COVERAGE,
        rationale: "The profiler's attribution tiling and the journal's completeness are only \
                    as good as their coverage: an Ev variant without an explicit prof_attribution \
                    arm or without a reachable journal/trace emission is a blind spot every later \
                    analysis inherits.",
        example: "enum Ev { …, NewKind } // prof_attribution has no NewKind arm",
        suppression: "// lint:allow(event-coverage): <why this variant is internal and needs no emission>",
    },
    RuleDoc {
        rule: rules::RNG_STREAM,
        rationale: "The twin's counted-draw replay fast-forwards each named Stream by its draw \
                    count; a draw outside a named stream shifts every later draw on that tape and \
                    desynchronizes fork replay. Draw only through Stream fields, Stream/SimRng \
                    params, or root()/stream()/child() derivations.",
        example: "let x = some_rng.uniform(); // some_rng not a named Stream",
        suppression: "// lint:allow(rng-stream-discipline): <why this draw is on a sanctioned stream the linter cannot see>",
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
        example: "// lint:allow(wall-clock) — missing `: reason`",
        suppression: "not suppressible: fix or remove the allow itself",
    },
    RuleDoc {
        rule: rules::STALE_BASELINE,
        rationale: "The baseline may only shrink: an entry matching fewer findings than it \
                    grandfathers means debt was fixed — delete the entry so it cannot mask a \
                    regression at the same site later.",
        example: "lint-baseline.txt lists a finding the tree no longer produces",
        suppression: "not suppressible: regenerate with --write-baseline",
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
