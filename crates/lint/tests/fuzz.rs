//! Fuzz gate for the item parser: `scan → tokenize → parse →
//! arms_of_first_match` (and the whole semantic pass on top) must be
//! *total* — never panic — on arbitrary byte soup, Rust-shaped
//! fragment soup, and truncations of real-looking source. Seeded and
//! deterministic (the vendored proptest runner derives its RNG from
//! the test name), so a failure here reproduces exactly.
//!
//! This is the first entry toward the ROADMAP's fuzz-surface item:
//! the same pattern extends to the scenario-DSL parser later.

use dcmaint_lint::{lexer, lint_sources_with, model, tokens};
use proptest::prelude::*;

/// Everything the parser dispatches on, plus lexical trouble: unpaired
/// delimiters, raw-string fences, byte strings, raw idents, comments
/// that never close, and keywords cut off mid-item.
const FRAGMENTS: &[&str] = &[
    "struct ",
    "enum ",
    "fn ",
    "impl ",
    "match ",
    "let ",
    "mut ",
    "pub ",
    "pub(crate) ",
    "=> ",
    "= ",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ",",
    ";",
    ":",
    "::",
    "<",
    ">",
    "->",
    ".",
    "#",
    "#[",
    "!",
    "|",
    "&",
    "'a",
    "'x'",
    "b'x'",
    "x",
    "Ev",
    "Engine",
    "self",
    "lock",
    "uniform",
    "stream",
    "drop",
    "if ",
    "while ",
    "for ",
    "in ",
    "1.5",
    "0xff",
    "1_000",
    "..",
    "\"str",
    "\"s\\\"t\"",
    "r#\"raw",
    "\"#",
    "b\"bytes",
    "br##\"fence",
    "r#type",
    "// line\n",
    "/* block",
    "*/",
    "#[cfg(test)]",
    "\n",
];

/// A believable source the truncation case cuts at every offset.
const REALISTIC: &str = r#"
pub struct Engine {
    pub now: u64,
    links: Vec<LinkRt>,
    hazard: Stream,
}
enum Ev {
    Tick,
    RepairDone { ok: bool, op: OpId },
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
            Ev::RepairDone { ok, .. } => {
                let g = self.inner.lock().unwrap();
                let heal = self.hazard.uniform();
                drop(g);
            }
        }
    }
}
"#;

const LOCKS: &str = "[crates/serve]\ninner\nring\n";

/// Run the whole pipeline — lexer, tokenizer, item parser, match-arm
/// extraction, and the semantic pass under the paths the rules key on
/// — over one arbitrary source. Only panics count as failure.
fn pipeline_total(src: &str) {
    let scan = lexer::scan(src);
    let toks = tokens::tokenize(&scan.blanked);
    let m = model::parse(toks);
    for f in &m.fns {
        if let Some(body) = f.body.clone() {
            let _ = model::arms_of_first_match(&m.tokens, body);
        }
    }
    // The semantic rules must be just as total: feed the garbage in as
    // every file they anchor on at once.
    let files = vec![
        (
            "crates/scenarios/src/engine.rs".to_string(),
            src.to_string(),
        ),
        ("crates/serve/src/server.rs".to_string(), src.to_string()),
    ];
    let _ = lint_sources_with(&files, None, Some(LOCKS));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Raw byte soup (lossy-decoded, arbitrary non-UTF8 residue).
    #[test]
    fn parser_total_on_byte_soup(bytes in prop::collection::vec(0u16..256, 0..300)) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let src = String::from_utf8_lossy(&raw).into_owned();
        pipeline_total(&src);
    }

    /// Rust-shaped fragment soup: real keywords and delimiters in
    /// arbitrary (mostly ill-formed) order — the hard cases for
    /// brace matching and arm extraction.
    #[test]
    fn parser_total_on_fragment_soup(idxs in prop::collection::vec(0usize..FRAGMENTS.len(), 0..120)) {
        let src: String = idxs.iter().map(|&i| FRAGMENTS[i]).collect();
        pipeline_total(&src);
    }

    /// Every prefix of realistic source: items cut mid-signature,
    /// mid-body, mid-arm, mid-literal.
    #[test]
    fn parser_total_on_truncations(cut in 0usize..REALISTIC.len()) {
        // Cut on a char boundary at or below the drawn offset.
        let mut at = cut;
        while !REALISTIC.is_char_boundary(at) {
            at -= 1;
        }
        pipeline_total(&REALISTIC[..at]);
    }
}
