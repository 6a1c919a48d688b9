//! Comment/string-aware source scanner.
//!
//! The rules must never see a `.lock()` call or an `Ev` variant inside
//! a doc comment or a string literal, so before any pattern matching the
//! source is *blanked*: every byte inside a comment or a string/char
//! literal is replaced with a space (newlines are kept, so byte
//! offsets and line numbers survive). Rules then match against pure
//! code; comments are collected separately for `lint:allow` parsing.
//!
//! This is a scanner, not a parser: it understands exactly the lexical
//! shapes that matter for blanking — line comments, nested block
//! comments, string/byte-string literals with escapes, raw strings
//! with `#` fences, and char literals vs. lifetimes — and nothing
//! else. `#[cfg(test)] mod … { … }` regions are found afterwards by
//! brace-matching over the blanked text (reliable precisely because
//! strings and comments are gone).

/// One comment, with the 1-based line its text starts on. Delimiters
/// (`//`, `/* */`) are stripped; block comments keep interior newlines.
#[derive(Debug, Clone)]
pub struct Comment {
    pub line: u32,
    pub text: String,
}

/// Scan result: blanked source plus the extracted comments.
#[derive(Debug)]
pub struct Scan {
    /// Source with comment and literal interiors blanked to spaces.
    pub blanked: String,
    /// All comments in file order.
    pub comments: Vec<Comment>,
}

impl Scan {
    /// Blanked source split into lines (0-indexed; line `n` of the file
    /// is `lines()[n - 1]`).
    pub fn lines(&self) -> Vec<&str> {
        self.blanked.lines().collect()
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Blank `out[from..to]` to spaces, preserving newlines.
fn blank(out: &mut [u8], from: usize, to: usize) {
    for b in &mut out[from..to] {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

fn count_newlines(b: &[u8]) -> u32 {
    b.iter().filter(|&&c| c == b'\n').count() as u32
}

/// Scan `src`, blanking comments and literals.
pub fn scan(src: &str) -> Scan {
    let b = src.as_bytes();
    let n = b.len();
    let mut out = b.to_vec();
    let mut comments = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;
    while i < n {
        match b[i] {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                let start = i;
                while i < n && b[i] != b'\n' {
                    i += 1;
                }
                // Strip the `//` (and any further `/` or `!` of doc
                // comments) plus one leading space.
                let mut t = &src[start..i];
                t = t.trim_start_matches('/').trim_start_matches('!');
                comments.push(Comment {
                    line,
                    text: t.strip_prefix(' ').unwrap_or(t).to_string(),
                });
                blank(&mut out, start, i);
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                // Block comment; Rust block comments nest.
                let start = i;
                let start_line = line;
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                let inner = src[start..i]
                    .trim_start_matches('/')
                    .trim_start_matches('*')
                    .trim_end_matches('/')
                    .trim_end_matches('*');
                comments.push(Comment {
                    line: start_line,
                    text: inner.trim().to_string(),
                });
                blank(&mut out, start, i);
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < n && b[i] != b'"' {
                    if b[i] == b'\\' {
                        i += 1; // skip the escaped byte…
                        if i < n && b[i] == b'\n' {
                            line += 1; // …which a line-continuation makes a newline
                        }
                    } else if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i = (i + 1).min(n); // closing quote
                blank(&mut out, start, i);
            }
            b'r' | b'b' if raw_fence(b, i).is_some() => {
                // r"…", r#"…"#, b"…", br#"…"# — find the fence, then the
                // matching close quote + fence.
                let start = i;
                let (body, hashes, raw) = raw_fence(b, i).expect("checked");
                i = body; // first byte after the opening quote
                loop {
                    if i >= n {
                        break;
                    }
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                        continue;
                    }
                    // Escapes are literal inside raw strings, but a
                    // plain byte string `b"…"` escapes exactly like a
                    // normal string literal — `b"a\"b"` must not close
                    // at the escaped quote.
                    if !raw && b[i] == b'\\' {
                        i += 1; // skip the escaped byte…
                        if i < n && b[i] == b'\n' {
                            line += 1; // …which a line-continuation makes a newline
                        }
                        i += 1;
                        continue;
                    }
                    if b[i] == b'"'
                        && b[i + 1..].len() >= hashes
                        && b[i + 1..i + 1 + hashes].iter().all(|&c| c == b'#')
                    {
                        i += 1 + hashes;
                        break;
                    }
                    i += 1;
                }
                blank(&mut out, start, i);
            }
            b'\'' => {
                // Char literal vs. lifetime. `'\…'` and `'x'` are
                // literals; `'ident` (no closing quote right after) is
                // a lifetime and stays in the code channel.
                if i + 1 < n && b[i + 1] == b'\\' {
                    let start = i;
                    i += 2; // quote + backslash
                    i = (i + 1).min(n); // escaped byte
                    while i < n && b[i] != b'\'' {
                        i += 1;
                    }
                    i = (i + 1).min(n);
                    blank(&mut out, start, i);
                } else if i + 2 < n && b[i + 2] == b'\'' && b[i + 1] != b'\'' {
                    blank(&mut out, i, i + 3);
                    i += 3;
                } else {
                    i += 1; // lifetime quote
                }
            }
            _ => i += 1,
        }
    }
    Scan {
        blanked: String::from_utf8_lossy(&out).into_owned(),
        comments,
    }
}

/// If a raw/byte string literal starts at `i`, return
/// `(index after opening quote, fence hash count, is_raw)`. A raw
/// *identifier* `r#ident` has no quote after its hash and is not a
/// literal — it stays in the code channel.
fn raw_fence(b: &[u8], i: usize) -> Option<(usize, usize, bool)> {
    // Not a literal prefix if glued to a preceding identifier
    // (`for r in…` can't reach here, but `writer"x"` style idents can't
    // be valid Rust anyway; guard regardless).
    if i > 0 && is_ident_byte(b[i - 1]) {
        return None;
    }
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    let raw = j < b.len() && b[j] == b'r';
    if raw {
        j += 1;
    }
    let mut hashes = 0;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j < b.len() && b[j] == b'"' && (raw || (hashes == 0 && j > i)) {
        Some((j + 1, if raw { hashes } else { 0 }, raw))
    } else {
        None
    }
}

/// Mark the 1-based lines belonging to `#[cfg(test)]`-gated items
/// (in-file unit-test modules). Returns a lookup sized `lines + 2` so
/// rules can index by line number directly.
pub fn test_line_mask(blanked: &str) -> Vec<bool> {
    let total = count_newlines(blanked.as_bytes()) as usize + 2;
    let mut mask = vec![false; total];
    let bytes = blanked.as_bytes();
    let mut search = 0;
    while let Some(pos) = blanked[search..].find("#[cfg(test)]") {
        let attr_at = search + pos;
        search = attr_at + 1;
        // Find the gated item's body: the next `{` — unless a `;`
        // arrives first (`#[cfg(test)] use …;` gates a single item with
        // no body worth masking).
        let after = attr_at + "#[cfg(test)]".len();
        let Some(open_rel) = blanked[after..].find(['{', ';']) else {
            continue;
        };
        let open = after + open_rel;
        if bytes[open] == b';' {
            continue;
        }
        let start_line = 1 + count_newlines(&bytes[..attr_at]) as usize;
        let mut depth = 0usize;
        let mut line = 1 + count_newlines(&bytes[..open]) as usize;
        let mut end_line = line;
        for &c in &bytes[open..] {
            match c {
                b'\n' => line += 1,
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = line;
                        break;
                    }
                }
                _ => {}
            }
        }
        for m in &mut mask[start_line..=end_line.min(total - 1)] {
            *m = true;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_blanked_and_collected() {
        let s = scan("let x = 1; // HashMap here\nlet y = 2;\n");
        assert!(!s.blanked.contains("HashMap"));
        assert!(s.blanked.contains("let x = 1;"));
        assert_eq!(s.comments.len(), 1);
        assert_eq!(s.comments[0].line, 1);
        assert_eq!(s.comments[0].text, "HashMap here");
    }

    #[test]
    fn strings_blanked_lines_preserved() {
        let s = scan("let a = \"HashMap\\\" still\";\nlet b = 'x';\nfn f<'a>() {}\n");
        assert!(!s.blanked.contains("HashMap"));
        assert!(s.blanked.contains("fn f<'a>() {}"));
        assert_eq!(s.blanked.lines().count(), 3);
    }

    #[test]
    fn raw_strings_blanked() {
        let s = scan("let a = r#\"Instant::now \" inner\"#; let b = 1;\n");
        assert!(!s.blanked.contains("Instant"));
        assert!(s.blanked.contains("let b = 1;"));
    }

    #[test]
    fn nested_block_comments() {
        let s = scan("/* outer /* SystemTime */ still */ let c = 3;\n");
        assert!(!s.blanked.contains("SystemTime"));
        assert!(s.blanked.contains("let c = 3;"));
    }

    /// Golden fixture: byte strings blank exactly like normal strings,
    /// escaped quotes included — `b"a\"b"` must not close at the
    /// escaped quote and leak the tail into the code channel.
    #[test]
    fn byte_strings_blanked_with_escapes() {
        let s = scan("let a = b\"HashMap\"; let b = 1;\n");
        assert!(!s.blanked.contains("HashMap"));
        assert!(s.blanked.contains("let b = 1;"));

        let s = scan("let a = b\"a\\\"HashMap\"; let c = 2;\n");
        assert!(
            !s.blanked.contains("HashMap"),
            "escaped quote must not close the literal"
        );
        assert!(s.blanked.contains("let c = 2;"));
    }

    /// Golden fixture: raw byte strings with fences.
    #[test]
    fn raw_byte_strings_blanked() {
        let s = scan("let a = br#\"thread_rng \" inner\"#; let d = 3;\n");
        assert!(!s.blanked.contains("thread_rng"));
        assert!(s.blanked.contains("let d = 3;"));

        let s = scan("let a = br\"SystemTime\"; let e = 4;\n");
        assert!(!s.blanked.contains("SystemTime"));
        assert!(s.blanked.contains("let e = 4;"));
    }

    /// Golden fixture: a raw identifier `r#ident` is code, not a string
    /// fence — it must survive blanking intact (the token layer
    /// normalizes it to its bare name).
    #[test]
    fn raw_identifiers_stay_in_code_channel() {
        let s = scan("let r#type = 1; let r#match = r\"gone\";\n");
        assert!(s.blanked.contains("let r#type = 1;"));
        assert!(s.blanked.contains("let r#match ="));
        assert!(!s.blanked.contains("gone"));
    }

    /// Golden fixture: byte char literals.
    #[test]
    fn byte_char_literals_blanked() {
        let s = scan("let a = b'x'; let b = b'\\n'; let f = 5;\n");
        assert!(s.blanked.contains("let f = 5;"));
        assert!(!s.blanked.contains("'x'"));
    }

    #[test]
    fn cfg_test_mask_covers_module() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let s = scan(src);
        let mask = test_line_mask(&s.blanked);
        assert!(!mask[1], "fn a");
        assert!(mask[2] && mask[3] && mask[4] && mask[5], "attr..close");
        assert!(!mask[6], "fn c");
    }

    #[test]
    fn cfg_test_on_use_item_masks_nothing_below() {
        let src = "#[cfg(test)]\nuse foo::Bar;\nfn c() {}\n";
        let s = scan(src);
        let mask = test_line_mask(&s.blanked);
        assert!(!mask[3]);
    }
}
