//! The report writer for experiment tables: every table
//! `selfmaint experiments` prints goes through [`ReportFormat::emit`].
//! Each table ends with one blank line in the text and CSV formats.

use std::io::{self, Write};

use dcmaint_metrics::Table;
use serde_json::Value;

/// Output encoding for experiment tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// Aligned text tables (the EXPERIMENTS.md rendering).
    Text,
    /// `# title` header followed by an RFC-4180 CSV block.
    Csv,
    /// One JSON object per table: `{"table":…,"columns":…,"rows":…}`.
    Jsonl,
}

impl ReportFormat {
    /// Render one table to `out` in this format.
    pub fn emit(self, out: &mut impl Write, t: &Table) -> io::Result<()> {
        match self {
            // `render()` and `to_csv()` already end in a newline, so
            // `writeln!` leaves a blank line between tables.
            ReportFormat::Text => writeln!(out, "{}", t.render()),
            ReportFormat::Csv => {
                writeln!(out, "# {}", t.title())?;
                writeln!(out, "{}", t.to_csv())
            }
            ReportFormat::Jsonl => writeln!(out, "{}", table_jsonl(t)),
        }
    }
}

/// One-line JSON encoding of a table: title, columns, and rows of
/// rendered cell strings, in that key order.
fn table_jsonl(t: &Table) -> String {
    let strings = |xs: Vec<String>| Value::Array(xs.into_iter().map(Value::String).collect());
    let rows = t.rows().iter();
    let rows = rows.map(|r| strings(r.iter().map(ToString::to_string).collect()));
    let json = |v: Value| serde_json::to_string(&v).expect("a JSON value always serializes");
    format!(
        "{{\"table\":{},\"columns\":{},\"rows\":{}}}",
        json(Value::from(t.title())),
        json(strings(t.headers().into_iter().map(String::from).collect())),
        json(Value::Array(rows.collect())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmaint_metrics::Align;

    fn demo() -> Table {
        let mut t = Table::new("demo", &[("name", Align::Left), ("n", Align::Right)]);
        t.row(vec!["alpha", "1"]);
        t.row(vec!["beta", "22"]);
        t
    }

    #[test]
    fn text_matches_legacy_println_bytes() {
        let t = demo();
        let mut buf = Vec::new();
        ReportFormat::Text.emit(&mut buf, &t).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), format!("{}\n", t.render()));
    }

    #[test]
    fn csv_matches_legacy_println_bytes() {
        let t = demo();
        let mut buf = Vec::new();
        ReportFormat::Csv.emit(&mut buf, &t).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            format!("# {}\n{}\n", t.title(), t.to_csv())
        );
    }

    #[test]
    fn jsonl_is_one_object_per_table() {
        let mut buf = Vec::new();
        for t in [demo(), demo()] {
            ReportFormat::Jsonl.emit(&mut buf, &t).unwrap();
        }
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"table\":\"demo\",\"columns\":[\"name\",\"n\"],\
             \"rows\":[[\"alpha\",\"1\"],[\"beta\",\"22\"]]}"
        );
    }

    #[test]
    fn jsonl_escapes_special_characters() {
        let mut t = Table::new("q\"t", &[("a", Align::Left)]);
        t.row(vec!["line\nbreak\ttab"]);
        let mut buf = Vec::new();
        ReportFormat::Jsonl.emit(&mut buf, &t).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("\"q\\\"t\""));
        assert!(s.contains("line\\nbreak\\ttab"));
    }
}
