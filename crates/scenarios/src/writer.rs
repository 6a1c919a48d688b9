//! Journal-aware report writer for experiment binaries.
//!
//! The experiment runners used to `println!` each table straight to
//! stdout, which meant the observability plane never saw a report go
//! out and alternative encodings (CSV, JSONL) were ad-hoc flags spread
//! through `main`. [`ReportWriter`] centralizes that: every table goes
//! through [`ReportWriter::emit`], which renders it in the selected
//! [`ReportFormat`] and — when a [`Journal`] is attached — records a
//! `report-table` event so a run's journal shows *what was reported*,
//! not just what was simulated.
//!
//! The `Text` format is byte-identical to the old
//! `println!("{}", table.render())` behavior, and `Csv` to the old
//! `println!("# {title}")` + `println!("{csv}")` pair, so existing
//! golden outputs and shell pipelines are unaffected.

use std::io::{self, Write};

use dcmaint_metrics::Table;
use dcmaint_obs::{JVal, Journal};
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

/// Writes experiment tables to a sink in one of the [`ReportFormat`]s,
/// optionally recording each emission into an observability [`Journal`].
#[derive(Debug)]
pub struct ReportWriter<W: Write> {
    out: W,
    format: ReportFormat,
    journal: Journal,
    tables: u64,
}

impl ReportWriter<io::Stdout> {
    /// Writer targeting stdout (what the binaries use).
    pub fn stdout(format: ReportFormat) -> Self {
        ReportWriter::new(io::stdout(), format)
    }
}

impl<W: Write> ReportWriter<W> {
    /// Writer targeting an arbitrary sink with no journal attached.
    pub fn new(out: W, format: ReportFormat) -> Self {
        ReportWriter {
            out,
            format,
            journal: Journal::disabled(),
            tables: 0,
        }
    }

    /// Attach a journal; each emitted table records a `report-table`
    /// event (a disabled journal makes this a no-op).
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = journal;
        self
    }

    /// Selected output format.
    pub fn format(&self) -> ReportFormat {
        self.format
    }

    /// Number of tables emitted so far.
    pub fn tables_emitted(&self) -> u64 {
        self.tables
    }

    /// Render one table to the sink in the configured format.
    pub fn emit(&mut self, t: &Table) -> io::Result<()> {
        match self.format {
            // `println!` appends one newline to `render()`/`to_csv()`
            // (both already newline-terminated), leaving a blank
            // separator line between tables. Preserve that exactly.
            ReportFormat::Text => writeln!(self.out, "{}", t.render())?,
            ReportFormat::Csv => {
                writeln!(self.out, "# {}", t.title())?;
                writeln!(self.out, "{}", t.to_csv())?;
            }
            ReportFormat::Jsonl => writeln!(self.out, "{}", table_jsonl(t))?,
        }
        self.tables += 1;
        self.journal.emit(
            "report-table",
            &[
                ("seq", JVal::U(self.tables)),
                ("cols", JVal::U(t.headers().len() as u64)),
                ("rows", JVal::U(t.len() as u64)),
            ],
        );
        Ok(())
    }

    /// Emit a sequence of tables in order (what sweep outputs use).
    pub fn emit_all<'a, I>(&mut self, tables: I) -> io::Result<()>
    where
        I: IntoIterator<Item = &'a Table>,
    {
        for t in tables {
            self.emit(t)?;
        }
        Ok(())
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
        ReportWriter::new(&mut buf, ReportFormat::Text)
            .emit(&t)
            .unwrap();
        // Exactly what `println!("{}", t.render())` produced.
        assert_eq!(String::from_utf8(buf).unwrap(), format!("{}\n", t.render()));
    }

    #[test]
    fn csv_matches_legacy_println_bytes() {
        let t = demo();
        let mut buf = Vec::new();
        ReportWriter::new(&mut buf, ReportFormat::Csv)
            .emit(&t)
            .unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            format!("# {}\n{}\n", t.title(), t.to_csv())
        );
    }

    #[test]
    fn jsonl_is_one_object_per_table() {
        let mut buf = Vec::new();
        let emitted = {
            let mut w = ReportWriter::new(&mut buf, ReportFormat::Jsonl);
            w.emit(&demo()).unwrap();
            w.emit(&demo()).unwrap();
            w.tables_emitted()
        };
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"table\":\"demo\",\"columns\":[\"name\",\"n\"],\
             \"rows\":[[\"alpha\",\"1\"],[\"beta\",\"22\"]]}"
        );
        assert_eq!(emitted, 2);
    }

    #[test]
    fn jsonl_escapes_special_characters() {
        let mut t = Table::new("q\"t", &[("a", Align::Left)]);
        t.row(vec!["line\nbreak\ttab"]);
        let mut buf = Vec::new();
        ReportWriter::new(&mut buf, ReportFormat::Jsonl)
            .emit(&t)
            .unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("\"q\\\"t\""));
        assert!(s.contains("line\\nbreak\\ttab"));
    }

    #[test]
    fn attached_journal_records_each_table() {
        let j = Journal::enabled(16);
        let mut w = ReportWriter::new(Vec::new(), ReportFormat::Text).with_journal(j.clone());
        w.emit(&demo()).unwrap();
        w.emit(&demo()).unwrap();
        let (emitted, dropped) = j.counts();
        assert_eq!(emitted, 2);
        assert_eq!(dropped, 0);
        let lines = j.lines();
        assert!(lines
            .iter()
            .any(|l| l.contains("\"ev\":\"report-table\"") && l.contains("\"rows\":2")));
    }

    #[test]
    fn disabled_journal_is_a_no_op() {
        let mut w = ReportWriter::new(Vec::new(), ReportFormat::Text);
        w.emit(&demo()).unwrap();
        assert_eq!(w.tables_emitted(), 1);
    }
}
