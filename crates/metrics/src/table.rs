//! Typed table cells: how every experiment value renders and how its seed
//! replicates fold.
//!
//! Every experiment runner and both sweeps build a [`Table`] of typed
//! [`Cell`]s. A cell's `Display` is its text — the aligned terminal table
//! (the "paper table" rendering), CSV and JSONL all print it — and
//! [`Cell::fold`] / [`Table::fold`] combine K seed replicates into
//! `mean ±half` columns from the values themselves, not from their rounded
//! text. Keeping both decisions here, not in each experiment or sweep,
//! guarantees uniform formatting across E1–E16 and A1–A3.

use std::fmt::{self, Write as _};

use dcmaint_des::SimDuration;

use crate::stats::{mean_ci95, Ci95};

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// One table cell: what it shows, and what its seed replicates fold over.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Free text: labels, configuration keys and `-` placeholders.
    Text(String),
    /// A number at the given decimals, as [`fnum`] renders it.
    Num(f64, usize),
    /// An integer count.
    Count(u64),
    /// A fraction shown as a percentage at the given decimals
    /// (`Pct(0.123, 1)` shows `12.3%`).
    Pct(f64, usize),
    /// A ratio such as a speed-up: `2.00x`, `42.0x`, `420x`.
    Ratio(f64),
    /// A simulated duration (`1.50m`, `2.00h`).
    Dur(SimDuration),
    /// Typed parts joined by a separator (`41 / 39`).
    Join(Vec<Cell>, &'static str),
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Num(x, digits) => f.write_str(&fnum(*x, *digits)),
            Cell::Count(n) => write!(f, "{n}"),
            Cell::Pct(x, digits) => write!(f, "{:.*}%", *digits, x * 100.0),
            Cell::Ratio(x) if !x.is_finite() => f.write_str("inf"),
            Cell::Ratio(x) => {
                let digits = if *x >= 100.0 {
                    0
                } else if *x >= 10.0 {
                    1
                } else {
                    2
                };
                write!(f, "{x:.digits$}x")
            }
            Cell::Dur(d) => write!(f, "{d}"),
            Cell::Join(parts, sep) => {
                for (i, part) in parts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(sep)?;
                    }
                    write!(f, "{part}")?;
                }
                Ok(())
            }
        }
    }
}

impl Cell {
    /// Fold one position's seed replicates into one cell.
    ///
    /// * A position that renders to the same text in every replicate
    ///   passes through unchanged: labels, configuration columns and
    ///   seed-free values.
    /// * Numbers of one kind become `mean ±half`, a t-distribution 95% CI
    ///   ([`mean_ci95`]) over the exact values: `Num` and `Pct` keep their
    ///   decimals, `Count` gets one decimal, `Ratio` two, and `Dur` shows
    ///   both as durations.
    /// * `Join`s with one separator and part count fold part by part.
    /// * Anything else — text that differs, or a mix of kinds — is
    ///   `(varies)` rather than letting one replicate speak for all.
    ///
    /// Callers pass replicates in plan order, so the bytes never depend
    /// on which worker finished first. An empty slice folds to empty text.
    pub fn fold(replicates: &[&Cell]) -> Cell {
        let Some(&first) = replicates.first() else {
            return Cell::Text(String::new());
        };
        let text = first.to_string();
        if replicates.iter().all(|c| c.to_string() == text) {
            return first.clone();
        }
        if let Cell::Join(parts, sep) = first {
            let joins: Option<Vec<&Vec<Cell>>> = replicates
                .iter()
                .map(|c| match c {
                    Cell::Join(p, s) if s == sep && p.len() == parts.len() => Some(p),
                    _ => None,
                })
                .collect();
            if let Some(joins) = joins {
                return Cell::Join(Cell::fold_row(&joins), sep);
            }
        }
        let ci = || {
            let kind = std::mem::discriminant(first);
            let values: Option<Vec<f64>> = replicates
                .iter()
                .map(|c| c.value().filter(|_| std::mem::discriminant(*c) == kind))
                .collect();
            values.map(|v| mean_ci95(&v))
        };
        let folded = match first {
            Cell::Num(_, digits) => ci().map(|ci| ci.cell(*digits)),
            Cell::Count(_) => ci().map(|ci| ci.cell(1)),
            Cell::Pct(_, digits) => {
                ci().map(|ci| mean_pm(ci, |x| format!("{}%", fnum(x, *digits))))
            }
            Cell::Ratio(_) => ci().map(|ci| mean_pm(ci, |x| format!("{}x", fnum(x, 2)))),
            Cell::Dur(_) => {
                ci().map(|ci| mean_pm(ci, |s| SimDuration::from_secs_f64(s).to_string()))
            }
            Cell::Text(_) | Cell::Join(..) => None,
        };
        Cell::Text(folded.unwrap_or_else(|| "(varies)".into()))
    }

    /// Fold K same-width replicates of one row position by position with
    /// [`Cell::fold`].
    pub fn fold_row<R: AsRef<[Cell]>>(replicates: &[R]) -> Vec<Cell> {
        let width = replicates.first().map_or(0, |r| r.as_ref().len());
        let column = |c: usize| {
            replicates
                .iter()
                .map(|r| &r.as_ref()[c])
                .collect::<Vec<_>>()
        };
        (0..width).map(|c| Cell::fold(&column(c))).collect()
    }

    /// The number a cell folds over: percentages in displayed units,
    /// durations in seconds; `None` for text and joins.
    fn value(&self) -> Option<f64> {
        match self {
            Cell::Num(x, _) | Cell::Ratio(x) => Some(*x),
            Cell::Count(n) => Some(*n as f64),
            Cell::Pct(x, _) => Some(x * 100.0),
            Cell::Dur(d) => Some(d.as_secs_f64()),
            Cell::Text(_) | Cell::Join(..) => None,
        }
    }
}

/// `mean ±half`, each shown by `show`; just the mean when the sample
/// gives no finite interval (n ≤ 1).
pub(crate) fn mean_pm(ci: Ci95, show: impl Fn(f64) -> String) -> String {
    if ci.half.is_finite() {
        format!("{} ±{}", show(ci.mean), show(ci.half))
    } else {
        show(ci.mean)
    }
}

/// A simple in-memory table: header row plus data rows of typed cells.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    columns: Vec<(String, Align)>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// New table with the given title and `(header, alignment)` columns.
    pub fn new(title: &str, columns: &[(&str, Align)]) -> Self {
        Table {
            title: title.to_string(),
            columns: columns.iter().map(|(h, a)| (h.to_string(), *a)).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of cells (strings become [`Cell::Text`]). Shorter rows
    /// are padded with empty cells; longer rows are truncated to the
    /// column count.
    pub fn row<C: Into<Cell>>(&mut self, cells: Vec<C>) -> &mut Self {
        let mut cells: Vec<Cell> = cells.into_iter().map(Into::into).collect();
        cells.resize(self.columns.len(), Cell::Text(String::new()));
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column headers in declaration order.
    pub fn headers(&self) -> Vec<&str> {
        self.columns.iter().map(|(h, _)| h.as_str()).collect()
    }

    /// Data rows, as typed cells.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// Fold K same-shaped seed replicates into one mean ±95% CI table,
    /// row by row with [`Cell::fold_row`]. The first replicate's columns,
    /// alignment included, carry over, and one replicate is returned as
    /// it is.
    ///
    /// Errors (rather than panicking) on an empty input or a title,
    /// column or row-count mismatch: a replicate of another shape means
    /// the sweep plan was built wrong, and the caller reports it as a
    /// failed experiment, not a crash.
    pub fn fold(replicates: &[Table]) -> Result<Table, String> {
        let Some(first) = replicates.first() else {
            return Err("no replicates to fold".into());
        };
        if replicates.len() == 1 {
            return Ok(first.clone());
        }
        if let Some(k) = replicates.iter().position(|t| t.shape() != first.shape()) {
            return Err(format!(
                "replicate {k} has (title, columns, rows) {:?}, expected {:?}",
                replicates[k].shape(),
                first.shape()
            ));
        }
        let rows = (0..first.len())
            .map(|r| Cell::fold_row(&replicates.iter().map(|t| &t.rows[r]).collect::<Vec<_>>()))
            .collect();
        Ok(Table {
            title: format!("{} — {} seeds, mean ±95% CI", first.title, replicates.len()),
            columns: first.columns.clone(),
            rows,
        })
    }

    /// What every replicate of one table must share.
    fn shape(&self) -> (&str, Vec<&str>, usize) {
        (&self.title, self.headers(), self.len())
    }

    /// Every row's cells as rendered text.
    fn rendered_rows(&self) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .map(|row| row.iter().map(ToString::to_string).collect())
            .collect()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let rows = self.rendered_rows();
        let mut widths: Vec<usize> = self.columns.iter().map(|(h, _)| h.len()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut line = String::new();
        for (i, (h, a)) in self.columns.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            pad(&mut line, h, widths[i], *a);
        }
        let _ = writeln!(out, "{line}");
        let rule_len = line.len();
        let _ = writeln!(out, "{}", "-".repeat(rule_len));
        for row in &rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                pad(&mut line, cell, widths[i], self.columns[i].1);
            }
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Render as CSV (RFC-4180 quoting for cells containing commas,
    /// quotes, or newlines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", csv_line(&self.headers()));
        for row in self.rendered_rows() {
            let cells: Vec<&str> = row.iter().map(String::as_str).collect();
            let _ = writeln!(out, "{}", csv_line(&cells));
        }
        out
    }
}

fn pad(out: &mut String, s: &str, width: usize, align: Align) {
    let padding = width.saturating_sub(s.len());
    match align {
        Align::Left => {
            out.push_str(s);
            out.push_str(&" ".repeat(padding));
        }
        Align::Right => {
            out.push_str(&" ".repeat(padding));
            out.push_str(s);
        }
    }
}

fn csv_line(cells: &[&str]) -> String {
    cells
        .iter()
        .map(|c| {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                (*c).to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Format a float with `digits` decimals, trimming to a compact string.
pub fn fnum(x: f64, digits: usize) -> String {
    if !x.is_finite() {
        return if x.is_nan() {
            "nan".into()
        } else {
            "inf".into()
        };
    }
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use Align::{Left, Right};

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &[("name", Align::Left), ("value", Align::Right)]);
        t.row(vec!["alpha", "1"]);
        t.row(vec!["b", "12345"]);
        let out = t.render();
        assert!(out.contains("== demo =="));
        let lines: Vec<&str> = out.lines().collect();
        // header, rule, 2 rows (+ title)
        assert_eq!(lines.len(), 5);
        // Right alignment: the short number should be right-padded to align
        // with 12345.
        assert!(lines[3].ends_with("    1"));
        assert!(lines[4].ends_with("12345"));
    }

    #[test]
    fn short_rows_padded_long_rows_truncated() {
        let mut t = Table::new("p", &[("a", Align::Left), ("b", Align::Left)]);
        t.row(vec!["only"]);
        t.row(vec!["x", "y", "z-dropped"]);
        assert_eq!(t.len(), 2);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().nth(1).unwrap(), "only,");
        assert_eq!(csv.lines().nth(2).unwrap(), "x,y");
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new("q", &[("a", Align::Left)]);
        t.row(vec!["has,comma"]);
        t.row(vec!["has\"quote"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fnum(std::f64::consts::PI, 2), "3.14");
        assert_eq!(fnum(f64::NAN, 2), "nan");
        assert_eq!(fnum(f64::INFINITY, 2), "inf");
        assert_eq!(Cell::Ratio(2.0).to_string(), "2.00x");
        assert_eq!(Cell::Ratio(42.0).to_string(), "42.0x");
        assert_eq!(Cell::Ratio(420.0).to_string(), "420x");
        assert_eq!(Cell::Ratio(f64::INFINITY).to_string(), "inf");
        assert_eq!(Cell::Pct(0.123, 1).to_string(), "12.3%");
        assert_eq!(Cell::Pct(0.9999, 3).to_string(), "99.990%");
        assert_eq!(Cell::Num(0.5, 3).to_string(), "0.500");
        assert_eq!(Cell::Count(42).to_string(), "42");
        assert_eq!(
            Cell::Dur(SimDuration::from_secs(90)).to_string(),
            SimDuration::from_secs(90).to_string()
        );
        let join = Cell::Join(vec![Cell::Count(3), Cell::Count(14)], "/");
        assert_eq!(join.to_string(), "3/14");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new("empty", &[("col", Align::Left)]);
        assert!(t.is_empty());
        let out = t.render();
        assert_eq!(out.lines().count(), 3);
    }

    /// A one-row table of three cells.
    fn one_row(title: &str, cells: [Cell; 3]) -> Table {
        let mut t = Table::new(title, &[("a", Left), ("b", Right), ("c", Right)]);
        t.row(cells.to_vec());
        t
    }

    /// Fold two one-row replicates; the folded row's text.
    fn fold2(a: [Cell; 3], b: [Cell; 3]) -> Vec<String> {
        let t = Table::fold(&[one_row("t", a), one_row("t", b)]).unwrap();
        t.rows()[0].iter().map(ToString::to_string).collect()
    }

    fn mins(m: u64) -> Cell {
        Cell::Dur(SimDuration::from_mins(m))
    }

    #[test]
    fn identical_cells_pass_through() {
        let a = one_row("t", ["L0".into(), Cell::Num(3.0, 2), mins(90)]);
        let agg = Table::fold(&[a.clone(), a.clone()]).unwrap();
        assert_eq!(agg.rows(), a.rows());
        assert_eq!(agg.title(), "t — 2 seeds, mean ±95% CI");
    }

    #[test]
    fn numeric_cells_become_mean_ci() {
        let row = fold2(
            ["L0".into(), Cell::Num(1.0, 2), mins(1)],
            ["L0".into(), Cell::Num(3.0, 2), mins(3)],
        );
        // {1,3}: mean 2, half 12.706 (df=1 t-interval, se exactly 1).
        assert_eq!(row[..2], ["L0", "2.00 ±12.71"]);
        // {60 s, 180 s}: mean 120 s → 2.00m.
        assert!(row[2].starts_with("2.00m ±"), "{}", row[2]);
    }

    #[test]
    fn durations_fold_in_seconds_across_display_units() {
        let secs = Cell::Dur(SimDuration::from_secs(30));
        let row = fold2(
            ["L0".into(), Cell::Count(1), secs],
            ["L0".into(), Cell::Count(1), mins(90)],
        );
        // {30 s, 5,400 s}: mean 2,715 s, shown as one duration.
        let mean = SimDuration::from_secs(2715).to_string();
        assert!(row[2].starts_with(&format!("{mean} ±")), "{}", row[2]);
    }

    #[test]
    fn percent_and_ratio_cells_keep_their_suffix() {
        let row = fold2(
            ["".into(), Cell::Pct(0.12, 1), Cell::Ratio(2.0)],
            ["".into(), Cell::Pct(0.14, 1), Cell::Ratio(40.0)],
        );
        assert_eq!(row[1], "13.0% ±12.7%");
        // Ratios fold at two decimals whatever their magnitude.
        assert_eq!(row[2], "21.00x ±241.41x");
    }

    #[test]
    fn counts_fold_at_one_decimal() {
        let row = fold2(
            ["".into(), Cell::Count(0), Cell::Count(4)],
            ["".into(), Cell::Count(1), Cell::Count(4)],
        );
        // {0,1}: mean 0.5, half 12.706 × 0.5; an unchanged count stays whole.
        assert_eq!(row[1..], ["0.5 ±6.4", "4"]);
    }

    #[test]
    fn joins_fold_part_by_part() {
        let on_off = |on, sep| Cell::Join(vec![Cell::Count(on), Cell::Num(0.5, 2)], sep);
        let row = fold2(
            ["".into(), on_off(1, " / "), on_off(7, " / ")],
            ["".into(), on_off(3, " / "), on_off(7, " / ")],
        );
        assert_eq!(row[1..], ["2.0 ±12.7 / 0.50", "7 / 0.50"]);
        // Joins of another separator or kind are not one column.
        let row = fold2(
            ["".into(), on_off(1, " / "), "-".into()],
            ["".into(), on_off(1, "/"), on_off(1, "/")],
        );
        assert_eq!(row[1..], ["(varies)", "(varies)"]);
    }

    #[test]
    fn differing_text_folds_to_varies() {
        let row = fold2(
            ["reseat".into(), "".into(), "".into()],
            ["clean".into(), "".into(), "".into()],
        );
        assert_eq!(row, ["(varies)", "", ""]);
    }

    #[test]
    fn mixed_kinds_fold_to_varies() {
        let row = fold2(
            ["".into(), Cell::Pct(0.12, 1), Cell::Count(1)],
            ["".into(), Cell::Num(12.5, 1), Cell::Count(1)],
        );
        assert_eq!(row[1..], ["(varies)", "1"]);
    }

    #[test]
    fn shape_mismatches_and_empty_input_error() {
        let a = one_row("t", ["L0".into(), Cell::Count(1), Cell::Count(1)]);
        let (mut title, mut columns, mut rows) = (a.clone(), a.clone(), a.clone());
        title.title.push('!');
        columns.columns.pop();
        rows.rows.clear();
        for other in [title, columns, rows] {
            assert!(Table::fold(&[a.clone(), other]).is_err());
        }
        assert!(Table::fold(&[]).is_err());
        // A single replicate passes through unchanged.
        assert_eq!(Table::fold(std::slice::from_ref(&a)).unwrap().title(), "t");
    }

    #[test]
    fn replicate_order_does_not_change_the_bytes() {
        let a = one_row("t", ["L0".into(), Cell::Num(1.0, 2), mins(1)]);
        let b = one_row("t", ["L0".into(), Cell::Num(5.0, 2), mins(150)]);
        let ab = Table::fold(&[a.clone(), b.clone()]).unwrap().render();
        assert_eq!(ab, Table::fold(&[b, a]).unwrap().render());
    }

    #[test]
    fn fold_keeps_declared_alignment() {
        let t = |v| {
            let mut t = Table::new("t", &[("n", Right), ("note", Left), ("v", Right)]);
            t.row(vec![Cell::Count(1), "a long note".into(), Cell::Num(v, 1)]);
            t.row(vec![Cell::Count(22), "short".into(), Cell::Num(2.0, 1)]);
            t
        };
        let folded = Table::fold(&[t(1.0), t(3.0)]).unwrap().render();
        let lines: Vec<&str> = folded.lines().collect();
        // A right-aligned first column and a left-aligned middle one.
        assert!(lines[3].starts_with(" 1  a long note"), "{folded}");
        assert!(lines[4].starts_with("22  short      "), "{folded}");
    }
}
