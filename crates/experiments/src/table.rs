//! Minimal aligned-text table rendering for paper-style output.

use std::fmt;

/// A titled table with a header row and labelled rows.
///
/// Columns marked as wall-clock readings ([`Table::with_wall_clock`])
/// keep their cells but are left out of `Display`, so a rendered table
/// is deterministic; [`Table::wall_clock`] renders them apart.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    clock: Vec<bool>,
}

impl Table {
    /// A new table; `headers` includes the label column.
    pub fn new(title: impl Into<String>, headers: Vec<String>) -> Table {
        let clock = vec![false; headers.len()];
        Table { title: title.into(), headers, rows: Vec::new(), clock }
    }

    /// Marks the named columns as wall-clock readings.
    ///
    /// # Panics
    ///
    /// Panics if a name is not a header, or names the label column.
    pub fn with_wall_clock(mut self, columns: &[&str]) -> Table {
        for name in columns {
            let i = self.headers.iter().position(|h| h == name).expect("a wall-clock column is a header");
            assert!(i > 0, "the label column is not a reading");
            self.clock[i] = true;
        }
        self
    }

    /// The label column and the wall-clock columns, titled after this
    /// table, or `None` when no column is marked.
    pub fn wall_clock(&self) -> Option<Table> {
        if !self.clock.contains(&true) {
            return None;
        }
        let keep = |cells: &[String]| -> Vec<String> {
            cells.iter().enumerate().filter(|&(i, _)| i == 0 || self.clock[i]).map(|(_, s)| s.clone()).collect()
        };
        let mut t = Table::new(format!("{} (wall clock)", self.title), keep(&self.headers));
        for row in &self.rows {
            t.push_row(keep(row));
        }
        Some(t)
    }

    /// Adds a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width must match headers");
        self.rows.push(cells);
    }

    /// The title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Cell accessor (row, column) for tests.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// Header accessor for tests.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shown: Vec<usize> = (0..self.headers.len()).filter(|&i| !self.clock[i]).collect();
        let widths: Vec<usize> = shown
            .iter()
            .map(|&i| self.rows.iter().map(|row| row[i].len()).fold(self.headers[i].len(), usize::max))
            .collect();
        writeln!(f, "== {} ==", self.title)?;
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (k, (&i, &w)) in shown.iter().zip(&widths).enumerate() {
                if k == 0 {
                    write!(f, "{:<w$}", cells[i])?;
                } else {
                    write!(f, "  {:>w$}", cells[i])?;
                }
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (shown.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float with 2 decimals (the paper's table style).
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 3 decimals (used for time ratios).
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", vec!["name".into(), "x".into()]);
        t.push_row(vec!["alpha".into(), "1.00".into()]);
        t.push_row(vec!["b".into(), "10.25".into()]);
        let s = t.to_string();
        assert!(s.starts_with("== demo =="));
        assert!(s.contains("alpha"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5, "title, header, rule, two rows");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("demo", vec!["a".into(), "b".into()]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn accessors() {
        let mut t = Table::new("demo", vec!["a".into(), "b".into()]);
        t.push_row(vec!["x".into(), "y".into()]);
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.cell(0, 1), "y");
        assert_eq!(t.headers().len(), 2);
        assert_eq!(t.title(), "demo");
    }

    #[test]
    fn wall_clock_columns_render_apart() {
        let mut t = Table::new("demo", vec!["a".into(), "ms".into(), "b".into()]).with_wall_clock(&["ms"]);
        t.push_row(vec!["x".into(), "12345".into(), "y".into()]);
        assert_eq!(t.cell(0, 1), "12345", "the reading stays a cell");
        assert_eq!(t.to_string(), "== demo ==\na  b\n----\nx  y\n");
        let clock = t.wall_clock().expect("one column is marked");
        assert_eq!(clock.to_string(), "== demo (wall clock) ==\na     ms\n--------\nx  12345\n");
        assert!(Table::new("plain", vec!["a".into()]).wall_clock().is_none());
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f2(7.855), "7.86");
        assert_eq!(f3(0.9791), "0.979");
    }
}
