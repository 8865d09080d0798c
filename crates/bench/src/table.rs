//! Plain-text rendering for experiment output.
//!
//! Every figure/table record prints as an aligned text table (what you read
//! in the terminal).

use std::fmt::Write as _;

use serde::Serialize;

/// A rectangular table of strings with a header row.
///
/// # Examples
///
/// ```
/// use ace_bench::Table;
/// let mut t = Table::new(["h", "traffic"]);
/// t.row(["1", "123.4"]);
/// t.row(["2", "99.0"]);
/// let text = t.render();
/// assert!(text.contains("traffic"));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders an aligned text table with a separator under the header.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:>width$}", cell, width = widths[i]);
            }
            out.push('\n');
        };
        emit(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }
}

/// Formats a float with 1 decimal place (experiment table convention).
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with 3 decimal places.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a ratio as a percentage with 1 decimal place.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(["a", "bbbb"]);
        t.row(["1234", "x"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        Table::new(["one"]).row(["a", "b"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(f3(std::f64::consts::PI), "3.142");
        assert_eq!(pct(0.4567), "45.7%");
    }
}
