//! Table reports: aligned ASCII for the terminal, CSV for plotting.

use std::fmt::Write as _;
use std::path::Path;

/// A rectangular experiment report: labeled rows of numeric columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Experiment id ("f1", "t2", …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Name of the label column (e.g. "algorithm" or "anchor %").
    pub label_column: String,
    /// Numeric column names.
    pub columns: Vec<String>,
    /// Per-row labels.
    pub row_labels: Vec<String>,
    /// `data[row][col]` numeric payload; NaN renders as "-".
    pub data: Vec<Vec<f64>>,
}

impl Report {
    /// Creates a report, validating shape consistency.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        label_column: impl Into<String>,
        columns: Vec<String>,
        row_labels: Vec<String>,
        data: Vec<Vec<f64>>,
    ) -> Self {
        assert_eq!(row_labels.len(), data.len(), "one label per row");
        for row in &data {
            assert_eq!(row.len(), columns.len(), "ragged report row");
        }
        Report {
            id: id.into(),
            title: title.into(),
            label_column: label_column.into(),
            columns,
            row_labels,
            data,
        }
    }

    /// Looks up a cell by row label and column name (for tests and
    /// cross-experiment checks).
    pub fn cell(&self, row_label: &str, column: &str) -> Option<f64> {
        let r = self.row_labels.iter().position(|l| l == row_label)?;
        let c = self.columns.iter().position(|c| c == column)?;
        let v = self.data[r][c];
        (!v.is_nan()).then_some(v)
    }

    /// A whole numeric column by name.
    pub fn column(&self, column: &str) -> Option<Vec<f64>> {
        let c = self.columns.iter().position(|c| c == column)?;
        Some(self.data.iter().map(|row| row[c]).collect())
    }

    /// Renders an aligned ASCII table.
    pub fn to_ascii(&self) -> String {
        let mut widths: Vec<usize> = Vec::new();
        widths.push(
            self.row_labels
                .iter()
                .map(String::len)
                .chain([self.label_column.len()])
                .max()
                .unwrap_or(4),
        );
        let fmt_cell = |v: f64| {
            if v.is_nan() {
                "-".to_string()
            } else if v == 0.0 || (v.abs() >= 0.01 && v.abs() < 100_000.0) {
                format!("{v:.3}")
            } else {
                format!("{v:.3e}")
            }
        };
        for (c, name) in self.columns.iter().enumerate() {
            let w = self
                .data
                .iter()
                .map(|row| fmt_cell(row[c]).len())
                .chain([name.len()])
                .max()
                .unwrap_or(4);
            widths.push(w);
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}", self.id.to_uppercase(), self.title);
        let _ = write!(out, "{:<w$}", self.label_column, w = widths[0]);
        for (c, name) in self.columns.iter().enumerate() {
            let _ = write!(out, "  {:>w$}", name, w = widths[c + 1]);
        }
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * self.columns.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for (label, row) in self.row_labels.iter().zip(&self.data) {
            let _ = write!(out, "{:<w$}", label, w = widths[0]);
            for (c, &v) in row.iter().enumerate() {
                let _ = write!(out, "  {:>w$}", fmt_cell(v), w = widths[c + 1]);
            }
            out.push('\n');
        }
        out
    }

    /// Renders RFC-4180-ish CSV (label column first).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = write!(out, "{}", esc(&self.label_column));
        for c in &self.columns {
            let _ = write!(out, ",{}", esc(c));
        }
        out.push('\n');
        for (label, row) in self.row_labels.iter().zip(&self.data) {
            let _ = write!(out, "{}", esc(label));
            for &v in row {
                if v.is_nan() {
                    out.push(',');
                } else {
                    let _ = write!(out, ",{v}");
                }
            }
            out.push('\n');
        }
        out
    }

    /// Writes `<dir>/<id>.csv`, creating the directory if needed.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report::new(
            "t9",
            "sample report",
            "algo",
            vec!["err".into(), "cov".into()],
            vec!["BNL".into(), "DV-Hop".into()],
            vec![vec![0.25, 1.0], vec![0.9, f64::NAN]],
        )
    }

    #[test]
    fn cell_lookup() {
        let r = sample();
        assert_eq!(r.cell("BNL", "err"), Some(0.25));
        assert_eq!(r.cell("DV-Hop", "cov"), None); // NaN
        assert_eq!(r.cell("nope", "err"), None);
        let col = r.column("cov").unwrap();
        assert_eq!(col[0], 1.0);
        assert!(col[1].is_nan());
        assert_eq!(r.column("missing"), None);
    }

    #[test]
    fn ascii_renders_all_rows() {
        let text = sample().to_ascii();
        assert!(text.contains("T9"));
        assert!(text.contains("BNL"));
        assert!(text.contains("DV-Hop"));
        assert!(text.contains("0.250"));
        assert!(text.contains('-'));
        assert_eq!(text.lines().count(), 5);
    }

    #[test]
    fn csv_roundtrip_values() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "algo,err,cov");
        assert_eq!(lines[1], "BNL,0.25,1");
        assert_eq!(lines[2], "DV-Hop,0.9,"); // NaN → empty cell
    }

    #[test]
    fn csv_escapes_commas() {
        let r = Report::new(
            "x",
            "t",
            "name, with comma",
            vec!["v".into()],
            vec!["a\"b".into()],
            vec![vec![1.0]],
        );
        let csv = r.to_csv();
        assert!(csv.starts_with("\"name, with comma\""));
        assert!(csv.contains("\"a\"\"b\""));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = Report::new(
            "x",
            "t",
            "l",
            vec!["a".into(), "b".into()],
            vec!["r".into()],
            vec![vec![1.0]],
        );
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join("wsnloc_eval_test_csv");
        let path = sample().write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("BNL"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
