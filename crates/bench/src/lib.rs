//! Shared helpers for the eSLAM benchmark harness: table formatting and
//! paper-vs-measured comparison rows used by every `table*`/`fig*`
//! binary.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ab;
mod json;
pub mod regress;

use std::fmt::Display;
use std::path::PathBuf;

/// Output directory for generated artifacts (plots, TUM files, CSVs).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/eslam-out");
    std::fs::create_dir_all(&dir).expect("create output dir");
    dir
}

/// A paper-vs-measured comparison row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Quantity name.
    pub label: String,
    /// Value reported by the paper.
    pub paper: String,
    /// Value this reproduction measures/models.
    pub measured: String,
    /// Relative deviation where meaningful.
    pub deviation: Option<f64>,
}

impl Row {
    /// Builds a numeric comparison row with automatic deviation.
    pub fn numeric(label: impl Display, paper: f64, measured: f64, unit: &str) -> Row {
        let deviation = if paper.abs() > 1e-12 {
            Some((measured - paper) / paper * 100.0)
        } else {
            None
        };
        Row {
            label: label.to_string(),
            paper: format!("{paper:.2} {unit}"),
            measured: format!("{measured:.2} {unit}"),
            deviation,
        }
    }

    /// Builds a textual row without deviation.
    pub fn text(label: impl Display, paper: impl Display, measured: impl Display) -> Row {
        Row {
            label: label.to_string(),
            paper: paper.to_string(),
            measured: measured.to_string(),
            deviation: None,
        }
    }
}

/// Prints a titled paper-vs-measured table.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n== {title} ==");
    println!(
        "{:<34} {:>16} {:>16} {:>9}",
        "quantity", "paper", "measured", "dev"
    );
    println!("{}", "-".repeat(78));
    for row in rows {
        let dev = row
            .deviation
            .map(|d| format!("{d:+.1}%"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<34} {:>16} {:>16} {:>9}",
            row.label, row.paper, row.measured, dev
        );
    }
}

/// Largest absolute deviation across numeric rows (for self-checks).
pub fn max_abs_deviation(rows: &[Row]) -> f64 {
    rows.iter()
        .filter_map(|r| r.deviation)
        .fold(0.0, |m, d| m.max(d.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_row_computes_deviation() {
        let r = Row::numeric("x", 10.0, 11.0, "ms");
        assert!((r.deviation.unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_paper_value_has_no_deviation() {
        let r = Row::numeric("x", 0.0, 1.0, "ms");
        assert!(r.deviation.is_none());
    }

    #[test]
    fn max_deviation_scans_rows() {
        let rows = vec![
            Row::numeric("a", 10.0, 10.5, ""),
            Row::numeric("b", 10.0, 8.0, ""),
            Row::text("c", "x", "y"),
        ];
        assert!((max_abs_deviation(&rows) - 20.0).abs() < 1e-9);
    }
}
