//! # hc-bench — the experiment harness
//!
//! One binary per table/figure of the surveyed evaluation (see DESIGN.md's
//! per-experiment index and EXPERIMENTS.md for paper-vs-measured records),
//! plus Criterion micro-benchmarks of the platform's own compute cost.
//!
//! Run an experiment with e.g.
//!
//! ```text
//! cargo run -p hc-bench --release --bin exp_t1_gwap_metrics
//! ```
//!
//! Every binary prints a human-readable table to stdout **and** one JSON
//! line per row (prefixed `JSON:`) so results can be scraped
//! programmatically. All experiments are deterministic for a fixed
//! `--seed` (default 42, first CLI argument).
//!
//! Grid-based experiments additionally accept `--threads N` (parallel
//! replication pool; output bytes never change, see [`grid`]), `--reps`,
//! `--smoke`, `--bench-json PATH`, and `--trace PATH` (record an
//! `hc-obs` trace of the run); the `hc-bench` binary compares two bench
//! JSONs for determinism or performance and summarizes or converts
//! recorded traces (see [`trace`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod grid;
pub mod load;
pub mod trace;

pub use cli::RunOpts;
pub use grid::{run_grid, Cell, GridOutcome, TaskCtx};

use hc_sim::OnlineStats;
use serde::Serialize;

/// Paper-reported reference values from the line of work the DAC 2009
/// invited paper surveys (CHI'04, CACM'08, Science'08). Recorded here so
/// experiment binaries can print paper-vs-measured side by side.
pub mod paper {
    /// ESP Game throughput, labels per human-hour (CACM'08 Table 1).
    pub const ESP_THROUGHPUT: f64 = 233.0;
    /// ESP Game average lifetime play, hours (≈ 91 minutes).
    pub const ESP_ALP_HOURS: f64 = 91.0 / 60.0;
    /// ESP expected contribution, labels per recruit.
    pub const ESP_EXPECTED_CONTRIBUTION: f64 = 233.0 * 91.0 / 60.0;
    /// Fraction of ESP labels judged useful by human raters (CHI'04).
    pub const ESP_LABEL_PRECISION: f64 = 0.85;
    /// reCAPTCHA word-level accuracy (Science'08).
    pub const RECAPTCHA_WORD_ACCURACY: f64 = 0.99;
    /// Standalone OCR word accuracy on hard scans (Science'08).
    pub const OCR_WORD_ACCURACY: f64 = 0.835;
    /// Human CAPTCHA pass rate, deployed systems (approx.).
    pub const HUMAN_CAPTCHA_PASS: f64 = 0.90;
    /// Bot CAPTCHA pass rate the paper's premise requires ("programs
    /// fail").
    pub const BOT_CAPTCHA_PASS: f64 = 0.01;
}

/// Reads the experiment seed from argv (first arg, default 42).
#[must_use]
pub fn seed_from_args() -> u64 {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// A fixed-width console table that also emits `JSON:` lines per row.
#[derive(Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    json_rows: Vec<serde_json::Value>,
}

impl Table {
    /// Starts a table.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
            json_rows: Vec::new(),
        }
    }

    /// Adds a row from display strings plus a serializable record for the
    /// `JSON:` stream.
    pub fn row<T: Serialize>(&mut self, cells: &[String], record: &T) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells.to_vec());
        self.json_rows
            .push(serde_json::to_value(record).expect("records serialize"));
    }

    /// Renders the table and JSON stream to stdout.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                s.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
            }
            s.trim_end().to_string()
        };
        println!("{}", line(&self.headers));
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            println!("{}", line(row));
        }
        for j in &self.json_rows {
            println!("JSON: {j}");
        }
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows were added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Mean of `values` through [`OnlineStats`] (0 when empty).
#[must_use]
pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut stats = OnlineStats::new();
    for v in values {
        stats.push(v);
    }
    stats.mean()
}

/// Formats a float with 1 decimal.
#[must_use]
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with 3 decimals.
#[must_use]
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a fraction as a percentage with 1 decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Rec {
        a: u32,
    }

    #[test]
    fn table_accumulates_rows() {
        let mut t = Table::new("demo", &["x", "y"]);
        assert!(t.is_empty());
        t.row(&["1".into(), "2".into()], &Rec { a: 1 });
        assert_eq!(t.len(), 1);
        t.print(); // smoke: must not panic
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.row(&["only-one".into()], &Rec { a: 1 });
    }

    #[test]
    fn formatters() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(pct(0.856), "85.6%");
    }

    #[test]
    fn paper_constants_are_consistent() {
        assert!(
            (paper::ESP_EXPECTED_CONTRIBUTION - paper::ESP_THROUGHPUT * paper::ESP_ALP_HOURS).abs()
                < 1e-9
        );
    }
}
