//! Shared experiment infrastructure: the standard trace, capacity scaling,
//! and table/CSV output.

use otae_trace::{generate, Trace, TraceConfig};
use std::fmt::Write as _;
use std::path::Path;

/// The paper's working set: ~14 M sampled objects × ~32 KB ≈ 448 GB, against
/// which it sweeps 2–20 GB of cache.
pub const PAPER_WORKING_SET_GB: f64 = 448.0;

/// The capacity axis of Figures 6–10 (GB, paper scale).
pub const PAPER_GBS: [f64; 10] = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0];

/// Number of objects in the standard experiment trace (override with
/// `OTAE_OBJECTS`).
pub fn standard_objects() -> usize {
    std::env::var("OTAE_OBJECTS").ok().and_then(|v| v.parse().ok()).unwrap_or(60_000)
}

/// The standard 9-day experiment trace (deterministic, seed 42).
pub fn standard_trace() -> Trace {
    generate(&TraceConfig { n_objects: standard_objects(), seed: 42, ..Default::default() })
}

/// Convert a paper-scale capacity in GB to bytes for this trace:
/// `g/448` of the trace's unique bytes.
pub fn gb_to_bytes(trace: &Trace, gb: f64) -> u64 {
    ((trace.unique_bytes() as f64) * gb / PAPER_WORKING_SET_GB).max(1.0) as u64
}

/// The standard capacity grid as `(gb_label, bytes)` pairs.
pub fn capacity_grid(trace: &Trace) -> Vec<(f64, u64)> {
    PAPER_GBS.iter().map(|&g| (g, gb_to_bytes(trace, g))).collect()
}

/// A printable, CSV-writable results table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            let mut first = true;
            for (cell, w) in cells.iter().zip(widths) {
                if !first {
                    out.push_str("  ");
                }
                first = false;
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        line(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(row, &widths, &mut out);
        }
        out
    }

    /// Write the table as CSV under `results/<name>.csv` (creating the
    /// directory as needed).
    pub fn write_csv(&self, name: &str) -> std::io::Result<()> {
        let dir = Path::new("results");
        std::fs::create_dir_all(dir)?;
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ =
            writeln!(out, "{}", self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        std::fs::write(dir.join(format!("{name}.csv")), out)
    }

    /// Print to stdout and persist as CSV (CSV skipped in smoke mode so
    /// sanity runs never overwrite real results).
    pub fn emit(&self, csv_name: &str) {
        println!("{}", self.render());
        if smoke_mode() {
            println!("[smoke] skipping results/{csv_name}.csv");
            return;
        }
        if let Err(e) = self.write_csv(csv_name) {
            eprintln!("warning: failed to write results/{csv_name}.csv: {e}");
        }
    }
}

/// True when `OTAE_BENCH_SMOKE=1`: experiments shrink to seconds-scale
/// sanity runs and skip writing `results/*.csv` (so CI smoke runs never
/// clobber real numbers).
pub fn smoke_mode() -> bool {
    std::env::var("OTAE_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// Format a float with 4 decimal places (the paper's table precision).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Format a float as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_scaling_is_proportional() {
        let trace = generate(&TraceConfig { n_objects: 2_000, seed: 1, ..Default::default() });
        let b2 = gb_to_bytes(&trace, 2.0);
        let b20 = gb_to_bytes(&trace, 20.0);
        assert!((b20 as f64 / b2 as f64 - 10.0).abs() < 0.01);
        let grid = capacity_grid(&trace);
        assert_eq!(grid.len(), 10);
        assert!(grid.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn table_renders_and_escapes_csv() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "x,y".into()]);
        let text = t.render();
        assert!(text.contains("demo"));
        assert!(text.contains('1'));
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f4(0.123456), "0.1235");
        assert_eq!(pct(0.1234), "12.3%");
    }
}
