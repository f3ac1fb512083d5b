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
/// sanity runs and skip writing the repo-root `BENCH_*.json` trajectory
/// files (so CI smoke runs never clobber real numbers).
pub fn smoke_mode() -> bool {
    std::env::var("OTAE_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// Machine-readable perf-trajectory artifact (`BENCH_*.json` at the repo
/// root): named stages with wall time and an ops/s rate, plus free scalar
/// metrics. Hand-rolled writer — no JSON crate on the offline allowlist.
#[derive(Debug, Clone)]
pub struct BenchJson {
    benchmark: String,
    stages: Vec<(String, f64, f64)>,
    metrics: Vec<(String, f64)>,
}

impl BenchJson {
    /// New artifact for `benchmark`.
    pub fn new(benchmark: &str) -> Self {
        Self { benchmark: benchmark.to_string(), stages: Vec::new(), metrics: Vec::new() }
    }

    /// Record a stage's wall time (seconds) and throughput (ops/s).
    pub fn stage(&mut self, name: &str, wall_s: f64, ops_per_s: f64) {
        self.stages.push((name.to_string(), wall_s, ops_per_s));
    }

    /// Record a free-standing scalar metric (e.g. a speedup ratio).
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Serialize to a JSON string.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        fn num(x: f64) -> String {
            if x.is_finite() {
                format!("{x:.6}")
            } else {
                "null".to_string()
            }
        }
        let mut out = String::new();
        let _ = write!(out, "{{\n  \"benchmark\": \"{}\",\n  \"stages\": [", esc(&self.benchmark));
        for (i, (name, wall, ops)) in self.stages.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"name\": \"{}\", \"wall_s\": {}, \"ops_per_s\": {}}}",
                if i == 0 { "" } else { "," },
                esc(name),
                num(*wall),
                num(*ops)
            );
        }
        out.push_str("\n  ],\n  \"metrics\": {");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{}\": {}",
                if i == 0 { "" } else { "," },
                esc(name),
                num(*value)
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Write to `path` (skipped with a notice in smoke mode).
    pub fn write(&self, path: &str) {
        if smoke_mode() {
            println!("[smoke] skipping {path}");
            return;
        }
        if let Err(e) = std::fs::write(path, self.to_json()) {
            eprintln!("warning: failed to write {path}: {e}");
        } else {
            println!("wrote {path}");
        }
    }

    /// Parse an artifact previously produced by [`BenchJson::write`]. A
    /// line-based reader of this writer's own fixed layout — not a general
    /// JSON parser (none is on the offline allowlist). Returns `None` when
    /// the file is absent or not in that layout.
    pub fn load(path: &str) -> Option<Self> {
        fn unquote(s: &str) -> Option<(String, &str)> {
            let rest = s.strip_prefix('"')?;
            let mut out = String::new();
            let mut chars = rest.char_indices();
            while let Some((i, c)) = chars.next() {
                match c {
                    '\\' => out.push(chars.next()?.1),
                    '"' => return Some((out, &rest[i + 1..])),
                    _ => out.push(c),
                }
            }
            None
        }
        fn num_after(s: &str, key: &str) -> Option<f64> {
            let rest = s[s.find(key)? + key.len()..].trim_start();
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            let tok = rest[..end].trim();
            if tok == "null" {
                Some(f64::NAN)
            } else {
                tok.parse().ok()
            }
        }

        let text = std::fs::read_to_string(path).ok()?;
        let mut json = BenchJson::new("");
        let mut in_metrics = false;
        for line in text.lines() {
            let t = line.trim().trim_end_matches(',');
            if let Some(rest) = t.strip_prefix("\"benchmark\":") {
                json.benchmark = unquote(rest.trim_start())?.0;
            } else if let Some(rest) = t.strip_prefix("{\"name\":") {
                let (name, tail) = unquote(rest.trim_start())?;
                json.stages.push((
                    name,
                    num_after(tail, "\"wall_s\":")?,
                    num_after(tail, "\"ops_per_s\":")?,
                ));
            } else if t.starts_with("\"metrics\"") {
                in_metrics = true;
            } else if in_metrics && t.starts_with('"') {
                let (name, tail) = unquote(t)?;
                let tok = tail.trim_start().strip_prefix(':')?.trim();
                let value = if tok == "null" { f64::NAN } else { tok.parse().ok()? };
                json.metrics.push((name, value));
            }
        }
        if json.benchmark.is_empty() {
            return None;
        }
        Some(json)
    }

    /// Merge this artifact into `path` and write the result: the existing
    /// file's benchmark name, stages and metrics are kept, entries whose
    /// names this artifact redefines are replaced in place, and new ones
    /// are appended — so several experiments can share one `BENCH_*.json`
    /// without clobbering each other's numbers. Falls back to a plain
    /// write when the file is absent or unparseable; skipped in smoke
    /// mode like [`BenchJson::write`].
    pub fn merge_write(&self, path: &str) {
        if smoke_mode() {
            println!("[smoke] skipping {path}");
            return;
        }
        let merged = match Self::load(path) {
            Some(mut existing) => {
                for (name, wall, ops) in &self.stages {
                    match existing.stages.iter_mut().find(|(n, _, _)| n == name) {
                        Some(slot) => *slot = (name.clone(), *wall, *ops),
                        None => existing.stages.push((name.clone(), *wall, *ops)),
                    }
                }
                for (name, value) in &self.metrics {
                    match existing.metrics.iter_mut().find(|(n, _)| n == name) {
                        Some(slot) => slot.1 = *value,
                        None => existing.metrics.push((name.clone(), *value)),
                    }
                }
                existing
            }
            None => self.clone(),
        };
        merged.write(path);
    }
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

    #[test]
    fn bench_json_serializes_stages_and_metrics() {
        let mut j = BenchJson::new("demo");
        j.stage("tree_exact", 1.5, 2000.0);
        j.stage("tree_binned", 0.25, 12000.0);
        j.metric("speedup", 6.0);
        let text = j.to_json();
        assert!(text.contains("\"benchmark\": \"demo\""));
        assert!(text.contains("\"name\": \"tree_exact\""));
        assert!(text.contains("\"ops_per_s\": 12000.000000"));
        assert!(text.contains("\"speedup\": 6.000000"));
        // Hand-rolled JSON must stay balanced.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                text.matches(open).count(),
                text.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn bench_json_load_round_trips_its_own_writer() {
        let mut j = BenchJson::new("round_trip");
        j.stage("alpha", 1.25, 800.5);
        j.stage("beta", 0.5, 12000.0);
        j.metric("speedup", 6.25);
        j.metric("ratio", 0.333333);
        let path = std::env::temp_dir().join("otae_bench_json_round_trip.json");
        let path = path.to_str().expect("temp path");
        std::fs::write(path, j.to_json()).expect("write temp artifact");
        let back = BenchJson::load(path).expect("parse own output");
        assert_eq!(back.benchmark, "round_trip");
        assert_eq!(back.stages.len(), 2);
        assert_eq!(back.stages[0].0, "alpha");
        assert!((back.stages[0].1 - 1.25).abs() < 1e-9);
        assert!((back.stages[1].2 - 12000.0).abs() < 1e-9);
        assert_eq!(back.metrics.len(), 2);
        assert!((back.metrics[0].1 - 6.25).abs() < 1e-9);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bench_json_merge_replaces_by_name_and_appends_the_rest() {
        let mut existing = BenchJson::new("serve_throughput");
        existing.stage("original_1x1", 0.2, 1000.0);
        existing.metric("gate_overhead_1x1", 2.0);
        let path = std::env::temp_dir().join("otae_bench_json_merge.json");
        let path = path.to_str().expect("temp path");
        std::fs::write(path, existing.to_json()).expect("write temp artifact");

        let mut incoming = BenchJson::new("store_throughput");
        incoming.stage("store_append_q16", 0.1, 50000.0);
        incoming.metric("gate_overhead_1x1", 3.0); // redefined: replaced
        incoming.metric("store_recovery_ms", 12.5); // new: appended
        incoming.merge_write(path);

        let back = BenchJson::load(path).expect("parse merged artifact");
        assert_eq!(back.benchmark, "serve_throughput", "existing name wins");
        assert_eq!(back.stages.len(), 2, "old stage kept, new appended");
        assert_eq!(back.stages[0].0, "original_1x1");
        assert_eq!(back.stages[1].0, "store_append_q16");
        assert_eq!(back.metrics.len(), 2);
        assert!((back.metrics[0].1 - 3.0).abs() < 1e-9, "redefined metric replaced");
        assert!((back.metrics[1].1 - 12.5).abs() < 1e-9);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bench_json_load_rejects_missing_or_foreign_files() {
        assert!(BenchJson::load("/nonexistent/otae-bench.json").is_none());
        let path = std::env::temp_dir().join("otae_bench_json_foreign.json");
        let path = path.to_str().expect("temp path");
        std::fs::write(path, "not json at all").expect("write temp file");
        assert!(BenchJson::load(path).is_none());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bench_json_escapes_and_handles_nonfinite() {
        let mut j = BenchJson::new("a\"b");
        j.stage("s", f64::NAN, f64::INFINITY);
        let text = j.to_json();
        assert!(text.contains("a\\\"b"));
        assert!(text.contains("\"wall_s\": null"));
    }
}
