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

/// Suffix [`Table::wall_clock`] appends to a column header. Cells under
/// such a header are wall-clock measurements, which differ between two
/// runs of the same code, so [`results_diff`] skips them.
pub const WALL_CLOCK: &str = " [wall clock]";

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

    /// Declare `column` a wall-clock measurement (its header gains
    /// [`WALL_CLOCK`]). Every other cell must be a function of the code.
    pub fn wall_clock(mut self, column: &str) -> Self {
        let header = self.headers.iter_mut().find(|h| *h == column).expect("column exists");
        header.push_str(WALL_CLOCK);
        self
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

/// Records of a CSV text as [`Table::write_csv`] writes it: fields split at
/// commas outside quotes, `""` inside quotes read as one quote.
fn csv_records(text: &str) -> Vec<Vec<String>> {
    let (mut records, mut record, mut field, mut quoted) =
        (Vec::new(), Vec::new(), String::new(), false);
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                field.push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => record.push(std::mem::take(&mut field)),
            '\n' if !quoted => {
                record.push(std::mem::take(&mut field));
                records.push(std::mem::take(&mut record));
            }
            _ => field.push(c),
        }
    }
    records
}

/// How the CSVs under `fresh` differ from their namesakes under
/// `committed`, one line per differing file or line; empty when they all
/// match. Cells under a [`WALL_CLOCK`] header are not compared, the header
/// line itself is. CSVs only under `committed` are not looked at; a
/// `fresh` without any CSV is a difference.
pub fn results_diff(fresh: &Path, committed: &Path) -> std::io::Result<Vec<String>> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(fresh)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if name.ends_with(".csv") {
            names.push(name);
        }
    }
    names.sort();
    let mut out = Vec::new();
    if names.is_empty() {
        out.push(format!("no CSV under {}", fresh.display()));
    }
    for name in names {
        let new = csv_records(&std::fs::read_to_string(fresh.join(&name))?);
        let Ok(old) = std::fs::read_to_string(committed.join(&name)) else {
            out.push(format!("{name}: missing from {}", committed.display()));
            continue;
        };
        let old = csv_records(&old);
        if new.len() != old.len() {
            out.push(format!("{name}: {} lines, committed {}", new.len(), old.len()));
            continue;
        }
        let header = new.first().map_or(&[][..], Vec::as_slice);
        for (line, (a, b)) in new.iter().zip(&old).enumerate() {
            let same = a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .zip(header)
                    .all(|((x, y), h)| x == y || (line > 0 && h.ends_with(WALL_CLOCK)));
            if !same {
                out.push(format!("{name}:{}: {a:?}, committed {b:?}", line + 1));
            }
        }
    }
    Ok(out)
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
    fn csv_records_read_what_write_csv_escapes() {
        let text = "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n,\n";
        assert_eq!(csv_records(text), [vec!["a", "b"], vec!["x,y", "say \"hi\""], vec!["", ""]]);
    }

    #[test]
    fn results_diff_skips_wall_clock_cells_only() {
        let root = std::env::temp_dir().join(format!("otae-results-diff-{}", std::process::id()));
        let (fresh, committed) = (root.join("fresh"), root.join("committed"));
        for dir in [&fresh, &committed] {
            std::fs::create_dir_all(dir).unwrap();
        }
        assert_eq!(results_diff(&fresh, &committed).unwrap().len(), 1, "empty run");
        let header = format!("model,accuracy,ms{WALL_CLOCK}\n");
        let write = |dir: &Path, name: &str, body: &str| {
            std::fs::write(dir.join(name), format!("{header}{body}")).unwrap();
        };
        write(&fresh, "a.csv", "tree,0.80,5.0\n");
        write(&committed, "a.csv", "tree,0.80,4.1\n");
        write(&committed, "only_committed.csv", "x,1,2\n");
        assert!(results_diff(&fresh, &committed).unwrap().is_empty());

        write(&fresh, "a.csv", "tree,0.81,5.0\n");
        write(&fresh, "b.csv", "tree,0.80,5.0\n");
        std::fs::write(committed.join("c.csv"), "model,accuracy,ms\ntree,0.80,5.0\n").unwrap();
        write(&fresh, "c.csv", "tree,0.80,5.0\n");
        let diff = results_diff(&fresh, &committed).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(diff.len(), 3, "{diff:?}");
        assert!(diff[0].starts_with("a.csv:2:"), "{diff:?}");
        assert!(diff[1].starts_with("b.csv: missing"), "{diff:?}");
        assert!(diff[2].starts_with("c.csv:1:"), "a header gaining the mark: {diff:?}");
    }

    #[test]
    fn wall_clock_marks_one_header() {
        let t = Table::new("demo", &["a", "ms"]).wall_clock("ms");
        assert_eq!(t.headers, ["a".to_string(), format!("ms{WALL_CLOCK}")]);
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
