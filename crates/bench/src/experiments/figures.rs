//! Figures 6–10: the (policy × {Belady, Original, Proposal, Ideal} ×
//! capacity) grids for file/byte hit rate, file/byte write rate and mean
//! response time.

use crate::common::{capacity_grid, f4, standard_trace, Table};
use otae_core::reaccess::ReaccessIndex;
use otae_core::sweep::{grid, sweep};
use otae_core::{Mode, PolicyKind, RunConfig, RunResult};
use std::sync::OnceLock;

/// Metric plotted by one figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Figure 6.
    FileHitRate,
    /// Figure 7.
    ByteHitRate,
    /// Figure 8.
    FileWriteRate,
    /// Figure 9.
    ByteWriteRate,
    /// Figure 10 (µs).
    ResponseTime,
}

impl Metric {
    /// Extract the metric from a run result.
    pub fn of(&self, r: &RunResult) -> f64 {
        match self {
            Metric::FileHitRate => r.stats.file_hit_rate(),
            Metric::ByteHitRate => r.stats.byte_hit_rate(),
            Metric::FileWriteRate => r.stats.file_write_rate(),
            Metric::ByteWriteRate => r.stats.byte_write_rate(),
            Metric::ResponseTime => r.mean_latency_us,
        }
    }

    /// Figure title fragment.
    pub fn title(&self) -> &'static str {
        match self {
            Metric::FileHitRate => "file hit rate",
            Metric::ByteHitRate => "byte hit rate",
            Metric::FileWriteRate => "file write rate",
            Metric::ByteWriteRate => "byte write rate",
            Metric::ResponseTime => "mean response time (us)",
        }
    }

    /// Larger is better (hit rates) vs smaller is better (writes, latency).
    pub fn higher_is_better(&self) -> bool {
        matches!(self, Metric::FileHitRate | Metric::ByteHitRate)
    }
}

/// All sweep results needed by Figures 6–10, computed once.
pub struct FigureGrid {
    /// Capacity axis as (paper GB, bytes).
    pub caps: Vec<(f64, u64)>,
    /// Per-policy, per-mode, per-capacity results.
    pub results: Vec<RunResult>,
    /// Belady baseline per capacity.
    pub belady: Vec<RunResult>,
}

const MODES: [Mode; 3] = [Mode::Original, Mode::Proposal, Mode::Ideal];

/// This process's grid, computed on first use: a figure run alone pays for
/// it once, and so does `all` for the five of them.
fn shared_grid() -> &'static FigureGrid {
    static GRID: OnceLock<FigureGrid> = OnceLock::new();
    GRID.get_or_init(FigureGrid::compute)
}

/// Figure 6 of the paper.
pub fn fig6() {
    shared_grid().emit(Metric::FileHitRate, 6, "fig6_file_hit_rate");
}

/// Figure 7 of the paper.
pub fn fig7() {
    shared_grid().emit(Metric::ByteHitRate, 7, "fig7_byte_hit_rate");
}

/// Figure 8 of the paper.
pub fn fig8() {
    shared_grid().emit(Metric::FileWriteRate, 8, "fig8_file_write_rate");
}

/// Figure 9 of the paper.
pub fn fig9() {
    shared_grid().emit(Metric::ByteWriteRate, 9, "fig9_byte_write_rate");
}

/// Figure 10 of the paper.
pub fn fig10() {
    shared_grid().emit(Metric::ResponseTime, 10, "fig10_response_time");
}

impl FigureGrid {
    /// Run the full grid (the expensive part, shared by all five figures).
    pub fn compute() -> Self {
        let trace = standard_trace();
        let index = ReaccessIndex::build(&trace);
        let caps = capacity_grid(&trace);
        let cap_bytes: Vec<u64> = caps.iter().map(|c| c.1).collect();
        let base = RunConfig::new(PolicyKind::Lru, Mode::Original, cap_bytes[0]);

        let points = grid(&PolicyKind::PAPER_SET, &MODES, &cap_bytes);
        let results = sweep(&trace, &index, &points, &base, 0);
        let belady_points = grid(&[PolicyKind::Belady], &[Mode::Original], &cap_bytes);
        let belady = sweep(&trace, &index, &belady_points, &base, 0);
        Self { caps, results, belady }
    }

    /// Result for (policy index into PAPER_SET, mode index, capacity index).
    pub fn at(&self, policy: usize, mode: usize, cap: usize) -> &RunResult {
        let n_caps = self.caps.len();
        &self.results[(policy * MODES.len() + mode) * n_caps + cap]
    }

    /// Emit one figure's tables (one panel per policy, as in the paper).
    pub fn emit(&self, metric: Metric, fig_no: u8, csv_name: &str) {
        for (pi, policy) in PolicyKind::PAPER_SET.iter().enumerate() {
            let mut t = Table::new(
                &format!("Figure {fig_no}: {} — {}", metric.title(), policy.name()),
                &["capacity (GB)", "Belady", "Original", "Proposal", "Ideal"],
            );
            for (ci, (gb, _)) in self.caps.iter().enumerate() {
                t.push_row(vec![
                    format!("{gb}"),
                    f4(metric.of(&self.belady[ci])),
                    f4(metric.of(self.at(pi, 0, ci))),
                    f4(metric.of(self.at(pi, 1, ci))),
                    f4(metric.of(self.at(pi, 2, ci))),
                ]);
            }
            t.emit(&format!("{csv_name}_{}", policy.name().to_lowercase()));
        }
        self.emit_summary(metric, fig_no);
    }

    /// Print the paper's headline deltas for the figure.
    fn emit_summary(&self, metric: Metric, fig_no: u8) {
        let mut s = Table::new(
            &format!("Figure {fig_no} summary: Proposal vs Original across capacities"),
            &["policy", "min delta", "max delta"],
        );
        for (pi, policy) in PolicyKind::PAPER_SET.iter().enumerate() {
            let mut deltas: Vec<f64> = Vec::new();
            for ci in 0..self.caps.len() {
                let orig = metric.of(self.at(pi, 0, ci));
                let prop = metric.of(self.at(pi, 1, ci));
                let d = if metric.higher_is_better() {
                    prop - orig
                } else if orig.abs() > 1e-12 {
                    (orig - prop) / orig // relative reduction
                } else {
                    0.0
                };
                deltas.push(d);
            }
            let (lo, hi) = deltas
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &d| (l.min(d), h.max(d)));
            s.push_row(vec![
                policy.name().to_string(),
                format!("{:+.1}%", lo * 100.0),
                format!("{:+.1}%", hi * 100.0),
            ]);
        }
        s.emit(&format!("fig{fig_no}_summary"));
    }
}
