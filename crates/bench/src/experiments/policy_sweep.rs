//! Admission-policy zoo sweep: policy × eviction × capacity.
//!
//! The paper compares classifier families at one operating point; this
//! experiment compares admission *policies* — the learned gate against the
//! zoo's non-ML baselines (SecondHit, TinyLFU, RejectX, CoinFlip) and the
//! Original/Ideal brackets — on the axes a production flash cache actually
//! trades: file hit rate (service quality), file write rate and flash bytes
//! written (device wear), and the backend disk-head-time the misses cost
//! (total and the worst 60-second window, the provisioning number).

use crate::common::{f4, gb_to_bytes, smoke_mode, standard_trace, Table};
use otae_core::reaccess::ReaccessIndex;
use otae_core::sweep::{grid, sweep};
use otae_core::{Mode, PolicyKind, RunConfig};

/// The one capacity a smoke run sweeps (paper GB).
const SUMMARY_GB: f64 = 8.0;

/// Run the zoo sweep, print the grid and write `results/policy_sweep.csv`.
pub fn run() {
    let smoke = smoke_mode();
    let trace = standard_trace();
    let index = ReaccessIndex::build(&trace);

    let evictions: &[PolicyKind] = if smoke {
        &[PolicyKind::Lru]
    } else {
        &[PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::S3Lru]
    };
    let gbs: &[f64] = if smoke { &[SUMMARY_GB] } else { &[4.0, SUMMARY_GB, 16.0] };
    let caps: Vec<u64> = gbs.iter().map(|&g| gb_to_bytes(&trace, g)).collect();

    let points = grid(evictions, &Mode::ALL, &caps);
    let base = RunConfig::new(PolicyKind::Lru, Mode::Original, caps[0]);
    let results = sweep(&trace, &index, &points, &base, 0);

    let mut t = Table::new(
        "Policy sweep: admission zoo × eviction × capacity",
        &[
            "eviction",
            "admission",
            "capacity (GB)",
            "hit rate",
            "write rate",
            "flash MB written",
            "DT total (s)",
            "DT peak (ms/60s)",
        ],
    );
    let gb_of = |capacity: u64| {
        let i = caps.iter().position(|&c| c == capacity).expect("capacity from the grid");
        gbs[i]
    };
    for r in &results {
        t.push_row(vec![
            r.policy.name().to_string(),
            r.mode.name().to_string(),
            format!("{}", gb_of(r.capacity)),
            f4(r.stats.file_hit_rate()),
            f4(r.stats.file_write_rate()),
            format!("{:.1}", r.stats.bytes_written as f64 / 1e6),
            format!("{:.2}", r.service_time.total_us() as f64 / 1e6),
            format!("{:.1}", r.service_time.peak_window_us() as f64 / 1e3),
        ]);
    }
    t.emit("policy_sweep");
}
