//! One module per experiment; each exposes a `run()` that prints its tables
//! and writes CSVs into `results/`. The mapping to the paper's tables and
//! figures is documented in `DESIGN.md` §4; [`REGISTRY`] names them for the
//! `otae-bench` driver.

pub mod ablations;
pub mod baselines;
pub mod cluster;
pub mod drift;
pub mod fig2;
pub mod fig5;
pub mod figures;
pub mod ftl_wear;
pub mod online;
pub mod policy_sweep;
pub mod table1;
pub mod tails;
pub mod tiered;
pub mod trace_stats;

/// Every experiment `otae-bench <name>` runs, under the name the one-line
/// binary it replaced carried.
pub const REGISTRY: &[(&str, fn())] = &[
    // §2.2 trace characterisation + Figure 3 (one run emits both).
    ("trace_stats", trace_stats::run),
    ("fig3_photo_types", trace_stats::run),
    // Figure 2: hit rate vs cache capacity, always-admit.
    ("fig2_capacity_sweep", fig2::run),
    // Table 1: seven-classifier comparison + §3.1.2 tree shape.
    ("table1_classifiers", table1::run),
    // Figure 5: per-day classifier quality (LRU and LIRS criteria).
    ("fig5_classifier_days", fig5::run),
    // Figures 6-10, all cut from one sweep grid.
    ("fig6_file_hit_rate", figures::fig6),
    ("fig7_byte_hit_rate", figures::fig7),
    ("fig8_file_write_rate", figures::fig8),
    ("fig9_byte_write_rate", figures::fig9),
    ("fig10_response_time", figures::fig10),
    // Table 4 ablation: cost matrix v sweep.
    ("ablation_cost_matrix", ablations::cost_matrix),
    // §4.4.2 ablation: history table on/off.
    ("ablation_history_table", ablations::history_table),
    // §3.2.2: information gain, forward selection, drop-one ablation.
    ("ablation_features", ablations::features),
    // §4.3 ablation: reaccess-distance criteria vs naive accessed-once-ever.
    ("ablation_criteria", ablations::criteria),
    // §3.1.1 ensemble trade-off: accuracy vs training cost.
    ("ablation_ensemble", ablations::ensemble_tradeoff),
    // SSD lifetime projection from measured write reductions (wear model).
    ("ssd_lifetime", ablations::ssd_lifetime),
    // Extension: OC->DC tiered topology (§2.1) with per-tier admission.
    ("tiered_cache", tiered::run),
    // Extension: daily-batch vs online incremental training (§4.4.3).
    ("ablation_online", online::run),
    // Extension: ML classifier vs non-ML admission/replacement baselines.
    ("ablation_baselines", baselines::run),
    // Extension: FTL-level write amplification under the cache workload.
    ("ftl_wear", ftl_wear::run),
    // Extension: concept drift vs retraining cadence (§4.4.3 motivation).
    ("ablation_drift", drift::run),
    // Extension: multi-server OC fleet — partitioning, balance, failures.
    ("cluster_fleet", cluster::run),
    // Extension: latency tails (p50/p99) and warm-up timeline.
    ("latency_tails", tails::run),
    // Admission-policy zoo: policy × eviction × capacity sweep.
    ("policy_sweep", policy_sweep::run),
    // Regenerate every table and figure (`all` is the same).
    ("run_all", run_all),
];

/// The experiment registered as `name`.
pub fn find(name: &str) -> Option<fn()> {
    REGISTRY.iter().find(|(n, _)| *n == name).map(|&(_, run)| run)
}

/// Regenerate every table and figure; CSVs land in `results/`.
pub fn run_all() {
    let t0 = std::time::Instant::now();
    println!("### trace statistics (§2.2, Figure 3)\n");
    trace_stats::run();
    println!("### Figure 2\n");
    fig2::run();
    println!("### Table 1\n");
    table1::run();
    println!("### Figure 5\n");
    fig5::run();
    println!("### Figures 6-10\n");
    figures::fig6();
    figures::fig7();
    figures::fig8();
    figures::fig9();
    figures::fig10();
    println!("### Ablations\n");
    ablations::cost_matrix();
    ablations::history_table();
    ablations::features();
    ablations::criteria();
    ablations::ensemble_tradeoff();
    ablations::ssd_lifetime();
    println!("### Extensions: tiered OC/DC topology, online learning\n");
    tiered::run();
    online::run();
    baselines::run();
    ftl_wear::run();
    drift::run();
    cluster::run();
    tails::run();
    println!("all experiments done in {:?}", t0.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 25, "every name the 25 one-line binaries carried");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len(), "duplicate experiment name");
        assert!(REGISTRY.iter().all(|(n, _)| find(n).is_some()));
        assert!(find("all").is_none(), "`all` is the driver's word, not an experiment");
        assert!(find("fig11").is_none());
    }
}
