//! Ablations of the design choices DESIGN.md calls out: the Table-4 cost
//! matrix, the history table, the feature set (§3.2.2), and the
//! reaccess-distance criteria vs the naive "accessed once ever" rule (§4.3).

use crate::common::{f4, gb_to_bytes, pct, standard_trace, Table};
use crate::experiments::table1::build_dataset;
use otae_core::daily::CostPolicy;
use otae_core::pipeline::run_with_index;
use otae_core::reaccess::ReaccessIndex;
use otae_core::{Mode, PolicyKind, RunConfig, FEATURE_NAMES};
use otae_ml::feature_select::{cv_accuracy, forward_select, information_gain};

/// Table 4 ablation: sweep the false-positive cost `v` at a small and a
/// large cache and report classifier precision/recall plus cache outcomes.
pub fn cost_matrix() {
    let trace = standard_trace();
    let index = ReaccessIndex::build(&trace);
    let mut t = Table::new(
        "Ablation: cost matrix v (Table 4; paper: v=2 small caches, v=3 large)",
        &["cache (GB)", "v", "precision", "recall", "hit rate", "write rate"],
    );
    for gb in [4.0, 16.0] {
        for v in [1.0f32, 2.0, 3.0, 5.0] {
            let mut cfg = RunConfig::new(PolicyKind::Lru, Mode::Proposal, gb_to_bytes(&trace, gb));
            cfg.training.cost = CostPolicy::Fixed(v);
            let r = run_with_index(&trace, &index, &cfg);
            let report = r.classifier.expect("proposal run");
            t.push_row(vec![
                format!("{gb}"),
                format!("{v}"),
                f4(report.overall.precision()),
                f4(report.overall.recall()),
                f4(r.stats.file_hit_rate()),
                f4(r.stats.file_write_rate()),
            ]);
        }
    }
    t.emit("ablation_cost_matrix");
}

/// §4.4.2 ablation: history table on vs off.
pub fn history_table() {
    let trace = standard_trace();
    let index = ReaccessIndex::build(&trace);
    let mut t = Table::new(
        "Ablation: history table (§4.4.2)",
        &["cache (GB)", "history", "hit rate", "write rate", "rectifications"],
    );
    for gb in [4.0, 10.0] {
        for use_history in [true, false] {
            let mut cfg = RunConfig::new(PolicyKind::Lru, Mode::Proposal, gb_to_bytes(&trace, gb));
            cfg.training.use_history = use_history;
            let r = run_with_index(&trace, &index, &cfg);
            let report = r.classifier.expect("proposal run");
            t.push_row(vec![
                format!("{gb}"),
                if use_history { "on" } else { "off" }.into(),
                f4(r.stats.file_hit_rate()),
                f4(r.stats.file_write_rate()),
                report.rectifications.to_string(),
            ]);
        }
    }
    t.emit("ablation_history_table");
}

/// §3.2.2: information gains, forward selection, and drop-one accuracy.
pub fn features() {
    let trace = standard_trace();
    let data = build_dataset(&trace, 10.0, 16_000);

    let mut gains =
        Table::new("Feature information gain (§3.2.2)", &["feature", "information gain (bits)"]);
    let mut ranked: Vec<(usize, f64)> =
        (0..data.n_features()).map(|c| (c, information_gain(&data, c, 16))).collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("gain not NaN"));
    for (c, g) in &ranked {
        gains.push_row(vec![FEATURE_NAMES[*c].to_string(), f4(*g)]);
    }
    gains.emit("feature_information_gain");

    let selection = forward_select(&data, 0.001, 3);
    let mut sel = Table::new(
        "Forward feature selection (paper picks avg_views, recency, age, access_time, type)",
        &["step", "feature", "CV accuracy"],
    );
    for (step, (&col, &score)) in selection.selected.iter().zip(&selection.scores).enumerate() {
        sel.push_row(vec![(step + 1).to_string(), FEATURE_NAMES[col].to_string(), f4(score)]);
    }
    sel.emit("feature_forward_selection");

    let full_acc = cv_accuracy(&data, 5);
    let mut drop = Table::new(
        "Drop-one feature ablation (CV accuracy; full set at top)",
        &["dropped feature", "CV accuracy", "delta"],
    );
    drop.push_row(vec!["(none)".into(), f4(full_acc), "-".into()]);
    for (c, name) in FEATURE_NAMES.iter().enumerate().take(data.n_features()) {
        let cols: Vec<usize> = (0..data.n_features()).filter(|&x| x != c).collect();
        let acc = cv_accuracy(&data.select_features(&cols), 5);
        drop.push_row(vec![name.to_string(), f4(acc), format!("{:+.4}", acc - full_acc)]);
    }
    drop.emit("ablation_features");
}

/// §4.3 ablation: reaccess-distance criteria vs naive "accessed once in the
/// whole trace", both with the oracle admitter so only the criteria differs.
pub fn criteria() {
    let trace = standard_trace();
    let index = ReaccessIndex::build(&trace);
    let mut t = Table::new(
        "Ablation: one-time-access criteria (oracle admission)",
        &["cache (GB)", "criteria", "hit rate", "write rate", "M"],
    );
    for gb in [2.0, 6.0, 12.0] {
        let cap = gb_to_bytes(&trace, gb);
        for naive in [false, true] {
            let mut cfg = RunConfig::new(PolicyKind::Lru, Mode::Ideal, cap);
            if naive {
                cfg.m_override = Some(u64::MAX - 1);
            }
            let r = run_with_index(&trace, &index, &cfg);
            t.push_row(vec![
                format!("{gb}"),
                if naive { "naive (ever reaccessed)" } else { "reaccess distance M" }.into(),
                f4(r.stats.file_hit_rate()),
                f4(r.stats.file_write_rate()),
                if naive { "inf".into() } else { r.criteria.m.to_string() },
            ]);
        }
    }
    t.emit("ablation_criteria");
}

/// §3.1.1's ensemble trade-off: boosting 30 trees buys ~1 % accuracy at ~30×
/// the single-tree cost.
pub fn ensemble_tradeoff() {
    use otae_ml::{AdaBoost, Classifier, DecisionTree, TreeParams};
    let trace = standard_trace();
    let data = build_dataset(&trace, 10.0, 16_000);
    let (train, test) = data.train_test_split(0.7, 7);
    let mut t = Table::new(
        "Ensemble trade-off (§3.1.1): accuracy vs training cost",
        &["model", "accuracy", "train time (ms)"],
    )
    .wall_clock("train time (ms)");
    let accuracy = |clf: &dyn Classifier| {
        let correct =
            (0..test.len()).filter(|&i| clf.predict(test.row(i)) == test.label(i)).count();
        correct as f64 / test.len() as f64
    };
    let mut tree = DecisionTree::new(TreeParams::default());
    let t0 = std::time::Instant::now();
    tree.fit(&train);
    let tree_ms = t0.elapsed().as_secs_f64() * 1e3;
    t.push_row(vec!["Decision Tree (1)".into(), f4(accuracy(&tree)), format!("{tree_ms:.1}")]);
    for rounds in [10usize, 30] {
        let mut boost = AdaBoost::new(rounds);
        let t0 = std::time::Instant::now();
        boost.fit(&train);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        t.push_row(vec![format!("AdaBoost ({rounds})"), f4(accuracy(&boost)), format!("{ms:.1}")]);
    }
    t.emit("ablation_ensemble_tradeoff");
}

/// SSD lifetime projection from the measured write reductions (§1's
/// motivation, quantified with the wear model).
pub fn ssd_lifetime() {
    use otae_device::{SsdWearModel, WearLedger};
    let trace = standard_trace();
    let index = ReaccessIndex::build(&trace);
    let cap = gb_to_bytes(&trace, 6.0);
    let days = 9.0;
    let mut t = Table::new(
        "SSD lifetime projection (wear model, LRU, 6GB-equivalent)",
        &["mode", "bytes written", "write rate", "life consumed", "relative lifetime"],
    );
    let wear = SsdWearModel::default();
    let mut baseline_rate = 0.0;
    for mode in [Mode::Original, Mode::Proposal, Mode::Ideal] {
        let r = run_with_index(&trace, &index, &RunConfig::new(PolicyKind::Lru, mode, cap));
        // The simulator measures host bytes only; the ledger carries no GC
        // stream, so the model applies its assumed WA factor.
        let mut ledger = WearLedger::new();
        ledger.record_host_write(r.stats.bytes_written);
        let per_day = r.stats.bytes_written as f64 / days;
        if mode == Mode::Original {
            baseline_rate = per_day;
        }
        t.push_row(vec![
            mode.name().into(),
            r.stats.bytes_written.to_string(),
            pct(r.stats.byte_write_rate()),
            format!("{:.4}%", wear.life_consumed(&ledger) * 100.0),
            format!("{:.2}x", wear.lifetime_extension(baseline_rate, per_day)),
        ]);
    }
    t.emit("ssd_lifetime");
}
