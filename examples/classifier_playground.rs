//! Classifier playground: build the one-time-access dataset from a trace,
//! compare classifiers (a slice of the paper's Table 1), inspect information
//! gain and the forward-selected feature set (§3.2.2), and look at the CART
//! tree's shape (§3.1.2).
//!
//! Run with: `cargo run --release --example classifier_playground`

use otae::core::reaccess::ReaccessIndex;
use otae::core::{
    solve_criteria, FeatureExtractor, CRITERIA_ITERATIONS, FEATURE_NAMES, N_FEATURES,
};
use otae::ml::feature_select::{forward_select, information_gain};
use otae::ml::{
    predict_all, roc_auc, score_all, Classifier, ConfusionMatrix, Dataset, DecisionTree,
    NaiveBayes, RandomForest, TreeParams,
};
use otae::trace::{generate, TraceConfig};

fn main() {
    let trace = generate(&TraceConfig { n_objects: 20_000, seed: 11, ..Default::default() });
    let index = ReaccessIndex::build(&trace);
    let capacity = (trace.unique_bytes() as f64 * 0.02) as u64;
    let criteria = solve_criteria(&index, capacity, trace.avg_object_size(), CRITERIA_ITERATIONS);
    println!(
        "criteria: M = {} accesses (p = {:.3}, h = {:.3})\n",
        criteria.m, criteria.p, criteria.h
    );

    // Features at access time + offline labels.
    let mut extractor = FeatureExtractor::new(&trace);
    let mut data = Dataset::new(N_FEATURES).with_feature_names(&FEATURE_NAMES);
    for (i, req) in trace.requests.iter().enumerate() {
        let row = extractor.extract(&trace, req);
        if i % 3 == 0 {
            data.push(&row, index.is_one_time(i, criteria.m));
        }
        extractor.update(&trace, req);
    }
    println!("dataset: {} rows, {:.1}% one-time", data.len(), data.positive_fraction() * 100.0);

    let (train, test) = data.train_test_split(0.7, 3);
    let mut classifiers: Vec<Box<dyn Classifier>> = vec![
        Box::new(NaiveBayes::new()),
        Box::new(DecisionTree::new(TreeParams::default())),
        Box::new(RandomForest::new(20, 5)),
    ];
    println!(
        "\n{:<16} {:>10} {:>8} {:>10} {:>8}",
        "classifier", "precision", "recall", "accuracy", "AUC"
    );
    for clf in classifiers.iter_mut() {
        clf.fit(&train);
        let cm =
            ConfusionMatrix::from_predictions(test.labels(), &predict_all(clf.as_ref(), &test));
        let auc = roc_auc(&score_all(clf.as_ref(), &test), test.labels());
        println!(
            "{:<16} {:>10.4} {:>8.4} {:>10.4} {:>8.4}",
            clf.name(),
            cm.precision(),
            cm.recall(),
            cm.accuracy(),
            auc
        );
    }

    println!("\ninformation gain per feature (bits):");
    let mut gains: Vec<(usize, f64)> =
        (0..data.n_features()).map(|c| (c, information_gain(&data, c, 16))).collect();
    gains.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("gain not NaN"));
    for (c, g) in &gains {
        println!("  {:<18} {g:.4}", FEATURE_NAMES[*c]);
    }

    let selection = forward_select(&data, 0.001, 9);
    println!(
        "\nforward-selected features: {:?}",
        selection.selected.iter().map(|&c| FEATURE_NAMES[c]).collect::<Vec<_>>()
    );

    let mut tree = DecisionTree::new(TreeParams::default());
    tree.fit(&train);
    println!(
        "\nCART shape: {} splits, depth {} (paper: budget 30, height ~5)",
        tree.n_splits(),
        tree.depth()
    );
}
