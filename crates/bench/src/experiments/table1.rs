//! Table 1: performance comparison of seven classifiers on the sampled
//! one-time-access dataset, plus the §3.1.2 tree-shape checks.

use crate::common::{f4, gb_to_bytes, standard_trace, Table};
use otae_core::reaccess::ReaccessIndex;
use otae_core::{solve_criteria, FeatureExtractor, CRITERIA_ITERATIONS, FEATURE_NAMES, N_FEATURES};
use otae_ml::{
    predict_all, roc_auc, score_all, AdaBoost, Classifier, ConfusionMatrix, Dataset, DecisionTree,
    Knn, LogisticRegression, Mlp, NaiveBayes, RandomForest, TreeParams,
};
use otae_trace::Trace;

/// Paper's Table 1 reference values: (name, precision, recall, accuracy, AUC).
pub const PAPER_TABLE1: [(&str, f64, f64, f64, f64); 7] = [
    ("Naive Bayes", 0.377596, 0.99272, 0.459069, 0.688827),
    ("Decision Tree", 0.800459, 0.765024, 0.859903, 0.898646),
    ("BP NN", 0.625511, 0.158107, 0.691771, 0.721861),
    ("KNN", 0.686851, 0.544037, 0.768306, 0.826307),
    ("AdaBoost", 0.80709, 0.785428, 0.867597, 0.935989),
    ("Random Forest", 0.801581, 0.77895, 0.863792, 0.932453),
    ("Logistic Regression", 0.893082, 0.173785, 0.721236, 0.834967),
];

/// Build the labelled classification dataset from a trace: features from the
/// online extractor, labels from the one-time-access criteria at the given
/// paper-GB capacity, capped at `max_rows` by even striding.
pub fn build_dataset(trace: &Trace, gb: f64, max_rows: usize) -> Dataset {
    let index = ReaccessIndex::build(trace);
    let criteria = solve_criteria(
        &index,
        gb_to_bytes(trace, gb),
        trace.avg_object_size().max(1.0),
        CRITERIA_ITERATIONS,
    );
    let stride = (trace.len() / max_rows).max(1);
    let mut extractor = FeatureExtractor::new(trace);
    let mut data = Dataset::new(N_FEATURES).with_feature_names(&FEATURE_NAMES);
    for (i, req) in trace.requests.iter().enumerate() {
        let features = extractor.extract(trace, req);
        if i % stride == 0 {
            data.push(&features, index.is_one_time(i, criteria.m));
        }
        extractor.update(trace, req);
    }
    data
}

/// Evaluate one classifier; returns (precision, recall, accuracy, auc).
pub fn evaluate(clf: &mut dyn Classifier, train: &Dataset, test: &Dataset) -> (f64, f64, f64, f64) {
    clf.fit(train);
    let preds = predict_all(clf, test);
    let scores = score_all(clf, test);
    let cm = ConfusionMatrix::from_predictions(test.labels(), &preds);
    let auc = roc_auc(&scores, test.labels());
    (cm.precision(), cm.recall(), cm.accuracy(), auc)
}

/// Run the Table-1 comparison.
pub fn run() {
    let trace = standard_trace();
    let data = build_dataset(&trace, 10.0, 24_000);
    println!(
        "dataset: {} rows, {} features, {:.1}% one-time",
        data.len(),
        data.n_features(),
        data.positive_fraction() * 100.0
    );
    let (train, test) = data.train_test_split(0.7, 7);

    let mut classifiers: Vec<Box<dyn Classifier>> = vec![
        Box::new(NaiveBayes::new()),
        Box::new(DecisionTree::new(TreeParams::default())),
        Box::new(Mlp::new(16, 11)),
        Box::new(Knn::new(15)),
        Box::new(AdaBoost::new(30)),
        Box::new(RandomForest::new(30, 13)),
        Box::new(LogisticRegression::new()),
    ];

    let mut t = Table::new(
        "Table 1: classifier comparison (paper values in parentheses)",
        &["algorithm", "precision", "recall", "accuracy", "AUC"],
    );
    for clf in classifiers.iter_mut() {
        let name = clf.name();
        let start = std::time::Instant::now();
        let (p, r, a, auc) = evaluate(clf.as_mut(), &train, &test);
        let elapsed = start.elapsed();
        let paper = PAPER_TABLE1.iter().find(|row| {
            row.0 == name || (name == "Logistic Regression" && row.0.starts_with("Logistic"))
        });
        let with_ref = |ours: f64, theirs: Option<f64>| match theirs {
            Some(v) => format!("{} ({:.3})", f4(ours), v),
            None => f4(ours),
        };
        t.push_row(vec![
            name.to_string(),
            with_ref(p, paper.map(|x| x.1)),
            with_ref(r, paper.map(|x| x.2)),
            with_ref(a, paper.map(|x| x.3)),
            with_ref(auc, paper.map(|x| x.4)),
        ]);
        eprintln!("  {name}: fit+eval in {elapsed:?}");
    }
    t.emit("table1_classifiers");

    // §3.1.2: tree shape under the 30-split budget.
    let mut tree = DecisionTree::new(TreeParams::default());
    tree.fit(&train);
    let mean_path: f64 =
        (0..test.len().min(2000)).map(|i| tree.decision_path_len(test.row(i)) as f64).sum::<f64>()
            / test.len().min(2000) as f64;
    let mut shape = Table::new(
        "Tree shape (§3.1.2: <=30 splits, height ~5, <=5 comparisons typical)",
        &["metric", "value"],
    );
    shape.push_row(vec!["splits".into(), tree.n_splits().to_string()]);
    shape.push_row(vec!["depth".into(), tree.depth().to_string()]);
    shape.push_row(vec!["mean decision path".into(), format!("{mean_path:.2}")]);
    shape.emit("tree_shape");

    // What the deployed model actually uses (complements §3.2.2's ranking).
    let mut imp = Table::new(
        "Deployed-tree feature importance (split-count weighted)",
        &["feature", "importance"],
    );
    let importances = tree.feature_importance();
    let mut ranked: Vec<(usize, f64)> = importances.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("importance not NaN"));
    for (c, v) in ranked {
        imp.push_row(vec![FEATURE_NAMES[c].to_string(), f4(v)]);
    }
    imp.emit("tree_feature_importance");
}
