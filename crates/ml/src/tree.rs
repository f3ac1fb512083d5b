//! CART decision tree (Breiman et al. 1984) with the paper's configuration:
//! Gini impurity, a **best-first split budget** ("we set the upper limit of
//! splitting times to 30 for the decision tree, which is approximately 3
//! times the number of features", §3.1.2) and cost-sensitive class weighting
//! implementing Table 4's cost matrix ("false positive costs v").
//!
//! Best-first growth (rather than depth-first) is what makes a *split budget*
//! meaningful: the 30 highest-gain splits anywhere in the tree are taken, so
//! the resulting tree is shallow — the paper reports height ≈ 5, i.e. at most
//! five comparisons per prediction.
//!
//! Splits are found on histograms: [`Classifier::fit`] quantizes each
//! column once into ≤ [`MAX_BINS`] bins ([`BinnedDataset`]) and accumulates
//! per-bin weight histograms — O(n_node × features) per node with no
//! sorting, deriving the larger sibling's histograms by subtracting the
//! smaller child's from the parent's. A fit runs on its caller's thread and
//! spawns none: parallelism belongs to the callers that fit many trees at
//! once (a forest's per-tree threads, a sweep's grid points).
//! [`DecisionTree::fit_exact`], which re-sorts every feature column at every
//! node, is kept as the reference the equivalence tests compare against.

use crate::binning::{BinnedDataset, MAX_BINS};
use crate::{Classifier, Dataset};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Tree hyper-parameters.
#[derive(Debug, Clone)]
pub struct TreeParams {
    /// Maximum number of internal splits (paper: 30).
    pub max_splits: usize,
    /// Hard depth cap (safety; the split budget usually binds first).
    pub max_depth: usize,
    /// Minimum total sample weight in a leaf.
    pub min_leaf_weight: f32,
    /// Cost of a false positive (Table 4's `v`): training weight multiplier
    /// applied to negative samples. `1.0` disables cost-sensitivity.
    pub cost_fp: f32,
    /// Features examined per split (`None` = all); used by random forests.
    pub max_features: Option<usize>,
    /// Seed for feature subsampling.
    pub seed: u64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_splits: 30,
            max_depth: 16,
            min_leaf_weight: 5.0,
            cost_fp: 1.0,
            max_features: None,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Node {
    Split { feature: u16, threshold: f32, left: u32, right: u32 },
    Leaf { score: f32 },
}

#[derive(Debug, Clone)]
struct Candidate {
    node: u32,
    depth: usize,
    indices: Vec<u32>,
    gain: f64,
    feature: u16,
    threshold: f32,
}

/// A fitted (or empty) CART decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    params: TreeParams,
    nodes: Vec<Node>,
    n_splits: usize,
    n_features: usize,
}

impl DecisionTree {
    /// Unfitted tree with the given parameters.
    pub fn new(params: TreeParams) -> Self {
        Self { params, nodes: vec![Node::Leaf { score: 0.0 }], n_splits: 0, n_features: 0 }
    }

    /// Unfitted tree with the paper's defaults and cost `v`.
    pub fn with_cost(v: f32) -> Self {
        Self::new(TreeParams { cost_fp: v, ..TreeParams::default() })
    }

    /// Number of internal splits in the fitted tree.
    pub fn n_splits(&self) -> usize {
        self.n_splits
    }

    /// Width of the training data (0 for an unfitted tree).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Depth of the fitted tree (a lone leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], i: u32) -> usize {
            match nodes[i as usize] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, left).max(walk(nodes, right)),
            }
        }
        walk(&self.nodes, 0)
    }

    /// Number of comparisons performed to classify `row`.
    pub fn decision_path_len(&self, row: &[f32]) -> usize {
        let mut i = 0u32;
        let mut steps = 0;
        loop {
            match self.nodes[i as usize] {
                Node::Leaf { .. } => return steps,
                Node::Split { feature, threshold, left, right } => {
                    steps += 1;
                    let x = row.get(feature as usize).copied().unwrap_or(0.0);
                    i = if x <= threshold { left } else { right };
                }
            }
        }
    }

    /// Gain-weighted feature importance of the fitted tree, normalised to
    /// sum to 1 (all zeros for an unfitted tree). Importance here counts how
    /// often (weighted by subtree population share approximated as 2^-depth)
    /// each feature is chosen to split — a deployment-side view of what the
    /// model actually uses, complementing §3.2.2's information-gain ranking.
    pub fn feature_importance(&self) -> Vec<f64> {
        let n = self.n_features.max(
            self.nodes
                .iter()
                .map(|node| match node {
                    Node::Split { feature, .. } => *feature as usize + 1,
                    Node::Leaf { .. } => 0,
                })
                .max()
                .unwrap_or(0),
        );
        let mut importance = vec![0.0f64; n];
        fn walk(nodes: &[Node], i: u32, weight: f64, importance: &mut [f64]) {
            if let Node::Split { feature, left, right, .. } = nodes[i as usize] {
                importance[feature as usize] += weight;
                walk(nodes, left, weight * 0.5, importance);
                walk(nodes, right, weight * 0.5, importance);
            }
        }
        walk(&self.nodes, 0, 1.0, &mut importance);
        let total: f64 = importance.iter().sum();
        if total > 0.0 {
            importance.iter_mut().for_each(|v| *v /= total);
        }
        importance
    }

    /// Serialise the fitted tree to a compact byte format, so the model
    /// trained at 05:00 (§4.4.3) can be shipped to cache servers.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.nodes.len() * 13);
        out.extend_from_slice(b"OTRE");
        out.extend_from_slice(&1u16.to_le_bytes()); // version
        out.extend_from_slice(&(self.nodes.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.n_splits as u32).to_le_bytes());
        out.extend_from_slice(&(self.n_features as u16).to_le_bytes());
        for node in &self.nodes {
            match *node {
                Node::Leaf { score } => {
                    out.push(0);
                    out.extend_from_slice(&score.to_le_bytes());
                    out.extend_from_slice(&[0u8; 8]);
                }
                Node::Split { feature, threshold, left, right } => {
                    out.push(1);
                    out.extend_from_slice(&threshold.to_le_bytes());
                    out.extend_from_slice(&feature.to_le_bytes());
                    // Child indices as 24 bits each: the 13-byte record's
                    // last 6 bytes.
                    out.extend_from_slice(&left.to_le_bytes()[..3]);
                    out.extend_from_slice(&right.to_le_bytes()[..3]);
                }
            }
        }
        out
    }

    /// Deserialise a tree previously produced by [`DecisionTree::to_bytes`].
    /// The bytes are treated as hostile: anything but exactly one valid
    /// encoding — a short or over-long buffer, a node its header does not
    /// account for, a pointer that could loop — is reported, never panicked
    /// on.
    pub fn from_bytes(data: &[u8]) -> Result<Self, String> {
        let Some((header, body)) = data.split_first_chunk::<16>() else {
            return Err("truncated".into());
        };
        if header[..4] != *b"OTRE" {
            return Err("bad magic".into());
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != 1 {
            return Err(format!("unsupported version {version}"));
        }
        let n_nodes = u32::from_le_bytes([header[6], header[7], header[8], header[9]]) as usize;
        let n_splits =
            u32::from_le_bytes([header[10], header[11], header[12], header[13]]) as usize;
        let n_features = u16::from_le_bytes([header[14], header[15]]) as usize;
        // Nodes are a fixed 13 bytes after the header: a node count the
        // body cannot pay for is a truncation, caught before it sizes an
        // allocation (one header bit-flip claims 2^30 nodes), and bytes past
        // the last node are refused as the trace codec refuses them.
        if n_nodes > body.len() / 13 {
            return Err("truncated".into());
        }
        if body.len() != n_nodes * 13 {
            return Err(format!("{} trailing bytes", body.len() - n_nodes * 13));
        }
        if n_nodes == 0 {
            return Err("empty tree".into());
        }
        let mut nodes = Vec::with_capacity(n_nodes);
        for (i, rec) in body.chunks_exact(13).enumerate() {
            let value = f32::from_le_bytes([rec[1], rec[2], rec[3], rec[4]]);
            match rec[0] {
                0 => {
                    if !(0.0..=1.0).contains(&value) {
                        return Err(format!("leaf score {value} out of range"));
                    }
                    nodes.push(Node::Leaf { score: value });
                }
                1 => {
                    let feature = u16::from_le_bytes([rec[5], rec[6]]);
                    let left = u32::from_le_bytes([rec[7], rec[8], rec[9], 0]);
                    let right = u32::from_le_bytes([rec[10], rec[11], rec[12], 0]);
                    if left as usize >= n_nodes || right as usize >= n_nodes {
                        return Err("child index out of range".into());
                    }
                    // Children point at later indices than their parent (the
                    // builder guarantees it), so no pointer can form a cycle.
                    if left as usize <= i || right as usize <= i {
                        return Err("non-topological child pointer".into());
                    }
                    if feature as usize >= n_features {
                        return Err("feature index out of range".into());
                    }
                    if !value.is_finite() {
                        return Err("non-finite threshold".into());
                    }
                    nodes.push(Node::Split { feature, threshold: value, left, right });
                }
                other => return Err(format!("unknown node tag {other}")),
            }
        }
        let splits = nodes.iter().filter(|n| matches!(n, Node::Split { .. })).count();
        if splits != n_splits {
            return Err(format!("header claims {n_splits} splits, the nodes hold {splits}"));
        }
        Ok(Self { params: TreeParams::default(), nodes, n_splits, n_features })
    }

    /// Effective training weight of sample `i` (dataset weight × cost matrix).
    fn eff_weight(&self, data: &Dataset, i: usize) -> f32 {
        let w = data.weight(i);
        if data.label(i) {
            w
        } else {
            w * self.params.cost_fp
        }
    }

    /// Weighted positive fraction over an index set.
    fn leaf_score(&self, data: &Dataset, idx: &[u32]) -> f32 {
        let (mut pos, mut tot) = (0.0f64, 0.0f64);
        for &i in idx {
            let w = self.eff_weight(data, i as usize) as f64;
            tot += w;
            if data.label(i as usize) {
                pos += w;
            }
        }
        if tot == 0.0 {
            0.0
        } else {
            (pos / tot) as f32
        }
    }

    /// Find the best (feature, threshold, gain) for an index set, or `None`
    /// if no split improves weighted Gini.
    fn best_split(
        &self,
        data: &Dataset,
        idx: &[u32],
        rng: &mut ChaCha8Rng,
        scratch: &mut Vec<(f32, f32, bool)>,
    ) -> Option<(u16, f32, f64)> {
        let n_features = data.n_features();
        let mut features: Vec<usize> = (0..n_features).collect();
        if let Some(m) = self.params.max_features {
            features.shuffle(rng);
            features.truncate(m.max(1).min(n_features));
        }

        let (mut w_pos, mut w_tot) = (0.0f64, 0.0f64);
        for &i in idx {
            let w = self.eff_weight(data, i as usize) as f64;
            w_tot += w;
            if data.label(i as usize) {
                w_pos += w;
            }
        }
        if w_tot <= 0.0 {
            return None;
        }
        let gini = |pos: f64, tot: f64| -> f64 {
            if tot <= 0.0 {
                return 0.0;
            }
            let p = pos / tot;
            2.0 * p * (1.0 - p)
        };
        let parent_impurity = w_tot * gini(w_pos, w_tot);
        if parent_impurity <= 1e-12 {
            return None; // pure node
        }

        let mut best: Option<(u16, f32, f64)> = None;
        for &f in &features {
            scratch.clear();
            for &i in idx {
                scratch.push((
                    data.row(i as usize)[f],
                    self.eff_weight(data, i as usize),
                    data.label(i as usize),
                ));
            }
            scratch.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("features must not be NaN"));
            let (mut lp, mut lt) = (0.0f64, 0.0f64);
            for k in 0..scratch.len() - 1 {
                let (v, w, y) = scratch[k];
                lt += w as f64;
                if y {
                    lp += w as f64;
                }
                let next_v = scratch[k + 1].0;
                if v == next_v {
                    continue; // threshold must separate distinct values
                }
                let (rt, rp) = (w_tot - lt, w_pos - lp);
                if lt < self.params.min_leaf_weight as f64
                    || rt < self.params.min_leaf_weight as f64
                {
                    continue;
                }
                let gain = parent_impurity - lt * gini(lp, lt) - rt * gini(rp, rt);
                if gain > best.map_or(1e-9, |b| b.2) {
                    best = Some((f as u16, (v + next_v) * 0.5, gain));
                }
            }
        }
        best
    }
}

/// One bin of a node histogram: total effective weight, positive effective
/// weight, and an exact sample count (the count makes histogram subtraction
/// give an exact occupied/empty answer even when the weights carry
/// floating-point dust).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct HBin {
    w: f64,
    wpos: f64,
    n: u32,
}

impl HBin {
    fn add(&mut self, weight: f64, positive: bool) {
        self.w += weight;
        self.n += 1;
        if positive {
            self.wpos += weight;
        }
    }

    fn subtract(&mut self, other: &HBin) {
        self.n -= other.n;
        if self.n == 0 {
            // Kill subtraction dust so empty bins are exactly empty.
            self.w = 0.0;
            self.wpos = 0.0;
        } else {
            self.w -= other.w;
            self.wpos -= other.wpos;
        }
    }
}

/// The winning split of a histogram search.
#[derive(Debug, Clone, Copy)]
struct SplitFound {
    feature: u16,
    /// Highest bin code routed left.
    split_bin: u8,
    /// Raw-value threshold recorded in the tree node.
    threshold: f32,
    gain: f64,
}

/// A frontier node of the binned best-first builder: its sample rows, its
/// full per-feature histogram (flattened), its weight totals, and the best
/// split found for it.
struct BinnedCandidate {
    node: u32,
    depth: usize,
    rows: Vec<u32>,
    hist: Vec<HBin>,
    tot: HBin,
    found: SplitFound,
}

/// Flattened histogram layout: `offsets[f]..offsets[f + 1]` are feature
/// `f`'s bins.
fn bin_offsets(data: &BinnedDataset) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(data.n_features() + 1);
    let mut at = 0usize;
    offsets.push(0);
    for f in 0..data.n_features() {
        at += data.n_bins(f);
        offsets.push(at);
    }
    offsets
}

/// Accumulate the per-feature bin histograms of one node (the rows listed
/// in `rows`, duplicates counted per occurrence). Returns the flattened
/// histogram and the node's weight totals.
///
/// One pass on the calling thread, whatever the node's size: one
/// `eff`/label gather per row and one contiguous read of the row's
/// row-major codes. A fit never spawns: one scoped thread per feature for
/// large nodes was slower even on an idle 2-thread host (each thread
/// re-gathered `eff` and the label of every row) and competed for the
/// cores the serve worker and a forest's per-tree threads already use.
/// Every bin is summed in the order `rows` lists its rows.
fn build_hist(
    data: &BinnedDataset,
    offsets: &[usize],
    rows: &[u32],
    eff: &[f32],
) -> (Vec<HBin>, HBin) {
    let n_features = data.n_features();
    let mut hist = vec![HBin::default(); offsets[n_features]];
    for &i in rows {
        let i = i as usize;
        let w = eff[i] as f64;
        let pos = data.label(i);
        for (f, &c) in data.row_codes(i).iter().enumerate() {
            hist[offsets[f] + c as usize].add(w, pos);
        }
    }
    let mut tot = HBin::default();
    for b in &hist[..offsets[1.min(n_features)]] {
        tot.w += b.w;
        tot.wpos += b.wpos;
        tot.n += b.n;
    }
    (hist, tot)
}

impl DecisionTree {
    /// Fit on a pre-binned dataset. [`Classifier::fit`] bins once and calls
    /// this; forests and boosting share one binning across their trees.
    ///
    /// * `rows` — sample multiset to train on (bootstrap duplicates
    ///   allowed); `None` trains on every row.
    /// * `weights` — per-row base-weight override indexed by original row
    ///   id (boosting reweights between rounds); `None` uses the weights
    ///   captured at binning time. The cost matrix (`cost_fp`) is applied
    ///   on top in either case.
    pub fn fit_binned_on(
        &mut self,
        data: &BinnedDataset,
        rows: Option<&[u32]>,
        weights: Option<&[f32]>,
    ) {
        self.nodes.clear();
        self.n_splits = 0;
        self.n_features = data.n_features();
        let mut rng = ChaCha8Rng::seed_from_u64(self.params.seed);
        if let Some(w) = weights {
            assert_eq!(w.len(), data.len(), "weight override length mismatch");
        }
        let eff: Vec<f32> = (0..data.len())
            .map(|i| {
                let base = weights.map_or_else(|| data.weight(i), |w| w[i]);
                if data.label(i) {
                    base
                } else {
                    base * self.params.cost_fp
                }
            })
            .collect();
        let offsets = bin_offsets(data);
        let all: Vec<u32> = match rows {
            Some(r) => r.to_vec(),
            None => (0..data.len() as u32).collect(),
        };
        let (root_hist, root_tot) = build_hist(data, &offsets, &all, &eff);
        self.nodes.push(Node::Leaf { score: leaf_score_of(root_tot) });
        if all.is_empty() {
            return;
        }

        let mut frontier: Vec<BinnedCandidate> = Vec::new();
        if let Some(found) = self.best_split_hist(data, &offsets, &root_hist, root_tot, &mut rng) {
            frontier.push(BinnedCandidate {
                node: 0,
                depth: 0,
                rows: all,
                hist: root_hist,
                tot: root_tot,
                found,
            });
        }

        while self.n_splits < self.params.max_splits && !frontier.is_empty() {
            let best_i = frontier
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.found.gain.partial_cmp(&b.1.found.gain).expect("gain not NaN"))
                .map(|(i, _)| i)
                .expect("frontier non-empty");
            let cand = frontier.swap_remove(best_i);

            let codes = data.feature_codes(cand.found.feature as usize);
            let (mut left_rows, mut right_rows) = (Vec::new(), Vec::new());
            for &i in &cand.rows {
                if codes[i as usize] <= cand.found.split_bin {
                    left_rows.push(i);
                } else {
                    right_rows.push(i);
                }
            }
            debug_assert!(!left_rows.is_empty() && !right_rows.is_empty());

            // Histogram subtraction: accumulate only the smaller child;
            // the larger sibling is parent − smaller.
            let left_is_small = left_rows.len() <= right_rows.len();
            let small_rows = if left_is_small { &left_rows } else { &right_rows };
            let (small_hist, small_tot) = build_hist(data, &offsets, small_rows, &eff);
            let mut large_hist = cand.hist;
            let mut large_tot = cand.tot;
            for (l, s) in large_hist.iter_mut().zip(&small_hist) {
                l.subtract(s);
            }
            large_tot.subtract(&small_tot);
            let (left_hist, left_tot, right_hist, right_tot) = if left_is_small {
                (small_hist, small_tot, large_hist, large_tot)
            } else {
                (large_hist, large_tot, small_hist, small_tot)
            };

            let left_node = self.nodes.len() as u32;
            self.nodes.push(Node::Leaf { score: leaf_score_of(left_tot) });
            let right_node = self.nodes.len() as u32;
            self.nodes.push(Node::Leaf { score: leaf_score_of(right_tot) });
            self.nodes[cand.node as usize] = Node::Split {
                feature: cand.found.feature,
                threshold: cand.found.threshold,
                left: left_node,
                right: right_node,
            };
            self.n_splits += 1;

            if cand.depth + 1 < self.params.max_depth {
                for (node, rows, hist, tot) in [
                    (left_node, left_rows, left_hist, left_tot),
                    (right_node, right_rows, right_hist, right_tot),
                ] {
                    if let Some(found) = self.best_split_hist(data, &offsets, &hist, tot, &mut rng)
                    {
                        frontier.push(BinnedCandidate {
                            node,
                            depth: cand.depth + 1,
                            rows,
                            hist,
                            tot,
                            found,
                        });
                    }
                }
            }
        }
    }

    /// Best split of a node given its histograms: scan each candidate
    /// feature's occupied bins left to right, evaluating the boundary
    /// between every adjacent occupied pair. Mirrors the exact splitter's
    /// candidate set, gain formula, tie-breaking and RNG consumption.
    fn best_split_hist(
        &self,
        data: &BinnedDataset,
        offsets: &[usize],
        hist: &[HBin],
        tot: HBin,
        rng: &mut ChaCha8Rng,
    ) -> Option<SplitFound> {
        let n_features = data.n_features();
        let mut features: Vec<usize> = (0..n_features).collect();
        if let Some(m) = self.params.max_features {
            features.shuffle(rng);
            features.truncate(m.max(1).min(n_features));
        }
        let (w_tot, w_pos) = (tot.w, tot.wpos);
        if w_tot <= 0.0 {
            return None;
        }
        let gini = |pos: f64, t: f64| -> f64 {
            if t <= 0.0 {
                return 0.0;
            }
            let p = pos / t;
            2.0 * p * (1.0 - p)
        };
        let parent_impurity = w_tot * gini(w_pos, w_tot);
        if parent_impurity <= 1e-12 {
            return None; // pure node
        }
        let min_leaf = self.params.min_leaf_weight as f64;

        let mut best: Option<SplitFound> = None;
        for &f in &features {
            let bins = &hist[offsets[f]..offsets[f + 1]];
            let (mut lt, mut lp) = (0.0f64, 0.0f64);
            let mut prev_occupied: Option<usize> = None;
            for (b, bin) in bins.iter().enumerate() {
                if bin.n == 0 {
                    continue;
                }
                if let Some(pb) = prev_occupied {
                    // Boundary between occupied bins pb and b; (lt, lp)
                    // hold the sums through pb.
                    let (rt, rp) = (w_tot - lt, w_pos - lp);
                    if lt >= min_leaf && rt >= min_leaf {
                        let gain = parent_impurity - lt * gini(lp, lt) - rt * gini(rp, rt);
                        if gain > best.as_ref().map_or(1e-9, |s| s.gain) {
                            best = Some(SplitFound {
                                feature: f as u16,
                                split_bin: pb as u8,
                                threshold: data.threshold_between(f, pb, b),
                                gain,
                            });
                        }
                    }
                }
                lt += bin.w;
                lp += bin.wpos;
                prev_occupied = Some(b);
            }
        }
        best
    }
}

fn leaf_score_of(tot: HBin) -> f32 {
    if tot.w <= 0.0 {
        0.0
    } else {
        (tot.wpos / tot.w) as f32
    }
}

impl DecisionTree {
    /// Fit with the exact sorted splitter. Its only role is the reference
    /// the equivalence tests hold [`Classifier::fit`] to: with one bin per
    /// distinct value the two produce prediction-identical trees.
    pub fn fit_exact(&mut self, data: &Dataset) {
        self.nodes.clear();
        self.n_splits = 0;
        self.n_features = data.n_features();
        let mut rng = ChaCha8Rng::seed_from_u64(self.params.seed);
        let mut scratch = Vec::with_capacity(data.len());

        let all: Vec<u32> = (0..data.len() as u32).collect();
        let root_score = self.leaf_score(data, &all);
        self.nodes.push(Node::Leaf { score: root_score });
        if data.is_empty() {
            return;
        }

        // Best-first frontier: candidates ordered by gain, consuming the
        // split budget on the globally best split each round.
        let mut frontier: Vec<Candidate> = Vec::new();
        if let Some((f, t, g)) = self.best_split(data, &all, &mut rng, &mut scratch) {
            frontier.push(Candidate {
                node: 0,
                depth: 0,
                indices: all,
                gain: g,
                feature: f,
                threshold: t,
            });
        }

        while self.n_splits < self.params.max_splits && !frontier.is_empty() {
            // Take the highest-gain candidate.
            let best_i = frontier
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.gain.partial_cmp(&b.1.gain).expect("gain not NaN"))
                .map(|(i, _)| i)
                .expect("frontier non-empty");
            let cand = frontier.swap_remove(best_i);

            // Partition the candidate's samples.
            let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
            for &i in &cand.indices {
                if data.row(i as usize)[cand.feature as usize] <= cand.threshold {
                    left_idx.push(i);
                } else {
                    right_idx.push(i);
                }
            }
            debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());

            let left_node = self.nodes.len() as u32;
            self.nodes.push(Node::Leaf { score: self.leaf_score(data, &left_idx) });
            let right_node = self.nodes.len() as u32;
            self.nodes.push(Node::Leaf { score: self.leaf_score(data, &right_idx) });
            self.nodes[cand.node as usize] = Node::Split {
                feature: cand.feature,
                threshold: cand.threshold,
                left: left_node,
                right: right_node,
            };
            self.n_splits += 1;

            // Enqueue children if they can still split.
            if cand.depth + 1 < self.params.max_depth {
                for (node, idx) in [(left_node, left_idx), (right_node, right_idx)] {
                    if let Some((f, t, g)) = self.best_split(data, &idx, &mut rng, &mut scratch) {
                        frontier.push(Candidate {
                            node,
                            depth: cand.depth + 1,
                            indices: idx,
                            gain: g,
                            feature: f,
                            threshold: t,
                        });
                    }
                }
            }
        }
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, data: &Dataset) {
        self.fit_binned_on(&BinnedDataset::build(data, MAX_BINS), None, None);
    }

    fn score(&self, row: &[f32]) -> f32 {
        let mut i = 0u32;
        loop {
            match self.nodes[i as usize] {
                Node::Leaf { score } => return score,
                Node::Split { feature, threshold, left, right } => {
                    // Out-of-range features (malformed input narrower than
                    // the training data) read as 0 rather than panicking.
                    let x = row.get(feature as usize).copied().unwrap_or(0.0);
                    i = if x <= threshold { left } else { right };
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "Decision Tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict_all;
    use rand::Rng;

    /// Two informative features + one noise feature; label = x0 > 0.5 XOR x1 > 0.5.
    fn xor_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut d = Dataset::new(3);
        for _ in 0..n {
            let x0: f32 = rng.gen();
            let x1: f32 = rng.gen();
            let noise: f32 = rng.gen();
            let label = (x0 > 0.5) ^ (x1 > 0.5);
            d.push(&[x0, x1, noise], label);
        }
        d
    }

    #[test]
    fn learns_xor() {
        let train = xor_dataset(2000, 1);
        let test = xor_dataset(500, 2);
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit(&train);
        let preds = predict_all(&tree, &test);
        let acc = preds.iter().zip(test.labels()).filter(|(p, y)| *p == *y).count() as f64
            / test.len() as f64;
        assert!(acc > 0.9, "XOR accuracy {acc}");
    }

    #[test]
    fn split_budget_respected() {
        let train = xor_dataset(3000, 3);
        let mut tree = DecisionTree::new(TreeParams { max_splits: 5, ..Default::default() });
        tree.fit(&train);
        assert!(tree.n_splits() <= 5, "{} splits", tree.n_splits());
        assert!(tree.depth() <= 5);
    }

    #[test]
    fn depth_cap_respected() {
        let train = xor_dataset(3000, 4);
        let mut tree =
            DecisionTree::new(TreeParams { max_depth: 2, max_splits: 100, ..Default::default() });
        tree.fit(&train);
        assert!(tree.depth() <= 2);
    }

    #[test]
    fn decision_path_bounded_by_depth() {
        let train = xor_dataset(1000, 5);
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit(&train);
        let d = tree.depth();
        for i in 0..50 {
            assert!(tree.decision_path_len(train.row(i)) <= d);
        }
    }

    #[test]
    fn pure_data_yields_single_leaf() {
        let mut d = Dataset::new(2);
        for i in 0..50 {
            d.push(&[i as f32, -(i as f32)], true);
        }
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit(&d);
        assert_eq!(tree.n_splits(), 0);
        assert!(tree.score(&[0.0, 0.0]) >= 0.5);
    }

    #[test]
    fn cost_sensitivity_trades_recall_for_precision() {
        // Noisy overlap region: with high FP cost the tree predicts positive
        // less often.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut d = Dataset::new(1);
        for _ in 0..4000 {
            let x: f32 = rng.gen();
            // P(pos) rises with x but is noisy.
            let label = rng.gen::<f32>() < 0.2 + 0.6 * x;
            d.push(&[x], label);
        }
        let count_pos = |v: f32| {
            let mut tree = DecisionTree::with_cost(v);
            tree.fit(&d);
            predict_all(&tree, &d).iter().filter(|&&p| p).count()
        };
        let neutral = count_pos(1.0);
        let costly = count_pos(4.0);
        assert!(
            costly < neutral,
            "higher FP cost must predict fewer positives: {costly} !< {neutral}"
        );
    }

    #[test]
    fn feature_importance_identifies_informative_features() {
        // Feature 0 fully determines the label; 1 and 2 are noise. The root
        // split resolves everything, so importance concentrates on 0.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut train = Dataset::new(3);
        for _ in 0..2000 {
            let x0: f32 = rng.gen();
            train.push(&[x0, rng.gen(), rng.gen()], x0 > 0.5);
        }
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit(&train);
        let imp = tree.feature_importance();
        assert_eq!(imp.len(), 3);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9, "normalised to 1");
        assert!(imp[0] > 0.8, "importances {imp:?}");
        // Unfitted tree: all zeros.
        let empty = DecisionTree::new(TreeParams::default());
        assert!(empty.feature_importance().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn deterministic_fit() {
        let train = xor_dataset(500, 9);
        let mut a = DecisionTree::new(TreeParams::default());
        let mut b = DecisionTree::new(TreeParams::default());
        a.fit(&train);
        b.fit(&train);
        for i in 0..train.len() {
            assert_eq!(a.score(train.row(i)), b.score(train.row(i)));
        }
    }

    #[test]
    fn empty_dataset_scores_zero() {
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit(&Dataset::new(2));
        assert_eq!(tree.score(&[1.0, 2.0]), 0.0);
        assert_eq!(tree.n_splits(), 0);
    }

    #[test]
    fn min_leaf_weight_prevents_isolating_outliers() {
        let mut d = Dataset::new(1);
        // 3 positive outliers among 100 negatives. With min leaf 10, any
        // leaf containing the positives must also hold >= 7 negatives, so
        // the tree cannot predict positive anywhere; with min leaf 1 it can.
        for i in 0..100 {
            d.push(&[i as f32], false);
        }
        for i in 0..3 {
            d.push(&[200.0 + i as f32], true);
        }
        let mut strict =
            DecisionTree::new(TreeParams { min_leaf_weight: 10.0, ..Default::default() });
        strict.fit(&d);
        assert!(!strict.predict(&[201.0]), "outliers must not dominate a fat leaf");
        let mut loose =
            DecisionTree::new(TreeParams { min_leaf_weight: 1.0, ..Default::default() });
        loose.fit(&d);
        assert!(loose.predict(&[201.0]), "loose min leaf isolates the outliers");
    }

    /// Low-cardinality dataset: every feature has ≤ 256 distinct values, so
    /// the binned engine's candidate thresholds coincide with the exact
    /// splitter's mid-points.
    fn low_cardinality_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut d = Dataset::new(4);
        for _ in 0..n {
            let x0 = rng.gen_range(0..40) as f32;
            let x1 = rng.gen_range(0..200) as f32 * 0.25;
            let x2 = rng.gen_range(0..7) as f32 - 3.0;
            let x3 = rng.gen_range(0..256) as f32;
            let label = (x0 > 20.0) ^ (x1 > 25.0) || x2 > 2.0;
            d.push(&[x0, x1, x2, x3], label);
        }
        d
    }

    #[test]
    fn binned_engine_matches_exact_predictions() {
        for seed in 0..4u64 {
            let train = low_cardinality_dataset(1500, seed);
            let test = low_cardinality_dataset(400, seed + 100);
            let mut exact = DecisionTree::new(TreeParams { seed, ..Default::default() });
            let mut binned = exact.clone();
            exact.fit_exact(&train);
            binned.fit(&train);
            assert_eq!(exact.n_splits(), binned.n_splits(), "seed {seed}: split count differs");
            for i in 0..test.len() {
                assert_eq!(
                    exact.predict(test.row(i)),
                    binned.predict(test.row(i)),
                    "seed {seed}: prediction differs on row {i}"
                );
            }
        }
    }

    #[test]
    fn binned_engine_matches_exact_under_cost_matrix() {
        // Table 4 cost matrices: v multiplies negative-sample weights.
        for v in [2.0f32, 3.0] {
            let train = low_cardinality_dataset(1200, 9);
            let mut exact = DecisionTree::with_cost(v);
            let mut binned = exact.clone();
            exact.fit_exact(&train);
            binned.fit(&train);
            for i in 0..train.len() {
                assert_eq!(
                    exact.predict(train.row(i)),
                    binned.predict(train.row(i)),
                    "v={v}: prediction differs on row {i}"
                );
            }
        }
    }

    #[test]
    fn score_batch_matches_per_row_scores() {
        let train = xor_dataset(1000, 21);
        let test = xor_dataset(300, 22);
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit(&train);
        let batch = tree.score_batch(&test);
        for (i, &s) in batch.iter().enumerate() {
            assert_eq!(s, tree.score(test.row(i)), "row {i}");
        }
    }

    #[test]
    fn binned_engine_coarse_bins_still_learn() {
        // With fewer bins than distinct values the engines may diverge, but
        // the binned tree must still learn the concept.
        let train = xor_dataset(3000, 31);
        let test = xor_dataset(600, 32);
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit_binned_on(&BinnedDataset::build(&train, 32), None, None);
        let preds = predict_all(&tree, &test);
        let acc = preds.iter().zip(test.labels()).filter(|(p, y)| *p == *y).count() as f64
            / test.len() as f64;
        assert!(acc > 0.85, "coarse-bin XOR accuracy {acc}");
    }
}

#[cfg(test)]
mod serialize_tests {
    use super::*;
    use crate::Classifier;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn fitted_tree() -> (DecisionTree, Dataset) {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut d = Dataset::new(3);
        for _ in 0..1500 {
            let x0: f32 = rng.gen();
            let x1: f32 = rng.gen();
            let x2: f32 = rng.gen();
            d.push(&[x0, x1, x2], x0 + 0.5 * x1 > 0.8);
        }
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit(&d);
        (tree, d)
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let (tree, data) = fitted_tree();
        let bytes = tree.to_bytes();
        let back = DecisionTree::from_bytes(&bytes).expect("own output parses");
        assert_eq!(back.n_splits(), tree.n_splits());
        assert_eq!(back.depth(), tree.depth());
        for i in 0..data.len() {
            assert_eq!(tree.score(data.row(i)), back.score(data.row(i)));
        }
    }

    #[test]
    fn unfitted_single_leaf_round_trips() {
        let tree = DecisionTree::new(TreeParams::default());
        let back = DecisionTree::from_bytes(&tree.to_bytes()).expect("parses");
        assert_eq!(back.score(&[0.0]), 0.0);
    }

    /// Every proper prefix and every extension of a valid encoding is
    /// refused, an extension by whole well-formed leaf records included.
    #[test]
    fn rejects_bad_magic_and_truncation() {
        let (tree, _) = fitted_tree();
        let bytes = tree.to_bytes();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(DecisionTree::from_bytes(&bad).is_err());
        for cut in 0..bytes.len() {
            assert!(DecisionTree::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let leaf = DecisionTree::new(TreeParams::default()).to_bytes()[16..].to_vec();
        for extra in 1..=2 * leaf.len() {
            let mut long = bytes.clone();
            long.extend(leaf.iter().cycle().take(extra));
            assert!(DecisionTree::from_bytes(&long).is_err(), "{extra} trailing bytes");
        }
    }

    #[test]
    fn rejects_split_nodes_under_a_zero_width_header() {
        let (tree, _) = fitted_tree();
        assert!(tree.n_splits() > 0);
        let mut bytes = tree.to_bytes();
        bytes[14..16].copy_from_slice(&0u16.to_le_bytes());
        assert!(DecisionTree::from_bytes(&bytes).is_err());
        // A lone leaf has no feature to range-check: width 0 is its own.
        let leaf = DecisionTree::new(TreeParams::default()).to_bytes();
        assert_eq!(DecisionTree::from_bytes(&leaf).expect("unfitted tree").n_features(), 0);
    }

    #[test]
    fn rejects_a_split_count_the_nodes_disagree_with() {
        let (tree, _) = fitted_tree();
        let n = tree.n_splits() as u32;
        for claimed in [0, n - 1, n + 1, u32::MAX] {
            let mut bytes = tree.to_bytes();
            bytes[10..14].copy_from_slice(&claimed.to_le_bytes());
            assert!(DecisionTree::from_bytes(&bytes).is_err(), "header claims {claimed} of {n}");
        }
    }

    #[test]
    fn rejects_corrupt_child_pointers() {
        let (tree, _) = fitted_tree();
        let mut bytes = tree.to_bytes();
        // Find the first split record (tag 1) and point its left child at
        // itself to form a cycle.
        let mut at = 16;
        while at < bytes.len() {
            if bytes[at] == 1 {
                bytes[at + 7] = 0;
                bytes[at + 8] = 0;
                bytes[at + 9] = 0;
                break;
            }
            at += 13;
        }
        assert!(DecisionTree::from_bytes(&bytes).is_err(), "cycle must be rejected");
    }

    #[test]
    fn rejects_unknown_version_and_tag() {
        let (tree, _) = fitted_tree();
        let mut v = tree.to_bytes();
        v[4] = 9;
        assert!(DecisionTree::from_bytes(&v).is_err());
        let mut t = tree.to_bytes();
        t[16] = 7; // first node tag
        assert!(DecisionTree::from_bytes(&t).is_err());
    }
}
