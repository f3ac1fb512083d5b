//! Feature quantization for histogram-based tree training.
//!
//! The exact CART splitter re-sorts every feature column at every node —
//! O(nodes × features × n log n), paid again for every ensemble member and
//! every retraining cycle. [`BinnedDataset`] quantizes each feature column
//! **once** per training set into at most [`MAX_BINS`] bins (quantile
//! cut-points, `u8` codes); split search then reduces to accumulating a
//! per-bin (weight, positive-weight) histogram in O(n_node × features) and
//! scanning at most 256 boundaries per feature, with no per-node sorting.
//!
//! When a feature has ≤ `max_bins` distinct values, every distinct value
//! gets its own bin and the recorded bin edges reproduce the exact
//! splitter's mid-point thresholds — the binned engine is then
//! *prediction-identical* to the exact one (see the equivalence tests).
//!
//! Binning a column needs its values in order, but not a sorted column.
//! Each value maps to an order-preserving `u32` key; the top (at most 16,
//! about `log2 n`) bits of the bits that vary across the column index a
//! bucket, so bucket order is value order. One histogram, one scatter of
//! the keys into bucket order, and one walk over the buckets apply the
//! quantile rule: the walk jumps from one bucket a bin can open in to the
//! next, sorts only the buckets a bin edge can fall inside, and leaves
//! every other bucket whole. Codes are then written in row order from a
//! bucket → code table; a bucket that edges split resolves its rows by
//! comparing their keys against the edge keys. A column whose varying
//! bits fit the index (integer-valued features: type, hour, counts) has
//! one value per bucket and is neither scattered nor sorted.

use crate::Dataset;

/// Hard ceiling on bins per feature (bin codes are `u8`).
pub const MAX_BINS: usize = 256;

/// Per-feature bin metadata.
#[derive(Debug, Clone)]
struct FeatureBins {
    /// Smallest raw value landing in each bin (ascending).
    bin_min: Vec<f32>,
    /// Largest raw value landing in each bin (ascending).
    bin_max: Vec<f32>,
}

impl FeatureBins {
    fn n_bins(&self) -> usize {
        self.bin_min.len()
    }

    /// Threshold separating bins `b` and `b2` (`b < b2`, both occupied in
    /// the node being split): the mid-point between the largest value at or
    /// below the boundary and the smallest value above it. With one bin per
    /// distinct value this is exactly the exact splitter's `(v + next_v)/2`.
    fn threshold_between(&self, b: usize, b2: usize) -> f32 {
        (self.bin_max[b] + self.bin_min[b2]) * 0.5
    }
}

/// A dataset quantized for histogram split search: column-major `u8` bin
/// codes plus per-bin value ranges, carrying labels and base weights so
/// ensembles can bin once and train every member on the shared codes.
#[derive(Debug, Clone)]
pub struct BinnedDataset {
    n_rows: usize,
    /// `codes[f * n_rows + i]` = bin of row `i` in feature `f`.
    codes: Vec<u8>,
    /// Row-major mirror of `codes`: `row_codes[i * n_features + f]`. The
    /// single-threaded histogram pass reads all of a row's codes at once,
    /// so keeping them adjacent turns nine strided gathers per row into one
    /// contiguous 9-byte read.
    row_codes: Vec<u8>,
    features: Vec<FeatureBins>,
    labels: Vec<bool>,
    weights: Vec<f32>,
}

impl BinnedDataset {
    /// Quantize `data` into at most `max_bins` (≤ 256) bins per feature.
    ///
    /// Cut-points are value quantiles: the sorted distinct values of each
    /// column are packed into bins of (weighted-by-occurrence) equal
    /// population, so skewed columns keep resolution where the mass is.
    /// Exactly: walking a column in value order, every distinct value gets
    /// a bin of its own when there are at most `max_bins` of them;
    /// otherwise, with `per_bin = max(n / max_bins, 1)`, the value starting
    /// at sorted position `k` opens bin `b + 1` iff `k ≥ per_bin × (b + 1)`
    /// and `b + 1 < max_bins`, so equal values always share a bin.
    pub fn build(data: &Dataset, max_bins: usize) -> Self {
        let max_bins = max_bins.clamp(2, MAX_BINS);
        let n_rows = data.len();
        let n_features = data.n_features();
        // Every column's sort keys, column-major, filled in one row-major
        // sweep so the (row-major) matrix is streamed once; the sweep also
        // folds each column's keys with OR/AND, whose XOR is the column's
        // varying bit window.
        let mut keys = vec![0u32; n_rows * n_features];
        let mut spans = vec![(0u32, u32::MAX); n_features];
        for i in 0..n_rows {
            for (f, (&v, span)) in data.row(i).iter().zip(spans.iter_mut()).enumerate() {
                assert!(!v.is_nan(), "features must not be NaN");
                let k = sort_key(v);
                span.0 |= k;
                span.1 &= k;
                keys[f * n_rows + i] = k;
            }
        }
        let mut codes = vec![0u8; n_rows * n_features];
        let mut walk = BucketWalk::new(n_rows);
        let features = spans
            .iter()
            .enumerate()
            .map(|(f, &span)| {
                let col = f * n_rows..(f + 1) * n_rows;
                walk.bin(&keys[col.clone()], span, max_bins, &mut codes[col])
            })
            .collect();
        let mut row_codes = vec![0u8; n_rows * n_features];
        for (f, col) in codes.chunks_exact(n_rows.max(1)).enumerate() {
            for (c, &code) in row_codes[f..].iter_mut().step_by(n_features).zip(col) {
                *c = code;
            }
        }
        Self {
            n_rows,
            codes,
            row_codes,
            features,
            labels: data.labels().to_vec(),
            weights: (0..n_rows).map(|i| data.weight(i)).collect(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True when the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.features.len()
    }

    /// Bins actually used by feature `f` (≤ [`MAX_BINS`]).
    pub fn n_bins(&self, f: usize) -> usize {
        self.features[f].n_bins()
    }

    /// Bin codes of feature `f`, indexed by row.
    pub(crate) fn feature_codes(&self, f: usize) -> &[u8] {
        &self.codes[f * self.n_rows..(f + 1) * self.n_rows]
    }

    /// All of row `i`'s bin codes, indexed by feature.
    pub(crate) fn row_codes(&self, i: usize) -> &[u8] {
        let nf = self.features.len();
        &self.row_codes[i * nf..(i + 1) * nf]
    }

    /// Raw-value threshold separating occupied bins `b` and `b2` of
    /// feature `f`.
    pub(crate) fn threshold_between(&self, f: usize, b: usize, b2: usize) -> f32 {
        self.features[f].threshold_between(b, b2)
    }

    /// Label of row `i`.
    pub fn label(&self, i: usize) -> bool {
        self.labels[i]
    }

    /// Base weight of row `i` (overridable per-fit for boosting).
    pub fn weight(&self, i: usize) -> f32 {
        self.weights[i]
    }
}

/// Once walked, a bucket's entry in [`BucketWalk::table`] is the code at
/// its first key, plus `SPLIT_TAG × (i + 1)` when more than one bin opens
/// inside it, `i` indexing its [`Split`].
const SPLIT_TAG: u32 = 256;

/// A bucket that bins open inside: its rows take the bucket's code plus
/// the number of its opening keys (ascending, `edges` a range of the
/// walk's edge list) at or below their key.
#[derive(Debug, Clone, Copy)]
struct Split {
    bucket: usize,
    edges: (u32, u32),
}

/// The per-column binning pass and its scratch, sized once per build from
/// the row count and reused by every column.
///
/// A column's keys vary only inside the bit window `[lo, lo + width)` of
/// its OR/AND span. The top `bits = min(width, max_bits)` bits of that
/// window index a bucket, so bucket order is value order: a histogram and
/// one scatter put the keys in bucket order, and walking the buckets in
/// order visits the column's values ascending. When the window fits
/// (`bits == width`) each bucket holds a single value and nothing is
/// scattered at all. Only a bucket that a bin edge can fall inside is
/// sorted, by `sort_unstable` on its few keys — and, when at most
/// `max_bins` buckets are occupied, every one, to count the distinct values
/// that pick the rule.
struct BucketWalk {
    /// Bucket bits a column may use: `⌈log2 n⌉`, at most 16, so the tables
    /// hold about one to two buckets a row.
    max_bits: u32,
    /// Per bucket: its row count, then (once walked) its code or split tag.
    table: Vec<u32>,
    /// Per bucket: one past its last position in `sorted`; once walked,
    /// the first key a bin opens at inside it (`u32::MAX`: none).
    ends: Vec<u32>,
    /// The column's keys in bucket order.
    sorted: Vec<u32>,
}

impl BucketWalk {
    fn new(n: usize) -> Self {
        let max_bits = (usize::BITS - n.saturating_sub(1).leading_zeros()).clamp(1, 16);
        let buckets = 1usize << max_bits;
        Self { max_bits, table: vec![0; buckets], ends: vec![0; buckets], sorted: vec![0; n] }
    }

    /// Bin one column of sort keys whose OR/AND fold is `(or_key,
    /// and_key)`: writes each row's code to `out` (row order) and returns
    /// the bins' value ranges.
    fn bin(
        &mut self,
        col: &[u32],
        (or_key, and_key): (u32, u32),
        max_bins: usize,
        out: &mut [u8],
    ) -> FeatureBins {
        let n = col.len();
        if n == 0 {
            return FeatureBins { bin_min: vec![0.0], bin_max: vec![0.0] };
        }
        let diff = or_key ^ and_key;
        let (lo, width) = if diff == 0 {
            (0, 0)
        } else {
            let lo = diff.trailing_zeros();
            (lo, 32 - diff.leading_zeros() - lo)
        };
        let bits = width.min(self.max_bits);
        let shift = lo + width - bits;
        let mask = (1u32 << bits) - 1;
        let bucket = |k: u32| ((k >> shift) & mask) as usize;
        let one_value = bits == width;
        let Self { table, ends, sorted, .. } = self;
        let table = &mut table[..=mask as usize];
        let ends = &mut ends[..=mask as usize];
        table.fill(0);
        for &k in col {
            table[bucket(k)] += 1;
        }
        let mut occupied = 0usize;
        let mut end = 0u32;
        for (e, &c) in ends.iter_mut().zip(table.iter()) {
            occupied += usize::from(c > 0);
            end += c;
            *e = end;
        }
        if !one_value {
            // Scatter into bucket order, filling each bucket back to front.
            for &k in col {
                let e = &mut ends[bucket(k)];
                *e -= 1;
                sorted[*e as usize] = k;
            }
            for (e, &c) in ends.iter_mut().zip(table.iter()) {
                *e += c;
            }
        }
        // More occupied buckets than bins means more distinct values than
        // bins; otherwise count the values bucket by bucket.
        let distinct = if one_value || occupied > max_bins {
            occupied
        } else {
            (0..table.len())
                .filter(|&b| table[b] > 0)
                .map(|b| {
                    let s = &mut sorted[ends[b] as usize - table[b] as usize..ends[b] as usize];
                    s.sort_unstable();
                    1 + s.windows(2).filter(|w| w[0] != w[1]).count()
                })
                .sum()
        };
        let quantile = distinct > max_bins;
        let per_bin = (n as f64 / max_bins as f64).max(1.0);
        // Bits outside the bucket index are constant, so a one-value
        // bucket's key is recoverable from its index.
        let base_key = and_key & !(mask << shift);
        let start = |b: usize| if b == 0 { 0 } else { ends[b - 1] as usize };
        // The occupied bucket holding sorted position `p` (empty buckets
        // end where they start, so none of them is first past `p`).
        let holding = |p: usize| ends.partition_point(|&e| e as usize <= p);
        // Bucket `b`'s smallest and largest key.
        let keys_of = |b: usize, sorted: &[u32]| {
            if one_value {
                let k = base_key | (b as u32) << shift;
                (k, k)
            } else {
                let s = &sorted[start(b)..ends[b] as usize];
                s.iter().fold((u32::MAX, 0), |(lo, hi), &k| (lo.min(k), hi.max(k)))
            }
        };
        let mut edges = Vec::new();
        let mut splits: Vec<Split> = Vec::new();
        let mut bin_min = vec![unsort_key(keys_of(holding(0), sorted).0)];
        let mut bin_max = Vec::new();
        // `pos` is where the open bin starts; buckets below `done` have
        // their code in `table`.
        let (mut pos, mut bin, mut next_cut, mut done) = (0usize, 0usize, per_bin, 0usize);
        loop {
            // The first position a new bin may start at: the next value
            // with one bin per value, else also not before the next cut.
            let target = match (quantile, bin + 1 < max_bins) {
                (false, _) => pos + 1,
                (true, true) => (pos + 1).max(next_cut.ceil() as usize),
                (true, false) => n,
            };
            if target >= n {
                break;
            }
            // The bin opens where the value at `target - 1` ends: at
            // `target` itself when that starts a bucket, else after that
            // value's run inside bucket `b` (sorted to find it).
            let b = holding(target);
            let run = start(b)..ends[b] as usize;
            let (open_at, last) = if target == run.start {
                (target, keys_of(holding(target - 1), sorted).1)
            } else if one_value {
                (run.end, keys_of(b, sorted).1)
            } else {
                let s = &mut sorted[run.clone()];
                s.sort_unstable();
                let v = s[target - 1 - run.start];
                (run.start + s.partition_point(|&k| k <= v), v)
            };
            if open_at >= n {
                break;
            }
            let first = if run.start < open_at && open_at < run.end {
                // Inside bucket `b`: its rows split at this key.
                if done <= b {
                    table[done..=b].fill(bin as u32);
                    done = b + 1;
                }
                let k = sorted[open_at];
                match splits.last_mut() {
                    Some(split) if split.bucket == b => split.edges.1 += 1,
                    _ => splits.push(Split {
                        bucket: b,
                        edges: (edges.len() as u32, edges.len() as u32 + 1),
                    }),
                }
                edges.push(k);
                k
            } else {
                let next = holding(open_at);
                table[done..next].fill(bin as u32);
                done = next;
                keys_of(next, sorted).0
            };
            bin_max.push(unsort_key(last));
            bin_min.push(unsort_key(first));
            bin += 1;
            next_cut = per_bin * (bin as f64 + 1.0);
            pos = open_at;
        }
        table[done..].fill(bin as u32);
        bin_max.push(unsort_key(keys_of(holding(n - 1), sorted).1));
        // Rows take their bucket's code, plus one for each edge of a split
        // bucket at or below their key: `ends` now holds each bucket's
        // first edge (none: `u32::MAX`, above every key of a non-NaN).
        ends.fill(u32::MAX);
        for (i, split) in splits.iter().enumerate() {
            ends[split.bucket] = edges[split.edges.0 as usize];
            if split.edges.1 - split.edges.0 > 1 {
                table[split.bucket] |= SPLIT_TAG * (i as u32 + 1);
            }
        }
        for (o, &k) in out.iter_mut().zip(col) {
            let b = bucket(k);
            let t = table[b];
            *o = t as u8 + u8::from(k >= ends[b]);
            if t >= SPLIT_TAG {
                let (a, z) = splits[(t / SPLIT_TAG) as usize - 1].edges;
                *o = t as u8 + edges[a as usize..z as usize].partition_point(|&e| e <= k) as u8;
            }
        }
        FeatureBins { bin_min, bin_max }
    }
}

/// Map a non-NaN `f32` to a `u32` whose unsigned order is the value order:
/// negative floats get their bits flipped (reversing their descending bit
/// pattern), non-negatives get the sign bit set (placing them above). Both
/// zeros collapse to `+0.0`'s key, so key equality is exactly `f32`
/// equality — bin boundaries land where the old float compares put them.
fn sort_key(v: f32) -> u32 {
    let b = if v == 0.0 { 0.0f32 } else { v }.to_bits();
    if b & 0x8000_0000 != 0 {
        !b
    } else {
        b | 0x8000_0000
    }
}

/// Inverse of [`sort_key`] (up to the `-0.0` → `+0.0` collapse, which is
/// invisible downstream: bin min/max values only feed `(a + b) * 0.5`
/// thresholds, where the two zeros are arithmetically identical).
fn unsort_key(k: u32) -> f32 {
    if k & 0x8000_0000 != 0 {
        f32::from_bits(k & 0x7fff_ffff)
    } else {
        f32::from_bits(!k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn dataset_of(cols: &[&[f32]], labels: &[bool]) -> Dataset {
        let n_features = cols.len();
        let mut d = Dataset::new(n_features);
        for i in 0..labels.len() {
            let row: Vec<f32> = cols.iter().map(|c| c[i]).collect();
            d.push(&row, labels[i]);
        }
        d
    }

    #[test]
    fn distinct_values_get_one_bin_each() {
        let d = dataset_of(&[&[3.0, 1.0, 2.0, 1.0, 3.0]], &[true; 5]);
        let b = BinnedDataset::build(&d, 256);
        assert_eq!(b.n_bins(0), 3);
        // Codes follow value order: 1.0 -> 0, 2.0 -> 1, 3.0 -> 2.
        assert_eq!(b.feature_codes(0), &[2, 0, 1, 0, 2]);
        // Boundary thresholds are exact-splitter mid-points.
        assert_eq!(b.threshold_between(0, 0, 1), 1.5);
        assert_eq!(b.threshold_between(0, 1, 2), 2.5);
        // Skipping an (in-node) empty bin still takes the right mid-point.
        assert_eq!(b.threshold_between(0, 0, 2), 2.0);
    }

    #[test]
    fn quantile_packing_caps_bins_and_keeps_equal_values_together() {
        let values: Vec<f32> = (0..1000).map(|i| (i / 2) as f32).collect(); // 500 distinct
        let labels = vec![false; 1000];
        let d = dataset_of(&[&values], &labels);
        let b = BinnedDataset::build(&d, 16);
        assert!(b.n_bins(0) <= 16);
        assert!(b.n_bins(0) >= 8, "quantile packing should use most bins");
        // Equal raw values never straddle a bin boundary.
        let codes = b.feature_codes(0);
        for i in (0..1000).step_by(2) {
            assert_eq!(codes[i], codes[i + 1], "pair {i} split across bins");
        }
    }

    #[test]
    fn quantile_packing_via_bucket_histogram_matches_sorted_semantics() {
        // The sort keys of integers 256..1023 vary in a 13-bit window,
        // wider than the 11 bucket bits 1 536 rows get, so buckets hold two
        // or more values; with more distinct values (768) than bins (16)
        // the quantile walk sorts the buckets its cut targets fall in.
        let values: Vec<f32> = (0..1536).map(|i| (256 + i / 2) as f32).collect();
        let labels = vec![false; 1536];
        let d = dataset_of(&[&values], &labels);
        let b = BinnedDataset::build(&d, 16);
        assert_eq!(b.n_bins(0), 16);
        let codes = b.feature_codes(0);
        for i in (0..1536).step_by(2) {
            assert_eq!(codes[i], codes[i + 1], "pair {i} split across bins");
        }
        // Codes are monotone in value and every bin's recorded range is the
        // true min/max of the raw values mapped to it.
        for w in codes.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for c in 0..b.n_bins(0) {
            let members: Vec<f32> = values
                .iter()
                .zip(codes)
                .filter(|(_, &code)| code as usize == c)
                .map(|(&v, _)| v)
                .collect();
            let lo = members.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = members.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(b.features[0].bin_min[c], lo);
            assert_eq!(b.features[0].bin_max[c], hi);
        }
    }

    #[test]
    fn constant_column_is_single_bin() {
        let d = dataset_of(&[&[5.0; 20]], &[true; 20]);
        let b = BinnedDataset::build(&d, 256);
        assert_eq!(b.n_bins(0), 1);
        assert!(b.feature_codes(0).iter().all(|&c| c == 0));
    }

    #[test]
    fn labels_and_weights_are_carried() {
        let mut d = Dataset::new(1);
        d.push_weighted(&[1.0], true, 2.0);
        d.push_weighted(&[2.0], false, 0.5);
        let b = BinnedDataset::build(&d, 256);
        assert_eq!(b.len(), 2);
        assert!(b.label(0) && !b.label(1));
        assert_eq!(b.weight(0), 2.0);
        assert_eq!(b.weight(1), 0.5);
    }

    #[test]
    fn empty_dataset_builds() {
        let b = BinnedDataset::build(&Dataset::new(3), 256);
        assert!(b.is_empty());
        assert_eq!(b.n_features(), 3);
    }

    #[test]
    #[should_panic]
    fn nan_features_are_rejected() {
        let d = dataset_of(&[&[1.0, f32::NAN]], &[true, false]);
        BinnedDataset::build(&d, 256);
    }

    /// FNV-1a step over `bytes`.
    fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    /// `n` rows of six hostile columns, a pure function of the row index:
    /// 0. `±0.0` mixed with a few other values;
    /// 1. `±inf` among ordinary values;
    /// 2. subnormals of both signs, with `MIN_POSITIVE` sprinkled in;
    /// 3. every 13th row `f32::MAX`, as a corrupt sample's forged row reads,
    ///    the rest integer counts;
    /// 4. one value held by ~35 % of the rows, so its run straddles several
    ///    quantile cut targets;
    /// 5. keys varying in 17 bits whose top 16 take at most 200 values, so
    ///    at most 256 top-bit buckets are occupied while the column holds
    ///    up to 400 distinct values.
    fn hostile_dataset(n: usize) -> Dataset {
        let mut d = Dataset::new(6);
        for i in 0..n {
            let mut s = (i as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut r = || {
                s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let (r0, r1, r2, r3, r4, r5) = (r(), r(), r(), r(), r(), r());
            let zeros = [-0.0, 0.0, -1.5, 2.0, (r0 >> 8) as f32 / (1u64 << 56) as f32 - 0.5, -0.0]
                [(r0 % 6) as usize];
            let infs = match r1 % 5 {
                0 => f32::INFINITY,
                1 => f32::NEG_INFINITY,
                _ => ((r1 >> 40) as i32 - (1 << 23)) as f32 * 0.37,
            };
            let subnormal = if r2 % 7 == 0 {
                f32::MIN_POSITIVE
            } else {
                f32::from_bits((r2 >> 32) as u32 & 0x807f_ffff)
            };
            let forged = if i % 13 == 5 { f32::MAX } else { ((r3 >> 33) % 5000) as f32 };
            let run = if r4 % 100 < 35 { 1500.0 } else { ((r4 >> 8) % 100_000) as f32 * 0.01 };
            let hi = ((r5 >> 8) % 200 * 331 + 17) % 65_536;
            let wide17 = f32::from_bits(0x4000_0000 | (hi as u32) << 1 | ((r5 >> 20) & 1) as u32);
            d.push(&[zeros, infs, subnormal, forged, run, wide17], i % 3 == 0);
        }
        d
    }

    /// Every code, bin count and bin-edge bit of the hostile columns at
    /// seven row counts and three bin budgets, folded into one digest.
    #[test]
    fn hostile_columns_bin_to_pinned_codes_and_edges() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for n in [0usize, 1, 2, 255, 256, 257, 14_400] {
            let d = hostile_dataset(n);
            for max_bins in [2usize, 32, 256] {
                let b = BinnedDataset::build(&d, max_bins);
                for f in 0..b.n_features() {
                    h = fnv(h, &(b.n_bins(f) as u64).to_le_bytes());
                    let fb = &b.features[f];
                    for (lo, hi) in fb.bin_min.iter().zip(&fb.bin_max) {
                        h = fnv(h, &lo.to_bits().to_le_bytes());
                        h = fnv(h, &hi.to_bits().to_le_bytes());
                    }
                    h = fnv(h, b.feature_codes(f));
                    for i in 0..n {
                        assert_eq!(b.row_codes(i)[f], b.feature_codes(f)[i]);
                    }
                }
            }
        }
        assert_eq!(h, 0xbc85_10b6_c50d_a65e, "binning digest moved: {h:#018x}");
    }

    /// The documented rule, applied straight: sort `(value, row)`, count
    /// the distinct values, then one bin per value or quantile packing.
    /// Returns the codes by row and the bits of each bin's min and max
    /// (both zeros read as `+0.0`, as the keys collapse them).
    fn reference(col: &[f32], max_bins: usize) -> (Vec<u8>, Vec<u32>, Vec<u32>) {
        let max_bins = max_bins.clamp(2, MAX_BINS);
        let n = col.len();
        if n == 0 {
            return (Vec::new(), vec![0], vec![0]);
        }
        let mut order: Vec<(f32, usize)> = col.iter().copied().zip(0..).collect();
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let distinct = 1 + order.windows(2).filter(|w| w[0].0 != w[1].0).count();
        let per_bin = (n as f64 / max_bins as f64).max(1.0);
        let plus_zero = |v: f32| if v == 0.0 { 0 } else { v.to_bits() };
        let (mut bin, mut next_cut) = (0usize, per_bin);
        let (mut codes, mut lo, mut hi) = (vec![0u8; n], Vec::new(), Vec::new());
        for (k, &(v, row)) in order.iter().enumerate() {
            let opens = k > 0
                && v != order[k - 1].0
                && (distinct <= max_bins || (k as f64 >= next_cut && bin + 1 < max_bins));
            if opens {
                bin += 1;
                next_cut = per_bin * (bin as f64 + 1.0);
            }
            if k == 0 || opens {
                lo.push(plus_zero(v));
                hi.push(0);
            }
            hi[bin] = plus_zero(v);
            codes[row] = bin as u8;
        }
        (codes, lo, hi)
    }

    /// Asserts `build` equals [`reference`] on every column of `d`.
    fn check_against_reference(d: &Dataset, max_bins: usize) -> Result<(), String> {
        let b = BinnedDataset::build(d, max_bins);
        for f in 0..d.n_features() {
            let col: Vec<f32> = (0..d.len()).map(|i| d.row(i)[f]).collect();
            let (codes, lo, hi) = reference(&col, max_bins);
            let fb = &b.features[f];
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            if b.n_bins(f) != lo.len() || bits(&fb.bin_min) != lo || bits(&fb.bin_max) != hi {
                return Err(format!("feature {f}: bins differ at max_bins {max_bins}"));
            }
            if b.feature_codes(f) != codes.as_slice() {
                return Err(format!("feature {f}: codes differ at max_bins {max_bins}"));
            }
            if (0..d.len()).any(|i| b.row_codes(i)[f] != codes[i]) {
                return Err(format!("feature {f}: row codes differ at max_bins {max_bins}"));
            }
        }
        Ok(())
    }

    /// One hostile column: each value is drawn from a per-column palette
    /// of special values, small integers, a narrow band, or raw bit
    /// patterns, so columns range from a single value to all-distinct and
    /// from a one-bit key window to the full 32 bits.
    struct HostileColumn;

    impl Strategy for HostileColumn {
        type Value = Vec<f32>;
        fn sample(&self, rng: &mut TestRng) -> Vec<f32> {
            const SPECIAL: [f32; 10] = [
                0.0,
                -0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MAX,
                -f32::MAX,
                f32::MIN_POSITIVE,
                1.0e-45,
                -1.0e-45,
                1500.0,
            ];
            let n = match rng.below(4) {
                0 => rng.below(4),
                1 => 250 + rng.below(10),
                _ => rng.below(3000),
            } as usize;
            let card = 1 + rng.below(600);
            let band = rng.below(24) as u32;
            let mix = rng.next_u64();
            (0..n)
                .map(|_| match (mix >> (2 * rng.below(4))) & 3 {
                    0 => SPECIAL[rng.below(10) as usize],
                    1 => rng.below(card) as f32 - (card / 3) as f32,
                    2 => f32::from_bits(0x4480_0000 | (rng.below(1 << band) as u32)),
                    _ => {
                        let v = f32::from_bits(rng.next_u64() as u32);
                        if v.is_nan() {
                            -0.0
                        } else {
                            v
                        }
                    }
                })
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96 })]

        /// `build` equals the sorted reference field for field: codes by
        /// row (both layouts), bin counts, and the bits of every edge.
        #[test]
        fn build_matches_the_sorted_reference(
            cols in proptest::collection::vec(HostileColumn, 1..4),
            max_bins in 0usize..300,
        ) {
            let n = cols.iter().map(Vec::len).min().unwrap_or(0);
            let mut d = Dataset::new(cols.len());
            for i in 0..n {
                let row: Vec<f32> = cols.iter().map(|c| c[i]).collect();
                d.push(&row, i % 2 == 0);
            }
            prop_assert!(check_against_reference(&d, max_bins).is_ok(), "{:?}", check_against_reference(&d, max_bins));
        }
    }

    /// Past 2^16 rows the bucket index is capped at 16 bits, so a
    /// full-width column's buckets hold many values and the quantile walk
    /// sorts the ones an edge lands in.
    #[test]
    fn large_columns_match_the_sorted_reference() {
        let mut d = Dataset::new(3);
        let mut s = 0x2545_f491_4f6c_dd1du64;
        for i in 0..150_000u32 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let wide = f32::from_bits(s as u32 & 0xbfff_ffff);
            let skewed = (s >> 40) as f32 / (1u64 << 24) as f32;
            let counts = ((s >> 20) % 40_000) as f32;
            d.push(&[wide, skewed, counts], i % 2 == 0);
        }
        for max_bins in [2, 16, 255, 256] {
            check_against_reference(&d, max_bins).unwrap();
        }
    }

    #[test]
    fn hostile_wide_column_has_few_top_buckets_and_many_values() {
        let d = hostile_dataset(14_400);
        let bits: Vec<u32> = (0..d.len()).map(|i| d.row(i)[5].to_bits()).collect();
        let (or, and) = bits.iter().fold((0, u32::MAX), |(o, a), &b| (o | b, a & b));
        assert_eq!(or ^ and, 0x1_ffff, "the window is bits 0..=16");
        let mut top: Vec<u32> = bits.iter().map(|b| b >> 1).collect();
        top.sort_unstable();
        top.dedup();
        let mut all = bits.clone();
        all.sort_unstable();
        all.dedup();
        assert!(top.len() <= 256 && all.len() > 256, "{} top, {} distinct", top.len(), all.len());
    }
}
