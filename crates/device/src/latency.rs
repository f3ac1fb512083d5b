//! The paper's response-time model (§5.3.5).
//!
//! * Eq. 3: `T = h · HitCost + (1 − h) · MissPenalty`
//! * Eq. 4: `HitCost = t_query + t_ssdr`
//! * Eq. 5: `MissPenalty_original = t_query + t_hddr`
//! * Eq. 6: `MissPenalty_proposed = t_query + t_classify + t_hddr`
//!
//! Writes to the SSD are *not* part of the critical path ("writing data to
//! SSD should not be taken into account since it can be done in the
//! background", §5.3.5). All times are in microseconds.

use std::sync::LazyLock;

/// Device/service timing constants, defaulting to the paper's measured
/// values for a 32 KB photo.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Cache index lookup time (µs). Paper: 1 µs.
    pub t_query_us: f64,
    /// Classifier + history-table execution time (µs). Paper: 0.4 µs.
    pub t_classify_us: f64,
    /// SSD read time for the reference object (µs).
    pub t_ssd_read_us: f64,
    /// HDD read time for the reference object (µs). Paper: 3 ms.
    pub t_hdd_read_us: f64,
    /// Reference object size the read constants were measured at (bytes).
    pub reference_size: u64,
    /// SSD sequential read bandwidth (bytes/µs) for size scaling.
    pub ssd_bandwidth: f64,
    /// HDD sequential read bandwidth (bytes/µs) for size scaling.
    pub hdd_bandwidth: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            t_query_us: 1.0,
            t_classify_us: 0.4,
            // ~100 µs to fetch a 32 KB object from a SATA-class SSD.
            t_ssd_read_us: 100.0,
            t_hdd_read_us: 3000.0,
            reference_size: 32 * 1024,
            ssd_bandwidth: 500.0, // 500 MB/s ≈ 500 bytes/µs
            hdd_bandwidth: 150.0, // 150 MB/s
        }
    }
}

impl LatencyModel {
    /// Hit cost (Eq. 4) for the reference object size.
    pub fn hit_cost_us(&self) -> f64 {
        self.t_query_us + self.t_ssd_read_us
    }

    /// Miss penalty without classification (Eq. 5).
    pub fn miss_penalty_original_us(&self) -> f64 {
        self.t_query_us + self.t_hdd_read_us
    }

    /// Miss penalty with classification (Eq. 6).
    pub fn miss_penalty_proposed_us(&self) -> f64 {
        self.t_query_us + self.t_classify_us + self.t_hdd_read_us
    }

    /// Average access latency (Eq. 3) at file hit rate `h`;
    /// `classified` selects Eq. 6 over Eq. 5 for the miss penalty.
    pub fn avg_latency_us(&self, hit_rate: f64, classified: bool) -> f64 {
        assert!((0.0..=1.0).contains(&hit_rate), "hit rate {hit_rate} out of range");
        let miss = if classified {
            self.miss_penalty_proposed_us()
        } else {
            self.miss_penalty_original_us()
        };
        hit_rate * self.hit_cost_us() + (1.0 - hit_rate) * miss
    }

    /// Fixed part of a device read: its reference read time less the
    /// reference object's transfer, never negative.
    fn fixed_us(&self, t_read_us: f64, bandwidth: f64) -> f64 {
        (t_read_us - self.reference_size as f64 / bandwidth).max(0.0)
    }

    /// Size-scaled SSD read time: fixed overhead plus transfer.
    pub fn ssd_read_us(&self, size: u64) -> f64 {
        self.fixed_us(self.t_ssd_read_us, self.ssd_bandwidth) + size as f64 / self.ssd_bandwidth
    }

    /// Size-scaled HDD read time: fixed overhead (seek) plus transfer.
    pub fn hdd_read_us(&self, size: u64) -> f64 {
        self.fixed_us(self.t_hdd_read_us, self.hdd_bandwidth) + size as f64 / self.hdd_bandwidth
    }

    /// The per-request formula with this run's constants computed once;
    /// `classified` adds the classification time to a miss (Eq. 6).
    pub fn per_run(&self, classified: bool) -> RunLatency {
        let classify = if classified { self.t_classify_us } else { 0.0 };
        RunLatency {
            hit_base_us: self.t_query_us,
            miss_base_us: self.t_query_us + classify,
            ssd_fixed_us: self.fixed_us(self.t_ssd_read_us, self.ssd_bandwidth),
            hdd_fixed_us: self.fixed_us(self.t_hdd_read_us, self.hdd_bandwidth),
            ssd_bandwidth: self.ssd_bandwidth,
            hdd_bandwidth: self.hdd_bandwidth,
        }
    }

    /// Per-request latency (size-scaled variant of Eqs. 3–6).
    #[inline]
    pub fn request_latency_us(&self, hit: bool, size: u64, classified: bool) -> f64 {
        self.per_run(classified).request_us(hit, size)
    }
}

/// [`LatencyModel::request_latency_us`] for one run: what depends on the
/// model and the mode alone is computed once, by [`LatencyModel::per_run`].
/// Every `f64` operation left per request associates as in the unfolded
/// Eqs. 4–6, so a latency is the same to the last bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunLatency {
    /// `t_query`.
    hit_base_us: f64,
    /// `t_query + t_classify` (or `+ 0` unclassified).
    miss_base_us: f64,
    ssd_fixed_us: f64,
    hdd_fixed_us: f64,
    ssd_bandwidth: f64,
    hdd_bandwidth: f64,
}

impl RunLatency {
    /// Modeled latency of one request of `size` bytes: `t_query + (fixed +
    /// size / bw)` on a hit, `(t_query + t_classify) + (fixed + size / bw)`
    /// on a miss.
    #[inline]
    pub fn request_us(&self, hit: bool, size: u64) -> f64 {
        let size = size as f64;
        if hit {
            self.hit_base_us + (self.ssd_fixed_us + size / self.ssd_bandwidth)
        } else {
            self.miss_base_us + (self.hdd_fixed_us + size / self.hdd_bandwidth)
        }
    }
}

/// Number of logarithmic latency buckets (ratio 1.25 from 0.5 µs covers
/// well past 100 s).
const BUCKETS: usize = 96;
const BUCKET_BASE_US: f64 = 0.5;
const BUCKET_RATIO: f64 = 1.25;

/// The bucket of `latency_us` by definition: ⌊log₁.₂₅(x / 0.5)⌋, clamped to
/// the last bucket; 0 at or below 0.5 µs and for NaN. [`BucketTable`] is
/// built from it and tested against it; no request calls it.
fn bucket_by_ln(latency_us: f64) -> usize {
    if latency_us <= BUCKET_BASE_US {
        return 0;
    }
    let b = (latency_us / BUCKET_BASE_US).ln() / BUCKET_RATIO.ln();
    (b as usize).min(BUCKETS - 1)
}

/// Positive `f64`s that agree in their bits above this shift — the
/// exponent and the top three mantissa bits — share a slot. A slot spans a
/// ratio of at most 1.125, less than a bucket's 1.25, so it holds at most
/// one bucket edge.
const SLOT_SHIFT: u32 = 49;
/// The slot of 0.5 µs, the first one a lookup indexes.
const FIRST_SLOT: u64 = BUCKET_BASE_US.to_bits() >> SLOT_SHIFT;

/// [`bucket_by_ln`] as a table: a slot guess and one comparison.
struct BucketTable {
    /// `edges[b]` is the smallest positive `f64` that [`bucket_by_ln`] puts
    /// in bucket `b` or above; `edges[0]` is unused and `edges[BUCKETS]` is
    /// +∞, so `b + 1` always indexes.
    edges: [f64; BUCKETS + 1],
    /// The bucket of each slot's smallest value, from [`FIRST_SLOT`] to the
    /// slot holding the last edge; later slots are all in the last bucket.
    slot_bucket: Vec<u8>,
}

static BUCKET_TABLE: LazyLock<BucketTable> = LazyLock::new(BucketTable::build);

impl BucketTable {
    fn build() -> Self {
        let mut edges = [f64::INFINITY; BUCKETS + 1];
        edges[0] = 0.0;
        for (b, edge) in edges.iter_mut().enumerate().take(BUCKETS).skip(1) {
            // Positive f64s order as their bit patterns do, so bisect the
            // bits, keeping bucket_by_ln(lo) < b <= bucket_by_ln(hi).
            let (mut lo, mut hi) = (BUCKET_BASE_US.to_bits(), f64::MAX.to_bits());
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if bucket_by_ln(f64::from_bits(mid)) >= b {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            *edge = f64::from_bits(hi);
        }
        let last_slot = edges[BUCKETS - 1].to_bits() >> SLOT_SHIFT;
        let slot_bucket = (FIRST_SLOT..=last_slot)
            .map(|slot| bucket_by_ln(f64::from_bits(slot << SLOT_SHIFT)) as u8)
            .collect();
        Self { edges, slot_bucket }
    }

    #[inline]
    fn bucket(&self, latency_us: f64) -> usize {
        // NaN goes to bucket 0, as in the formula.
        if latency_us <= BUCKET_BASE_US || latency_us.is_nan() {
            return 0;
        }
        let slot = (latency_us.to_bits() >> SLOT_SHIFT) - FIRST_SLOT;
        match self.slot_bucket.get(slot as usize) {
            Some(&b) => {
                let b = usize::from(b);
                b + usize::from(latency_us >= self.edges[b + 1])
            }
            None => BUCKETS - 1,
        }
    }
}

/// Streaming accumulator of per-request latencies: exact mean plus a
/// log-bucketed histogram for tail percentiles (≤ 25 % bucket error).
// lint: merge-exhaustive
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseTime {
    total_us: f64,
    requests: u64,
    buckets: [u64; BUCKETS],
}

impl Default for ResponseTime {
    fn default() -> Self {
        Self { total_us: 0.0, requests: 0, buckets: [0; BUCKETS] }
    }
}

impl ResponseTime {
    /// Representative (upper-edge) latency of a bucket.
    fn bucket_value(b: usize) -> f64 {
        BUCKET_BASE_US * BUCKET_RATIO.powi(b as i32 + 1)
    }

    /// Record one request's latency.
    pub fn record(&mut self, latency_us: f64) {
        self.total_us += latency_us;
        self.requests += 1;
        self.buckets[BUCKET_TABLE.bucket(latency_us)] += 1;
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_us / self.requests as f64
        }
    }

    /// Approximate latency percentile (`p` in `[0, 1]`); 0 when empty.
    /// Production caches are judged by their tails, not their means.
    pub fn percentile_us(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "percentile {p} out of range");
        if self.requests == 0 {
            return 0.0;
        }
        let target = (p * self.requests as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= target {
                return Self::bucket_value(b);
            }
        }
        Self::bucket_value(BUCKETS - 1)
    }

    /// Number of recorded requests.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Merge another accumulator. The full destructure means a new field
    /// cannot be added without this merge accounting for it.
    pub fn merge(&mut self, other: &ResponseTime) {
        let ResponseTime { total_us, requests, buckets } = other;
        self.total_us += total_us;
        self.requests += requests;
        for (a, b) in self.buckets.iter_mut().zip(buckets) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_are_default() {
        let m = LatencyModel::default();
        assert_eq!(m.t_query_us, 1.0);
        assert_eq!(m.t_classify_us, 0.4);
        assert_eq!(m.t_hdd_read_us, 3000.0);
    }

    #[test]
    fn equations_compose() {
        let m = LatencyModel::default();
        assert_eq!(m.hit_cost_us(), 101.0);
        assert_eq!(m.miss_penalty_original_us(), 3001.0);
        assert_eq!(m.miss_penalty_proposed_us(), 3001.4);
        // Eq. 3 at h = 0.5.
        let t = m.avg_latency_us(0.5, false);
        assert!((t - 0.5 * 101.0 - 0.5 * 3001.0).abs() < 1e-9);
    }

    #[test]
    fn higher_hit_rate_reduces_latency() {
        let m = LatencyModel::default();
        assert!(m.avg_latency_us(0.8, true) < m.avg_latency_us(0.5, true));
    }

    #[test]
    fn classification_overhead_is_tiny_but_positive() {
        let m = LatencyModel::default();
        let delta = m.avg_latency_us(0.5, true) - m.avg_latency_us(0.5, false);
        assert!(delta > 0.0 && delta < 1.0, "overhead {delta} µs");
    }

    #[test]
    fn classified_system_wins_with_modest_hit_rate_gain() {
        // The paper's claim: a few points of hit rate dwarf t_classify.
        let m = LatencyModel::default();
        assert!(m.avg_latency_us(0.55, true) < m.avg_latency_us(0.50, false));
    }

    #[test]
    fn size_scaling_is_monotone_and_anchored() {
        let m = LatencyModel::default();
        assert!((m.ssd_read_us(m.reference_size) - m.t_ssd_read_us).abs() < 1e-9);
        assert!((m.hdd_read_us(m.reference_size) - m.t_hdd_read_us).abs() < 1e-9);
        assert!(m.ssd_read_us(64 * 1024) > m.ssd_read_us(16 * 1024));
        assert!(m.hdd_read_us(64 * 1024) > m.hdd_read_us(16 * 1024));
    }

    #[test]
    fn request_latency_hit_vs_miss() {
        let m = LatencyModel::default();
        let hit = m.request_latency_us(true, 32 * 1024, true);
        let miss = m.request_latency_us(false, 32 * 1024, true);
        assert!(miss > hit * 10.0, "HDD miss must dominate: {hit} vs {miss}");
    }

    #[test]
    fn per_run_latency_is_the_unfolded_formula_to_the_bit() {
        let models = [
            LatencyModel::default(),
            // A fixed part that clamps at zero and bandwidths that round.
            LatencyModel {
                t_query_us: 0.7,
                t_classify_us: 0.3,
                t_ssd_read_us: 1.0,
                t_hdd_read_us: 2_345.6,
                reference_size: 40_000,
                ssd_bandwidth: 3.0,
                hdd_bandwidth: 7.0,
            },
        ];
        for m in models {
            for classified in [false, true] {
                let run = m.per_run(classified);
                for size in (0..=8_000_000u64).step_by(9_973).chain([1, 32 * 1024, u64::MAX]) {
                    // Eqs. 4–6 spelled out in full, per request.
                    let classify = if classified { m.t_classify_us } else { 0.0 };
                    let ssd_fixed = m.t_ssd_read_us - m.reference_size as f64 / m.ssd_bandwidth;
                    let hdd_fixed = m.t_hdd_read_us - m.reference_size as f64 / m.hdd_bandwidth;
                    let ssd_read = ssd_fixed.max(0.0) + size as f64 / m.ssd_bandwidth;
                    let hdd_read = hdd_fixed.max(0.0) + size as f64 / m.hdd_bandwidth;
                    let hit = m.t_query_us + ssd_read;
                    let miss = m.t_query_us + classify + hdd_read;
                    assert_eq!(run.request_us(true, size).to_bits(), hit.to_bits());
                    assert_eq!(run.request_us(false, size).to_bits(), miss.to_bits());
                }
            }
        }
    }

    /// `x` moved `n` representable values up (`n > 0`) or down, within the
    /// positive finite range.
    fn ulps(x: f64, n: i64) -> f64 {
        let bits = x.to_bits() as i64 + n;
        f64::from_bits(bits.clamp(1, f64::MAX.to_bits() as i64) as u64)
    }

    fn assert_bucket_is_ln(x: f64) {
        assert_eq!(BUCKET_TABLE.bucket(x), bucket_by_ln(x), "latency {x:e} ({:#x})", x.to_bits());
    }

    #[test]
    fn bucket_table_matches_ln_at_and_around_every_edge() {
        let edges = &BUCKET_TABLE.edges;
        for b in 1..BUCKETS {
            assert!(edges[b - 1] < edges[b], "edges rise");
            assert_eq!(bucket_by_ln(edges[b]), b, "edge {b} opens its bucket");
            assert_eq!(bucket_by_ln(ulps(edges[b], -1)), b - 1, "edge {b} is the smallest");
            assert_bucket_is_ln(edges[b]);
            for shift in 0..=20 {
                assert_bucket_is_ln(ulps(edges[b], 1 << shift));
                assert_bucket_is_ln(ulps(edges[b], -(1 << shift)));
            }
        }
        for slot in 0..BUCKET_TABLE.slot_bucket.len() as u64 {
            let start = f64::from_bits((FIRST_SLOT + slot) << SLOT_SHIFT);
            let end = f64::from_bits(((FIRST_SLOT + slot + 1) << SLOT_SHIFT) - 1);
            assert!(bucket_by_ln(end) - bucket_by_ln(start) <= 1, "slot {slot} holds one edge");
        }
        for x in [
            f64::NAN,
            f64::NEG_INFINITY,
            -1.0,
            0.0,
            f64::MIN_POSITIVE,
            BUCKET_BASE_US,
            ulps(BUCKET_BASE_US, 1),
            1e12,
            f64::MAX,
            f64::INFINITY,
        ] {
            assert_bucket_is_ln(x);
        }
    }

    #[test]
    fn bucket_table_matches_ln_for_every_modeled_latency() {
        // Every object size the generator can emit; a debug build walks a
        // strided subset, a release build all of them.
        let stride = if cfg!(debug_assertions) { 97 } else { 1 };
        let m = LatencyModel::default();
        let (plain, classified) = (m.per_run(false), m.per_run(true));
        for size in (0..=8_000_000u64).step_by(stride) {
            assert_bucket_is_ln(plain.request_us(true, size));
            assert_bucket_is_ln(plain.request_us(false, size));
            assert_bucket_is_ln(classified.request_us(false, size));
        }
    }

    #[test]
    #[should_panic]
    fn invalid_hit_rate_panics() {
        LatencyModel::default().avg_latency_us(1.5, false);
    }

    #[test]
    fn response_time_accumulator() {
        let mut r = ResponseTime::default();
        r.record(100.0);
        r.record(200.0);
        assert_eq!(r.mean_us(), 150.0);
        assert_eq!(r.requests(), 2);
        let mut s = ResponseTime::default();
        s.record(300.0);
        r.merge(&s);
        assert_eq!(r.mean_us(), 200.0);
        assert_eq!(ResponseTime::default().mean_us(), 0.0);
    }

    #[test]
    fn percentiles_approximate_the_distribution() {
        let mut r = ResponseTime::default();
        // 90 fast requests at ~100 µs, 10 slow at ~3000 µs.
        for _ in 0..90 {
            r.record(100.0);
        }
        for _ in 0..10 {
            r.record(3000.0);
        }
        let p50 = r.percentile_us(0.5);
        let p99 = r.percentile_us(0.99);
        assert!((75.0..150.0).contains(&p50), "p50 {p50}");
        assert!((2000.0..4500.0).contains(&p99), "p99 {p99}");
        assert!(r.percentile_us(0.0) <= p50);
        assert!(p50 <= p99);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(ResponseTime::default().percentile_us(0.99), 0.0);
        let mut r = ResponseTime::default();
        r.record(0.1); // below the first bucket edge
        assert!(r.percentile_us(1.0) > 0.0);
        // Huge latency clamps into the last bucket, not a panic.
        r.record(1e12);
        assert!(r.percentile_us(1.0).is_finite());
    }

    #[test]
    fn percentile_merge_consistency() {
        let mut a = ResponseTime::default();
        let mut b = ResponseTime::default();
        let mut whole = ResponseTime::default();
        for i in 0..1000 {
            let v = 50.0 + (i % 97) as f64 * 13.0;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.percentile_us(0.9), whole.percentile_us(0.9));
        assert_eq!(a.requests(), whole.requests());
    }

    #[test]
    #[should_panic]
    fn percentile_rejects_out_of_range() {
        ResponseTime::default().percentile_us(1.5);
    }
}
