//! Property-based tests (proptest) on the core invariants: cache capacity
//! accounting across random access streams, criteria monotonicity, sampling
//! semantics, and metric bounds.

use otae::cache::{ArcCache, Belady, Cache, Evicted, Fifo, Gdsf, Lfu, Lirs, Lru, S3Lru, TwoQ};
use otae::core::reaccess::ReaccessIndex;
use otae::core::solve_criteria;
use otae::ml::metrics::roc_curve;
use otae::ml::roc_auc;
use otae::trace::{generate, sample_objects, TraceConfig};
use otae_fxhash::FxHashMap;
use proptest::prelude::*;

/// Random (key, size) access streams with skewed reuse.
fn access_streams() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..64, 1u64..5000), 1..400)
}

/// Drive a cache and check accounting invariants at every step.
fn check_policy<C: Cache<u64>>(mut cache: C, accesses: &[(u64, u64)]) {
    let mut evicted: Vec<Evicted<u64>> = Vec::new();
    let mut resident: FxHashMap<u64, u64> = FxHashMap::default();
    for (now, &(k, s)) in accesses.iter().enumerate() {
        if !cache.on_hit(&k, now as u64) {
            evicted.clear();
            cache.insert(k, s, now as u64, &mut evicted);
            // Tentatively resident; policies may evict the inserted object
            // itself (Belady for never-reused keys, S3LRU under demotion
            // pressure), and oversized inserts are no-ops.
            resident.insert(k, s);
            for e in &evicted {
                let size = resident.remove(&e.key);
                assert_eq!(size, Some(e.size), "evicted entry must have been resident");
            }
            if !cache.contains(&k) {
                resident.remove(&k);
            }
        }
        assert!(cache.used() <= cache.capacity(), "used exceeds capacity");
        let model_bytes: u64 = resident.values().sum();
        assert_eq!(cache.used(), model_bytes, "byte accounting diverged from model");
        assert_eq!(cache.len(), resident.len(), "entry count diverged from model");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lru_capacity_invariants(accesses in access_streams(), cap in 1000u64..50_000) {
        check_policy(Lru::new(cap), &accesses);
    }

    #[test]
    fn fifo_capacity_invariants(accesses in access_streams(), cap in 1000u64..50_000) {
        check_policy(Fifo::new(cap), &accesses);
    }

    #[test]
    fn lfu_capacity_invariants(accesses in access_streams(), cap in 1000u64..50_000) {
        check_policy(Lfu::new(cap), &accesses);
    }

    #[test]
    fn s3lru_capacity_invariants(accesses in access_streams(), cap in 1000u64..50_000) {
        check_policy(S3Lru::new(cap), &accesses);
    }

    #[test]
    fn arc_capacity_invariants(accesses in access_streams(), cap in 1000u64..50_000) {
        check_policy(ArcCache::new(cap), &accesses);
    }

    #[test]
    fn lirs_capacity_invariants(accesses in access_streams(), cap in 1000u64..50_000) {
        check_policy(Lirs::new(cap), &accesses);
    }

    #[test]
    fn twoq_capacity_invariants(accesses in access_streams(), cap in 1000u64..50_000) {
        check_policy(TwoQ::new(cap), &accesses);
    }

    #[test]
    fn gdsf_capacity_invariants(accesses in access_streams(), cap in 1000u64..50_000) {
        check_policy(Gdsf::new(cap), &accesses);
    }

    #[test]
    fn belady_capacity_invariants(accesses in access_streams(), cap in 1000u64..50_000) {
        let keys: Vec<u64> = accesses.iter().map(|a| a.0).collect();
        check_policy(Belady::new(cap, &keys), &accesses);
    }

    #[test]
    fn belady_never_loses_to_lru(accesses in access_streams(), cap in 1000u64..50_000) {
        let keys: Vec<u64> = accesses.iter().map(|a| a.0).collect();
        let hits = |cache: &mut dyn Cache<u64>| {
            let mut evicted = Vec::new();
            let mut n = 0u64;
            for (now, &(k, s)) in accesses.iter().enumerate() {
                if cache.on_hit(&k, now as u64) {
                    n += 1;
                } else {
                    evicted.clear();
                    cache.insert(k, s, now as u64, &mut evicted);
                }
            }
            n
        };
        let hb = hits(&mut Belady::new(cap, &keys));
        let hl = hits(&mut Lru::new(cap));
        prop_assert!(hb >= hl, "Belady {} < LRU {}", hb, hl);
    }

    #[test]
    fn one_time_fraction_is_monotone_in_m(seed in 0u64..50) {
        let trace = generate(&TraceConfig { n_objects: 400, seed, ..Default::default() });
        let index = ReaccessIndex::build(&trace);
        let mut prev = 1.0f64;
        for m in [0u64, 1, 10, 100, 1_000, 10_000, u64::MAX - 1] {
            let p = index.one_time_fraction(m);
            prop_assert!(p <= prev + 1e-12, "p must not grow with m");
            prop_assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    fn criteria_m_is_monotone_in_capacity(seed in 0u64..20) {
        let trace = generate(&TraceConfig { n_objects: 600, seed, ..Default::default() });
        let index = ReaccessIndex::build(&trace);
        let s = trace.avg_object_size().max(1.0);
        let mut prev = 0u64;
        for cap in [1u64 << 18, 1 << 20, 1 << 22, 1 << 24] {
            let sol = solve_criteria(&index, cap, s, 3);
            prop_assert!(sol.m >= prev, "M must grow with capacity");
            prev = sol.m;
        }
    }

    #[test]
    fn sampling_preserves_counts_and_order(seed in 0u64..30, rate in 0.05f64..0.9) {
        let trace = generate(&TraceConfig { n_objects: 500, seed, ..Default::default() });
        let sampled = sample_objects(&trace, rate, seed ^ 0xABCD);
        prop_assert!(sampled.is_time_ordered());
        let mut full: FxHashMap<u32, u32> = FxHashMap::default();
        for r in &trace.requests {
            *full.entry(r.object.0).or_insert(0) += 1;
        }
        let mut sub: FxHashMap<u32, u32> = FxHashMap::default();
        for r in &sampled.requests {
            *sub.entry(r.object.0).or_insert(0) += 1;
        }
        for (k, v) in &sub {
            prop_assert_eq!(full[k], *v, "per-object counts preserved");
        }
    }

    #[test]
    fn auc_is_bounded_and_flip_invariant(
        scores in proptest::collection::vec(0.0f32..1.0, 2..200),
        flip in any::<u64>(),
    ) {
        let labels: Vec<bool> = scores.iter().enumerate().map(|(i, _)| (flip >> (i % 64)) & 1 == 1).collect();
        let auc = roc_auc(&scores, &labels);
        prop_assert!((0.0..=1.0).contains(&auc), "auc {}", auc);
        // Inverting labels mirrors the AUC around 0.5 (when both classes exist).
        let n_pos = labels.iter().filter(|&&l| l).count();
        if n_pos > 0 && n_pos < labels.len() {
            let inverted: Vec<bool> = labels.iter().map(|&l| !l).collect();
            let mirrored = roc_auc(&scores, &inverted);
            prop_assert!((auc + mirrored - 1.0).abs() < 1e-9);
        }
        // The ROC curve stays within the unit square and is monotone.
        let curve = roc_curve(&scores, &labels);
        for w in curve.windows(2) {
            prop_assert!(w[1].0 >= w[0].0 && w[1].1 >= w[0].1);
            prop_assert!((0.0..=1.0).contains(&w[1].0) && (0.0..=1.0).contains(&w[1].1));
        }
    }
}

// ---------------------------------------------------------------------------
// Named regressions, promoted from tests/properties.proptest-regressions so
// they run by name (and with a paper trail) rather than as opaque `cc` seed
// hashes. Both were shrunk by proptest from historical failures of the
// `*_capacity_invariants` properties above; they now pin byte/entry
// accounting across every policy.
// ---------------------------------------------------------------------------

/// Run one historical access stream through all nine policies.
fn check_all_policies(accesses: &[(u64, u64)], cap: u64) {
    check_policy(Lru::new(cap), accesses);
    check_policy(Fifo::new(cap), accesses);
    check_policy(Lfu::new(cap), accesses);
    check_policy(S3Lru::new(cap), accesses);
    check_policy(ArcCache::new(cap), accesses);
    check_policy(Lirs::new(cap), accesses);
    check_policy(TwoQ::new(cap), accesses);
    check_policy(Gdsf::new(cap), accesses);
    let keys: Vec<u64> = accesses.iter().map(|a| a.0).collect();
    check_policy(Belady::new(cap, &keys), accesses);
}

/// Regression (shrunk, 17 accesses, cap 41934): a short stream with one
/// repeated key (35) at two different sizes — the second insert must
/// replace, not double-count, the first.
#[test]
fn regression_repeated_key_with_different_sizes() {
    let accesses: [(u64, u64); 17] = [
        (13, 1385),
        (6, 3489),
        (8, 1849),
        (35, 3963),
        (3, 3777),
        (9, 4168),
        (36, 2563),
        (55, 2084),
        (20, 3612),
        (44, 1935),
        (18, 2895),
        (50, 2775),
        (31, 1655),
        (33, 841),
        (35, 628),
        (42, 2604),
        (58, 2586),
    ];
    check_all_policies(&accesses, 41_934);
}

/// Regression (shrunk, 119 accesses, cap 10707): sustained eviction
/// pressure at a capacity a few objects deep, with heavy key reuse —
/// the stream that historically desynchronised eviction callbacks from
/// the resident-set model.
#[test]
fn regression_eviction_pressure_with_heavy_reuse() {
    let accesses: [(u64, u64); 121] = [
        (50, 1102),
        (50, 4630),
        (50, 1423),
        (62, 2442),
        (62, 1200),
        (11, 2959),
        (43, 557),
        (48, 900),
        (21, 3202),
        (58, 4716),
        (62, 3607),
        (36, 2112),
        (49, 2693),
        (62, 1633),
        (31, 3103),
        (29, 3122),
        (22, 768),
        (41, 820),
        (37, 3560),
        (47, 1714),
        (24, 2952),
        (53, 3416),
        (10, 1699),
        (7, 4967),
        (13, 919),
        (30, 3894),
        (23, 1085),
        (5, 355),
        (28, 2916),
        (26, 1193),
        (1, 1032),
        (29, 224),
        (33, 1871),
        (9, 1720),
        (54, 4451),
        (61, 335),
        (49, 2397),
        (20, 1191),
        (32, 986),
        (57, 3819),
        (54, 4886),
        (53, 3313),
        (19, 4698),
        (34, 2771),
        (45, 481),
        (24, 2797),
        (35, 3173),
        (7, 865),
        (58, 1901),
        (9, 1606),
        (24, 866),
        (19, 278),
        (4, 1245),
        (57, 4259),
        (31, 4020),
        (25, 2327),
        (58, 544),
        (34, 2562),
        (32, 2628),
        (18, 2846),
        (3, 1508),
        (18, 2511),
        (22, 4679),
        (15, 4226),
        (6, 4792),
        (47, 4276),
        (37, 1),
        (48, 4016),
        (57, 3225),
        (11, 2218),
        (29, 676),
        (3, 3182),
        (40, 1207),
        (52, 2810),
        (20, 3050),
        (37, 1077),
        (55, 1070),
        (14, 4052),
        (41, 1193),
        (60, 1775),
        (52, 2110),
        (8, 1638),
        (19, 1253),
        (39, 4854),
        (24, 150),
        (43, 3112),
        (34, 2815),
        (11, 3458),
        (60, 3121),
        (16, 105),
        (31, 4126),
        (5, 748),
        (43, 1878),
        (62, 3359),
        (43, 650),
        (59, 4421),
        (59, 3105),
        (62, 2044),
        (4, 2143),
        (25, 1709),
        (61, 3233),
        (32, 1648),
        (27, 1211),
        (7, 4914),
        (23, 3083),
        (33, 2851),
        (53, 4397),
        (38, 527),
        (57, 3251),
        (22, 3382),
        (44, 4792),
        (31, 2006),
        (1, 944),
        (18, 2189),
        (14, 2844),
        (60, 2402),
        (57, 1508),
        (62, 4604),
        (36, 596),
        (4, 1011),
        (14, 3558),
    ];
    check_all_policies(&accesses, 10_707);
}
