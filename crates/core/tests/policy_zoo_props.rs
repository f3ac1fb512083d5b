//! Property tests for the non-ML admission-policy zoo (`otae_core::zoo`).
//!
//! Pins the structural guarantees the policies are built on, over arbitrary
//! request streams rather than hand-picked ones:
//!
//! * a count-min estimate never underestimates a key's true increment count;
//! * the TinyLFU halving reset preserves the (non-strict) relative order of
//!   any two keys' estimates;
//! * the doorkeeper absorbs each key's first sighting (later sightings are
//!   always admitted; first sightings only slip through on a bloom
//!   collision, which must stay rare);
//! * CoinFlip's empirical admit rate converges on its configured `p` for
//!   every seed.

use otae_core::{CoinFlipAdmission, CountMinSketch, TinyLfuAdmission};
use otae_fxhash::{FxHashMap, FxHashSet};
use otae_trace::ObjectId;
use proptest::prelude::*;

proptest! {
    /// Count-min is one-sided: collisions can inflate an estimate, never
    /// deflate it below the true number of increments.
    #[test]
    fn count_min_never_underestimates(
        stream in proptest::collection::vec(0u32..2_000, 1..2_000),
        expected in 64usize..4_096,
        seed in any::<u64>(),
    ) {
        let mut sketch = CountMinSketch::new(expected, seed);
        let mut truth: FxHashMap<u32, u32> = FxHashMap::default();
        for &key in &stream {
            sketch.increment(ObjectId(key));
            *truth.entry(key).or_insert(0) += 1;
        }
        for (&key, &count) in &truth {
            prop_assert!(
                sketch.estimate(ObjectId(key)) >= count,
                "estimate {} < true count {count} for key {key}",
                sketch.estimate(ObjectId(key)),
            );
        }
    }

    /// Floor-halving every counter commutes with the row-wise minimum, so
    /// aging never swaps the order of two keys' estimates: a strictly
    /// colder key can never come out of the reset looking strictly hotter.
    #[test]
    fn halving_reset_preserves_relative_order(
        stream in proptest::collection::vec(0u32..512, 1..2_000),
        seed in any::<u64>(),
        halvings in 1usize..4,
    ) {
        let mut sketch = CountMinSketch::new(1_024, seed);
        for &key in &stream {
            sketch.increment(ObjectId(key));
        }
        let keys: FxHashSet<u32> = stream.iter().copied().collect();
        let before: FxHashMap<u32, u32> =
            keys.iter().map(|&k| (k, sketch.estimate(ObjectId(k)))).collect();
        for _ in 0..halvings {
            sketch.halve();
        }
        for &a in &keys {
            for &b in &keys {
                if before[&a] < before[&b] {
                    prop_assert!(
                        sketch.estimate(ObjectId(a)) <= sketch.estimate(ObjectId(b)),
                        "halving made key {a} ({} -> {}) overtake key {b} ({} -> {})",
                        before[&a], sketch.estimate(ObjectId(a)),
                        before[&b], sketch.estimate(ObjectId(b)),
                    );
                }
            }
        }
    }

    /// The doorkeeper absorbs first sightings. Re-sightings are always
    /// admitted (bloom filters have no false negatives); first sightings
    /// are bypassed except for the rare bloom collision, whose rate is
    /// bounded well below what any of the zoo benchmarks would notice.
    #[test]
    fn doorkeeper_admits_only_on_second_sighting(
        stream in proptest::collection::vec(0u32..64, 1..512),
        seed in any::<u64>(),
    ) {
        // sample_period = 0: no aging, so "seen before" is exact history.
        let mut tiny = TinyLfuAdmission::new(65_536, 0, seed);
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        let mut first_sightings = 0u32;
        let mut first_admits = 0u32;
        for &key in &stream {
            let admit = tiny.decide(ObjectId(key));
            if seen.insert(key) {
                first_sightings += 1;
                first_admits += u32::from(admit);
            } else {
                prop_assert!(admit, "re-sighting of key {key} must be admitted");
            }
        }
        // ≤64 keys in a doorkeeper sized for 65 536: collisions admitting a
        // cold key must stay (far) under 2% of first sightings.
        prop_assert!(
            u64::from(first_admits) * 50 <= u64::from(first_sightings),
            "{first_admits}/{first_sightings} first sightings admitted",
        );
    }

    /// The coin is fair to its parameter: over n draws the admit rate lands
    /// within ±0.04 of `p` (> 7 sigma at n = 8192), for every seed.
    #[test]
    fn coinflip_admit_rate_tracks_p(
        p in 0.05f32..0.95,
        seed in any::<u64>(),
    ) {
        let n = 8_192u32;
        let mut coin = CoinFlipAdmission::new(p, seed);
        let admitted = (0..n).filter(|_| coin.decide()).count() as f64;
        let rate = admitted / f64::from(n);
        prop_assert!(
            (rate - f64::from(p)).abs() < 0.04,
            "admit rate {rate:.4} strays from p = {p}",
        );
    }
}
