//! The non-ML admission-policy zoo: sketch- and chance-based miss filters.
//!
//! The paper compares classifier families; production flash caches compare
//! *policies*. This module adds the standard non-learned baselines the
//! admission literature measures against —
//!
//! * **TinyLFU** — a 4-row count-min sketch with periodic halving reset and
//!   a doorkeeper bloom filter absorbing first sightings; admits a miss
//!   when its (aged) frequency estimate says the object was seen before.
//!   Unlike the plain second-hit doorkeeper, frequency survives the aging
//!   reset halved rather than wiped, so a hot object keeps its admission
//!   ticket across windows.
//! * **RejectX** — admit only after the object has been seen more than `X`
//!   times within the current window (X = 1 reproduces cache-on-second-
//!   request, but counted exactly in a sketch rather than approximately in
//!   a bloom filter).
//! * **CoinFlip(p)** — admit each miss with probability `p` from a seeded
//!   RNG; the classic null baseline separating "any filtering" from
//!   "informed filtering".
//!
//! Everything here is deterministic from its construction seed (otae-lint's
//! no-unseeded-rng rule applies), allocation-free per decision, and shared
//! bit-exactly between the single-threaded pipeline and the sharded service
//! through [`MissFilter`], which both construct via [`MissFilter::for_run`].

use crate::baseline::{BloomFilter, SecondHitAdmission};
use crate::pipeline::Mode;
use otae_fxhash::FxHashMap;
use otae_trace::ObjectId;

/// splitmix64: the seeded mixing primitive every sketch hash, the coin
/// RNG and the cluster's hash ring derive from.
#[inline]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded count-min sketch over object ids: `ROWS` rows of `width`
/// saturating `u32` counters; the estimate is the row-wise minimum, which
/// can overestimate (hash collisions) but never underestimate a key's true
/// increment count — the property the zoo proptests pin down.
///
/// A counter lives in a one-byte cell while it is below 255; a cell reading
/// 255 has its exact count in a side table keyed by cell index. Counts stay exact to `u32::MAX`,
/// while the table a decision touches is a quarter of a `u32` layout's size.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    /// Flat row-major cell table (`ROWS * width`).
    cells: Vec<u8>,
    /// Exact counts of the cells reading `ESCAPED`, each at least 255.
    escaped: FxHashMap<u32, u32>,
    /// Power-of-two row width.
    width: usize,
    /// Per-row hash seeds, derived from the construction seed.
    row_seeds: [u64; Self::ROWS],
}

impl CountMinSketch {
    /// Rows in the sketch (TinyLFU's standard depth).
    pub const ROWS: usize = 4;

    /// Cell value marking a count kept in the escape table.
    const ESCAPED: u8 = u8::MAX;

    /// Sketch sized for `expected_items` distinct keys: the row width is
    /// the next power of two at or above it (so collisions stay rare at the
    /// expected load), at least 64 and at most 2^30, so that every cell
    /// index fits the escape table's `u32` key.
    pub fn new(expected_items: usize, seed: u64) -> Self {
        let width = expected_items.clamp(64, 1 << 30).next_power_of_two();
        let mut row_seeds = [0u64; Self::ROWS];
        for (i, s) in row_seeds.iter_mut().enumerate() {
            *s = splitmix64(seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        }
        Self { cells: vec![0; Self::ROWS * width], escaped: FxHashMap::default(), width, row_seeds }
    }

    #[inline]
    fn index(&self, row: usize, key: ObjectId) -> usize {
        let h = splitmix64(self.row_seeds[row] ^ key.0 as u64);
        row * self.width + (h as usize & (self.width - 1))
    }

    /// The count of an escaped cell (255 should the table have lost it).
    #[inline]
    fn escaped_count(&self, i: usize) -> u32 {
        self.escaped.get(&(i as u32)).copied().unwrap_or(u32::from(Self::ESCAPED))
    }

    /// Count one occurrence of `key` (saturating); returns the estimate
    /// after the increment, as [`CountMinSketch::estimate`] would read it.
    pub fn increment(&mut self, key: ObjectId) -> u32 {
        let mut min = u32::MAX;
        for row in 0..Self::ROWS {
            let i = self.index(row, key);
            let c = self.cells[i];
            let count = if c < Self::ESCAPED - 1 {
                self.cells[i] = c + 1;
                u32::from(c) + 1
            } else {
                // 254 escapes with an entry of 255; an escaped cell counts
                // on in its entry.
                self.cells[i] = Self::ESCAPED;
                let count = self.escaped.entry(i as u32).or_insert(u32::from(c));
                *count = count.saturating_add(1);
                *count
            };
            min = min.min(count);
        }
        min
    }

    /// Estimated occurrence count: the minimum over rows. Never less than
    /// the true number of [`CountMinSketch::increment`] calls for `key`
    /// (short of counter saturation), possibly more.
    pub fn estimate(&self, key: ObjectId) -> u32 {
        let rows: [usize; Self::ROWS] = std::array::from_fn(|row| self.index(row, key));
        let least = rows.iter().map(|&i| self.cells[i]).min().unwrap_or(0);
        if least < Self::ESCAPED {
            // An escaped cell counts at least 255, so it cannot be the minimum.
            return u32::from(least);
        }
        rows.iter().map(|&i| self.escaped_count(i)).min().unwrap_or(0)
    }

    /// The aging reset: floor-halve every counter. Halving commutes with
    /// the row-wise minimum, so the relative (non-strict) order of any two
    /// keys' estimates is preserved. An escaped count that halves below 255
    /// moves back into its cell.
    pub fn halve(&mut self) {
        for c in &mut self.cells {
            *c = if *c == Self::ESCAPED { Self::ESCAPED } else { *c / 2 };
        }
        let cells = &mut self.cells;
        self.escaped.retain(|&i, count| {
            *count /= 2;
            match u8::try_from(*count) {
                Ok(c) if c < Self::ESCAPED => {
                    if let Some(cell) = cells.get_mut(i as usize) {
                        *cell = c;
                    }
                    false
                }
                _ => true,
            }
        });
    }

    /// Zero every counter (window reset; RejectX's forgetting model).
    pub fn clear(&mut self) {
        self.cells.fill(0);
        self.escaped.clear();
    }

    /// Sum of all counters (diagnostics; proportional to increments since
    /// the last halving).
    pub fn weight(&self) -> u64 {
        let cells: u64 =
            self.cells.iter().filter(|&&c| c != Self::ESCAPED).map(|&c| u64::from(c)).sum();
        cells + self.escaped.values().map(|&c| u64::from(c)).sum::<u64>()
    }
}

/// TinyLFU admission: doorkeeper bloom filter in front of a count-min
/// sketch, halved every `sample_period` decisions.
#[derive(Debug, Clone)]
pub struct TinyLfuAdmission {
    sketch: CountMinSketch,
    doorkeeper: BloomFilter,
    /// Decisions between halving resets (0 = never age).
    sample_period: u64,
    ops: u64,
}

impl TinyLfuAdmission {
    /// Sketch and doorkeeper sized for `expected_objects`; the sketch is
    /// halved (and the doorkeeper cleared) every `sample_period` decisions.
    pub fn new(expected_objects: usize, sample_period: u64, seed: u64) -> Self {
        Self {
            sketch: CountMinSketch::new(expected_objects, seed),
            doorkeeper: BloomFilter::new(expected_objects, splitmix64(seed ^ 0xD00F)),
            sample_period,
            ops: 0,
        }
    }

    /// Decide a miss: admit iff the object's aged frequency says it has
    /// been seen before, then record this sighting (doorkeeper first,
    /// sketch once the doorkeeper already knows the key). One doorkeeper
    /// walk answers both: a key it holds has frequency ≥ 1 and is counted
    /// in the sketch; a key it lacks is entered there and admitted on its
    /// sketch estimate alone.
    pub fn decide(&mut self, obj: ObjectId) -> bool {
        if self.sample_period > 0 {
            self.ops += 1;
            if self.ops >= self.sample_period {
                self.sketch.halve();
                self.doorkeeper.clear();
                self.ops = 0;
            }
        }
        if self.doorkeeper.check_and_insert(obj) {
            self.sketch.increment(obj);
            true
        } else {
            self.sketch.estimate(obj) >= 1
        }
    }
}

/// Reject-X admission: admit a miss only once the object has been seen
/// more than `x` times in the current window, counted in a count-min
/// sketch that is cleared (not halved — RejectX has no frequency memory
/// across windows, that is TinyLFU's refinement) every `window` decisions.
#[derive(Debug, Clone)]
pub struct RejectXAdmission {
    sketch: CountMinSketch,
    /// Sightings (within the window) a key must exceed to be admitted.
    x: u32,
    /// Decisions between sketch clears (0 = never clear).
    window: u64,
    ops: u64,
}

impl RejectXAdmission {
    /// Reject the first `x` sightings per window of `window` decisions.
    pub fn new(expected_objects: usize, x: u32, window: u64, seed: u64) -> Self {
        Self { sketch: CountMinSketch::new(expected_objects, seed), x, window, ops: 0 }
    }

    /// Decide a miss: count the sighting, admit iff the key has now been
    /// seen more than `x` times this window.
    pub fn decide(&mut self, obj: ObjectId) -> bool {
        if self.window > 0 {
            self.ops += 1;
            if self.ops >= self.window {
                // Full clear: a fresh window owes every key its X rejects.
                self.sketch.clear();
                self.ops = 0;
            }
        }
        self.sketch.increment(obj) > self.x
    }
}

/// Coin-flip admission: admit each miss independently with probability `p`
/// from a seeded splitmix64 stream. The null baseline: any policy that
/// cannot beat an uninformed coin at the same write rate is not earning its
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct CoinFlipAdmission {
    /// Admit iff the next draw lands at or below this threshold.
    threshold: u64,
    state: u64,
}

impl CoinFlipAdmission {
    /// Coin with admit probability `p` (clamped to [0, 1]) and a seeded
    /// deterministic stream.
    pub fn new(p: f32, seed: u64) -> Self {
        let p = f64::from(p).clamp(0.0, 1.0);
        // Map p onto the full u64 range; p = 1 admits every draw.
        let threshold = (p * u64::MAX as f64) as u64;
        Self { threshold, state: splitmix64(seed ^ 0xC01F) }
    }

    /// Decide a miss: one RNG draw, object identity ignored.
    pub fn decide(&mut self) -> bool {
        self.state = splitmix64(self.state);
        self.state <= self.threshold
    }
}

/// One shared construction + decision seam for every non-ML miss filter,
/// used bit-identically by `pipeline::run` and the sharded service so the
/// differential oracle can hold them to fingerprint equality.
#[derive(Debug, Clone)]
pub enum MissFilter {
    /// Cache-on-second-request doorkeeper.
    SecondHit(SecondHitAdmission),
    /// TinyLFU sketch + doorkeeper.
    TinyLfu(TinyLfuAdmission),
    /// Reject-first-X counting filter.
    RejectX(RejectXAdmission),
    /// Seeded coin flip.
    CoinFlip(CoinFlipAdmission),
}

impl MissFilter {
    /// Build the filter a run in `mode` uses, or `None` for the non-filter
    /// modes (Original/Ideal/Proposal). Sizing and seed derivation live
    /// here — and only here — so the pipeline and the service construct
    /// byte-identical filters from the same `(trace, M, training, p)`
    /// inputs:
    ///
    /// * doorkeeper/sketches are sized for the trace's distinct objects;
    /// * aging windows derive from the one-time threshold `M` (2M misses,
    ///   the span within which the paper's history table would rectify);
    /// * seeds fold `max_splits` in, mirroring the SecondHit convention
    ///   from the earlier baseline work.
    pub fn for_run(
        mode: Mode,
        trace_objects: usize,
        m: u64,
        max_splits: usize,
        coin_p: f32,
    ) -> Option<Self> {
        let expected = trace_objects.max(1024);
        let seed = max_splits as u64 ^ 0x5EED;
        let window = 2 * m.min(u64::MAX / 2);
        match mode {
            Mode::SecondHit => {
                Some(MissFilter::SecondHit(SecondHitAdmission::new(expected, window, seed)))
            }
            Mode::TinyLfu => Some(MissFilter::TinyLfu(TinyLfuAdmission::new(
                expected,
                // TinyLFU ages by halving, not wiping, so it can afford a
                // longer sample window than the doorkeeper baseline.
                2 * window.min(u64::MAX / 2),
                splitmix64(seed ^ 0x71F0),
            ))),
            Mode::RejectX => Some(MissFilter::RejectX(RejectXAdmission::new(
                expected,
                1,
                window,
                splitmix64(seed ^ 0x4EC7),
            ))),
            Mode::CoinFlip => Some(MissFilter::CoinFlip(CoinFlipAdmission::new(
                coin_p,
                splitmix64(seed ^ 0xF11B),
            ))),
            Mode::Original | Mode::Proposal | Mode::Ideal => None,
        }
    }

    /// Decide a miss.
    pub fn decide(&mut self, obj: ObjectId) -> bool {
        match self {
            MissFilter::SecondHit(f) => f.decide(obj),
            MissFilter::TinyLfu(f) => f.decide(obj),
            MissFilter::RejectX(f) => f.decide(obj),
            MissFilter::CoinFlip(f) => f.decide(),
        }
    }

    /// Display name of the wrapped filter.
    pub fn name(&self) -> &'static str {
        match self {
            MissFilter::SecondHit(_) => "SecondHit",
            MissFilter::TinyLfu(_) => "TinyLFU",
            MissFilter::RejectX(_) => "RejectX",
            MissFilter::CoinFlip(_) => "CoinFlip",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One step of a sketch-equivalence stream.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Increment(u32),
        Halve,
        Clear,
    }

    impl Step {
        /// Mostly increments of four hot keys (≈ 425 each between
        /// halvings, so their counters cross 255 and fall back), some of a
        /// cold range, a halving one step in two thousand and a clear one
        /// in four thousand.
        fn from_draw((r, cold): (u32, u32)) -> Self {
            match r {
                0..3_400 => Step::Increment(r % 4),
                3_400..3_990 => Step::Increment(cold),
                3_990..3_992 => Step::Halve,
                _ => Step::Clear,
            }
        }
    }

    /// The sketch's counters as a plain `u32` table, checking the cell
    /// encoding on the way: a cell below 255 holds its count and has no
    /// escape entry; a cell reading 255 has one, of at least 255.
    fn decoded(s: &CountMinSketch) -> Vec<u32> {
        let counts: Vec<u32> = (0..s.cells.len())
            .map(|i| match s.cells[i] {
                CountMinSketch::ESCAPED => {
                    let count = s.escaped.get(&(i as u32)).copied();
                    assert!(count.is_some_and(|c| c >= 255), "cell {i} escaped to {count:?}");
                    count.unwrap_or(0)
                }
                c => {
                    assert!(!s.escaped.contains_key(&(i as u32)), "cell {i} ({c}) also escaped");
                    u32::from(c)
                }
            })
            .collect();
        assert_eq!(
            s.escaped.len(),
            s.cells.iter().filter(|&&c| c == CountMinSketch::ESCAPED).count()
        );
        counts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One-byte cells with the exact escape are a `u32` saturating
        /// count-min sketch: the same counters, estimates and weight at
        /// every step while hot cells enter and leave the escape table.
        #[test]
        fn sketch_matches_a_u32_counter_model(
            draws in proptest::collection::vec((0u32..3_993, 0u32..5_000), 1..4_000),
            expected in 64usize..256,
            seed in any::<u64>(),
        ) {
            let mut s = CountMinSketch::new(expected, seed);
            let mut model = vec![0u32; s.cells.len()];
            let mut weight = 0u64;
            let rows = |s: &CountMinSketch, key: ObjectId| -> [usize; CountMinSketch::ROWS] {
                std::array::from_fn(|row| s.index(row, key))
            };
            let estimate = |model: &[u32], rows: [usize; CountMinSketch::ROWS]| {
                rows.iter().map(|&i| model[i]).min().unwrap_or(0)
            };
            // Increments of each hot key since the last halving or clear.
            let mut run = [0u32; 4];
            for (n, &draw) in draws.iter().enumerate() {
                let step = Step::from_draw(draw);
                match step {
                    Step::Increment(k) => {
                        let key = ObjectId(k);
                        let cells = rows(&s, key);
                        for &i in &cells {
                            weight += u64::from(model[i] < u32::MAX);
                            model[i] = model[i].saturating_add(1);
                        }
                        prop_assert_eq!(s.increment(key), estimate(&model, cells), "step {}", n);
                        if let Some(r) = run.get_mut(k as usize) {
                            *r += 1;
                            // The stream reaches the escape table.
                            prop_assert!(*r < 255 || s.escaped.len() >= CountMinSketch::ROWS);
                        }
                    }
                    Step::Halve => {
                        s.halve();
                        model.iter_mut().for_each(|c| *c /= 2);
                        weight = model.iter().map(|&c| u64::from(c)).sum();
                        run = [0; 4];
                    }
                    Step::Clear => {
                        s.clear();
                        model.iter_mut().for_each(|c| *c = 0);
                        weight = 0;
                        run = [0; 4];
                    }
                }
                // The whole table after every reset and now and then; an
                // increment moves only the cells the estimates below read.
                if !matches!(step, Step::Increment(_)) || n % 64 == 0 {
                    prop_assert_eq!(&decoded(&s), &model, "counters at step {}", n);
                }
                prop_assert_eq!(s.weight(), weight, "weight at step {}", n);
                for k in (0u32..8).chain([n as u32 % 5_000]) {
                    let key = ObjectId(k);
                    prop_assert_eq!(s.estimate(key), estimate(&model, rows(&s, key)), "key {}", k);
                }
            }
        }
    }

    #[test]
    fn count_min_counts_and_halves() {
        let mut s = CountMinSketch::new(1000, 7);
        for _ in 0..10 {
            s.increment(ObjectId(1));
        }
        s.increment(ObjectId(2));
        assert!(s.estimate(ObjectId(1)) >= 10);
        assert!(s.estimate(ObjectId(2)) >= 1);
        s.halve();
        assert!(s.estimate(ObjectId(1)) >= 5);
        assert!(s.estimate(ObjectId(1)) <= 10);
    }

    #[test]
    fn counts_escape_at_255_and_fold_back_below_it() {
        let mut s = CountMinSketch::new(64, 3);
        let key = ObjectId(9);
        for n in 1..=254 {
            assert_eq!(s.increment(key), n);
        }
        assert!(s.escaped.is_empty(), "254 still fits a cell");
        assert_eq!(s.increment(key), 255);
        assert_eq!(s.escaped.len(), CountMinSketch::ROWS, "255 escapes every row");
        for n in 256..=511 {
            assert_eq!(s.increment(key), n);
        }
        s.halve();
        assert_eq!((s.estimate(key), s.escaped.len()), (255, CountMinSketch::ROWS), "255 stays");
        s.halve();
        assert_eq!((s.estimate(key), s.escaped.len()), (127, 0), "127 folds back into its cells");
        assert_eq!(s.weight(), 127 * CountMinSketch::ROWS as u64);
        assert_eq!(s.increment(key), 128);
    }

    #[test]
    fn tinylfu_bypasses_first_sighting_admits_second() {
        let mut t = TinyLfuAdmission::new(1000, 0, 42);
        assert!(!t.decide(ObjectId(1)), "cold first sighting bypassed");
        assert!(t.decide(ObjectId(1)), "second sighting admitted");
    }

    #[test]
    fn tinylfu_frequency_survives_halving_reset() {
        // Make object 1 hot, then age past the sample period: its sketch
        // count halves but survives, so the first post-reset sighting is
        // still admitted — the doorkeeper baseline would bypass it.
        let period = 64;
        let mut t = TinyLfuAdmission::new(1024, period, 42);
        for _ in 0..8 {
            t.decide(ObjectId(1));
        }
        // Burn through the rest of the window on one-time keys.
        let mut k = 1000u32;
        while t.ops != 0 {
            t.decide(ObjectId(k));
            k += 1;
        }
        assert!(t.sketch.estimate(ObjectId(1)) >= 1, "halved frequency must survive");
        assert!(t.decide(ObjectId(1)), "hot object admitted right after the reset");
    }

    #[test]
    fn rejectx_rejects_exactly_x_sightings() {
        let mut r = RejectXAdmission::new(1000, 2, 0, 9);
        assert!(!r.decide(ObjectId(5)));
        assert!(!r.decide(ObjectId(5)));
        assert!(r.decide(ObjectId(5)), "third sighting exceeds X = 2");
    }

    #[test]
    fn rejectx_window_clear_forgets() {
        let mut r = RejectXAdmission::new(1000, 1, 3, 9);
        assert!(!r.decide(ObjectId(1)));
        assert!(r.decide(ObjectId(1)));
        assert!(!r.decide(ObjectId(1)), "window clear forgot the count");
    }

    #[test]
    fn coinflip_edges_are_exact() {
        let mut never = CoinFlipAdmission::new(0.0, 1);
        let mut always = CoinFlipAdmission::new(1.0, 1);
        for _ in 0..1000 {
            assert!(!never.decide());
            assert!(always.decide());
        }
    }

    #[test]
    fn coinflip_is_deterministic_from_its_seed() {
        let mut a = CoinFlipAdmission::new(0.3, 99);
        let mut b = CoinFlipAdmission::new(0.3, 99);
        let seq_a: Vec<bool> = (0..256).map(|_| a.decide()).collect();
        let seq_b: Vec<bool> = (0..256).map(|_| b.decide()).collect();
        assert_eq!(seq_a, seq_b);
        let mut c = CoinFlipAdmission::new(0.3, 100);
        let seq_c: Vec<bool> = (0..256).map(|_| c.decide()).collect();
        assert_ne!(seq_a, seq_c, "different seed, different stream");
    }

    #[test]
    fn for_run_builds_filters_only_for_filter_modes() {
        for mode in [Mode::Original, Mode::Proposal, Mode::Ideal] {
            assert!(MissFilter::for_run(mode, 1000, 100, 4, 0.5).is_none());
        }
        for (mode, name) in [
            (Mode::SecondHit, "SecondHit"),
            (Mode::TinyLfu, "TinyLFU"),
            (Mode::RejectX, "RejectX"),
            (Mode::CoinFlip, "CoinFlip"),
        ] {
            let f = MissFilter::for_run(mode, 1000, 100, 4, 0.5).expect("filter mode");
            assert_eq!(f.name(), name);
        }
    }

    #[test]
    fn second_hit_filter_admits_only_on_reappearance() {
        let mut f = MissFilter::for_run(Mode::SecondHit, 1000, 100, 30, 0.5).expect("filter mode");
        assert!(!f.decide(ObjectId(7)), "first sighting bypasses");
        assert!(f.decide(ObjectId(7)), "second sighting admits");
    }

    #[test]
    fn identical_inputs_build_identical_filters() {
        // The construction seam the differential oracle leans on: two
        // filters built from the same inputs produce the same decision
        // stream.
        for mode in [Mode::SecondHit, Mode::TinyLfu, Mode::RejectX, Mode::CoinFlip] {
            let mut a = MissFilter::for_run(mode, 5000, 200, 4, 0.5).unwrap();
            let mut b = MissFilter::for_run(mode, 5000, 200, 4, 0.5).unwrap();
            for i in 0..4096u32 {
                let key = ObjectId(i % 257);
                assert_eq!(a.decide(key), b.decide(key), "{mode:?} diverged at {i}");
            }
        }
    }
}
