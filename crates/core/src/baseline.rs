//! Non-ML admission baselines.
//!
//! The paper's related work (§6.1, [17, 20, 25]) discusses bypass policies
//! that need no learning. The strongest practical one — what CDNs deploy as
//! a "one-hit-wonder" filter — is **cache-on-second-request**: a miss is
//! admitted only if the object has been seen before, tracked approximately
//! in a bloom-filter doorkeeper that is periodically reset to age out stale
//! history. Comparing it against the paper's classifier isolates what the
//! ML actually buys: the doorkeeper needs one wasted miss per object to
//! learn, and cannot skip objects that recur but only after eviction.

use otae_trace::ObjectId;

/// Seeded double-hashing bloom filter over object ids.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: u64,
    /// `2^64 mod n_bits`: what a probe's running sum loses when it wraps.
    wrap: u64,
    n_hashes: u32,
    seed: u64,
}

/// The bit positions of one key: `(h1 + i·h2) mod 2^64 mod n` for `i` in
/// `0..k`. Two divisions seed the walk; each later position is the last one
/// plus `h2 mod n`, less `2^64 mod n` when `h1 + i·h2` wraps past `2^64`,
/// brought back into `0..n` by at most two subtractions.
#[derive(Debug, Clone, Copy)]
struct Probes {
    sum: u64,
    h2: u64,
    pos: u64,
    step: u64,
    n: u64,
    wrap: u64,
    left: u32,
}

impl Probes {
    /// `n` must lie in `1..=2^62`, `wrap` be `2^64 mod n`.
    fn new(h1: u64, h2: u64, n: u64, wrap: u64, k: u32) -> Self {
        Self { sum: h1, h2, pos: h1 % n, step: h2 % n, n, wrap, left: k }
    }
}

impl Iterator for Probes {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let pos = self.pos;
        let (sum, wrapped) = self.sum.overflowing_add(self.h2);
        self.sum = sum;
        // `n - wrap` adds `-2^64 mod n`; `pos + step + n - wrap < 3n`.
        let mut next = pos + self.step + if wrapped { self.n - self.wrap } else { 0 };
        if next >= self.n {
            next -= self.n;
        }
        if next >= self.n {
            next -= self.n;
        }
        self.pos = next;
        Some(pos)
    }
}

/// `2^64 mod n` for `n ≥ 1`.
fn wrap_of(n: u64) -> u64 {
    (u64::MAX % n + 1) % n
}

impl BloomFilter {
    /// Filter sized for `expected_items` at roughly 1 % false positives.
    pub fn new(expected_items: usize, seed: u64) -> Self {
        // Standard sizing: m = -n ln p / (ln 2)^2, k = m/n ln 2; p = 0.01.
        let n = expected_items.max(64) as f64;
        let m = (-n * 0.01f64.ln() / (2f64.ln() * 2f64.ln())).ceil() as u64;
        let k = ((m as f64 / n) * 2f64.ln()).round().clamp(1.0, 16.0) as u32;
        let words = m.div_ceil(64).max(1);
        let n_bits = words * 64;
        Self { bits: vec![0; words as usize], n_bits, wrap: wrap_of(n_bits), n_hashes: k, seed }
    }

    fn hash2(&self, key: ObjectId) -> (u64, u64) {
        // splitmix64 on (seed ^ key) gives two independent halves.
        let mut z = self.seed ^ ((key.0 as u64).wrapping_mul(0x9E3779B97F4A7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        let h1 = z;
        let h2 = z.rotate_left(32) | 1; // odd stride
        (h1, h2)
    }

    #[inline]
    fn probes(&self, key: ObjectId) -> Probes {
        let (h1, h2) = self.hash2(key);
        Probes::new(h1, h2, self.n_bits, self.wrap, self.n_hashes)
    }

    /// Insert a key.
    pub fn insert(&mut self, key: ObjectId) {
        for bit in self.probes(key) {
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// Probabilistic membership: false positives possible, negatives exact.
    pub fn contains(&self, key: ObjectId) -> bool {
        self.probes(key).all(|bit| self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0)
    }

    /// [`BloomFilter::contains`], then [`BloomFilter::insert`] when the key
    /// was absent, in one walk over its bits: reports whether the key was
    /// present and leaves its bits set either way.
    #[inline]
    pub fn check_and_insert(&mut self, key: ObjectId) -> bool {
        let mut present = true;
        for bit in self.probes(key) {
            let (word, mask) = (&mut self.bits[(bit / 64) as usize], 1u64 << (bit % 64));
            present &= *word & mask != 0;
            *word |= mask;
        }
        present
    }

    /// Clear all bits (aging reset).
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
    }
}

/// Cache-on-second-request admission with a periodically reset doorkeeper.
#[derive(Debug, Clone)]
pub struct SecondHitAdmission {
    doorkeeper: BloomFilter,
    /// Accesses between doorkeeper resets (aging window).
    reset_every: u64,
    since_reset: u64,
}

impl SecondHitAdmission {
    /// Doorkeeper sized for `expected_objects`, reset every `reset_every`
    /// misses (0 = never reset).
    pub fn new(expected_objects: usize, reset_every: u64, seed: u64) -> Self {
        Self { doorkeeper: BloomFilter::new(expected_objects, seed), reset_every, since_reset: 0 }
    }

    /// Decide a miss: admit iff the object was seen before (approximately).
    pub fn decide(&mut self, obj: ObjectId) -> bool {
        if self.reset_every > 0 {
            self.since_reset += 1;
            if self.since_reset >= self.reset_every {
                self.doorkeeper.clear();
                self.since_reset = 0;
            }
        }
        self.doorkeeper.check_and_insert(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut b = BloomFilter::new(1000, 7);
        for i in 0..1000u32 {
            b.insert(ObjectId(i));
        }
        for i in 0..1000u32 {
            assert!(b.contains(ObjectId(i)), "inserted key {i} must be present");
        }
    }

    #[test]
    fn bloom_false_positive_rate_is_low() {
        let mut b = BloomFilter::new(10_000, 3);
        for i in 0..10_000u32 {
            b.insert(ObjectId(i));
        }
        let fp = (10_000..110_000u32).filter(|&i| b.contains(ObjectId(i))).count();
        let rate = fp as f64 / 100_000.0;
        assert!(rate < 0.03, "false positive rate {rate}");
    }

    /// Probe positions straight from the definition, one `%` per probe.
    fn formula(h1: u64, h2: u64, n: u64, k: u32) -> Vec<u64> {
        (0..u64::from(k)).map(|i| h1.wrapping_add(i.wrapping_mul(h2)) % n).collect()
    }

    #[test]
    fn running_sum_probes_equal_the_per_probe_formula() {
        // Real sizes (multiples of 64), odd and prime widths, and the
        // extremes; strides drawn from splitmix64 wrap on about half their
        // steps, and the hand-picked pairs wrap on the first or every step.
        let widths = [1, 2, 63, 64, 960, 9_600, 1_000_003, 1 << 40, (1 << 62) - 57, 1 << 62];
        let mut state = 0x0DD_B1A5u64;
        let mut draw = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut pairs: Vec<(u64, u64)> = (0..2_000).map(|_| (draw(), draw() | 1)).collect();
        pairs.extend([
            (u64::MAX, 1),
            (u64::MAX - 2, u64::MAX),
            (0, u64::MAX),
            (1 << 63, 1 << 63 | 1),
            (u64::MAX, u64::MAX),
            (0, 1),
        ]);
        let mut wraps = 0u64;
        for &n in &widths {
            for &(h1, h2) in &pairs {
                let got: Vec<u64> = Probes::new(h1, h2, n, wrap_of(n), 16).collect();
                assert_eq!(got, formula(h1, h2, n, 16), "h1 {h1:#x} h2 {h2:#x} n {n}");
                let mut sum = h1;
                for _ in 1..16 {
                    let (next, wrapped) = sum.overflowing_add(h2);
                    wraps += u64::from(wrapped);
                    sum = next;
                }
            }
        }
        assert!(wraps > 100_000, "the cases must wrap often, wrapped {wraps} times");
        assert_eq!(Probes::new(5, 7, 64, wrap_of(64), 0).count(), 0);
        assert_eq!(wrap_of(64), 0);
        assert_eq!(wrap_of(960), (1u128 << 64).rem_euclid(960) as u64);
    }

    #[test]
    fn check_and_insert_is_contains_then_insert() {
        let mut one_pass = BloomFilter::new(500, 21);
        let mut two_pass = one_pass.clone();
        for i in 0..20_000u32 {
            if i % 5_000 == 4_999 {
                one_pass.clear();
                two_pass.clear();
            }
            // Repeats, first sightings and (at this load) false positives.
            let key = ObjectId(i.wrapping_mul(2_654_435_761) % 1_500);
            let present = two_pass.contains(key);
            if !present {
                two_pass.insert(key);
            }
            assert_eq!(one_pass.check_and_insert(key), present, "key {} at step {i}", key.0);
            assert_eq!(one_pass.bits, two_pass.bits, "bits diverged at step {i}");
        }
    }

    #[test]
    fn bloom_clear_resets() {
        let mut b = BloomFilter::new(100, 1);
        b.insert(ObjectId(5));
        assert!(b.contains(ObjectId(5)));
        b.clear();
        assert!(!b.contains(ObjectId(5)));
        assert!(b.bits.iter().all(|&w| w == 0));
    }

    #[test]
    fn second_hit_bypasses_first_admits_second() {
        let mut a = SecondHitAdmission::new(1000, 0, 9);
        assert!(!a.decide(ObjectId(1)), "first sighting bypassed");
        assert!(a.decide(ObjectId(1)), "second sighting admitted");
    }

    #[test]
    fn reset_forgets_history() {
        let mut a = SecondHitAdmission::new(1000, 2, 9);
        assert!(!a.decide(ObjectId(1)));
        assert!(!a.decide(ObjectId(2))); // triggers reset at 2 misses
                                         // History wiped: object 1 is "new" again.
        assert!(!a.decide(ObjectId(1)));
    }

    #[test]
    fn one_time_stream_is_fully_bypassed() {
        let mut a = SecondHitAdmission::new(100_000, 0, 11);
        let mut admitted = 0;
        for i in 0..50_000u32 {
            if a.decide(ObjectId(i)) {
                admitted += 1;
            }
        }
        // Only bloom false positives slip through.
        assert!(
            (admitted as f64) < 0.03 * 50_000.0,
            "one-time stream mostly bypassed, admitted {admitted}"
        );
    }
}
