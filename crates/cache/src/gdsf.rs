//! GDSF — Greedy-Dual-Size-Frequency replacement (Cherkasova, 1998).
//!
//! The canonical web/CDN policy for *heterogeneous object sizes*, which the
//! paper's photo workload has (4 KB thumbnails to multi-MB originals). Each
//! object carries a priority `H = L + frequency × cost / size` where `L` is
//! an inflation value set to the priority of the last evicted object; small
//! and frequently-used objects are kept preferentially. Included as an
//! extra baseline: it attacks the *byte* hit-rate side of the problem,
//! orthogonally to one-time-access exclusion.

use crate::{Cache, Evicted, Key};
use otae_fxhash::FxHashMap;
use std::collections::BTreeSet;

#[derive(Debug, Clone, Copy)]
struct Entry {
    freq: u64,
    size: u64,
    priority: f64,
    seq: u64,
}

/// Byte-capacity GDSF cache.
#[derive(Debug, Clone)]
pub struct Gdsf<K> {
    capacity: u64,
    used: u64,
    /// Inflation value L: floor priority for new insertions.
    inflation: f64,
    seq: u64,
    map: FxHashMap<K, Entry>,
    /// Victim order: lowest priority first. Keyed by (priority bits, seq, key).
    order: BTreeSet<(u64, u64, K)>,
}

/// Total-order encoding of a non-negative f64 for use in a BTreeSet key.
fn bits(p: f64) -> u64 {
    debug_assert!(p >= 0.0 && p.is_finite());
    p.to_bits()
}

impl<K: Key> Gdsf<K> {
    /// New GDSF cache holding at most `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            used: 0,
            inflation: 0.0,
            seq: 0,
            map: FxHashMap::default(),
            order: BTreeSet::new(),
        }
    }

    /// Current inflation value `L` (diagnostics).
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    fn priority(&self, freq: u64, size: u64) -> f64 {
        // cost = 1 (uniform miss penalty); size in KiB keeps values tame.
        self.inflation + freq as f64 / (size.max(1) as f64 / 1024.0)
    }

    fn evict_one(&mut self, evicted: &mut Vec<Evicted<K>>) {
        let victim = *self.order.iter().next().expect("over capacity implies nonempty");
        self.order.remove(&victim);
        let entry = self.map.remove(&victim.2).expect("map/order in sync");
        self.used -= entry.size;
        // Inflate: future insertions start at the evicted priority.
        self.inflation = entry.priority;
        evicted.push(Evicted { key: victim.2, size: entry.size });
    }
}

impl<K: Key> Cache<K> for Gdsf<K> {
    fn name(&self) -> &'static str {
        "GDSF"
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.used
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn on_hit(&mut self, key: &K, _now: u64) -> bool {
        let Some(entry) = self.map.get_mut(key) else { return false };
        let removed = self.order.remove(&(bits(entry.priority), entry.seq, *key));
        debug_assert!(removed);
        entry.freq += 1;
        entry.priority = self.inflation + entry.freq as f64 / (entry.size.max(1) as f64 / 1024.0);
        self.order.insert((bits(entry.priority), entry.seq, *key));
        true
    }

    fn insert(&mut self, key: K, size: u64, _now: u64, evicted: &mut Vec<Evicted<K>>) {
        if size > self.capacity || self.map.contains_key(&key) {
            return;
        }
        while self.used + size > self.capacity {
            self.evict_one(evicted);
        }
        let priority = self.priority(1, size);
        let entry = Entry { freq: 1, size, priority, seq: self.seq };
        self.seq += 1;
        self.order.insert((bits(priority), entry.seq, key));
        self.map.insert(key, entry);
        self.used += size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{check_capacity_invariant, drive};

    #[test]
    fn small_objects_preferred_over_large() {
        let mut c = Gdsf::new(4000);
        let mut ev = Vec::new();
        c.insert(1u64, 1024, 0, &mut ev); // small: priority 1.0
        c.insert(2u64, 2048, 1, &mut ev); // large: priority 0.5
        c.insert(3u64, 1024, 2, &mut ev); // forces one eviction
        assert!(!c.contains(&2), "larger object has lower priority");
        assert!(c.contains(&1));
        assert!(c.contains(&3));
        check_capacity_invariant(&c);
    }

    #[test]
    fn frequency_raises_priority() {
        let mut c = Gdsf::new(2048);
        let mut ev = Vec::new();
        c.insert(1u64, 1024, 0, &mut ev);
        c.insert(2u64, 1024, 1, &mut ev);
        c.on_hit(&2, 2); // freq 2: priority 2.0 vs 1's 1.0
        c.insert(3u64, 1024, 3, &mut ev);
        assert!(!c.contains(&1), "lower-frequency object evicted first");
        assert!(c.contains(&2));
        check_capacity_invariant(&c);
    }

    #[test]
    fn inflation_ages_out_stale_frequent_objects() {
        let mut c = Gdsf::new(4096);
        let mut ev = Vec::new();
        // Object 1 becomes very frequent early.
        c.insert(1u64, 1024, 0, &mut ev);
        for i in 0..20 {
            c.on_hit(&1, i);
        }
        // Long stream of fresh objects inflates L past 1's static priority.
        for k in 10..200u64 {
            c.insert(k, 1024, k, &mut ev);
        }
        assert!(
            !c.contains(&1),
            "inflation must eventually age out an object that stopped being accessed"
        );
        assert!(c.inflation() > 0.0);
        check_capacity_invariant(&c);
    }

    #[test]
    fn byte_hit_rate_beats_lru_on_mixed_sizes() {
        // Many small hot objects + huge cold objects: GDSF should score more
        // total hits than LRU by refusing to let one big object flush many
        // small ones.
        let mut accesses: Vec<(u64, u64)> = Vec::new();
        for round in 0..50u64 {
            for k in 0..10u64 {
                accesses.push((k, 1024)); // 10 hot 1-KiB objects
            }
            accesses.push((1000 + round, 16 * 1024)); // cold 16-KiB scan
        }
        let mut g = Gdsf::new(20 * 1024);
        let mut l = crate::Lru::new(20 * 1024);
        let hg = drive(&mut g, &accesses).iter().filter(|&&h| h).count();
        let hl = drive(&mut l, &accesses).iter().filter(|&&h| h).count();
        assert!(hg >= hl, "GDSF {hg} vs LRU {hl}");
        check_capacity_invariant(&g);
    }

    #[test]
    fn deterministic_tie_breaking() {
        let run = || {
            let mut c = Gdsf::new(2048);
            let mut ev = Vec::new();
            for k in 0..10u64 {
                c.insert(k, 1024, k, &mut ev);
            }
            ev
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn oversized_object_is_not_cached() {
        let mut c = Gdsf::new(512);
        let mut ev = Vec::new();
        c.insert(1u64, 1024, 0, &mut ev);
        assert!(c.is_empty());
    }
}
