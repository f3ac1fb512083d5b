//! Belady's MIN — the offline-optimal replacement bound used as the upper
//! limit in every figure of the paper's evaluation (§5.3).
//!
//! The policy is constructed with the full future request sequence; at each
//! point it evicts the resident object whose *next* access is farthest in the
//! future (or never). An object that will never be accessed again evicts
//! itself immediately, so it is effectively not cached — but the insertion is
//! still counted as a write by the driver, matching the paper's "traditional
//! caching method" accounting (§5.3.3).

use crate::{Cache, Evicted, Key};
use otae_fxhash::FxHashMap;
use std::collections::BTreeSet;

/// Position meaning "never accessed again".
pub const NEVER: u64 = u64::MAX;

/// Byte-capacity Belady (MIN) cache.
///
/// `now` passed to [`Cache::on_hit`]/[`Cache::insert`] must be the 0-based
/// index of the current request within the exact sequence the policy was
/// built from.
#[derive(Debug, Clone)]
pub struct Belady<K> {
    capacity: u64,
    used: u64,
    /// next_occurrence[i] = index of the next access to the object accessed
    /// at position i, or [`NEVER`].
    next_occurrence: Vec<u64>,
    /// Victim order: (next access, key), largest first out.
    order: BTreeSet<(u64, K)>,
    map: FxHashMap<K, (u64, u64)>, // key -> (next access, size)
}

impl<K: Key> Belady<K> {
    /// Build from the future key sequence.
    pub fn new(capacity: u64, future: &[K]) -> Self {
        let mut last_seen: FxHashMap<K, u64> = FxHashMap::default();
        let mut next_occurrence = vec![NEVER; future.len()];
        for (i, key) in future.iter().enumerate().rev() {
            if let Some(&next) = last_seen.get(key) {
                next_occurrence[i] = next;
            }
            last_seen.insert(*key, i as u64);
        }
        Self {
            capacity,
            used: 0,
            next_occurrence,
            order: BTreeSet::new(),
            map: FxHashMap::default(),
        }
    }

    fn next_of(&self, now: u64) -> u64 {
        self.next_occurrence.get(now as usize).copied().unwrap_or(NEVER)
    }
}

impl<K: Key> Cache<K> for Belady<K> {
    fn name(&self) -> &'static str {
        "Belady"
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

    fn on_hit(&mut self, key: &K, now: u64) -> bool {
        let next = self.next_of(now);
        let Some(entry) = self.map.get_mut(key) else { return false };
        self.order.remove(&(entry.0, *key));
        self.order.insert((next, *key));
        entry.0 = next;
        true
    }

    fn insert(&mut self, key: K, size: u64, now: u64, evicted: &mut Vec<Evicted<K>>) {
        if size > self.capacity || self.map.contains_key(&key) {
            return;
        }
        let next = self.next_of(now);
        self.map.insert(key, (next, size));
        self.order.insert((next, key));
        self.used += size;
        while self.used > self.capacity {
            let victim = *self.order.iter().next_back().expect("over capacity implies nonempty");
            self.order.remove(&victim);
            let (_, vsize) = self.map.remove(&victim.1).expect("map/order in sync");
            self.used -= vsize;
            evicted.push(Evicted { key: victim.1, size: vsize });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{check_capacity_invariant, drive};
    use crate::{CacheStats, Lru};

    fn hits<C: Cache<u64>>(c: &mut C, seq: &[(u64, u64)]) -> usize {
        drive(c, seq).iter().filter(|&&h| h).count()
    }

    #[test]
    fn never_reused_object_evicts_itself() {
        let seq = [(1u64, 10u64), (2, 10), (1, 10)];
        let keys: Vec<u64> = seq.iter().map(|a| a.0).collect();
        let mut c = Belady::new(20, &keys);
        let mut ev = Vec::new();
        c.insert(1, 10, 0, &mut ev);
        assert!(c.contains(&1), "1 is accessed again at pos 2");
        c.insert(2, 10, 1, &mut ev);
        // 2 is never reused, but there is room for both, so it stays.
        assert!(c.contains(&2));
        // Squeeze: a third never-reused object evicts itself first.
        let keys2 = vec![1u64, 2, 3];
        let mut c2 = Belady::new(10, &keys2);
        c2.insert(1, 10, 0, &mut ev); // 1 never reused in keys2
        ev.clear();
        c2.insert(2, 10, 1, &mut ev);
        assert_eq!(ev.len(), 1, "one of the never-reused objects must go");
    }

    #[test]
    fn optimal_on_textbook_sequence() {
        // Classic example: with capacity for 3 unit objects,
        // MIN gets the maximum possible hits.
        let keys = [1u64, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5];
        let seq: Vec<(u64, u64)> = keys.iter().map(|&k| (k, 1)).collect();
        let mut belady = Belady::new(3, &keys);
        let mut lru = Lru::new(3);
        let hb = hits(&mut belady, &seq);
        let hl = hits(&mut lru, &seq);
        assert!(hb >= hl);
        // Known OPT result for this sequence and size 3: 5 hits (7 faults).
        assert_eq!(hb, 5);
        check_capacity_invariant(&belady);
    }

    #[test]
    fn belady_dominates_lru_on_random_traces() {
        // MIN must never lose to LRU.
        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % 50
        };
        let keys: Vec<u64> = (0..5000).map(|_| next()).collect();
        let seq: Vec<(u64, u64)> = keys.iter().map(|&k| (k, 10)).collect();
        for cap in [50u64, 100, 200, 400] {
            let mut b = Belady::new(cap, &keys);
            let mut l = Lru::new(cap);
            let hb = hits(&mut b, &seq);
            let hl = hits(&mut l, &seq);
            assert!(hb >= hl, "cap {cap}: belady {hb} < lru {hl}");
        }
    }

    #[test]
    fn stats_integration() {
        let keys = [1u64, 2, 1, 3, 1];
        let seq: Vec<(u64, u64)> = keys.iter().map(|&k| (k, 10)).collect();
        let mut b = Belady::new(20, &keys);
        let mut stats = CacheStats::default();
        for (hit, &(_, size)) in drive(&mut b, &seq).into_iter().zip(&seq) {
            if hit {
                stats.record_hit(size);
            } else {
                stats.record_admitted_miss(size);
            }
        }
        assert_eq!(stats.accesses, 5);
        assert_eq!(stats.hits, 2); // both re-accesses of 1 hit
        assert_eq!(stats.files_written, 3);
    }
}
