//! Least-Recently-Used replacement — the paper's baseline policy.

use crate::list::{DList, NodeId};
use crate::{Cache, Evicted, Key};
use otae_fxhash::FxHashMap;
use std::collections::hash_map::Entry;

/// Byte-capacity LRU cache.
#[derive(Debug, Clone)]
pub struct Lru<K> {
    capacity: u64,
    used: u64,
    /// Recency order, front = MRU.
    order: DList<K>,
    map: FxHashMap<K, (NodeId, u64)>,
}

impl<K: Key> Lru<K> {
    /// New LRU cache holding at most `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self { capacity, used: 0, order: DList::new(), map: FxHashMap::default() }
    }

    fn evict_one(&mut self, evicted: &mut Vec<Evicted<K>>) {
        if let Some(key) = self.order.pop_back() {
            let (_, size) = self.map.remove(&key).expect("map/list in sync");
            self.used -= size;
            evicted.push(Evicted { key, size });
        }
    }
}

impl<K: Key> Cache<K> for Lru<K> {
    fn name(&self) -> &'static str {
        "LRU"
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
        let Some(&(node, _)) = self.map.get(key) else { return false };
        self.order.move_to_front(node);
        true
    }

    /// One probe of the map: link the new key at the front, then evict from
    /// the tail until the bytes fit. The evictions and their order are those
    /// of evict-then-insert, and the new key, at most `capacity` bytes, is
    /// never among them.
    fn insert(&mut self, key: K, size: u64, _now: u64, evicted: &mut Vec<Evicted<K>>) {
        if size > self.capacity {
            return;
        }
        match self.map.entry(key) {
            Entry::Occupied(_) => return,
            Entry::Vacant(slot) => {
                slot.insert((self.order.push_front(key), size));
            }
        }
        self.used += size;
        while self.used > self.capacity {
            self.evict_one(evicted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{check_capacity_invariant, drive};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::VecDeque;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = Lru::new(30);
        let hits = drive(&mut c, &[(1, 10), (2, 10), (3, 10), (1, 10), (4, 10)]);
        // Access to 1 refreshed it; inserting 4 evicts 2 (the LRU).
        assert_eq!(hits, vec![false, false, false, true, false]);
        assert!(c.contains(&1));
        assert!(!c.contains(&2));
        assert!(c.contains(&3));
        assert!(c.contains(&4));
        check_capacity_invariant(&c);
    }

    #[test]
    fn oversized_object_is_not_cached() {
        let mut c = Lru::new(10);
        let mut ev = Vec::new();
        c.insert(1u64, 100, 0, &mut ev);
        assert!(!c.contains(&1));
        assert!(ev.is_empty());
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let mut c = Lru::new(100);
        let mut ev = Vec::new();
        c.insert(1u64, 10, 0, &mut ev);
        c.insert(1u64, 10, 1, &mut ev);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used(), 10);
    }

    #[test]
    fn variable_sizes_evict_multiple() {
        let mut c = Lru::new(100);
        let mut ev = Vec::new();
        c.insert(1u64, 40, 0, &mut ev);
        c.insert(2u64, 40, 1, &mut ev);
        c.insert(3u64, 90, 2, &mut ev); // must evict both 1 and 2
        assert_eq!(ev.len(), 2);
        assert_eq!(c.len(), 1);
        assert!(c.contains(&3));
        check_capacity_invariant(&c);
    }

    /// Reference LRU: front = MRU, evict from the back before inserting.
    #[derive(Default)]
    struct ModelLru {
        order: VecDeque<(u64, u64)>,
        used: u64,
    }

    impl ModelLru {
        fn hit(&mut self, key: u64) -> bool {
            let Some(i) = self.order.iter().position(|&(k, _)| k == key) else { return false };
            let entry = self.order.remove(i).expect("position is in range");
            self.order.push_front(entry);
            true
        }

        fn insert(&mut self, key: u64, size: u64, capacity: u64) -> Vec<Evicted<u64>> {
            let mut evicted = Vec::new();
            if size > capacity || self.order.iter().any(|&(k, _)| k == key) {
                return evicted;
            }
            while self.used + size > capacity {
                let (key, size) = self.order.pop_back().expect("over capacity implies nonempty");
                self.used -= size;
                evicted.push(Evicted { key, size });
            }
            self.order.push_front((key, size));
            self.used += size;
            evicted
        }
    }

    #[test]
    fn matches_a_reference_lru_on_seeded_streams() {
        const CAPACITY: u64 = 10_000;
        for seed in 0..8u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (mut lru, mut model) = (Lru::new(CAPACITY), ModelLru::default());
            let mut evicted = Vec::new();
            for now in 0..4_000u64 {
                let key = rng.gen_range(0..60u64);
                // Mostly fitting sizes, now and then larger than the cache.
                let size =
                    if rng.gen_range(0..40) == 0 { CAPACITY + 1 } else { rng.gen_range(1..3_000) };
                // Some inserts skip the hit test: a resident key is then a
                // duplicate insert, which must change nothing.
                let hit = if rng.gen_range(0..8) == 0 {
                    false
                } else {
                    let hit = lru.on_hit(&key, now);
                    assert_eq!(hit, model.hit(key), "seed {seed}, step {now}: hit");
                    hit
                };
                if !hit {
                    evicted.clear();
                    lru.insert(key, size, now, &mut evicted);
                    assert_eq!(
                        evicted,
                        model.insert(key, size, CAPACITY),
                        "seed {seed}, step {now}"
                    );
                }
                assert_eq!((lru.used(), lru.len()), (model.used, model.order.len()));
            }
        }
    }

    #[test]
    fn scan_destroys_lru_working_set() {
        // Classic LRU pathology: a one-time scan evicts the hot set. This is
        // exactly what the paper's admission policy prevents.
        let mut c = Lru::new(50);
        let mut accesses: Vec<(u64, u64)> = (0..5).map(|k| (k, 10)).collect();
        accesses.extend((100..105).map(|k| (k, 10))); // scan
        accesses.extend((0..5).map(|k| (k, 10))); // hot set again: all misses
        let hits = drive(&mut c, &accesses);
        assert!(hits[10..].iter().all(|h| !h), "scan must have flushed hot set");
    }
}
