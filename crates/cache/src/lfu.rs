//! Least-Frequently-Used replacement (classical baseline; ties broken by age).

use crate::{Cache, Evicted, Key};
use otae_fxhash::FxHashMap;
use std::collections::BTreeSet;

#[derive(Debug, Clone, Copy)]
struct Entry {
    freq: u64,
    seq: u64,
    size: u64,
}

/// Byte-capacity LFU cache. Victim = lowest access frequency; among equals,
/// the oldest insertion (smallest sequence number) goes first.
#[derive(Debug, Clone)]
pub struct Lfu<K> {
    capacity: u64,
    used: u64,
    seq: u64,
    map: FxHashMap<K, Entry>,
    /// Ordered victim set: (freq, seq, key).
    order: BTreeSet<(u64, u64, K)>,
}

impl<K: Key> Lfu<K> {
    /// New LFU cache holding at most `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self { capacity, used: 0, seq: 0, map: FxHashMap::default(), order: BTreeSet::new() }
    }
}

impl<K: Key> Cache<K> for Lfu<K> {
    fn name(&self) -> &'static str {
        "LFU"
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
        let Some(e) = self.map.get_mut(key) else { return false };
        let removed = self.order.remove(&(e.freq, e.seq, *key));
        debug_assert!(removed);
        e.freq += 1;
        self.order.insert((e.freq, e.seq, *key));
        true
    }

    fn insert(&mut self, key: K, size: u64, _now: u64, evicted: &mut Vec<Evicted<K>>) {
        if size > self.capacity || self.map.contains_key(&key) {
            return;
        }
        while self.used + size > self.capacity {
            let victim = *self.order.iter().next().expect("over capacity implies nonempty");
            self.order.remove(&victim);
            let entry = self.map.remove(&victim.2).expect("map/order in sync");
            self.used -= entry.size;
            evicted.push(Evicted { key: victim.2, size: entry.size });
        }
        let entry = Entry { freq: 1, seq: self.seq, size };
        self.seq += 1;
        self.order.insert((entry.freq, entry.seq, key));
        self.map.insert(key, entry);
        self.used += size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{check_capacity_invariant, drive};

    #[test]
    fn evicts_least_frequent() {
        let mut c = Lfu::new(30);
        // 1 accessed 3x, 2 accessed 2x, 3 accessed 1x; inserting 4 evicts 3.
        drive(&mut c, &[(1, 10), (2, 10), (3, 10), (1, 10), (1, 10), (2, 10), (4, 10)]);
        assert!(c.contains(&1));
        assert!(c.contains(&2));
        assert!(!c.contains(&3));
        assert!(c.contains(&4));
        check_capacity_invariant(&c);
    }

    #[test]
    fn ties_broken_by_age() {
        let mut c = Lfu::new(20);
        let mut ev = Vec::new();
        c.insert(1u64, 10, 0, &mut ev);
        c.insert(2u64, 10, 1, &mut ev);
        c.insert(3u64, 10, 2, &mut ev); // both freq 1 -> evict older (1)
        assert_eq!(ev, vec![Evicted { key: 1, size: 10 }]);
    }

    #[test]
    fn frequency_survives_pressure() {
        let mut c = Lfu::new(30);
        let mut accesses = vec![(1u64, 10u64); 10]; // key 1 very hot
        accesses.extend((10..30).map(|k| (k, 10)));
        drive(&mut c, &accesses);
        assert!(c.contains(&1), "hot key must survive a scan under LFU");
        check_capacity_invariant(&c);
    }

    #[test]
    fn oversized_object_is_not_cached() {
        let mut c = Lfu::new(5);
        let mut ev = Vec::new();
        c.insert(9u64, 6, 0, &mut ev);
        assert!(c.is_empty());
    }
}
