//! First-In-First-Out replacement.

use crate::list::{DList, NodeId};
use crate::{Cache, Evicted, Key};
use otae_fxhash::FxHashMap;

/// Byte-capacity FIFO cache: eviction order is insertion order; hits do not
/// refresh position.
#[derive(Debug, Clone)]
pub struct Fifo<K> {
    capacity: u64,
    used: u64,
    /// Insertion order, front = newest.
    order: DList<K>,
    map: FxHashMap<K, (NodeId, u64)>,
}

impl<K: Key> Fifo<K> {
    /// New FIFO cache holding at most `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self { capacity, used: 0, order: DList::new(), map: FxHashMap::default() }
    }
}

impl<K: Key> Cache<K> for Fifo<K> {
    fn name(&self) -> &'static str {
        "FIFO"
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
        // FIFO ignores recency.
        self.map.contains_key(key)
    }

    fn insert(&mut self, key: K, size: u64, _now: u64, evicted: &mut Vec<Evicted<K>>) {
        if size > self.capacity || self.map.contains_key(&key) {
            return;
        }
        while self.used + size > self.capacity {
            let victim = self.order.pop_back().expect("over capacity implies nonempty");
            let (_, vsize) = self.map.remove(&victim).expect("map/list in sync");
            self.used -= vsize;
            evicted.push(Evicted { key: victim, size: vsize });
        }
        let node = self.order.push_front(key);
        self.map.insert(key, (node, size));
        self.used += size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{check_capacity_invariant, drive};

    #[test]
    fn evicts_in_insertion_order_despite_hits() {
        let mut c = Fifo::new(30);
        // Hit on 1 does NOT save it: FIFO evicts 1 first anyway.
        let hits = drive(&mut c, &[(1, 10), (2, 10), (3, 10), (1, 10), (4, 10)]);
        assert_eq!(hits, vec![false, false, false, true, false]);
        assert!(!c.contains(&1));
        assert!(c.contains(&2));
        assert!(c.contains(&4));
        check_capacity_invariant(&c);
    }

    #[test]
    fn oversized_object_is_not_cached() {
        let mut c = Fifo::new(10);
        let mut ev = Vec::new();
        c.insert(1u64, 11, 0, &mut ev);
        assert!(c.is_empty());
    }

    #[test]
    fn fifo_and_lru_agree_without_reuse() {
        // With no re-accesses, FIFO and LRU behave identically.
        let accesses: Vec<(u64, u64)> = (0..100).map(|k| (k, 7)).collect();
        let mut f = Fifo::new(50);
        let mut l = crate::Lru::new(50);
        let hf = drive(&mut f, &accesses);
        let hl = drive(&mut l, &accesses);
        assert_eq!(hf, hl);
        assert_eq!(f.len(), l.len());
    }
}
