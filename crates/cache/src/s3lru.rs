//! S3LRU — three-segment segmented LRU (Karedla et al., 1994).
//!
//! New objects enter the probationary segment (0); each hit promotes one
//! segment up (capped at the protected top segment 2). When a segment
//! overflows its byte share, its LRU tail is demoted one segment down;
//! evictions leave from the tail of segment 0. A single scan therefore
//! cannot displace objects that have proven reuse — the property the paper
//! credits "advanced algorithms" with (§5.2).

use crate::list::{DList, NodeId};
use crate::{Cache, Evicted, Key};
use otae_fxhash::FxHashMap;

const SEGMENTS: usize = 3;

#[derive(Debug, Clone, Copy)]
struct Slot {
    seg: u8,
    node: NodeId,
    size: u64,
}

/// Byte-capacity three-segment segmented LRU.
#[derive(Debug, Clone)]
pub struct S3Lru<K> {
    capacity: u64,
    seg_cap: [u64; SEGMENTS],
    seg_used: [u64; SEGMENTS],
    used: u64,
    /// Per-segment recency lists, front = MRU.
    segs: [DList<K>; SEGMENTS],
    map: FxHashMap<K, Slot>,
}

impl<K: Key> S3Lru<K> {
    /// New S3LRU cache holding at most `capacity` bytes, split evenly across
    /// three segments.
    pub fn new(capacity: u64) -> Self {
        let third = capacity / 3;
        Self {
            capacity,
            seg_cap: [capacity - 2 * third, third, third],
            seg_used: [0; SEGMENTS],
            used: 0,
            segs: [DList::new(), DList::new(), DList::new()],
            map: FxHashMap::default(),
        }
    }

    /// Demote the LRU tail of segment `seg` to the front of `seg - 1`.
    fn demote_tail(&mut self, seg: usize) {
        debug_assert!(seg > 0);
        if let Some(key) = self.segs[seg].pop_back() {
            let slot = self.map.get_mut(&key).expect("map/segment in sync");
            self.seg_used[seg] -= slot.size;
            self.seg_used[seg - 1] += slot.size;
            slot.seg = (seg - 1) as u8;
            slot.node = self.segs[seg - 1].push_front(key);
        }
    }

    /// Push upper-segment overflow down, then evict from segment 0 until the
    /// total fits.
    fn rebalance(&mut self, evicted: &mut Vec<Evicted<K>>) {
        for seg in (1..SEGMENTS).rev() {
            while self.seg_used[seg] > self.seg_cap[seg] {
                self.demote_tail(seg);
            }
        }
        while self.used > self.capacity {
            if self.segs[0].is_empty() {
                // Capacity pressure with an empty probationary segment:
                // demote from the lowest non-empty segment first.
                let seg = (1..SEGMENTS)
                    .find(|&s| !self.segs[s].is_empty())
                    .expect("used > 0 implies a non-empty segment");
                self.demote_tail(seg);
                continue;
            }
            let key = self.segs[0].pop_back().expect("checked non-empty");
            let slot = self.map.remove(&key).expect("map/segment in sync");
            self.seg_used[0] -= slot.size;
            self.used -= slot.size;
            evicted.push(Evicted { key, size: slot.size });
        }
    }
}

impl<K: Key> Cache<K> for S3Lru<K> {
    fn name(&self) -> &'static str {
        "S3LRU"
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
        let Some(&slot) = self.map.get(key) else { return false };
        let from = slot.seg as usize;
        let to = (from + 1).min(SEGMENTS - 1);
        if to == from {
            self.segs[from].move_to_front(slot.node);
            return true;
        }
        self.segs[from].remove(slot.node);
        self.seg_used[from] -= slot.size;
        self.seg_used[to] += slot.size;
        let node = self.segs[to].push_front(*key);
        self.map.insert(*key, Slot { seg: to as u8, node, size: slot.size });
        // Promotion may overflow the upper segment; total is unchanged so no
        // eviction can occur.
        let mut sink = Vec::new();
        self.rebalance(&mut sink);
        debug_assert!(sink.is_empty());
        true
    }

    fn insert(&mut self, key: K, size: u64, _now: u64, evicted: &mut Vec<Evicted<K>>) {
        if size > self.capacity || self.map.contains_key(&key) {
            return;
        }
        let node = self.segs[0].push_front(key);
        self.map.insert(key, Slot { seg: 0, node, size });
        self.seg_used[0] += size;
        self.used += size;
        self.rebalance(evicted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{check_capacity_invariant, drive};

    #[test]
    fn promoted_objects_survive_a_scan() {
        let mut c = S3Lru::new(60);
        // Make 1 and 2 "protected" via hits.
        drive(&mut c, &[(1, 10), (2, 10), (1, 10), (2, 10), (1, 10), (2, 10)]);
        // Scan with one-time objects.
        let scan: Vec<(u64, u64)> = (100..108).map(|k| (k, 10)).collect();
        drive(&mut c, &scan);
        assert!(c.contains(&1), "promoted object must survive scan");
        assert!(c.contains(&2), "promoted object must survive scan");
        check_capacity_invariant(&c);
    }

    #[test]
    fn unreferenced_objects_evict_first() {
        let mut c = S3Lru::new(30);
        drive(&mut c, &[(1, 10), (1, 10), (2, 10), (3, 10), (4, 10)]);
        assert!(c.contains(&1), "hit object promoted out of probation");
        assert!(!c.contains(&2), "probationary LRU must be the victim");
        check_capacity_invariant(&c);
    }

    #[test]
    fn segment_accounting_consistent() {
        let mut c = S3Lru::new(90);
        let accesses: Vec<(u64, u64)> = (0..200).map(|i| ((i * 7) % 23, 5 + (i % 4) * 3)).collect();
        drive(&mut c, &accesses);
        let sum: u64 = c.seg_used.iter().sum();
        assert_eq!(sum, c.used());
        let lens: usize = c.segs.iter().map(|s| s.len()).sum();
        assert_eq!(lens, c.len());
        check_capacity_invariant(&c);
    }

    #[test]
    fn hit_at_top_segment_stays_at_top() {
        let mut c = S3Lru::new(300);
        // 3 hits promote to segment 2; further hits keep it there.
        drive(&mut c, &[(1, 10), (1, 10), (1, 10), (1, 10), (1, 10)]);
        assert_eq!(c.map[&1].seg, 2);
    }

    #[test]
    fn oversized_object_is_not_cached() {
        let mut c = S3Lru::new(20);
        let mut ev = Vec::new();
        c.insert(1u64, 21, 0, &mut ev);
        assert!(c.is_empty());
    }
}
