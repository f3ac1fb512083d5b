//! ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST '03), adapted to
//! byte-granular object sizes.
//!
//! Resident objects live in `T1` (seen once recently) or `T2` (seen at least
//! twice); evicted objects leave a ghost entry in `B1`/`B2`. Ghost hits move
//! the adaptive target `p` (bytes the policy would like `T1` to occupy):
//! a `B1` hit grows `p` (recency is winning), a `B2` hit shrinks it. The
//! byte-size adaptation scales each nudge by the object size and the relative
//! ghost-list weights, degenerating to the classic unit-size rule when all
//! objects have equal size.

use crate::list::{DList, NodeId};
use crate::{Cache, Evicted, Key};
use otae_fxhash::FxHashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    T1,
    T2,
    B1,
    B2,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    loc: Loc,
    node: NodeId,
    size: u64,
}

/// Byte-capacity ARC cache.
#[derive(Debug, Clone)]
pub struct ArcCache<K> {
    capacity: u64,
    /// Adaptive target size of T1 in bytes.
    p: u64,
    t1: DList<K>,
    t2: DList<K>,
    b1: DList<K>,
    b2: DList<K>,
    t1_bytes: u64,
    t2_bytes: u64,
    b1_bytes: u64,
    b2_bytes: u64,
    map: FxHashMap<K, Slot>,
}

impl<K: Key> ArcCache<K> {
    /// New ARC cache holding at most `capacity` bytes of resident objects.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            p: 0,
            t1: DList::new(),
            t2: DList::new(),
            b1: DList::new(),
            b2: DList::new(),
            t1_bytes: 0,
            t2_bytes: 0,
            b1_bytes: 0,
            b2_bytes: 0,
            map: FxHashMap::default(),
        }
    }

    /// Current adaptive target for T1 bytes (exposed for tests/diagnostics).
    pub fn target_p(&self) -> u64 {
        self.p
    }

    fn resident_bytes(&self) -> u64 {
        self.t1_bytes + self.t2_bytes
    }

    /// Evict resident LRU entries until `extra` more bytes fit, moving the
    /// victims into the appropriate ghost list. `from_b2` biases the tie rule
    /// as in the original REPLACE subroutine.
    fn replace(&mut self, extra: u64, from_b2: bool, evicted: &mut Vec<Evicted<K>>) {
        while self.resident_bytes() + extra > self.capacity {
            let take_t1 = if self.t1.is_empty() {
                false
            } else if self.t2.is_empty() {
                true
            } else if from_b2 {
                self.t1_bytes >= self.p.max(1)
            } else {
                self.t1_bytes > self.p
            };
            if take_t1 {
                let key = self.t1.pop_back().expect("checked non-empty");
                let slot = self.map.get_mut(&key).expect("map in sync");
                self.t1_bytes -= slot.size;
                evicted.push(Evicted { key, size: slot.size });
                slot.loc = Loc::B1;
                slot.node = self.b1.push_front(key);
                self.b1_bytes += slot.size;
            } else {
                let key = self.t2.pop_back().expect("resident bytes > 0");
                let slot = self.map.get_mut(&key).expect("map in sync");
                self.t2_bytes -= slot.size;
                evicted.push(Evicted { key, size: slot.size });
                slot.loc = Loc::B2;
                slot.node = self.b2.push_front(key);
                self.b2_bytes += slot.size;
            }
        }
    }

    /// Directory maintenance for a brand-new key of `size` bytes, performed
    /// *before* REPLACE as in the original algorithm (Case IV): keeps
    /// `|T1| + |B1| <= c` and the whole directory `<= 2c` (in bytes).
    fn make_directory_room(&mut self, size: u64, evicted: &mut Vec<Evicted<K>>) {
        if self.t1_bytes + self.b1_bytes + size > self.capacity {
            // L1 full: recycle B1 history first.
            while self.b1_bytes > 0 && self.t1_bytes + self.b1_bytes + size > self.capacity {
                let key = self.b1.pop_back().expect("b1_bytes > 0");
                let slot = self.map.remove(&key).expect("map in sync");
                self.b1_bytes -= slot.size;
            }
            // T1 alone still overflows: evict its LRU without leaving a ghost.
            while self.t1_bytes + size > self.capacity && !self.t1.is_empty() {
                let key = self.t1.pop_back().expect("checked non-empty");
                let slot = self.map.remove(&key).expect("map in sync");
                self.t1_bytes -= slot.size;
                evicted.push(Evicted { key, size: slot.size });
            }
        }
        while self.resident_bytes() + self.b1_bytes + self.b2_bytes + size > 2 * self.capacity {
            let Some(key) = self.b2.pop_back() else { break };
            let slot = self.map.remove(&key).expect("map in sync");
            self.b2_bytes -= slot.size;
        }
    }
}

impl<K: Key> Cache<K> for ArcCache<K> {
    fn name(&self) -> &'static str {
        "ARC"
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.resident_bytes()
    }

    fn len(&self) -> usize {
        self.t1.len() + self.t2.len()
    }

    fn contains(&self, key: &K) -> bool {
        matches!(self.map.get(key), Some(Slot { loc: Loc::T1 | Loc::T2, .. }))
    }

    fn on_hit(&mut self, key: &K, _now: u64) -> bool {
        let Some(&slot) = self.map.get(key) else { return false };
        match slot.loc {
            Loc::T1 => {
                self.t1.remove(slot.node);
                self.t1_bytes -= slot.size;
                let node = self.t2.push_front(*key);
                self.t2_bytes += slot.size;
                self.map.insert(*key, Slot { loc: Loc::T2, node, size: slot.size });
            }
            Loc::T2 => self.t2.move_to_front(slot.node),
            // A ghost is a miss; its adaptation happens on insert.
            Loc::B1 | Loc::B2 => return false,
        }
        true
    }

    fn insert(&mut self, key: K, size: u64, _now: u64, evicted: &mut Vec<Evicted<K>>) {
        if size > self.capacity {
            return;
        }
        match self.map.get(&key).copied() {
            Some(slot) if slot.loc == Loc::B1 => {
                // Ghost hit in B1: grow p (favor recency).
                let ratio = if self.b1_bytes > 0 {
                    (self.b2_bytes as f64 / self.b1_bytes as f64).max(1.0)
                } else {
                    1.0
                };
                let delta = (size as f64 * ratio) as u64;
                self.p = (self.p + delta).min(self.capacity);
                self.b1.remove(slot.node);
                self.b1_bytes -= slot.size;
                self.replace(size, false, evicted);
                let node = self.t2.push_front(key);
                self.t2_bytes += size;
                self.map.insert(key, Slot { loc: Loc::T2, node, size });
            }
            Some(slot) if slot.loc == Loc::B2 => {
                // Ghost hit in B2: shrink p (favor frequency).
                let ratio = if self.b2_bytes > 0 {
                    (self.b1_bytes as f64 / self.b2_bytes as f64).max(1.0)
                } else {
                    1.0
                };
                let delta = (size as f64 * ratio) as u64;
                self.p = self.p.saturating_sub(delta);
                self.b2.remove(slot.node);
                self.b2_bytes -= slot.size;
                self.replace(size, true, evicted);
                let node = self.t2.push_front(key);
                self.t2_bytes += size;
                self.map.insert(key, Slot { loc: Loc::T2, node, size });
            }
            Some(_) => {
                // Already resident: nothing to do.
            }
            None => {
                self.make_directory_room(size, evicted);
                self.replace(size, false, evicted);
                let node = self.t1.push_front(key);
                self.t1_bytes += size;
                self.map.insert(key, Slot { loc: Loc::T1, node, size });
            }
        }
    }

    /// A bypassed miss is equivalent to an instant admit-and-evict from T1:
    /// record a B1 ghost so the adaptive machinery still sees the object.
    /// Without this, admission control starves ARC of its history signal
    /// and a misprediction costs a full extra miss.
    fn on_bypass(&mut self, key: &K, size: u64, _now: u64) {
        if size > self.capacity {
            return;
        }
        match self.map.get(key).copied() {
            Some(slot) if slot.loc == Loc::B1 => self.b1.move_to_front(slot.node),
            Some(slot) if slot.loc == Loc::B2 => self.b2.move_to_front(slot.node),
            Some(_) => {} // resident: nothing to do (driver treats as miss only when absent)
            None => {
                // Keep the L1 directory within budget before adding history.
                while self.b1_bytes > 0 && self.t1_bytes + self.b1_bytes + size > self.capacity {
                    let victim = self.b1.pop_back().expect("b1_bytes > 0");
                    let vslot = self.map.remove(&victim).expect("map in sync");
                    self.b1_bytes -= vslot.size;
                }
                if self.t1_bytes + self.b1_bytes + size > self.capacity {
                    return; // no room for history without touching residents
                }
                let node = self.b1.push_front(*key);
                self.b1_bytes += size;
                self.map.insert(*key, Slot { loc: Loc::B1, node, size });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{check_capacity_invariant, drive};

    #[test]
    fn hit_promotes_t1_to_t2() {
        let mut c = ArcCache::new(100);
        let mut ev = Vec::new();
        c.insert(1u64, 10, 0, &mut ev);
        assert_eq!(c.map[&1].loc, Loc::T1);
        c.on_hit(&1, 1);
        assert_eq!(c.map[&1].loc, Loc::T2);
        assert_eq!(c.t1_bytes, 0);
        assert_eq!(c.t2_bytes, 10);
    }

    #[test]
    fn ghost_hit_in_b1_grows_p() {
        let mut c = ArcCache::new(30);
        let mut ev = Vec::new();
        // Put key 1 into T2 so REPLACE (not the T1-full fast path) handles
        // later overflow and leaves B1 ghosts.
        c.insert(1u64, 10, 0, &mut ev);
        c.on_hit(&1, 1);
        c.insert(2u64, 10, 2, &mut ev);
        c.insert(3u64, 10, 3, &mut ev);
        c.insert(4u64, 10, 4, &mut ev); // REPLACE evicts T1 LRU (2) into B1
        assert_eq!(c.map[&2].loc, Loc::B1);
        let p_before = c.target_p();
        c.insert(2u64, 10, 5, &mut ev);
        assert!(c.target_p() > p_before, "B1 ghost hit must grow p");
        assert_eq!(c.map[&2].loc, Loc::T2, "ghost hit re-admits into T2");
        check_capacity_invariant(&c);
    }

    #[test]
    fn t1_full_cache_evicts_without_ghost() {
        // Pure miss stream: T1 occupies the whole cache; per the original
        // Case IV, its LRU is dropped without history.
        let mut c = ArcCache::new(30);
        let mut ev = Vec::new();
        for k in 1..=4u64 {
            c.insert(k, 10, k, &mut ev);
        }
        assert!(!c.map.contains_key(&1), "no ghost when T1 spans the cache");
        assert!(c.contains(&4));
        check_capacity_invariant(&c);
    }

    #[test]
    fn ghost_hit_in_b2_shrinks_p() {
        let mut c = ArcCache::new(20);
        let mut ev = Vec::new();
        // 1 gets into T2, then is evicted into B2 by pressure.
        c.insert(1u64, 10, 0, &mut ev);
        c.on_hit(&1, 1);
        c.insert(2u64, 10, 2, &mut ev);
        c.insert(3u64, 10, 3, &mut ev); // evicts 1? depends on p=0 -> prefer t2? p=0 -> t1_bytes(10)>0 -> evict t1 (2)
                                        // Force 1 out of T2 by more pressure with hits.
        c.insert(4u64, 10, 4, &mut ev);
        c.insert(5u64, 10, 5, &mut ev);
        // Find whether 1 became a B2 ghost; if so re-access shrinks p.
        if c.map.get(&1).map(|s| s.loc) == Some(Loc::B2) {
            let p_before = c.target_p();
            c.insert(1u64, 10, 6, &mut ev);
            assert!(c.target_p() <= p_before);
        }
        check_capacity_invariant(&c);
    }

    #[test]
    fn scan_resistance_beats_lru() {
        // Hot set re-accessed around a long scan: ARC keeps more of it than LRU.
        let mut accesses: Vec<(u64, u64)> = Vec::new();
        for round in 0..20 {
            for k in 0..5u64 {
                accesses.push((k, 10));
            }
            for s in 0..10u64 {
                accesses.push((1000 + round * 10 + s, 10));
            }
        }
        let mut arc = ArcCache::new(100);
        let mut lru = crate::Lru::new(100);
        let ha = drive(&mut arc, &accesses).iter().filter(|&&h| h).count();
        let hl = drive(&mut lru, &accesses).iter().filter(|&&h| h).count();
        assert!(ha >= hl, "ARC ({ha}) must be at least as scan-resistant as LRU ({hl})");
        check_capacity_invariant(&arc);
    }

    #[test]
    fn directory_bounded_by_two_capacities() {
        let mut c = ArcCache::new(50);
        let accesses: Vec<(u64, u64)> = (0..500).map(|i| ((i * 13) % 97, 7)).collect();
        drive(&mut c, &accesses);
        let dir = c.t1_bytes + c.t2_bytes + c.b1_bytes + c.b2_bytes;
        assert!(dir <= 2 * c.capacity(), "directory {dir} > 2c");
        assert!(c.t1_bytes + c.b1_bytes <= c.capacity());
        check_capacity_invariant(&c);
    }

    #[test]
    fn oversized_object_is_not_cached() {
        let mut c = ArcCache::new(10);
        let mut ev = Vec::new();
        c.insert(1u64, 11, 0, &mut ev);
        assert!(c.is_empty());
        assert!(c.map.is_empty());
    }

    #[test]
    fn p_stays_within_capacity() {
        let mut c = ArcCache::new(40);
        let accesses: Vec<(u64, u64)> =
            (0..2000).map(|i| ((i * 7) % 31, 5 + (i % 3) * 5)).collect();
        drive(&mut c, &accesses);
        assert!(c.target_p() <= c.capacity());
        check_capacity_invariant(&c);
    }
}
