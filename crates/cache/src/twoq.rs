//! 2Q replacement (Johnson & Shasha, VLDB '94), adapted to byte-granular
//! object sizes.
//!
//! New objects enter a small FIFO (`A1in`). Objects evicted from `A1in`
//! leave a ghost key in `A1out`; only a re-reference while in `A1out`
//! promotes an object into the main LRU (`Am`). One-time objects therefore
//! transit `A1in` without ever touching `Am` — 2Q is a *replacement-side*
//! answer to the same one-hit-wonder problem the paper attacks with
//! admission control, which makes it a natural extra baseline.

use crate::list::{DList, NodeId};
use crate::{Cache, Evicted, Key};
use otae_fxhash::FxHashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    A1In,
    Am,
    Ghost,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    loc: Loc,
    node: NodeId,
    size: u64,
}

/// Byte-capacity 2Q cache.
#[derive(Debug, Clone)]
pub struct TwoQ<K> {
    capacity: u64,
    /// Byte budget of `A1in` (classic Kin ≈ 25 % of capacity).
    kin: u64,
    /// Byte budget of the `A1out` ghost list. The classic paper sizes Kout
    /// at 50 % of the cache *in pages*; here it is byte-denominated, so
    /// workloads with deep reuse distances may want a larger share
    /// (ghosts cost metadata only) via [`TwoQ::with_shares`].
    kout: u64,
    a1in: DList<K>,
    a1out: DList<K>,
    am: DList<K>,
    a1in_bytes: u64,
    a1out_bytes: u64,
    am_bytes: u64,
    map: FxHashMap<K, Slot>,
}

impl<K: Key> TwoQ<K> {
    /// New 2Q cache with the classic 25 % / 50 % queue shares.
    pub fn new(capacity: u64) -> Self {
        Self::with_shares(capacity, 0.25, 0.5)
    }

    /// New 2Q cache with explicit `A1in` and `A1out` byte shares.
    pub fn with_shares(capacity: u64, kin_share: f64, kout_share: f64) -> Self {
        assert!((0.0..=1.0).contains(&kin_share) && kout_share >= 0.0);
        Self {
            capacity,
            kin: ((capacity as f64 * kin_share) as u64).max(1),
            kout: (capacity as f64 * kout_share) as u64,
            a1in: DList::new(),
            a1out: DList::new(),
            am: DList::new(),
            a1in_bytes: 0,
            a1out_bytes: 0,
            am_bytes: 0,
            map: FxHashMap::default(),
        }
    }

    fn trim_ghosts(&mut self) {
        while self.a1out_bytes > self.kout {
            let Some(key) = self.a1out.pop_back() else { break };
            let slot = self.map.remove(&key).expect("ghost mapped");
            self.a1out_bytes -= slot.size;
        }
    }

    /// Evict one resident object per the 2Q RECLAIM rule.
    fn reclaim(&mut self, evicted: &mut Vec<Evicted<K>>) {
        if self.a1in_bytes > self.kin || self.am.is_empty() {
            if let Some(key) = self.a1in.pop_back() {
                let slot = self.map.get_mut(&key).expect("a1in mapped");
                self.a1in_bytes -= slot.size;
                evicted.push(Evicted { key, size: slot.size });
                // Leave a ghost so a quick return promotes into Am.
                slot.loc = Loc::Ghost;
                slot.node = self.a1out.push_front(key);
                self.a1out_bytes += slot.size;
                self.trim_ghosts();
                return;
            }
        }
        if let Some(key) = self.am.pop_back() {
            let slot = self.map.remove(&key).expect("am mapped");
            self.am_bytes -= slot.size;
            evicted.push(Evicted { key, size: slot.size });
        }
    }
}

impl<K: Key> Cache<K> for TwoQ<K> {
    fn name(&self) -> &'static str {
        "2Q"
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.a1in_bytes + self.am_bytes
    }

    fn len(&self) -> usize {
        self.a1in.len() + self.am.len()
    }

    fn contains(&self, key: &K) -> bool {
        matches!(self.map.get(key), Some(Slot { loc: Loc::A1In | Loc::Am, .. }))
    }

    fn on_hit(&mut self, key: &K, _now: u64) -> bool {
        let Some(&slot) = self.map.get(key) else { return false };
        match slot.loc {
            Loc::Am => self.am.move_to_front(slot.node),
            Loc::A1In => {} // classic 2Q: A1in stays FIFO on hits
            // A ghost is a miss; its promotion happens on insert.
            Loc::Ghost => return false,
        }
        true
    }

    fn insert(&mut self, key: K, size: u64, _now: u64, evicted: &mut Vec<Evicted<K>>) {
        if size > self.capacity || self.contains(&key) {
            return;
        }
        while self.used() + size > self.capacity {
            self.reclaim(evicted);
        }
        match self.map.get(&key).copied() {
            Some(slot) if slot.loc == Loc::Ghost => {
                // Re-reference within A1out depth: proven reuse, into Am.
                self.a1out.remove(slot.node);
                self.a1out_bytes -= slot.size;
                let node = self.am.push_front(key);
                self.am_bytes += size;
                self.map.insert(key, Slot { loc: Loc::Am, node, size });
            }
            _ => {
                let node = self.a1in.push_front(key);
                self.a1in_bytes += size;
                self.map.insert(key, Slot { loc: Loc::A1In, node, size });
            }
        }
    }

    /// A bypassed miss is equivalent to an instant pass through `A1in`:
    /// record the ghost so a quick return is promoted into `Am`.
    fn on_bypass(&mut self, key: &K, size: u64, _now: u64) {
        if size > self.capacity || self.contains(key) {
            return;
        }
        match self.map.get(key).copied() {
            Some(slot) if slot.loc == Loc::Ghost => self.a1out.move_to_front(slot.node),
            _ => {
                let node = self.a1out.push_front(*key);
                self.a1out_bytes += size;
                self.map.insert(*key, Slot { loc: Loc::Ghost, node, size });
                self.trim_ghosts();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{check_capacity_invariant, drive};

    #[test]
    fn one_time_objects_never_reach_am() {
        let mut c = TwoQ::new(100);
        let scan: Vec<(u64, u64)> = (0..50).map(|k| (k, 10)).collect();
        drive(&mut c, &scan);
        assert!(c.am.is_empty(), "one-time stream must not populate Am");
        check_capacity_invariant(&c);
    }

    #[test]
    fn ghost_reference_promotes_to_am() {
        let mut c = TwoQ::new(40); // kin = 10
        let mut ev = Vec::new();
        c.insert(1u64, 10, 0, &mut ev);
        // Push 1 out of A1in into the ghost list.
        c.insert(2u64, 10, 1, &mut ev);
        c.insert(3u64, 10, 2, &mut ev);
        c.insert(4u64, 10, 3, &mut ev);
        c.insert(5u64, 10, 4, &mut ev);
        if c.map.get(&1).map(|s| s.loc) == Some(Loc::Ghost) {
            c.insert(1u64, 10, 5, &mut ev);
            assert_eq!(c.map[&1].loc, Loc::Am, "ghost hit promotes to Am");
        } else {
            // Under byte budgets 1 may still be resident; force more churn.
            for k in 6..12u64 {
                c.insert(k, 10, k, &mut ev);
            }
            assert!(c.map.get(&1).is_none_or(|s| s.loc != Loc::A1In));
        }
        check_capacity_invariant(&c);
    }

    #[test]
    fn am_retains_hot_objects_through_scans() {
        // Deep ghost list (kout = 2x capacity in bytes) so the promotion
        // round-trip survives the churn.
        let mut c = TwoQ::with_shares(60, 0.2, 2.0);
        let mut accesses: Vec<(u64, u64)> = vec![(1, 10)];
        accesses.extend((100..106).map(|k| (k, 10))); // pressure flushes 1 to ghost
        accesses.push((1, 10)); // ghost hit -> Am
        accesses.extend((200..220).map(|k| (k, 10))); // long scan hits A1in only
        drive(&mut c, &accesses);
        assert_eq!(c.map.get(&1).map(|s| s.loc), Some(Loc::Am));
        assert!(c.contains(&1), "Am object must survive the scan");
        check_capacity_invariant(&c);
    }

    #[test]
    fn twoq_beats_lru_on_scan_heavy_mix() {
        let mut accesses: Vec<(u64, u64)> = Vec::new();
        for round in 0..30u64 {
            for k in 0..4u64 {
                accesses.push((k, 10));
            }
            for s in 0..8u64 {
                accesses.push((1000 + round * 8 + s, 10));
            }
        }
        let mut q = TwoQ::with_shares(80, 0.25, 2.0);
        let mut l = crate::Lru::new(80);
        let hq = drive(&mut q, &accesses).iter().filter(|&&h| h).count();
        let hl = drive(&mut l, &accesses).iter().filter(|&&h| h).count();
        assert!(hq > hl, "2Q {hq} must beat LRU {hl} on scan-heavy mixes");
    }

    #[test]
    fn ghost_budget_is_bounded() {
        let mut c = TwoQ::new(100);
        let scan: Vec<(u64, u64)> = (0..10_000).map(|k| (k, 10)).collect();
        drive(&mut c, &scan);
        assert!(c.a1out_bytes <= c.kout, "ghost bytes {} > kout {}", c.a1out_bytes, c.kout);
        check_capacity_invariant(&c);
    }

    #[test]
    fn oversized_object_is_not_cached() {
        let mut c = TwoQ::new(10);
        let mut ev = Vec::new();
        c.insert(1u64, 11, 0, &mut ev);
        assert!(c.is_empty());
    }

    #[test]
    fn bypass_leaves_ghost_for_fast_promotion() {
        let mut c = TwoQ::new(100);
        c.on_bypass(&1u64, 10, 0);
        assert!(!c.contains(&1));
        let mut ev = Vec::new();
        c.insert(1u64, 10, 1, &mut ev);
        assert_eq!(c.map[&1].loc, Loc::Am, "bypassed-then-returned goes to Am");
        check_capacity_invariant(&c);
    }
}
