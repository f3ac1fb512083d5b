//! LIRS — Low Inter-reference Recency Set replacement (Jiang & Zhang,
//! SIGMETRICS '02), adapted to byte-granular object sizes.
//!
//! Blocks with low inter-reference recency (LIR) occupy most of the cache
//! (stack `S`); high inter-reference recency (HIR) blocks share a small
//! resident queue `Q` and are the eviction victims. Non-resident HIR blocks
//! keep a ghost entry in `S` so a quick re-reference can promote them to LIR.
//!
//! The paper's one-time-access criteria for LIRS uses the stack share
//! `R_s = C_s / C` (§5.2); [`Lirs::lir_fraction`] exposes it.

use crate::list::{DList, NodeId};
use crate::{Cache, Evicted, Key};
use otae_fxhash::FxHashMap;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Lir,
    HirResident,
    HirGhost,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    state: State,
    s_node: Option<NodeId>,
    q_node: Option<NodeId>,
    size: u64,
}

/// Byte-capacity LIRS cache.
#[derive(Debug, Clone)]
pub struct Lirs<K> {
    capacity: u64,
    /// Byte budget for the LIR set (`C_s`).
    lir_cap: u64,
    lir_bytes: u64,
    hir_bytes: u64,
    /// LIRS stack: front = most recent. Holds LIR, resident HIR and ghost
    /// entries.
    s: DList<K>,
    /// Resident-HIR queue: front = eviction victim.
    q: DList<K>,
    map: FxHashMap<K, Slot>,
    /// Ghost insertion order for bounding stack growth.
    ghost_fifo: VecDeque<K>,
    ghosts: usize,
}

impl<K: Key> Lirs<K> {
    /// New LIRS cache with the conventional 1 % HIR share.
    pub fn new(capacity: u64) -> Self {
        Self::with_hir_fraction(capacity, 0.01)
    }

    /// New LIRS cache reserving `hir_fraction` of the bytes for resident HIR
    /// blocks (`1 − R_s`).
    pub fn with_hir_fraction(capacity: u64, hir_fraction: f64) -> Self {
        assert!((0.0..1.0).contains(&hir_fraction), "hir fraction in [0,1)");
        let hir_cap = ((capacity as f64 * hir_fraction) as u64).max(1).min(capacity);
        Self {
            capacity,
            lir_cap: capacity - hir_cap,
            lir_bytes: 0,
            hir_bytes: 0,
            s: DList::new(),
            q: DList::new(),
            map: FxHashMap::default(),
            ghost_fifo: VecDeque::new(),
            ghosts: 0,
        }
    }

    /// Stack share `R_s = C_s / C` used by the paper's `M_LIRS` criteria.
    pub fn lir_fraction(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.lir_cap as f64 / self.capacity as f64
        }
    }

    /// Remove non-LIR entries from the stack bottom (stack pruning).
    fn prune(&mut self) {
        while let Some(bottom) = self.s.back() {
            let key = *self.s.get(bottom);
            let slot = self.map.get_mut(&key).expect("stack entries are mapped");
            match slot.state {
                State::Lir => break,
                State::HirResident => {
                    self.s.remove(bottom);
                    slot.s_node = None;
                }
                State::HirGhost => {
                    self.s.remove(bottom);
                    self.map.remove(&key);
                    self.ghosts -= 1;
                }
            }
        }
    }

    /// Demote the LIR block at the stack bottom into the HIR queue.
    fn demote_bottom_lir(&mut self) {
        self.prune();
        let Some(bottom) = self.s.back() else { return };
        let key = self.s.remove(bottom);
        let slot = self.map.get_mut(&key).expect("stack entries are mapped");
        debug_assert_eq!(slot.state, State::Lir);
        slot.state = State::HirResident;
        slot.s_node = None;
        slot.q_node = Some(self.q.push_back(key));
        self.lir_bytes -= slot.size;
        self.hir_bytes += slot.size;
        self.prune();
    }

    /// Evict resident bytes until `extra` more bytes fit.
    fn make_room(&mut self, extra: u64, evicted: &mut Vec<Evicted<K>>) {
        while self.lir_bytes + self.hir_bytes + extra > self.capacity {
            if self.q.is_empty() {
                self.demote_bottom_lir();
                continue;
            }
            let front = self.q.front().expect("checked non-empty");
            let key = self.q.remove(front);
            let slot = self.map.get_mut(&key).expect("queue entries are mapped");
            debug_assert_eq!(slot.state, State::HirResident);
            self.hir_bytes -= slot.size;
            evicted.push(Evicted { key, size: slot.size });
            slot.q_node = None;
            if slot.s_node.is_some() {
                slot.state = State::HirGhost;
                self.ghosts += 1;
                self.ghost_fifo.push_back(key);
            } else {
                self.map.remove(&key);
            }
        }
    }

    /// Promote a stack entry to LIR, rebalancing the LIR byte budget.
    fn promote_to_lir(&mut self, key: K) {
        let slot = self.map.get_mut(&key).expect("promotion target mapped");
        slot.state = State::Lir;
        let size = slot.size;
        if let Some(q_node) = slot.q_node.take() {
            self.q.remove(q_node);
            self.hir_bytes -= size;
        }
        self.lir_bytes += size;
        let s_node = slot.s_node.expect("promotion requires stack presence");
        self.s.move_to_front(s_node);
        self.prune();
        while self.lir_bytes > self.lir_cap {
            self.demote_bottom_lir();
        }
    }

    /// Bound ghost entries: the stack may hold at most a few times the
    /// resident population; surplus ghosts are dropped oldest-first.
    fn trim_ghosts(&mut self) {
        let resident = self.map.len() - self.ghosts;
        let limit = 3 * resident + 100;
        while self.ghosts > limit {
            let Some(key) = self.ghost_fifo.pop_front() else { break };
            match self.map.get(&key) {
                Some(slot) if slot.state == State::HirGhost => {
                    let s_node = slot.s_node.expect("ghosts live in the stack");
                    self.s.remove(s_node);
                    self.map.remove(&key);
                    self.ghosts -= 1;
                }
                _ => {} // re-admitted since; stale fifo entry
            }
        }
        self.prune();
    }
}

impl<K: Key> Cache<K> for Lirs<K> {
    fn name(&self) -> &'static str {
        "LIRS"
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.lir_bytes + self.hir_bytes
    }

    fn len(&self) -> usize {
        self.map.values().filter(|s| matches!(s.state, State::Lir | State::HirResident)).count()
    }

    fn contains(&self, key: &K) -> bool {
        matches!(self.map.get(key), Some(Slot { state: State::Lir | State::HirResident, .. }))
    }

    fn on_hit(&mut self, key: &K, _now: u64) -> bool {
        let Some(&slot) = self.map.get(key) else { return false };
        match slot.state {
            State::Lir => {
                self.s.move_to_front(slot.s_node.expect("LIR blocks live in the stack"));
                self.prune();
            }
            State::HirResident => {
                if slot.s_node.is_some() {
                    // In the stack: low IRR confirmed — promote to LIR.
                    self.promote_to_lir(*key);
                } else {
                    // Only in Q: refresh both recencies.
                    let s_node = self.s.push_front(*key);
                    let q_node = slot.q_node.expect("resident HIR outside S is in Q");
                    self.q.move_to_back(q_node);
                    let slot = self.map.get_mut(key).expect("mapped");
                    slot.s_node = Some(s_node);
                }
            }
            // A ghost is a miss; its promotion happens on insert.
            State::HirGhost => return false,
        }
        true
    }

    fn insert(&mut self, key: K, size: u64, _now: u64, evicted: &mut Vec<Evicted<K>>) {
        if size > self.capacity || self.contains(&key) {
            return;
        }
        self.make_room(size, evicted);
        let ghost = matches!(self.map.get(&key), Some(s) if s.state == State::HirGhost);
        if ghost {
            // Re-reference within stack depth: straight to LIR.
            self.ghosts -= 1;
            {
                let slot = self.map.get_mut(&key).expect("mapped ghost");
                slot.state = State::HirResident; // transient; promote handles budgets
                slot.q_node = None;
            }
            // Promote: ghost had no resident bytes, so add size as LIR.
            // The object may return with a different size (e.g. re-encoded
            // photo); the resident entry must carry the current one.
            let slot = self.map.get_mut(&key).expect("mapped ghost");
            slot.state = State::Lir;
            slot.size = size;
            self.lir_bytes += size;
            let s_node = slot.s_node.expect("ghosts live in the stack");
            self.s.move_to_front(s_node);
            self.prune();
            while self.lir_bytes > self.lir_cap {
                self.demote_bottom_lir();
            }
        } else if self.lir_bytes + size <= self.lir_cap {
            // Warm-up: the LIR set is not full yet.
            let s_node = self.s.push_front(key);
            self.map
                .insert(key, Slot { state: State::Lir, s_node: Some(s_node), q_node: None, size });
            self.lir_bytes += size;
        } else {
            // New block: resident HIR.
            let s_node = self.s.push_front(key);
            let q_node = self.q.push_back(key);
            self.map.insert(
                key,
                Slot {
                    state: State::HirResident,
                    s_node: Some(s_node),
                    q_node: Some(q_node),
                    size,
                },
            );
            self.hir_bytes += size;
        }
        self.trim_ghosts();
    }

    /// A bypassed miss still registers recency: leave a non-resident ghost
    /// at the stack top (as if admitted and instantly evicted from Q), so a
    /// quick return exhibits low IRR and is promoted to LIR on admission.
    fn on_bypass(&mut self, key: &K, size: u64, _now: u64) {
        if size > self.capacity || self.contains(key) {
            return;
        }
        match self.map.get(key).copied() {
            Some(slot) if slot.state == State::HirGhost => {
                self.s.move_to_front(slot.s_node.expect("ghosts live in the stack"));
            }
            _ => {
                let s_node = self.s.push_front(*key);
                self.map.insert(
                    *key,
                    Slot { state: State::HirGhost, s_node: Some(s_node), q_node: None, size },
                );
                self.ghosts += 1;
                self.ghost_fifo.push_back(*key);
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
    fn warmup_fills_lir_set() {
        let mut c = Lirs::with_hir_fraction(100, 0.2);
        let mut ev = Vec::new();
        c.insert(1u64, 40, 0, &mut ev);
        c.insert(2u64, 40, 1, &mut ev);
        assert_eq!(c.map[&1].state, State::Lir);
        assert_eq!(c.map[&2].state, State::Lir);
        // Third object exceeds the 80-byte LIR budget: resident HIR.
        c.insert(3u64, 15, 2, &mut ev);
        assert_eq!(c.map[&3].state, State::HirResident);
        check_capacity_invariant(&c);
    }

    #[test]
    fn hir_victim_leaves_ghost_and_fast_reaccess_promotes() {
        let mut c = Lirs::with_hir_fraction(100, 0.2);
        let mut ev = Vec::new();
        c.insert(1u64, 40, 0, &mut ev);
        c.insert(2u64, 40, 1, &mut ev);
        c.insert(3u64, 15, 2, &mut ev);
        c.insert(4u64, 15, 3, &mut ev); // evicts 3 (Q front), leaving a ghost
        assert_eq!(ev, vec![Evicted { key: 3, size: 15 }]);
        assert_eq!(c.map[&3].state, State::HirGhost);
        // Ghost re-reference: promoted to LIR (low IRR).
        c.insert(3u64, 15, 4, &mut ev);
        assert_eq!(c.map[&3].state, State::Lir);
        check_capacity_invariant(&c);
    }

    #[test]
    fn lir_blocks_resist_scans() {
        let mut c = Lirs::with_hir_fraction(100, 0.2);
        // Establish LIR working set.
        drive(&mut c, &[(1, 40), (2, 40), (1, 40), (2, 40)]);
        // Long one-time scan: only the HIR queue churns.
        let scan: Vec<(u64, u64)> = (100..150).map(|k| (k, 15)).collect();
        drive(&mut c, &scan);
        assert!(c.contains(&1), "LIR block must survive scan");
        assert!(c.contains(&2), "LIR block must survive scan");
        check_capacity_invariant(&c);
    }

    #[test]
    fn lirs_beats_lru_on_looping_pattern() {
        // Loop slightly larger than the cache: LRU gets 0 hits, LIRS keeps a
        // stable LIR subset.
        let loop_keys: Vec<(u64, u64)> = (0..12).map(|k| (k, 10)).collect();
        let mut accesses = Vec::new();
        for _ in 0..20 {
            accesses.extend(loop_keys.iter().copied());
        }
        let mut lirs = Lirs::new(100);
        let mut lru = crate::Lru::new(100);
        let h_lirs = drive(&mut lirs, &accesses).iter().filter(|&&h| h).count();
        let h_lru = drive(&mut lru, &accesses).iter().filter(|&&h| h).count();
        assert!(h_lirs > h_lru, "LIRS {h_lirs} vs LRU {h_lru}");
        check_capacity_invariant(&lirs);
    }

    #[test]
    fn byte_accounting_stays_consistent() {
        let mut c = Lirs::new(200);
        let accesses: Vec<(u64, u64)> =
            (0..3000).map(|i| ((i * 17) % 61, 5 + (i % 7) * 4)).collect();
        drive(&mut c, &accesses);
        let resident: u64 = c
            .map
            .values()
            .filter(|s| matches!(s.state, State::Lir | State::HirResident))
            .map(|s| s.size)
            .sum();
        assert_eq!(resident, c.used());
        check_capacity_invariant(&c);
    }

    #[test]
    fn lir_fraction_reflects_configuration() {
        let c: Lirs<u64> = Lirs::with_hir_fraction(1000, 0.25);
        assert!((c.lir_fraction() - 0.75).abs() < 1e-9);
        let d: Lirs<u64> = Lirs::new(1000);
        assert!((d.lir_fraction() - 0.99).abs() < 0.01);
    }

    #[test]
    fn ghost_population_is_bounded() {
        let mut c = Lirs::new(100);
        // Endless stream of one-time objects.
        let accesses: Vec<(u64, u64)> = (0..20_000).map(|k| (k, 10)).collect();
        drive(&mut c, &accesses);
        assert!(c.ghosts <= 3 * (c.len()) + 100 + 1, "ghosts {} unbounded", c.ghosts);
        check_capacity_invariant(&c);
    }

    #[test]
    fn oversized_object_is_not_cached() {
        let mut c = Lirs::new(10);
        let mut ev = Vec::new();
        c.insert(1u64, 11, 0, &mut ev);
        assert!(c.is_empty());
    }
}
