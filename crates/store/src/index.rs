//! The in-memory key index and per-segment liveness accounting.
//!
//! The index is the single source of truth for "which bytes are live": a
//! key maps to exactly one `(segment, offset, len)` location, and every
//! insert/remove keeps the owning segments' live-byte counters in step, so
//! compaction can pick its victim (the *deadest* sealed segment — lowest
//! live fraction) in O(segments) with no disk scan.

use crate::backend::SegmentId;
use otae_fxhash::FxHashMap;

/// Where a key's current record lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Location {
    /// Owning segment.
    pub segment: SegmentId,
    /// Byte offset of the record header within the segment.
    pub offset: u64,
    /// Total encoded record length (header + payload).
    pub len: u64,
}

/// Per-segment byte accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Bytes appended to the segment (records only, excluding the segment
    /// header).
    pub total_bytes: u64,
    /// Bytes belonging to records the index still points at.
    pub live_bytes: u64,
    /// Records appended (puts + tombstones).
    pub records: u64,
    /// Whether the segment is sealed (no longer the append target).
    pub sealed: bool,
}

/// Key → location map plus segment liveness and on-disk put counts.
#[derive(Debug, Default)]
pub struct StoreIndex {
    entries: FxHashMap<u64, Location>,
    segments: FxHashMap<SegmentId, SegmentInfo>,
    /// Put records physically present per key, across *all* segments —
    /// including stale versions the index no longer points at. Compaction
    /// uses this to decide whether a tombstone still shadows an older put
    /// in some other segment and must be rewritten, or can be dropped.
    puts_on_disk: FxHashMap<u64, u32>,
}

impl StoreIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live key count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no key is live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total live bytes across all segments.
    pub fn live_bytes(&self) -> u64 {
        self.segments.values().map(|s| s.live_bytes).sum()
    }

    /// Location of a key's current record.
    pub fn get(&self, key: u64) -> Option<Location> {
        self.entries.get(&key).copied()
    }

    /// Register a segment (idempotent).
    pub fn add_segment(&mut self, seg: SegmentId) {
        self.segments.entry(seg).or_default();
    }

    /// Mark a segment sealed (eligible as a compaction victim).
    pub fn seal_segment(&mut self, seg: SegmentId) {
        self.segments.entry(seg).or_default().sealed = true;
    }

    /// Account a put record appended at `loc` and point the key at it.
    /// Any previous location's bytes go dead.
    pub fn apply_put(&mut self, key: u64, loc: Location) {
        let info = self.segments.entry(loc.segment).or_default();
        info.total_bytes += loc.len;
        info.records += 1;
        info.live_bytes += loc.len;
        *self.puts_on_disk.entry(key).or_insert(0) += 1;
        if let Some(old) = self.entries.insert(key, loc) {
            if let Some(info) = self.segments.get_mut(&old.segment) {
                info.live_bytes = info.live_bytes.saturating_sub(old.len);
            }
        }
    }

    /// Account a tombstone record of `len` bytes appended to `seg` and
    /// remove the key. Tombstone bytes are dead on arrival — they are never
    /// pointed at by the index — which makes delete-heavy segments
    /// naturally attractive compaction victims.
    pub fn apply_tombstone(&mut self, key: u64, seg: SegmentId, len: u64) {
        let info = self.segments.entry(seg).or_default();
        info.total_bytes += len;
        info.records += 1;
        if let Some(old) = self.entries.remove(&key) {
            if let Some(info) = self.segments.get_mut(&old.segment) {
                info.live_bytes = info.live_bytes.saturating_sub(old.len);
            }
        }
    }

    /// Account a put record compaction rewrote to `to` and re-point the key
    /// at it. The copy is on disk either way — its bytes, record and put
    /// count land in `to.segment` like any other put's — but the key only
    /// moves (and the copy only counts as live) if it still points at
    /// `from`: a newer put wins and leaves the rewrite dead on arrival.
    pub fn relocate(&mut self, key: u64, from: Location, to: Location) -> bool {
        let moved = match self.entries.get_mut(&key) {
            Some(cur) if *cur == from => {
                *cur = to;
                true
            }
            _ => false,
        };
        *self.puts_on_disk.entry(key).or_insert(0) += 1;
        let dest = self.segments.entry(to.segment).or_default();
        dest.total_bytes += to.len;
        dest.records += 1;
        if moved {
            dest.live_bytes += to.len;
            if let Some(info) = self.segments.get_mut(&from.segment) {
                info.live_bytes = info.live_bytes.saturating_sub(from.len);
            }
        }
        moved
    }

    /// Account a tombstone of `len` bytes compaction rewrote into `seg`:
    /// bytes and a record, dead on arrival. Unlike
    /// [`StoreIndex::apply_tombstone`] it never touches the key — it
    /// restates an old removal and must not shadow anything newer.
    pub fn apply_gc_tombstone(&mut self, seg: SegmentId, len: u64) {
        let info = self.segments.entry(seg).or_default();
        info.total_bytes += len;
        info.records += 1;
    }

    /// Drop a segment's accounting after compaction deleted it, adjusting
    /// the on-disk put counts by `puts_in_segment` (key → count scanned
    /// from the segment during the rewrite pass).
    pub fn forget_segment(&mut self, seg: SegmentId, puts_in_segment: &FxHashMap<u64, u32>) {
        self.segments.remove(&seg);
        for (&key, &n) in puts_in_segment {
            if let Some(count) = self.puts_on_disk.get_mut(&key) {
                *count = count.saturating_sub(n);
                if *count == 0 {
                    self.puts_on_disk.remove(&key);
                }
            }
        }
    }

    /// Put records physically on disk for `key` (all versions).
    pub fn puts_on_disk(&self, key: u64) -> u32 {
        self.puts_on_disk.get(&key).copied().unwrap_or(0)
    }

    /// Number of tracked segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The sealed segment with the lowest live fraction, if any sealed
    /// segment exists. Ties break toward the lowest id so victim selection
    /// is deterministic.
    pub fn deadest_segment(&self) -> Option<(SegmentId, SegmentInfo)> {
        self.segments
            .iter()
            .filter(|(_, info)| info.sealed)
            .min_by(|(ida, a), (idb, b)| {
                // live/total compared as cross-multiplied integers: no
                // float, no divide-by-zero (empty sealed segments sort
                // first, as fully dead).
                (a.live_bytes * b.total_bytes.max(1))
                    .cmp(&(b.live_bytes * a.total_bytes.max(1)))
                    .then(ida.cmp(idb))
            })
            .map(|(&id, &info)| (id, info))
    }

    /// `(total, dead)` record bytes across sealed segments — what
    /// compaction could work on, and what it would reclaim — in one pass
    /// over the tracked segments. The auto-compaction trigger reads this
    /// at every dry intake and every flush, so it must not cost a lookup
    /// per segment id ever issued: ids only grow, tracked segments do not.
    pub fn sealed_bytes(&self) -> (u64, u64) {
        self.segments.values().filter(|s| s.sealed).fold((0, 0), |(total, dead), s| {
            (total + s.total_bytes, dead + s.total_bytes.saturating_sub(s.live_bytes))
        })
    }

    /// Sorted live entries `(key, payload location)` — the deterministic
    /// digest the recovery oracle compares against acknowledged writes.
    pub fn live_entries(&self) -> Vec<(u64, Location)> {
        let mut v: Vec<(u64, Location)> = self.entries.iter().map(|(&k, &l)| (k, l)).collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(segment: SegmentId, offset: u64, len: u64) -> Location {
        Location { segment, offset, len }
    }

    #[test]
    fn puts_track_liveness_and_displacement() {
        let mut ix = StoreIndex::new();
        ix.add_segment(0);
        ix.apply_put(1, loc(0, 0, 100));
        ix.apply_put(2, loc(0, 100, 50));
        assert_eq!(ix.live_bytes(), 150);
        // Overwrite key 1 in segment 1: segment 0's copy goes dead.
        ix.apply_put(1, loc(1, 0, 80));
        assert_eq!(ix.segments[&0].live_bytes, 50);
        assert_eq!(ix.segments[&1].live_bytes, 80);
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.puts_on_disk(1), 2);
    }

    #[test]
    fn tombstones_kill_liveness_but_occupy_bytes() {
        let mut ix = StoreIndex::new();
        ix.apply_put(7, loc(0, 0, 100));
        ix.apply_tombstone(7, 0, 21);
        assert_eq!(ix.len(), 0);
        let info = ix.segments[&0];
        assert_eq!(info.total_bytes, 121);
        assert_eq!(info.live_bytes, 0);
        assert_eq!(ix.puts_on_disk(7), 1, "the dead put still exists on disk");
    }

    #[test]
    fn deadest_segment_prefers_lowest_live_fraction() {
        let mut ix = StoreIndex::new();
        ix.apply_put(1, loc(0, 0, 100)); // seg 0: 100/100 live
        ix.apply_put(2, loc(1, 0, 100));
        ix.apply_put(3, loc(1, 100, 100));
        ix.apply_put(2, loc(2, 0, 100)); // seg 1 drops to 100/200 live
        ix.seal_segment(0);
        ix.seal_segment(1);
        // Seg 2 is unsealed (active) and never a victim.
        let (victim, info) = ix.deadest_segment().unwrap();
        assert_eq!(victim, 1);
        assert_eq!(info.live_bytes, 100);
        assert_eq!(ix.sealed_bytes(), (300, 100));
    }

    #[test]
    fn sealed_bytes_cover_exactly_the_tracked_sealed_segments() {
        let mut ix = StoreIndex::new();
        assert_eq!(ix.sealed_bytes(), (0, 0));
        // Ids far apart, as a long-lived device has after many reopens and
        // compactions: 3 and 900 sealed, 40 000 the active segment.
        ix.apply_put(1, loc(3, 0, 100));
        ix.apply_put(2, loc(3, 100, 60));
        ix.apply_put(3, loc(900, 0, 200));
        ix.apply_tombstone(2, 900, 21);
        ix.apply_put(4, loc(40_000, 0, 500));
        ix.apply_put(1, loc(40_000, 500, 90));
        assert_eq!(ix.sealed_bytes(), (0, 0), "nothing is sealed yet");
        ix.seal_segment(3);
        ix.seal_segment(900);
        // Segment 3 is wholly dead (160), 900 holds a live put and a
        // tombstone (21 dead); the active segment never counts.
        assert_eq!(ix.sealed_bytes(), (160 + 221, 160 + 21));
        let puts_in_3: FxHashMap<u64, u32> = [(1, 1), (2, 1)].into_iter().collect();
        ix.forget_segment(3, &puts_in_3);
        assert_eq!(ix.sealed_bytes(), (221, 21), "a forgotten segment leaves the sums");
        ix.seal_segment(40_000);
        assert_eq!(ix.sealed_bytes(), (221 + 590, 21));
    }

    #[test]
    fn relocate_respects_newer_puts() {
        let mut ix = StoreIndex::new();
        let old = loc(0, 0, 100);
        ix.apply_put(1, old);
        // A newer put lands before the compactor gets to the key.
        ix.apply_put(1, loc(2, 0, 90));
        assert!(!ix.relocate(1, old, loc(3, 0, 100)), "stale relocation must lose");
        assert_eq!(ix.get(1).unwrap().segment, 2);
        // The losing copy is still on disk: counted, but dead.
        assert_eq!(ix.puts_on_disk(1), 3);
        let dest = ix.segments[&3];
        assert_eq!((dest.total_bytes, dest.records, dest.live_bytes), (100, 1, 0));
    }

    /// The resurrection bug: a relocated put that was not counted where it
    /// landed left `puts_on_disk` at 0 once the victim was forgotten, so a
    /// later tombstone was judged to shadow nothing and dropped.
    #[test]
    fn relocated_put_is_accounted_where_it_lands() {
        let mut ix = StoreIndex::new();
        let (from, to) = (loc(0, 0, 100), loc(1, 0, 100));
        ix.apply_put(1, from);
        ix.seal_segment(0);
        assert!(ix.relocate(1, from, to));
        assert_eq!(ix.puts_on_disk(1), 2, "victim copy + rewritten copy");
        let mut puts_in_victim = FxHashMap::default();
        puts_in_victim.insert(1u64, 1u32);
        ix.forget_segment(0, &puts_in_victim);
        assert_eq!(ix.puts_on_disk(1), 1, "the rewritten copy is still on disk");
        let dest = ix.segments[&1];
        assert_eq!((dest.total_bytes, dest.records, dest.live_bytes), (100, 1, 100));
        assert_eq!(ix.get(1), Some(to));
    }

    #[test]
    fn gc_tombstones_occupy_bytes_and_touch_no_key() {
        let mut ix = StoreIndex::new();
        ix.apply_put(7, loc(0, 0, 100));
        ix.apply_gc_tombstone(1, 21);
        assert_eq!(ix.get(7), Some(loc(0, 0, 100)), "a restated removal shadows nothing newer");
        let info = ix.segments[&1];
        assert_eq!((info.total_bytes, info.records, info.live_bytes), (21, 1, 0));
    }
}
