//! The group-commit staging buffer.
//!
//! The writer thread stages encoded records contiguously here and lands
//! the whole group with **one** backend append and **one** index-lock
//! pass, instead of a syscall + lock round-trip per record. Records keep
//! their staging order, so every staged record's final on-disk location is
//! known at stage time: the group always lands at the current active
//! segment's tail, and `buf_offset` is the record's displacement within
//! the group.

use crate::index::Location;
use crate::record::{encode_record, RecordKind};

/// What a staged record is, beyond its wire bytes: host traffic (the
/// fault-seam clock ticks once per host record) or a compaction rewrite
/// (no seam, no ack, counted as GC bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StagedKind {
    /// A caller put or remove: seam-clocked, acked after the group lands.
    Host,
    /// A live put rewritten out of a compaction victim; `from` is the
    /// victim location the index relocation supersedes at flush time.
    GcPut {
        /// Victim location this rewrite replaces.
        from: Location,
    },
    /// A still-shadowing tombstone rewritten out of a victim (its bytes
    /// are accounted where it lands, dead on arrival; no key is touched).
    GcTombstone,
}

/// One record staged in the group, with enough metadata to index and
/// account for it after the group's single append lands.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Staged {
    /// Record key.
    pub key: u64,
    /// Put or tombstone.
    pub kind: RecordKind,
    /// Byte offset of this record within the group buffer.
    pub buf_offset: u64,
    /// Encoded record length (header + payload).
    pub len: u64,
    /// Host vs. GC provenance.
    pub meta: StagedKind,
}

impl Staged {
    /// Whether this record is compaction traffic (no fault seam, no ack).
    pub fn is_gc(&self) -> bool {
        !matches!(self.meta, StagedKind::Host)
    }
}

/// Contiguous encode buffer + per-record metadata for one write group.
/// Cleared (capacity kept) after each flush, so the steady-state append
/// path allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct GroupBuffer {
    buf: Vec<u8>,
    staged: Vec<Staged>,
}

impl GroupBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encode one record onto the group's tail; returns its encoded
    /// length.
    pub fn stage(&mut self, key: u64, kind: RecordKind, payload: &[u8], meta: StagedKind) -> u64 {
        let buf_offset = self.buf.len() as u64;
        let len = encode_record(key, kind, payload, &mut self.buf);
        self.staged.push(Staged { key, kind, buf_offset, len, meta });
        len
    }

    /// Total staged bytes.
    pub fn bytes(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Staged record count.
    pub fn records(&self) -> usize {
        self.staged.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// The group's wire bytes (all records, in staging order).
    pub fn data(&self) -> &[u8] {
        &self.buf
    }

    /// Per-record metadata, in staging order.
    pub fn staged(&self) -> &[Staged] {
        &self.staged
    }

    /// Drop the staged group, keeping allocations for the next one.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.staged.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{decode_record, HEADER_LEN};

    #[test]
    fn staged_records_decode_back_at_their_offsets() {
        let mut g = GroupBuffer::new();
        g.stage(1, RecordKind::Put, b"abc", StagedKind::Host);
        g.stage(2, RecordKind::Tombstone, &[], StagedKind::Host);
        g.stage(3, RecordKind::Put, b"defgh", StagedKind::Host);
        assert_eq!(g.records(), 3);
        assert_eq!(g.bytes(), 3 * HEADER_LEN as u64 + 3 + 5);
        for s in g.staged() {
            let (rec, consumed) = decode_record(&g.data()[s.buf_offset as usize..]).unwrap();
            assert_eq!(rec.key, s.key);
            assert_eq!(rec.kind, s.kind);
            assert_eq!(consumed, s.len);
        }
        g.clear();
        assert!(g.is_empty());
        assert_eq!(g.bytes(), 0);
    }
}
