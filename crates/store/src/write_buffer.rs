//! The group-commit staging buffer.
//!
//! The writer thread stages records here and lands the whole group with
//! **one** vectored backend append and **one** index-lock pass, instead
//! of a syscall + lock round-trip per record. A caller's put arrives as
//! the pooled buffer it was framed in and is *kept*, not copied: the
//! group is a list of chunks — whole put records in their own buffers,
//! and runs of small records the writer encodes itself (tombstones,
//! compaction rewrites) in one inline buffer — whose slices, in staging
//! order, are the group's wire bytes. Records keep their staging order,
//! so every staged record's final on-disk location is known at stage
//! time: the group always lands at the current active segment's tail, and
//! `buf_offset` is the record's displacement within the group's bytes.

use crate::index::Location;
use crate::record::{encode_record, RecordKind};
use std::ops::Range;

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

/// One run of the group's wire bytes.
#[derive(Debug)]
enum Chunk {
    /// A caller's framed put record, `buf[..len]`, in the pooled buffer it
    /// travelled in.
    Put { buf: Vec<u8>, len: usize },
    /// Consecutive writer-encoded records: a range of `GroupBuffer::inline`.
    Inline(Range<usize>),
}

/// The chunks and per-record metadata of one write group. Cleared after
/// each flush with the inline buffer's and the lists' capacity kept; the
/// put buffers go back to the intake's pool.
#[derive(Debug, Default)]
pub(crate) struct GroupBuffer {
    chunks: Vec<Chunk>,
    inline: Vec<u8>,
    staged: Vec<Staged>,
    bytes: u64,
}

impl GroupBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stage a caller's put: `buf[..len]` is the framed record.
    pub fn stage_put(&mut self, key: u64, buf: Vec<u8>, len: usize) {
        self.staged.push(Staged {
            key,
            kind: RecordKind::Put,
            buf_offset: self.bytes,
            len: len as u64,
            meta: StagedKind::Host,
        });
        self.bytes += len as u64;
        self.chunks.push(Chunk::Put { buf, len });
    }

    /// Encode one record onto the inline buffer (a tombstone, or a
    /// compaction rewrite whose payload is sliced out of the victim).
    pub fn stage_inline(&mut self, key: u64, kind: RecordKind, payload: &[u8], meta: StagedKind) {
        let start = self.inline.len();
        let len = encode_record(key, kind, payload, &mut self.inline);
        self.staged.push(Staged { key, kind, buf_offset: self.bytes, len, meta });
        self.bytes += len;
        match self.chunks.last_mut() {
            Some(Chunk::Inline(run)) => run.end = self.inline.len(),
            _ => self.chunks.push(Chunk::Inline(start..self.inline.len())),
        }
    }

    /// Total staged bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Staged record count.
    pub fn records(&self) -> usize {
        self.staged.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// The first `end` wire bytes of the group as slices in staging order
    /// (`end` is a record boundary: the whole group, or the end of a crash
    /// record).
    pub fn slices(&self, end: u64) -> Vec<&[u8]> {
        let mut left = end as usize;
        let mut out = Vec::with_capacity(self.chunks.len());
        for chunk in &self.chunks {
            if left == 0 {
                break;
            }
            let bytes = match chunk {
                Chunk::Put { buf, len } => &buf[..*len],
                Chunk::Inline(run) => &self.inline[run.clone()],
            };
            let bytes = &bytes[..bytes.len().min(left)];
            left -= bytes.len();
            out.push(bytes);
        }
        out
    }

    /// Per-record metadata, in staging order.
    pub fn staged(&self) -> &[Staged] {
        &self.staged
    }

    /// Drop the staged group, keeping allocations for the next one and
    /// moving the put records' buffers onto `spent`.
    pub fn clear(&mut self, spent: &mut Vec<Vec<u8>>) {
        spent.extend(self.chunks.drain(..).filter_map(|chunk| match chunk {
            Chunk::Put { buf, .. } => Some(buf),
            Chunk::Inline(_) => None,
        }));
        self.inline.clear();
        self.staged.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{decode_record, frame_in_place, HEADER_LEN};

    /// A framed put in a buffer longer than the record, as the pool hands
    /// them out.
    fn framed_put(key: u64, payload: &[u8]) -> (Vec<u8>, usize) {
        let len = HEADER_LEN + payload.len();
        let mut buf = vec![0xEE; len + 9];
        buf[HEADER_LEN..len].copy_from_slice(payload);
        frame_in_place(key, RecordKind::Put, &mut buf[..len]);
        (buf, len)
    }

    #[test]
    fn staged_records_decode_back_at_their_offsets() {
        let mut g = GroupBuffer::new();
        let (buf, len) = framed_put(1, b"abc");
        g.stage_put(1, buf, len);
        g.stage_inline(2, RecordKind::Tombstone, &[], StagedKind::Host);
        g.stage_inline(4, RecordKind::Tombstone, &[], StagedKind::Host);
        let (buf, len) = framed_put(3, b"defgh");
        g.stage_put(3, buf, len);
        assert_eq!(g.records(), 4);
        assert_eq!(g.bytes(), 4 * HEADER_LEN as u64 + 3 + 5);
        // Put, one run of two tombstones, put.
        assert_eq!(g.slices(g.bytes()).len(), 3);
        let data = g.slices(g.bytes()).concat();
        assert_eq!(data.len() as u64, g.bytes());
        for s in g.staged() {
            let (rec, consumed) = decode_record(&data[s.buf_offset as usize..]).unwrap();
            assert_eq!(rec.key, s.key);
            assert_eq!(rec.kind, s.kind);
            assert_eq!(consumed, s.len);
        }
        // A cut at any record boundary is a prefix of the whole.
        for s in g.staged() {
            let end = s.buf_offset + s.len;
            assert_eq!(g.slices(end).concat(), data[..end as usize]);
        }
        let mut spent = Vec::new();
        g.clear(&mut spent);
        assert_eq!(spent.len(), 2, "both put buffers come back");
        assert!(g.is_empty());
        assert_eq!(g.bytes(), 0);
        assert!(g.slices(0).is_empty());
    }
}
