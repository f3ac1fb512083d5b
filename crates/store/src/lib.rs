//! # otae-store — append-only SSD-backed segment store
//!
//! The value store under `otae-serve`'s shards: what actually absorbs the
//! byte stream the paper's admission gate is trying to shrink. Objects are
//! framed as checksummed records ([`record`]) appended to hash-prefixed
//! segment files ([`backend`]); a background [`SegmentStore`] writer
//! takes batches off a **bounded** command intake ([`intake`] — explicit
//! backpressure, a wake-up only when the writer is parked; the same type
//! feeds every `otae-serve` worker), rolls segments at a size threshold,
//! and compacts the deadest sealed segment when dead bytes pile up. The in-memory index ([`index`]) is rebuilt on open by a
//! recovery scan that tolerates one torn tail record — the only damage a
//! crash can legitimately leave behind.
//!
//! ```text
//!            pooled record buffer: [ header | payload ]
//!   put_with ── fill payload in place ──┐          ▲ spent buffers back to
//!               (+ frame, if the intake │          │ its BufferPool (per
//!                is under backpressure) ▼          │ landed group)
//!   remove ─────────────────────▶ bounded intake ──┴─▶ writer thread
//!                                                      │ frame what is not yet framed;
//!                                                      │ group = [put bufs | inline run | …]
//!                                   index update ◀─────┤
//!                                 (ack after append)   ▼ one vectored append per group
//!                                                   seg-N (active)   seg-… (sealed)
//!                                                                      │ compaction:
//!                                                                      │ rewrite live records,
//!                                                                      ▼ delete victim
//! ```
//!
//! A put's payload is written once (by its caller, into the buffer it is
//! framed in) and copied once (by the group's append, into the segment);
//! `store.rs` says which side frames when, and why there are two.
//!
//! Every byte handed to the backend is counted: `host_bytes` (caller puts
//! and tombstones) and `gc_bytes` (compaction rewrites) make
//! [`StoreStats::write_amplification`] a *measured* quantity, exported as
//! an [`otae_device::WearLedger`] so SSD-lifetime projections run on the
//! real write stream instead of a synthetic counter.
//!
//! Determinism seams: the [`Backend`] trait has an `Arc`-shared in-memory
//! implementation ([`MemBackend`]) whose bytes survive a dropped store, so
//! harness oracles can crash (via a scripted [`StoreFaultPlan`]) and
//! reopen the same "device" with no filesystem, wall clock, or entropy
//! involved.

// `deny`, not `forbid` like every other workspace crate: `record::crc32_with`
// carries the one allowed `unsafe` block, the run-time-checked call into
// its two `#[target_feature]` kernels (the 128-bit and the 512-bit fold).
// The kernels themselves are safe code: no pointer loads or stores.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod fault;
pub(crate) mod handles;
pub mod index;
pub mod intake;
pub mod record;
pub mod store;
pub(crate) mod write_buffer;

pub use backend::{Backend, FileBackend, Lent, MemBackend, SegmentId};
pub use fault::{CrashAt, NoStoreFaults, StoreFaultPlan};
pub use index::{Location, SegmentInfo, StoreIndex};
pub use record::{
    crc32, crc32_with, decode_header, decode_record, encode_record, frame_in_place, Crc32Kernel,
    Record, RecordError, RecordHeader, RecordKind, HEADER_LEN, MAX_PAYLOAD,
};
pub use store::{
    CompactReport, RecoveryReport, SegmentStore, StoreConfig, StoreError, StoreStats,
    SEGMENT_HEADER_LEN, SEGMENT_MAGIC, SEGMENT_VERSION,
};

/// Compile-time thread-safety guarantees: the store is shared across shard
/// threads and its writer; a `!Send` type slipping into the store fails
/// compilation here rather than at a distant spawn site.
#[allow(dead_code)]
mod thread_safety_assertions {
    use super::*;

    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}

    const _: () = {
        assert_send_sync::<SegmentStore>();
        assert_send_sync::<MemBackend>();
        assert_send_sync::<FileBackend>();
        assert_send_sync::<NoStoreFaults>();
        assert_send_sync::<std::sync::Arc<dyn Backend>>();
        assert_send_sync::<std::sync::Arc<dyn StoreFaultPlan>>();
        assert_send::<StoreStats>();
    };
}
