//! # otae-serve — sharded concurrent cache service with hot-swappable admission models
//!
//! The simulator crates answer *what* the paper's admission policy does to
//! hit and write rates; this crate answers whether the design *serves*: a
//! shard-per-core cache service where N independent shards (each the
//! simulator's own request kernel, [`otae_core::engine`] — a replacement
//! policy and its counters — plus its admission state, a slice of the
//! §4.4.2 history table or its own miss filter, and its accounting) are
//! *owned* by K worker threads, each draining a bounded queue of its own in
//! batches, while a background retrainer hot-swaps the daily-trained
//! admission tree through a shared [`AdmissionGate`] without stalling the
//! request path. Like the paper's deployment (§2.1, §4.4) — independent
//! cache servers, each with its own classifier state — nothing but the
//! model is shared between shards, and nothing on the request path is
//! locked but a worker's own queue.
//!
//! ```text
//!   trace ──prepare──▶ PreparedTrace                    AdmissionGate
//!                        requests: [24-byte record…]   (RwLock<Arc<tree>>)
//!                        features: [row…] (Proposal)          ▲ install
//!                        models: None|Gate|Stamped(…)         │
//!                            │ &request               retrainer thread
//!                      M client threads ─ positions ─▶ (reads ts, row and
//!                            │ paced @ QPS              label back; daily
//!                            │ route: hash(object)      train)
//!                            │   ⇒ shard ⇒ owner
//!                            │ push: blocks at
//!            ┌───────────────┴─ queue_depth ─┐
//!            ▼                               ▼
//!      intake queue 0         …        intake queue K-1
//!      (otae_store::intake: Mutex<VecDeque<&request>>, one consumer each)
//!            │ pop_batch: ≤ max_batch per lock
//!            ▼                               ▼
//!        worker 0             …          worker K-1
//!      &mut shards[0..c]              &mut shards[(K-1)c..N]
//!      ┌────────────┐
//!      │ Kernel     │ ×c   (c = ⌈N / min(workers, N)⌉ shards per worker,
//!      │ Admission  │       borrowed for the life of the thread scope)
//!      │ Accounting │
//!      │ store      │
//!      └────────────┘
//! ```
//!
//! Each queue ([`otae_store::intake`], the same bounded intake the segment
//! store's writer drains) bounds the requests waiting between the clients
//! and one worker at `queue_depth`; a batch the worker has stolen no longer
//! counts. Each side signals the other only when it is parked — a `push`
//! wakes a worker sleeping on an empty queue, and the `pop_batch` that
//! leaves a full queue at half its bound wakes every client blocked on it,
//! so a client that outruns its worker parks once per half-queue of
//! requests, not once per batch — and a busy queue pays no wake-up syscall
//! at all. Each queue counts its pushes, batches, parks and wakes
//! ([`IntakeStats`]); [`ServeReport::handoff`] merges them.
//! It carries `&PreparedRequest` borrowed from the prepared trace, which
//! outlives the thread scope every client, worker and the retrainer runs
//! in, so a request is never copied on the way to a shard. The record is
//! 24 bytes — position, object, size, label, timestamp — and everything
//! else a request needs stays in the trace or in one per-run column: the
//! worker reads the request's feature row and resolves its model (from the
//! run's install schedule, or from its own gate snapshot) only on a miss.
//! A background client forwards samples the same way, as positions into
//! the prepared trace, and the retrainer reads the rows back from it. A
//! client picks the queue from the request's shard (one multiply-
//! shift hash and a table lookup; with one worker, nothing), so every
//! request of a shard reaches the one worker that owns it, in the order the
//! clients pushed it: with one client, the whole replay is a pure function
//! of the trace at any `workers`, `queue_depth` and `max_batch`.
//!
//! A worker drives the owning shard's kernel once per request of a stolen
//! batch, in pop order — the same `Kernel::access` / `Admission::decide` /
//! `Accounting::record` sequence the simulator runs, the model consulted
//! inside the admit closure (on a miss, never for a hit) — so the service
//! adds batching, threading and persistence around the decision logic,
//! never a second copy of it. When the scope ends the workers' borrows end
//! with it, and the orchestrator flushes the stores and merges the
//! [`Snapshot`] from the same `Vec` of shards.
//!
//! Two training deliveries are supported ([`TrainerMode`]): *Inline*
//! trains in the prepare pass and records one schedule entry per install,
//! so every request is judged by the model current at its trace position,
//! which makes a 1-shard/1-worker replay bit-identical to the single-threaded
//! [`otae_core::pipeline::run`] (the cross-check tests assert this);
//! *Background* resolves models at dispatch time from the gate — the
//! production path, exercised by the hot-swap tests.
//!
//! For deterministic testing the service additionally exposes two seams: a
//! [`ServiceClock`] (wall or seeded-virtual time, so paced replays run
//! instantly and reproducibly) and a [`FaultPlan`] (scripted failures on
//! the training/swap/shard paths, so a harness can assert the learned
//! layer degrades to plain caching instead of corrupting state).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod decision_cache;
pub mod fault;
pub mod gate;
pub mod loadgen;
pub mod request;
pub mod retrainer;
pub mod service;
pub mod shard;
pub mod store_layer;

pub use clock::{ServiceClock, VirtualClock};
// Only caller: `benchmark/src/layers.rs` (the `memo.*` probes).
pub use decision_cache::{feature_bits, DecisionCache, FeatureBits};
pub use fault::{
    silence_injected_panics, FaultPlan, FaultReport, InjectedFault, NoFaults, RetrainFault,
    SampleFault, SwapFault,
};
pub use gate::{AdmissionGate, GateModel};
pub use loadgen::{LoadConfig, SAMPLE_FLUSH};
pub use otae_store::intake::IntakeStats;
pub use request::{prepare, ModelSource, PreparedRequest, PreparedTrace};
pub use retrainer::{run_retrainer, RetrainerReport, SampleRef, TrainBatch};
pub use service::{serve_trace, serve_trace_with_index, ServeConfig, ServeReport, TrainerMode};
pub use shard::Snapshot;
pub use store_layer::{fill_payload, StoreMode, StoreSnapshot};

/// Compile-time thread-safety guarantees for everything the service moves
/// across or shares between threads. A regression (e.g. an `Rc` slipping
/// into a cache policy or the trained tree) fails compilation here rather
/// than at a distant spawn site.
#[allow(dead_code)]
mod thread_safety_assertions {
    use super::*;

    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}

    const _: () = {
        // Requests cross the client ⇒ worker queue by reference; samples
        // cross the retrainer channel as positions, by value; clients,
        // workers and the retrainer all borrow the prepared trace.
        assert_send::<&'static PreparedRequest>();
        assert_send::<SampleRef>();
        assert_send::<TrainBatch>();
        assert_send::<&'static PreparedTrace>();
        // Shared service state read by every worker.
        assert_send_sync::<AdmissionGate>();
        // A run of shards moves into the worker thread that owns it.
        assert_send::<crate::shard::ShardState>();
        // Determinism seams shared across client/worker/retrainer threads.
        assert_send_sync::<VirtualClock>();
        assert_send_sync::<ServiceClock>();
        assert_send_sync::<NoFaults>();
        assert_send_sync::<std::sync::Arc<dyn FaultPlan>>();
        // Per-shard segment stores live inside the shard; their writer
        // threads are owned by the store itself.
        assert_send::<crate::store_layer::ShardStore>();
        assert_send_sync::<StoreMode>();
        // Classifier state moved into shards and the retrainer.
        assert_send_sync::<otae_ml::DecisionTree>();
        assert_send_sync::<otae_core::HistoryTable>();
        assert_send_sync::<otae_core::Learned>();
        assert_send_sync::<otae_core::baseline::SecondHitAdmission>();
        assert_send_sync::<otae_cache::CacheStats>();
        assert_send_sync::<otae_device::ResponseTime>();
        // Disk-head-time accounting lives inside each shard.
        assert_send::<otae_device::ServiceTimeModel>();
        // The policy zoo: each shard's filter moves to its worker, and
        // every zoo filter must stay plain seeded data.
        assert_send_sync::<otae_core::MissFilter>();
        // Every replacement policy must build into a Send trait object, and
        // the request kernel wrapping it lives inside the shard with its
        // admission and accounting.
        assert_send::<Box<dyn otae_cache::Cache<otae_trace::ObjectId> + Send>>();
        assert_send::<otae_core::Kernel>();
        assert_send::<otae_core::Admission>();
        assert_send::<otae_core::Accounting>();
    };
}
