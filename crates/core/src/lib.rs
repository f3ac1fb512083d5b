//! # otae-core — the one-time-access-exclusion caching system
//!
//! This crate assembles the paper's contribution on top of the substrate
//! crates: an admission-controlled photo cache that predicts, at miss time
//! and with no per-object history, whether the missed photo is
//! **one-time-access** — and if so serves it around the SSD, avoiding the
//! write entirely (§4, Figure 4).
//!
//! Components, mapped to the paper:
//!
//! * [`reaccess`] — forward reaccess distances over a trace (the quantity
//!   the criteria is defined on);
//! * [`criteria`] — the one-time-access criteria `M = C/(S·(1−h)·(1−p))`
//!   solved by fixed-point iteration (§4.3), with the LIRS variant
//!   `M_LIRS = M_LRU · R_s` (§5.2);
//! * [`features`] — online extraction of the §3.2.1 features (owner's
//!   average views, active friends, photo type/size/age, recency, terminal,
//!   requests-in-last-minute, hour of day) with §3.2.3 discretisation;
//! * [`history`] — the FIFO history table that rectifies one-time
//!   misclassifications (§4.4.2), sized `M(1−h)p × 0.05`;
//! * [`engine`] — the request kernel: the one copy of hit / decide /
//!   admit-or-bypass / evict / account that every driver below (and a serve
//!   shard) pushes requests through, with the one admission type —
//!   always-admit (Original), the trained classifier rectified by the
//!   history table (Proposal), the oracle (Ideal, 100 % accuracy) and the
//!   zoo filters;
//! * [`daily`] — the daily 05:00 retraining cycle (§4.4.3) with its
//!   per-minute training-data sampler (§3.1.1) and the Table-4 cost matrix,
//!   and the model schedule that maps a trace position to its model;
//! * [`pipeline`] — the end-to-end trace-driven simulation producing every
//!   statistic of Figures 5–10: the kernel driven over a trace request by
//!   request, the model consulted on a miss in Proposal mode;
//! * [`mod@sweep`] — parallel (policy × capacity × mode) grids via crossbeam;
//! * [`cluster`] / [`tiered`] — a consistent-hash fleet and the production
//!   OC → DC → backend topology of §2.1, both composed of
//!   [`engine::Server`]s (kernel + admission + its own daily trainer);
//! * [`online`] — the incremental-learning alternative §4.4.3 mentions but
//!   does not pursue, with realistic delayed label feedback.
//!
//! ```text
//!   pipeline ─┐                        ┌─ Admission::decide ─ Learned::apply
//!   Server ───┼─▶ Kernel::access ─miss─┤   (Always | Oracle | Learned | Filter)
//!   online ───┤     │ hit / admit+evict / bypass  → CacheStats, CacheEvent sink
//!   serve shard     └─▶ Accounting::record(outcome) → ResponseTime, ServiceTimeModel
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cluster;
pub mod criteria;
pub mod daily;
pub mod engine;
pub mod features;
pub mod history;
pub mod online;
pub mod pipeline;
pub mod reaccess;
pub mod sweep;
pub mod tiered;
pub mod zoo;

pub use baseline::{BloomFilter, SecondHitAdmission};
pub use cluster::{run_cluster, ClusterConfig, ClusterResult, HashRing};
pub use criteria::{resolve_criteria, solve_criteria, CriteriaSolution};
pub use daily::{DailyTrainer, MinuteSampler, ModelSchedule, TrainedModel, TrainingConfig};
pub use engine::{Accounting, Admission, CacheEvent, Kernel, Learned, Outcome};
pub use features::{FeatureExtractor, FEATURE_NAMES, N_FEATURES};
pub use history::HistoryTable;
pub use online::{run_online, run_online_with, OnlineModelKind};
pub use pipeline::{run, Mode, PolicyKind, RunConfig, RunFingerprint, RunPlan, RunResult};
pub use reaccess::ReaccessIndex;
pub use sweep::{sweep, SweepPoint};
pub use tiered::{run_tiered, TierConfig, TieredConfig, TieredResult};
pub use zoo::{CoinFlipAdmission, CountMinSketch, MissFilter, RejectXAdmission, TinyLfuAdmission};
