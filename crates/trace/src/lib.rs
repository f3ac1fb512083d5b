//! # otae-trace — synthetic QQPhoto-like photo-access workloads
//!
//! The ICPP 2018 paper "Efficient SSD Caching by Avoiding Unnecessary Writes
//! using Machine Learning" evaluates on a proprietary 9-day Tencent QQPhoto
//! access log. That trace is not publicly available, so this crate provides a
//! **calibrated synthetic substitute**: a deterministic, seeded generator whose
//! output matches every statistic the paper publishes about the real log:
//!
//! * ~61.5 % of objects are accessed exactly once (§2.2);
//! * mean accesses per object ≈ 3.95 (5.86 B accesses / 1.48 B objects);
//! * twelve photo types (`a0..o5`) with the request shares of Figure 3
//!   (`l5` ≈ 45 % of requests);
//! * photo size correlated with resolution (≈ 32 KB mean, §5.3.5);
//! * diurnal load with a 20:00 peak and a 05:00 trough (§4.4.3);
//! * popularity decaying with photo age, and correlated with the owner's
//!   social activity (§3.2.1) — this is what makes the paper's features
//!   *predictive* of one-time-access behaviour.
//!
//! The crate also provides a trace codec (text and binary), the paper's 1:100
//! object sampling procedure (§5.1), and trace characterisation statistics.
//!
//! ```
//! use otae_trace::{TraceConfig, generate};
//!
//! let trace = generate(&TraceConfig { n_objects: 2_000, seed: 7, ..Default::default() });
//! let stats = trace.characterize();
//! assert!(stats.one_time_object_fraction > 0.4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod corrupt;
pub mod diurnal;
pub mod generator;
pub mod popularity;
pub mod sample;
pub mod stats;
pub mod types;

/// Exclusive bound on a request timestamp, in seconds since trace start:
/// 45 × the paper's 9-day window (405 days). Every driver sizes per-day
/// and per-window tables by `ts`, so the decoders reject a request at or
/// beyond it and `otae generate` refuses a longer window.
pub const TS_LIMIT: u64 = 45 * 9 * diurnal::DAY;

pub use generator::{generate, TraceConfig};
pub use popularity::{analyze as analyze_popularity, PopularityProfile};
pub use sample::sample_objects;
pub use stats::TraceStats;
pub use types::{
    ObjectId, ObjectTally, Owner, OwnerId, PhotoMeta, PhotoType, Request, Terminal, Trace,
};
