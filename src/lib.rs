//! # otae — One-Time-Access-Exclusion SSD caching
//!
//! Umbrella crate for the reproduction of *"Efficient SSD Caching by Avoiding
//! Unnecessary Writes using Machine Learning"* (Wang et al., ICPP 2018).
//! It re-exports the workspace crates:
//!
//! * [`trace`] — calibrated synthetic QQPhoto workloads, codec, sampling, stats;
//! * [`cache`] — byte-capacity cache simulator (LRU/FIFO/LFU/S3LRU/ARC/LIRS/Belady);
//! * [`ml`] — from-scratch classifiers (CART and the six Table-1 baselines) and metrics;
//! * [`device`] — SSD/HDD latency + wear models and the paper's response-time model;
//! * [`core`] — the one-time-access-exclusion system: criteria, labeler,
//!   features, history table, admission, daily retraining, end-to-end pipeline.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use otae_cache as cache;
pub use otae_core as core;
pub use otae_device as device;
pub use otae_ml as ml;
pub use otae_trace as trace;
