//! # otae-device — storage device models
//!
//! The paper evaluates response time analytically (§5.3.5, Eqs. 3–6) with
//! measured constants (`t_hddr = 3 ms`, `t_query = 1 µs`, `t_classify =
//! 0.4 µs` for a 32 KB photo) rather than on raw hardware; this crate
//! implements exactly that model, plus an SSD wear/endurance model that turns
//! the write-rate reductions of Figures 8–9 into lifetime projections — the
//! paper's headline motivation ("write density threatens SSD lifetime", §1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ftl;
pub mod latency;
pub mod service_time;
pub mod wear;

pub use ftl::{FtlConfig, FtlSim, FtlStats};
pub use latency::{LatencyModel, ResponseTime, RunLatency};
pub use service_time::{HddProfile, ServiceTimeModel};
pub use wear::{SsdWearModel, WearLedger};
