//! # otae-harness — deterministic fault-injection and differential testing
//!
//! The service crate answers whether the paper's admission pipeline
//! *serves*; this crate answers whether it *survives*: a seeded virtual
//! clock plus a scripted [`FaultSchedule`] drive the sharded service
//! through training outages, lossy/corrupting sample channels, stalled and
//! dropped model swaps, and shard panic-and-recover — while a differential
//! oracle checks the concurrent implementation against the single-threaded
//! simulator (exactly where deterministic, by conservation elsewhere, plus
//! metamorphic properties). The segment store gets its own rungs
//! ([`store_oracle`]): scripted writer crashes with torn tails followed by
//! a recovery scan that must rebuild exactly the acknowledged state, and a
//! differential check that attaching the store never changes decisions.
//!
//! Every failure report carries the trace seed and the fault schedule, and
//! prints the one-line `cargo run -p otae-harness -- --seed … --plan …`
//! command that replays it exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oracle;
pub mod plan;
pub mod run;
pub mod store_oracle;

pub use oracle::{
    differential_hot_path, differential_mode, differential_oracle, differential_policy,
    differential_topology, full_oracle, metamorphic_capacity_monotone, metamorphic_gate_disabled,
};
pub use plan::{Fault, FaultSchedule, ScriptedPlan};
pub use run::{case_trace, run_case, CaseConfig, HarnessFailure};
pub use store_oracle::{differential_store, store_recovery_oracle};
