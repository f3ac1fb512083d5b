//! One module per experiment; each exposes a `run()` that prints its tables
//! and writes CSVs into `results/`. The mapping to the paper's tables and
//! figures is documented in `DESIGN.md` §4.

pub mod ablations;
pub mod baselines;
pub mod cluster;
pub mod drift;
pub mod fig2;
pub mod fig5;
pub mod figures;
pub mod ftl_wear;
pub mod online;
pub mod policy_sweep;
pub mod table1;
pub mod tails;
pub mod tiered;
pub mod trace_stats;
