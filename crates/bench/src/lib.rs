//! # otae-bench — experiment harness
//!
//! One named experiment per table/figure of the paper
//! ([`experiments::REGISTRY`]), run by the `otae-bench <name> | all | --list`
//! driver (`src/main.rs`); `all` regenerates everything and writes CSV
//! series into `results/`. Criterion microbenches (in `benches/`) verify
//! the §5.3.5 timing constants (`t_classify`, `t_query`) and measure cache,
//! training and generation throughput.
//!
//! Scale: experiments default to a 60 k-object synthetic trace (~240 k
//! requests over 9 days). Capacities are expressed as *paper-equivalent
//! gigabytes*: the paper sweeps 2–20 GB against a ~448 GB sampled working
//! set, so "`g` GB" here means `g/448` of the trace's unique bytes. Set
//! `OTAE_OBJECTS` to change the trace size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod experiments;

pub use common::{capacity_grid, gb_to_bytes, standard_trace, Table, PAPER_GBS};
