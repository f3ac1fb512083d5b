//! The differential oracle: the same seeded trace pushed through
//! independent implementations of the same pipeline, with exactness
//! asserted where the implementations are deterministic and conservation
//! asserted where they are not.
//!
//! Four rungs:
//! 1. **Exact** — the single-threaded simulator vs. a 1-shard/1-worker
//!    inline-trained serve run must produce bit-identical fingerprints for
//!    every admission mode, and for Proposal under every training knob.
//! 2. **Conserved** — N-shard/N-worker serve runs (N ∈ {2, 4, 8}) fed by
//!    two clients are nondeterministic in interleaving but must conserve
//!    every counter.
//! 3. **Exact topology** — fed by *one* client, an N-shard run is a pure
//!    function of the trace: any worker count and queue shape must produce
//!    one fingerprint, one per-shard breakdown and one store command stream.
//! 4. **Metamorphic** — properties that must hold across *related* runs:
//!    disabling the admission gate reproduces the plain policy, and doubling
//!    capacity never reduces a stack policy's hit count (LRU inclusion).

use crate::plan::FaultSchedule;
use crate::run::{case_trace, HarnessFailure};
use otae_core::daily::{CostPolicy, TrainingConfig};
use otae_core::pipeline::{run_with_index, Mode, PolicyKind, RunConfig};
use otae_core::ReaccessIndex;
use otae_serve::{serve_trace_with_index, LoadConfig, ServeConfig, StoreMode, TrainerMode};
use otae_trace::Trace;

fn fail(seed: u64, message: String) -> HarnessFailure {
    HarnessFailure { seed, schedule: FaultSchedule::clean(), message }
}

fn cap(trace: &Trace, frac: f64) -> u64 {
    ((trace.unique_bytes() as f64 * frac) as u64).max(1)
}

/// Rung 1+2 for one admission mode: exact fingerprint equality at N=1,
/// conservation at N ∈ {2, 4, 8}.
pub fn differential_mode(seed: u64, n_objects: usize, mode: Mode) -> Result<(), HarnessFailure> {
    let trace = case_trace(seed, n_objects);
    let index = ReaccessIndex::build(&trace);
    let capacity = cap(&trace, 0.02);

    let sim = run_with_index(&trace, &index, &RunConfig::new(PolicyKind::Lru, mode, capacity));
    let expected = sim.fingerprint();

    // Rung 1: the deterministic topology must match the simulator exactly.
    let cfg = ServeConfig::new(PolicyKind::Lru, mode, capacity);
    let srv = serve_trace_with_index(&trace, &index, &cfg, &LoadConfig::default());
    let got = srv.fingerprint();
    if got != expected {
        return Err(fail(
            seed,
            format!(
                "differential[{mode:?}]: N=1 serve diverges from pipeline::run\n  \
                 pipeline: {expected:?}\n  serve:    {got:?}"
            ),
        ));
    }

    // Rung 2: concurrent topologies conserve.
    for shards in [2usize, 4, 8] {
        let mut cfg = ServeConfig::new(PolicyKind::Lru, mode, capacity);
        cfg.shards = shards;
        cfg.workers = shards;
        cfg.trainer = TrainerMode::Background;
        let load = LoadConfig { clients: 2, target_qps: 0.0, duration: None };
        let r = serve_trace_with_index(&trace, &index, &cfg, &load);
        let s = &r.snapshot.stats;
        if r.replayed != trace.len() as u64 || s.accesses != r.replayed {
            return Err(fail(
                seed,
                format!(
                    "differential[{mode:?}]: N={shards} lost requests \
                     (replayed {}, accesses {}, trace {})",
                    r.replayed,
                    s.accesses,
                    trace.len()
                ),
            ));
        }
        if s.accesses != s.hits + s.files_written + s.bypasses {
            return Err(fail(
                seed,
                format!(
                    "differential[{mode:?}]: N={shards} conservation: \
                     {} != {} + {} + {}",
                    s.accesses, s.hits, s.files_written, s.bypasses
                ),
            ));
        }
        if r.criteria.m != sim.criteria.m {
            return Err(fail(
                seed,
                format!(
                    "differential[{mode:?}]: N={shards} resolved M={} vs pipeline M={}",
                    r.criteria.m, sim.criteria.m
                ),
            ));
        }
    }
    Ok(())
}

/// Rung 1+2 across the paper's four admission modes.
pub fn differential_oracle(seed: u64, n_objects: usize) -> Result<(), HarnessFailure> {
    for mode in [Mode::Original, Mode::Ideal, Mode::Proposal, Mode::SecondHit] {
        differential_mode(seed, n_objects, mode)?;
    }
    Ok(())
}

/// The policy-zoo differential oracle: every admission policy — the
/// learned gate (Proposal) plus the four miss filters (SecondHit, TinyLFU,
/// RejectX, CoinFlip) — must reproduce the single-threaded simulator
/// bit-for-bit on the deterministic 1×1 serve topology (which, since the
/// fingerprint grew `service_time_us`/`service_peak_us` fields, also pins
/// both sides' disk-head-time accounting to equality) and conserve every
/// counter on the sharded ones. This is what licenses comparing policies
/// by `policy_sweep` numbers: they all run the same machinery.
pub fn differential_policy(seed: u64, n_objects: usize) -> Result<(), HarnessFailure> {
    for mode in [Mode::Proposal, Mode::SecondHit, Mode::TinyLfu, Mode::RejectX, Mode::CoinFlip] {
        differential_mode(seed, n_objects, mode)?;
    }
    Ok(())
}

/// Rung 1 under non-default training: Proposal on the 1×1 inline topology
/// must reproduce the simulator bit for bit with a model trained once, with
/// the history table off, and at a fixed cost matrix — the knobs the
/// `TrainingConfig::default()` of [`differential_mode`] never turns.
pub fn differential_training(seed: u64, n_objects: usize) -> Result<(), HarnessFailure> {
    let trace = case_trace(seed, n_objects);
    let index = ReaccessIndex::build(&trace);
    let capacity = cap(&trace, 0.02);
    let base = TrainingConfig::default;
    let variants = [
        ("train_once", TrainingConfig { train_once: true, ..base() }),
        ("use_history = false", TrainingConfig { use_history: false, ..base() }),
        ("cost = Fixed(3.0)", TrainingConfig { cost: CostPolicy::Fixed(3.0), ..base() }),
    ];
    for (knob, training) in variants {
        let mut sim_cfg = RunConfig::new(PolicyKind::Lru, Mode::Proposal, capacity);
        sim_cfg.training = training.clone();
        let expected = run_with_index(&trace, &index, &sim_cfg).fingerprint();
        let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::Proposal, capacity);
        cfg.training = training;
        let got = serve_trace_with_index(&trace, &index, &cfg, &LoadConfig::default());
        let got = got.fingerprint();
        if got != expected {
            return Err(fail(
                seed,
                format!(
                    "differential_training[{knob}]: N=1 serve diverges from pipeline::run\n  \
                     pipeline: {expected:?}\n  serve:    {got:?}"
                ),
            ));
        }
    }
    Ok(())
}

/// The hot-path exactness oracle: the service at every corner of the
/// request queue's shape (`queue_depth` ∈ {1, 2, 3, 1024} × `max_batch` ∈
/// {1, 64} — a queue that blocks on every push up to one that never fills,
/// with depth 3 the odd bound where the producer wake point `⌊cap/2⌋`
/// rounds down, stolen one request or one batch at a time) must produce
/// the fingerprint of the per-request reference (`max_batch = 1` at the
/// default `queue_depth`: one queue lock per request) bit for bit, for
/// every admission mode — including under an injected swap-fault
/// schedule that deterministically drops every other model install on the
/// exact 1×1 inline topology.
pub fn differential_hot_path(seed: u64, n_objects: usize) -> Result<(), HarnessFailure> {
    use otae_serve::{FaultPlan, SwapFault};
    use std::sync::Arc;

    /// Deterministically drops every odd-numbered install attempt.
    #[derive(Debug)]
    struct DropOddSwaps;
    impl FaultPlan for DropOddSwaps {
        fn swap_fault(&self, attempt: u64) -> SwapFault {
            if attempt % 2 == 1 {
                SwapFault::Drop
            } else {
                SwapFault::Install
            }
        }
    }

    // Every field, no `..`: a new `ServeConfig` field fails to compile here
    // until someone decides whether it needs an arm. Only `queue_depth` and
    // `max_batch` select among ways of reaching the same decisions today.
    let ServeConfig {
        shards: _,
        workers: _,
        queue_depth: _,
        policy: _,
        mode: _,
        trainer: _,
        capacity: _,
        training: _,
        latency: _,
        hdd: _,
        coin_p: _,
        m_override: _,
        max_batch: _,
        clock: _,
        faults: _,
        store: _,
        store_config: _,
    } = ServeConfig::new(PolicyKind::Lru, Mode::Original, 0);

    let trace = case_trace(seed, n_objects);
    let index = ReaccessIndex::build(&trace);
    let capacity = cap(&trace, 0.02);

    for mode in [Mode::Original, Mode::Ideal, Mode::Proposal, Mode::SecondHit] {
        // Swap faults only exist on the training path, so the faulted rung
        // is Proposal-only.
        let rungs: &[bool] = if mode == Mode::Proposal { &[false, true] } else { &[false] };
        for &faulted in rungs {
            let base = ServeConfig::new(PolicyKind::Lru, mode, capacity);
            let mut reference = base.clone();
            reference.max_batch = 1;
            let mut arms = Vec::new();
            for queue_depth in [1usize, 2, 3, 1024] {
                for max_batch in [1usize, 64] {
                    let mut shaped = base.clone();
                    shaped.queue_depth = queue_depth;
                    shaped.max_batch = max_batch;
                    arms.push((format!("queue_depth={queue_depth} max_batch={max_batch}"), shaped));
                }
            }
            if faulted {
                let plan: Arc<dyn FaultPlan> = Arc::new(DropOddSwaps);
                reference.faults = Arc::clone(&plan);
                for (_, cfg) in &mut arms {
                    cfg.faults = Arc::clone(&plan);
                }
            }
            let a = serve_trace_with_index(&trace, &index, &reference, &LoadConfig::default());
            if faulted && (a.faults.dropped_installs == 0 || a.model_swaps == 0) {
                // The schedule must actually bite.
                return Err(fail(
                    seed,
                    format!(
                        "hot-path[swap-fault]: schedule did not bite \
                         (dropped {}, swaps {})",
                        a.faults.dropped_installs, a.model_swaps
                    ),
                ));
            }
            for (arm, cfg) in &arms {
                let b = serve_trace_with_index(&trace, &index, cfg, &LoadConfig::default());
                if faulted
                    && (b.faults.dropped_installs != a.faults.dropped_installs
                        || b.model_swaps != a.model_swaps)
                {
                    // Drops are not part of the fingerprint; check them too.
                    return Err(fail(
                        seed,
                        format!(
                            "hot-path[swap-fault]: {arm} run saw different faults \
                             (dropped {} vs {}, swaps {} vs {})",
                            b.faults.dropped_installs,
                            a.faults.dropped_installs,
                            b.model_swaps,
                            a.model_swaps
                        ),
                    ));
                }
                if b.fingerprint() != a.fingerprint() {
                    return Err(fail(
                        seed,
                        format!(
                            "hot-path[{mode:?}{}]: {arm} serve diverges from \
                             the per-request path\n  per-request: {:?}\n  {arm}: {:?}",
                            if faulted { ", swap-fault" } else { "" },
                            a.fingerprint(),
                            b.fingerprint()
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The exact topology rung. Requests are routed to the queue of the worker
/// that owns their shard, so with one client every shard sees its requests
/// in trace order whoever drives it: for N ∈ {2, 4, 8} shards and every
/// admission mode (Proposal trained inline), `workers` ∈ {1, 2, N} at every
/// corner of the queue's shape (`queue_depth` ∈ {1, 2, 3, 1024} × `max_batch` ∈
/// {1, 64}) must agree on the fingerprint, on the per-shard counters, and —
/// a memory store attached, auto-compaction off — on the merged command
/// stream the stores acknowledged.
pub fn differential_topology(seed: u64, n_objects: usize) -> Result<(), HarnessFailure> {
    let trace = case_trace(seed, n_objects);
    let index = ReaccessIndex::build(&trace);
    // A tenth of the unique bytes: split eight ways, the other rungs' 2 %
    // would leave a shard room for less than one object of a small trace.
    let capacity = cap(&trace, 0.1);

    for mode in [
        Mode::Original,
        Mode::Ideal,
        Mode::Proposal,
        Mode::SecondHit,
        Mode::TinyLfu,
        Mode::RejectX,
        Mode::CoinFlip,
    ] {
        for shards in [2usize, 4, 8] {
            let mut worker_counts = vec![1, 2, shards];
            worker_counts.dedup();
            let mut arms = Vec::new();
            for workers in worker_counts {
                for queue_depth in [1usize, 2, 3, 1024] {
                    for max_batch in [1usize, 64] {
                        let mut cfg = ServeConfig::new(PolicyKind::Lru, mode, capacity);
                        cfg.shards = shards;
                        cfg.workers = workers;
                        cfg.queue_depth = queue_depth;
                        cfg.max_batch = max_batch;
                        cfg.store = StoreMode::Memory;
                        cfg.store_config.compact_trigger = None;
                        let arm = format!(
                            "N={shards} workers={workers} queue_depth={queue_depth} \
                             max_batch={max_batch}"
                        );
                        arms.push((arm, cfg));
                    }
                }
            }
            let mut reference = None;
            for (arm, cfg) in arms {
                let r = serve_trace_with_index(&trace, &index, &cfg, &LoadConfig::default());
                let Some(store) = r.snapshot.store else {
                    return Err(fail(
                        seed,
                        format!("topology[{mode:?}]: {arm}: store snapshot missing"),
                    ));
                };
                if r.replayed != trace.len() as u64 || !r.faults.is_clean() {
                    return Err(fail(
                        seed,
                        format!(
                            "topology[{mode:?}]: {arm}: replayed {} of {}, faults {:?}",
                            r.replayed,
                            trace.len(),
                            r.faults
                        ),
                    ));
                }
                let st = store.stats;
                let got = (
                    r.fingerprint(),
                    r.snapshot.per_shard,
                    [
                        st.host_bytes,
                        st.put_records,
                        st.tombstone_records,
                        st.acked_puts,
                        st.acked_removes,
                    ],
                );
                let (first, want) = reference.get_or_insert_with(|| (arm.clone(), got.clone()));
                if got != *want {
                    return Err(fail(
                        seed,
                        format!(
                            "topology[{mode:?}]: {arm} diverges from {first}\n  \
                             {first}: {want:?}\n  {arm}: {got:?}"
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Rung 3a: with the admission gate disabled (Original mode) the served
/// system is exactly the plain replacement policy — same fingerprint as a
/// bare pipeline run, for several policies.
pub fn metamorphic_gate_disabled(seed: u64, n_objects: usize) -> Result<(), HarnessFailure> {
    let trace = case_trace(seed, n_objects);
    let index = ReaccessIndex::build(&trace);
    let capacity = cap(&trace, 0.02);
    for policy in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::S3Lru] {
        let sim = run_with_index(&trace, &index, &RunConfig::new(policy, Mode::Original, capacity));
        let cfg = ServeConfig::new(policy, Mode::Original, capacity);
        let srv = serve_trace_with_index(&trace, &index, &cfg, &LoadConfig::default());
        if srv.fingerprint() != sim.fingerprint() {
            return Err(fail(
                seed,
                format!(
                    "metamorphic[{policy:?}]: gate-disabled serve diverges from the plain policy\n  \
                     pipeline: {:?}\n  serve:    {:?}",
                    sim.fingerprint(),
                    srv.fingerprint()
                ),
            ));
        }
        if srv.snapshot.stats.bypasses != 0 {
            return Err(fail(
                seed,
                format!("metamorphic[{policy:?}]: gate-disabled run bypassed requests"),
            ));
        }
    }
    Ok(())
}

/// Rung 3b: LRU is a stack (inclusion) policy — doubling capacity can never
/// lose hits on the same trace.
pub fn metamorphic_capacity_monotone(seed: u64, n_objects: usize) -> Result<(), HarnessFailure> {
    let trace = case_trace(seed, n_objects);
    let index = ReaccessIndex::build(&trace);
    let mut prev_hits = None;
    for frac in [0.01, 0.02, 0.04, 0.08] {
        let r = run_with_index(
            &trace,
            &index,
            &RunConfig::new(PolicyKind::Lru, Mode::Original, cap(&trace, frac)),
        );
        if let Some((prev_frac, prev)) = prev_hits {
            if r.stats.hits < prev {
                return Err(fail(
                    seed,
                    format!(
                        "metamorphic[capacity]: LRU hits fell from {prev} (frac {prev_frac}) \
                         to {} (frac {frac})",
                        r.stats.hits
                    ),
                ));
            }
        }
        prev_hits = Some((frac, r.stats.hits));
    }
    Ok(())
}

/// The full oracle: differential across modes, training knobs, queue shapes
/// and topologies
/// plus both metamorphic checks, and the segment-store recovery +
/// differential rungs. The topology rung replays its trace 448 times with a
/// store attached, so it gets a quarter of the objects.
pub fn full_oracle(seed: u64, n_objects: usize) -> Result<(), HarnessFailure> {
    differential_oracle(seed, n_objects)?;
    differential_policy(seed, n_objects)?;
    differential_training(seed, n_objects)?;
    differential_hot_path(seed, n_objects)?;
    differential_topology(seed, n_objects / 4)?;
    metamorphic_gate_disabled(seed, n_objects)?;
    metamorphic_capacity_monotone(seed, n_objects)?;
    crate::store_oracle::store_recovery_oracle(seed)?;
    crate::store_oracle::differential_store(seed, n_objects)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_oracle_passes_on_a_seeded_trace() {
        full_oracle(29, 2_000).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn differential_exactness_holds_for_proposal() {
        differential_mode(5, 1_500, Mode::Proposal).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn non_default_training_is_exact() {
        differential_training(13, 2_000).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn hot_path_is_exact_including_under_swap_faults() {
        differential_hot_path(7, 2_000).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn every_zoo_policy_passes_the_differential_oracle() {
        differential_policy(11, 2_000).unwrap_or_else(|e| panic!("{e}"));
    }
}
