//! Prepared requests: the unit of work flowing through the service.
//!
//! Feature extraction is inherently sequential (each request's features
//! depend on the whole stream before it, §3.2), so a single *prepare* pass
//! walks the trace in order and emits self-contained [`PreparedRequest`]s
//! that client threads can then submit and worker threads process in any
//! interleaving without touching shared extractor state.

use crate::fault::SwapFault;
use crate::gate::{AdmissionGate, GateModel};
use crate::service::{ServeConfig, TrainerMode};
use otae_core::daily::{DailyTrainer, MinuteSampler};
use otae_core::pipeline::Mode;
use otae_core::{FeatureExtractor, ReaccessIndex, N_FEATURES};
use otae_trace::{ObjectId, Trace};
use std::sync::Arc;

/// Where a request's admission model comes from.
#[derive(Debug, Clone)]
pub enum ModelSource {
    /// Model resolved when the request entered the system; the worker uses
    /// this exact snapshot. This makes a 1-shard/1-worker replay reproduce
    /// the single-threaded simulator request for request, because a queued
    /// request can never observe a model trained after its enqueue point.
    Stamped {
        /// The snapshotted model (`None` while the gate is cold).
        model: Option<Arc<GateModel>>,
    },
    /// Model resolved by the worker at dispatch time from the shared
    /// [`AdmissionGate`] — the production path exercised by the background
    /// retrainer.
    Gate,
}

/// One request, fully prepared for concurrent processing.
#[derive(Debug, Clone)]
pub struct PreparedRequest {
    /// Position in the trace; doubles as the cache clock (`now`).
    pub idx: u64,
    /// Trace timestamp in seconds (drives retraining boundaries).
    pub ts: u64,
    /// Requested object.
    pub object: ObjectId,
    /// Object size in bytes.
    pub size: u64,
    /// Feature row extracted at stream position `idx` (Proposal mode).
    pub features: [f32; N_FEATURES],
    /// Offline one-time-access label (metrics and Ideal mode only).
    pub truth: bool,
    /// Admission-model resolution for this request.
    pub model: ModelSource,
}

/// Output of the prepare pass.
pub struct PreparedTrace {
    /// Requests in trace order.
    pub requests: Vec<PreparedRequest>,
    /// Daily trainings completed during prepare (inline trainer only).
    pub trainings: u32,
    /// Installs dropped by an injected [`SwapFault::Drop`] (inline trainer
    /// only; the background path accounts its own drops in the retrainer).
    pub dropped_installs: u32,
}

/// Walk the trace once, extracting features and (for the inline trainer)
/// driving the daily retraining cycle, stamping each request with its
/// model snapshot. `m` and `v` are the resolved criteria threshold and
/// cost-matrix value.
pub fn prepare(
    trace: &Trace,
    index: &ReaccessIndex,
    cfg: &ServeConfig,
    gate: &AdmissionGate,
    m: u64,
    v: f32,
) -> PreparedTrace {
    let is_proposal = cfg.mode == Mode::Proposal;
    let inline = is_proposal && cfg.trainer == TrainerMode::Inline;
    let mut trainer = DailyTrainer::new(cfg.training.clone(), v);
    let mut sampler = MinuteSampler::new(cfg.training.records_per_minute);
    let mut extractor = FeatureExtractor::new(trace);

    let mut requests = Vec::with_capacity(trace.len());
    let mut swap_attempt = 0u64;
    let mut dropped_installs = 0u32;
    for (i, req) in trace.requests.iter().enumerate() {
        let truth = index.is_one_time(i, m);
        let mut features = [0.0f32; N_FEATURES];
        if is_proposal {
            if inline {
                if let Some(model) = trainer.maybe_retrain(req.ts, &mut sampler) {
                    // The same swap-fault seam the background retrainer
                    // consults: a dropped install leaves the previous model
                    // in place, deterministically, so the differential
                    // oracle can exercise swap faults on the exact 1×1
                    // inline path too.
                    match cfg.faults.swap_fault(swap_attempt) {
                        SwapFault::Install => gate.install(model),
                        SwapFault::Drop => dropped_installs += 1,
                    }
                    swap_attempt += 1;
                }
            }
            features = extractor.extract(trace, req);
            if inline {
                sampler.offer(req.ts, features, truth);
            }
            extractor.update(trace, req);
        }
        let model = if !is_proposal {
            // Original/Ideal and the miss filters (SecondHit, TinyLFU,
            // RejectX, CoinFlip) never consult a model; stamp None so
            // workers skip the gate entirely.
            ModelSource::Stamped { model: None }
        } else if inline {
            ModelSource::Stamped { model: gate.current() }
        } else {
            ModelSource::Gate
        };
        requests.push(PreparedRequest {
            idx: i as u64,
            ts: req.ts,
            object: req.object,
            size: trace.photo(req.object).size as u64,
            features,
            truth,
            model,
        });
    }
    PreparedTrace { requests, trainings: trainer.trainings, dropped_installs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otae_core::pipeline::PolicyKind;
    use otae_trace::{generate, TraceConfig};

    fn small_trace() -> Trace {
        generate(&TraceConfig { n_objects: 2_000, seed: 11, ..Default::default() })
    }

    #[test]
    fn original_mode_prepares_without_models() {
        let t = small_trace();
        let index = ReaccessIndex::build(&t);
        let cfg = ServeConfig::new(PolicyKind::Lru, Mode::Original, 1 << 24);
        let gate = AdmissionGate::new();
        let p = prepare(&t, &index, &cfg, &gate, 100, 2.0);
        assert_eq!(p.requests.len(), t.len());
        assert_eq!(p.trainings, 0);
        assert!(!gate.is_warm());
        assert!(p
            .requests
            .iter()
            .all(|r| matches!(r.model, ModelSource::Stamped { model: None, .. })));
        // idx is the trace position.
        assert!(p.requests.iter().enumerate().all(|(i, r)| r.idx == i as u64));
    }

    #[test]
    fn inline_proposal_stamps_models_after_first_training() {
        let t = small_trace();
        let index = ReaccessIndex::build(&t);
        let cfg = ServeConfig::new(PolicyKind::Lru, Mode::Proposal, 1 << 24);
        let gate = AdmissionGate::new();
        let p = prepare(&t, &index, &cfg, &gate, 100, 2.0);
        assert!(p.trainings >= 7, "9-day trace retrains daily: {}", p.trainings);
        assert_eq!(gate.swaps(), p.trainings as u64);
        // Cold prefix unstamped, warm suffix stamped.
        let first_stamped = p
            .requests
            .iter()
            .position(|r| matches!(&r.model, ModelSource::Stamped { model: Some(_), .. }))
            .expect("some request must carry a model");
        assert!(first_stamped > 0, "day 0 runs cold");
        assert!(p.requests[..first_stamped]
            .iter()
            .all(|r| matches!(&r.model, ModelSource::Stamped { model: None, .. })));
        // Each install stamps a new model, and the last one is the gate's.
        let mut stamped: Vec<&Arc<GateModel>> = Vec::new();
        for r in &p.requests {
            if let ModelSource::Stamped { model: Some(model) } = &r.model {
                if !stamped.last().is_some_and(|last| Arc::ptr_eq(last, model)) {
                    stamped.push(model);
                }
            }
        }
        assert_eq!(stamped.len() as u64, gate.swaps());
        let current = gate.current().expect("gate is warm");
        assert!(Arc::ptr_eq(stamped[stamped.len() - 1], &current));
    }

    #[test]
    fn inline_proposal_swap_faults_drop_installs_deterministically() {
        use crate::fault::FaultPlan;

        /// Drops every even-numbered install attempt.
        #[derive(Debug)]
        struct DropEvenSwaps;
        impl FaultPlan for DropEvenSwaps {
            fn swap_fault(&self, attempt: u64) -> SwapFault {
                if attempt.is_multiple_of(2) {
                    SwapFault::Drop
                } else {
                    SwapFault::Install
                }
            }
        }

        let t = small_trace();
        let index = ReaccessIndex::build(&t);
        let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::Proposal, 1 << 24);
        cfg.faults = Arc::new(DropEvenSwaps);
        let gate = AdmissionGate::new();
        let p = prepare(&t, &index, &cfg, &gate, 100, 2.0);
        assert!(p.trainings >= 7);
        assert_eq!(p.dropped_installs, p.trainings.div_ceil(2), "even attempts dropped");
        assert_eq!(gate.swaps(), (p.trainings / 2) as u64, "odd attempts installed");
    }

    #[test]
    fn background_proposal_defers_to_the_gate() {
        let t = small_trace();
        let index = ReaccessIndex::build(&t);
        let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::Proposal, 1 << 24);
        cfg.trainer = TrainerMode::Background;
        let gate = AdmissionGate::new();
        let p = prepare(&t, &index, &cfg, &gate, 100, 2.0);
        assert_eq!(p.trainings, 0, "background mode trains in the retrainer thread");
        assert!(p.requests.iter().all(|r| matches!(r.model, ModelSource::Gate)));
    }
}
