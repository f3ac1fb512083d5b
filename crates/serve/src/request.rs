//! The prepare pass: what a replay needs that the trace does not hold.
//!
//! A single *prepare* pass walks the trace in order before the replay
//! starts. It gathers only what the trace does not already hold, so that
//! client, worker and retrainer threads can read it in any interleaving
//! without touching shared extractor state:
//!
//! - one 24-byte `Copy` [`PreparedRequest`] per request — the trace's own
//!   position, object, size and timestamp plus the offline label — which
//!   the queues carry by reference;
//! - the feature column, [`PreparedTrace::features`], for Proposal only and
//!   read by a worker on a miss, when the model is consulted. Extraction is
//!   inherently sequential (each request's features depend on the whole
//!   stream before it, §3.2) but a function of the trace alone, so it is
//!   the index's column ([`ReaccessIndex::features`]): the first Proposal
//!   call on an index extracts it, and every later call shares it;
//! - the run's [`ModelSource`]: none, the shared gate, or — for the inline
//!   trainer — the [`ModelSchedule`] of models its daily fits installed,
//!   one `(first idx, model)` entry per install that reached the gate.
//!
//! A background client forwards training samples as positions into the
//! same prepared trace; the retrainer reads their features and labels back
//! from it ([`crate::retrainer`]).

use crate::fault::SwapFault;
use crate::gate::{AdmissionGate, GateModel};
use crate::service::{ServeConfig, TrainerMode};
use otae_core::pipeline::Mode;
use otae_core::{ModelSchedule, ReaccessIndex, N_FEATURES};
use otae_trace::{ObjectId, Trace};
use std::mem::size_of;
use std::sync::Arc;

/// Where a run's admission models come from: one value per run, not per
/// request.
#[derive(Debug, Clone)]
pub enum ModelSource {
    /// No model is ever consulted: Original, Ideal and the miss filters
    /// (SecondHit, TinyLFU, RejectX, CoinFlip).
    None,
    /// Resolved by the worker at dispatch time from the shared
    /// [`AdmissionGate`] — the production path exercised by the background
    /// retrainer.
    Gate,
    /// The inline trainer's install schedule, each model the one the gate
    /// holds: request `idx` is judged by [`ModelSchedule::model`], never by
    /// a model trained after its trace position, which makes a
    /// 1-shard/1-worker replay reproduce the single-threaded simulator
    /// request for request.
    Stamped(ModelSchedule<Arc<GateModel>>),
}

/// One request as the queues carry it: the trace's own fields, narrowed to
/// what a replay reads, plus the offline label.
#[derive(Debug, Clone, Copy)]
pub struct PreparedRequest {
    /// Position in the trace; doubles as the cache clock (`now`) and
    /// indexes [`PreparedTrace::features`].
    pub idx: u32,
    /// Requested object.
    pub object: ObjectId,
    /// Object size in bytes.
    pub size: u32,
    /// Offline one-time-access label (metrics, Ideal mode and training).
    pub truth: bool,
    /// Trace timestamp in seconds (drives retraining boundaries).
    pub ts: u64,
}

/// Output of the prepare pass.
#[derive(Debug)]
pub struct PreparedTrace {
    /// Requests in trace order.
    pub requests: Vec<PreparedRequest>,
    /// Feature row of each request, indexed by [`PreparedRequest::idx`]:
    /// the index's column under Proposal, empty for every other mode.
    pub features: Arc<Vec<[f32; N_FEATURES]>>,
    /// The run's model source.
    pub models: ModelSource,
    /// Daily trainings completed during prepare (inline trainer only).
    pub trainings: u32,
    /// Installs dropped by an injected [`SwapFault::Drop`] (inline trainer
    /// only; the background path accounts its own drops in the retrainer).
    pub dropped_installs: u32,
}

impl PreparedTrace {
    /// Bytes the replay reads beside the trace: the request records, the
    /// feature rows (the index's, shared) and the schedule's entries (the
    /// models they point at are the gate's).
    pub fn bytes(&self) -> u64 {
        let schedule = match &self.models {
            ModelSource::Stamped(s) => s.installs.len() * size_of::<(u64, Arc<GateModel>)>(),
            ModelSource::None | ModelSource::Gate => 0,
        };
        let requests = self.requests.len() * size_of::<PreparedRequest>();
        (requests + self.features.len() * size_of::<[f32; N_FEATURES]>() + schedule) as u64
    }
}

/// Walk the trace once, recording each request and its label; under
/// Proposal also take the index's feature column (extracting it if no
/// earlier call has) and, for the inline trainer, build the run's model
/// schedule over it, installing each fit into `gate` unless the fault plan
/// drops it. `m` and `v` are the resolved criteria threshold and
/// cost-matrix value.
///
/// # Panics
///
/// On a trace of more than `u32::MAX` requests, whose positions the
/// request records cannot hold.
pub fn prepare(
    trace: &Trace,
    index: &ReaccessIndex,
    cfg: &ServeConfig,
    gate: &AdmissionGate,
    m: u64,
    v: f32,
) -> PreparedTrace {
    assert!(
        u32::try_from(trace.len()).is_ok(),
        "a trace of {} requests does not fit the u32 request index",
        trace.len()
    );
    let requests: Vec<PreparedRequest> = trace
        .requests
        .iter()
        .enumerate()
        .map(|(i, req)| PreparedRequest {
            idx: i as u32,
            object: req.object,
            size: trace.photo(req.object).size,
            truth: index.is_one_time(i, m),
            ts: req.ts,
        })
        .collect();
    let mut prepared = PreparedTrace {
        requests,
        features: Arc::default(),
        models: ModelSource::None,
        trainings: 0,
        dropped_installs: 0,
    };
    if cfg.mode != Mode::Proposal {
        return prepared;
    }

    prepared.features = Arc::clone(index.features(trace));
    if cfg.trainer == TrainerMode::Background {
        prepared.models = ModelSource::Gate;
        return prepared;
    }
    // Each fit passes the same swap-fault seam the background retrainer
    // consults: a dropped install leaves the previous model in place,
    // deterministically, so the differential oracle can exercise swap
    // faults on the exact 1×1 inline path too.
    let fitted = ModelSchedule::build(trace, index, &prepared.features, m, v, &cfg.training);
    let mut installs = Vec::with_capacity(fitted.installs.len());
    for (attempt, (first, tree)) in (0u64..).zip(fitted.installs) {
        match cfg.faults.swap_fault(attempt) {
            SwapFault::Install => {
                let model = Arc::new(GateModel::new(tree));
                gate.install_arc(Arc::clone(&model));
                installs.push((first, model));
            }
            SwapFault::Drop => prepared.dropped_installs += 1,
        }
    }
    prepared.trainings = fitted.trainings;
    prepared.models =
        ModelSource::Stamped(ModelSchedule { installs, trainings: fitted.trainings, m, v });
    prepared
}

/// One worker's view of what the prepare pass added to the trace — the
/// feature column and the run's model source — with the worker's own
/// snapshot of the gate and position in the schedule. Consulted on a miss
/// only.
pub(crate) struct Verdicts<'a> {
    models: &'a ModelSource,
    features: &'a [[f32; N_FEATURES]],
    gate: &'a AdmissionGate,
    /// Cached gate snapshot and the epoch it was taken at. The sentinel
    /// (`u64::MAX`) marks "never snapshotted"; real epochs count installs
    /// from 0.
    snapshot: (Option<Arc<GateModel>>, u64),
    /// Where the last [`ModelSchedule::model`] lookup ended: with one
    /// client a worker sees its requests in trace order.
    cursor: usize,
}

impl<'a> Verdicts<'a> {
    pub(crate) fn new(
        models: &'a ModelSource,
        features: &'a [[f32; N_FEATURES]],
        gate: &'a AdmissionGate,
    ) -> Self {
        Self { models, features, gate, snapshot: (None, u64::MAX), cursor: 0 }
    }

    /// Re-snapshot the gate's model if its lock-free epoch hint moved
    /// (gate-resolved runs only). Called once per stolen batch, so the read
    /// lock and `Arc` clone stay off the per-request path.
    pub(crate) fn refresh(&mut self) {
        if matches!(self.models, ModelSource::Gate) {
            let epoch = self.gate.swaps();
            if epoch != self.snapshot.1 {
                self.snapshot = (self.gate.current(), epoch);
            }
        }
    }

    /// The model request `idx` is judged by, if any.
    #[inline]
    pub(crate) fn model(&mut self, idx: u32) -> Option<&GateModel> {
        let models: &'a ModelSource = self.models;
        match models {
            ModelSource::None => None,
            ModelSource::Gate => self.snapshot.0.as_deref(),
            ModelSource::Stamped(schedule) => {
                schedule.model(u64::from(idx), &mut self.cursor).map(|model| &**model)
            }
        }
    }

    /// The model's one-time verdict on request `idx`'s feature row; `None`
    /// when no model applies.
    #[inline]
    pub(crate) fn verdict(&mut self, idx: u32) -> Option<bool> {
        let features = self.features;
        self.model(idx).map(|model| model.predict(&features[idx as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, NoFaults};
    use crate::shard::tests::tree_digest;
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
        assert!(gate.current().is_none());
        assert!(matches!(p.models, ModelSource::None));
        // idx is the trace position, and the rest is the trace's own.
        for (i, (r, req)) in p.requests.iter().zip(&t.requests).enumerate() {
            assert_eq!(r.idx as usize, i);
            assert_eq!((r.object, r.size, r.ts), (req.object, t.photo(req.object).size, req.ts));
            assert_eq!(r.truth, index.is_one_time(i, 100));
        }
    }

    /// The record stays compact, and only Proposal pays for a feature
    /// column.
    #[test]
    fn requests_are_24_bytes_and_only_proposal_has_features() {
        assert!(size_of::<PreparedRequest>() <= 24, "{} bytes", size_of::<PreparedRequest>());
        let t = small_trace();
        let index = ReaccessIndex::build(&t);
        for mode in Mode::ALL {
            for trainer in [TrainerMode::Inline, TrainerMode::Background] {
                let mut cfg = ServeConfig::new(PolicyKind::Lru, mode, 1 << 24);
                cfg.trainer = trainer;
                let p = prepare(&t, &index, &cfg, &AdmissionGate::new(), 100, 2.0);
                let want = if mode == Mode::Proposal { t.len() } else { 0 };
                assert_eq!(p.features.len(), want, "{mode:?} / {trainer:?}");
            }
        }
    }

    /// What the service reports as `prepared_bytes`: 24 bytes a request
    /// without a model, 24 + 36 with one, plus 16 per schedule entry.
    #[test]
    fn prepared_bytes_count_records_rows_and_schedule_entries() {
        let t = small_trace();
        let index = ReaccessIndex::build(&t);
        let prepared = |mode| {
            let cfg = ServeConfig::new(PolicyKind::Lru, mode, 1 << 24);
            prepare(&t, &index, &cfg, &AdmissionGate::new(), 100, 2.0)
        };
        let n = t.len() as u64;
        assert_eq!(prepared(Mode::Original).bytes(), 24 * n);
        let p = prepared(Mode::Proposal);
        let ModelSource::Stamped(schedule) = &p.models else { panic!("inline is stamped") };
        assert!(!schedule.installs.is_empty());
        assert_eq!(p.bytes(), 60 * n + 16 * schedule.installs.len() as u64);
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
        let ModelSource::Stamped(schedule) = &p.models else { panic!("inline is stamped") };
        let installs = &schedule.installs;
        // Cold prefix, then one entry per install, in trace order, the
        // last one the gate's.
        assert!(installs[0].0 > 0, "day 0 runs cold");
        assert!(installs.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(installs.len() as u64, gate.swaps());
        let current = gate.current().expect("gate is warm");
        assert!(Arc::ptr_eq(&installs[installs.len() - 1].1, &current));
        let mut verdicts = Verdicts::new(&p.models, &p.features, &gate);
        let first = installs[0].0 as u32;
        assert!(verdicts.model(first - 1).is_none(), "cold before the first install");
        assert!(verdicts.model(first).is_some());
    }

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

    /// Where model resolution changes along a prepared trace: one
    /// `(first idx, model)` entry per change, the model numbered by its
    /// order of first use, and each numbered model's tree digest. Every
    /// request is resolved the way a worker resolves it.
    fn change_points(p: &PreparedTrace) -> (Vec<(u64, usize)>, Vec<u64>) {
        let gate = AdmissionGate::new();
        let mut verdicts = Verdicts::new(&p.models, &p.features, &gate);
        let (mut seen, mut points, mut digests) = (Vec::new(), Vec::new(), Vec::new());
        for r in &p.requests {
            let Some(model) = verdicts.model(r.idx) else { continue };
            let id: *const GateModel = model;
            if seen.last() == Some(&id) {
                continue;
            }
            let n = seen.iter().position(|&m| m == id).unwrap_or(seen.len());
            if n == seen.len() {
                seen.push(id);
                digests.push(tree_digest(model));
            }
            points.push((u64::from(r.idx), n));
        }
        (points, digests)
    }

    /// Recorded against per-request stamping: the change points an inline
    /// Proposal prepare resolves models at, and the bytes of every tree it
    /// stamps, with every install landing and with every other one dropped.
    #[test]
    fn inline_change_points_and_stamped_trees_are_pinned() {
        let t = small_trace();
        let index = ReaccessIndex::build(&t);
        // The eight daily fits, in order; every other one is dropped below,
        // and the fits themselves do not depend on which installs land.
        const TREES: [u64; 8] = [
            2_903_898_929_693_190_234,
            14_399_464_263_099_553_521,
            12_816_139_545_711_620_923,
            15_209_340_883_565_193_121,
            15_020_556_122_774_055_601,
            13_437_414_078_399_448_549,
            1_299_948_131_384_900_415,
            15_575_116_597_315_908_813,
        ];
        let run = |plan: Arc<dyn FaultPlan>| {
            let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::Proposal, 1 << 24);
            cfg.faults = plan;
            change_points(&prepare(&t, &index, &cfg, &AdmissionGate::new(), 100, 2.0))
        };

        let (points, digests) = run(Arc::new(NoFaults));
        let want =
            [(325, 0), (982, 1), (1958, 2), (3100, 3), (4208, 4), (5191, 5), (6254, 6), (7337, 7)];
        assert_eq!(points, want);
        assert_eq!(digests, TREES);

        let (points, digests) = run(Arc::new(DropEvenSwaps));
        assert_eq!(points, [(982, 0), (3100, 1), (5191, 2), (7337, 3)]);
        assert_eq!(digests, [TREES[1], TREES[3], TREES[5], TREES[7]]);
    }

    #[test]
    fn inline_proposal_swap_faults_drop_installs_deterministically() {
        let t = small_trace();
        let index = ReaccessIndex::build(&t);
        let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::Proposal, 1 << 24);
        cfg.faults = Arc::new(DropEvenSwaps);
        let gate = AdmissionGate::new();
        let p = prepare(&t, &index, &cfg, &gate, 100, 2.0);
        assert!(p.trainings >= 7);
        assert_eq!(p.dropped_installs, p.trainings.div_ceil(2), "even attempts dropped");
        assert_eq!(gate.swaps(), (p.trainings / 2) as u64, "odd attempts installed");
        let ModelSource::Stamped(schedule) = &p.models else { panic!("inline is stamped") };
        assert_eq!(schedule.installs.len() as u64, gate.swaps(), "a dropped install is no entry");
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
        assert!(matches!(p.models, ModelSource::Gate));
        assert_eq!(p.features.len(), t.len(), "the retrainer reads its samples' rows here");
    }
}
