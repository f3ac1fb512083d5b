//! The background retrainer thread (the production training path).
//!
//! Client threads forward one [`SampleRef`] per submitted request — its
//! trace position and whether the fault plan corrupted it — batched into
//! [`TrainBatch`] flushes so the sample queue (and the condvar wake
//! behind it) is touched once per ~[`SAMPLE_FLUSH`] requests rather than
//! per request. The retrainer borrows the prepared trace for the run, reads
//! each sample's timestamp, feature row and label back from it, feeds them
//! to its daily trainer (which owns the minute-capped sampler), and
//! installs each freshly fitted tree into the shared [`AdmissionGate`] — a
//! hot swap the request workers observe without ever blocking on training.
//! Every step consults the run's [`FaultPlan`], so a harness can fail a
//! training job, stall an install, or lose a model at the gate and assert
//! the service degrades to its previous model (or, cold, to admit-all)
//! instead of misbehaving.

use crate::fault::{FaultPlan, RetrainFault, SwapFault};
use crate::gate::AdmissionGate;
use crate::loadgen::SAMPLE_FLUSH;
use crate::request::PreparedTrace;
use otae_core::{DailyTrainer, TrainingConfig, N_FEATURES};
use otae_ml::DecisionTree;
use otae_store::intake::Consumer;

/// One observed request, as forwarded to the retrainer: a position in the
/// prepared trace the retrainer reads the sample from.
#[derive(Debug, Clone, Copy)]
pub struct SampleRef {
    /// The request's trace position.
    pub idx: u32,
    /// Set when the fault plan corrupted the sample on its way
    /// ([`SampleFault::Corrupt`](crate::SampleFault::Corrupt)).
    pub corrupt: bool,
}

impl SampleRef {
    /// The sample as the daily trainer takes it — timestamp, feature row,
    /// one-time label — read from the trace it was forwarded from. A
    /// corrupted sample is finite garbage (the ML layer rejects NaN by
    /// contract) with a flipped label: a corrupt record that parsed.
    pub(crate) fn read(self, prepared: &PreparedTrace) -> (u64, [f32; N_FEATURES], bool) {
        let req = &prepared.requests[self.idx as usize];
        if self.corrupt {
            (req.ts, [f32::MAX; N_FEATURES], !req.truth)
        } else {
            (req.ts, prepared.features[self.idx as usize], req.truth)
        }
    }
}

/// A client-side flush of forwarded samples: what actually travels on the
/// sample queue. Batching is a transport detail — the retrainer consumes
/// the flattened message stream, so per-message accounting (`seen` counts,
/// stall deadlines, minute-sampler offers) is identical to an unbatched
/// queue carrying the same messages in the same per-client order.
pub type TrainBatch = Vec<SampleRef>;

/// What the retrainer thread did over one run.
///
/// Every fitted model is accounted for exactly once:
/// `installs + failed + dropped_installs == trainings` at stream end
/// (a stalled model eventually installs, is superseded by a fresher one, or
/// flushes when the stream closes — never silently lost).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetrainerReport {
    /// Daily boundaries that found a trainable window (non-empty, both
    /// classes): models fitted, plus jobs an injected `RetrainFault::Fail`
    /// killed before they fitted anything.
    pub trainings: u32,
    /// Models actually installed into the gate.
    pub installs: u32,
    /// Trainings lost to an injected `RetrainFault::Fail`: the window is
    /// discarded and nothing is fitted.
    pub failed: u32,
    /// Installs that were stalled by an injected `RetrainFault::Stall`
    /// (they may later land or be superseded).
    pub deferred: u32,
    /// Models lost at the gate to an injected `SwapFault::Drop`, plus
    /// stalled models superseded by a fresher training before landing.
    pub dropped_installs: u32,
    /// Install lag: the largest number of forwarded requests still queued
    /// on the sample queue at the moment a model was installed — requests
    /// the service had already accepted under the previous (or cold,
    /// admit-all) model while this one was being fitted. Read as the
    /// batches queued × [`SAMPLE_FLUSH`], so it is exact to within one
    /// flush per client. Depends on how fast the replay runs against the
    /// fit, never on the decisions themselves.
    pub install_backlog_max: u64,
    /// The same backlog summed over every install of the run.
    pub install_backlog_total: u64,
}

/// Drain `rx` one batch at a time until every producer hangs up, sampling
/// the records of `prepared` it names and retraining at each daily
/// boundary ([`DailyTrainer::observe_if`]).
///
/// With several client threads the forwarded stream is only approximately
/// time-ordered: each client forwards its own stride's samples in trace
/// order, each at most `max_batch` × worker queues of its requests after
/// the request itself (the client's sweep, see `replay_client`); the sampler
/// keeps its own clock monotone
/// ([`MinuteSampler::offer`](otae_core::MinuteSampler::offer)), so the
/// small interleaving skew neither inflates a minute's budget nor unsorts
/// the fit window — which matches how a production log tailer would behave.
pub fn run_retrainer(
    rx: Consumer<TrainBatch>,
    prepared: &PreparedTrace,
    gate: &AdmissionGate,
    training: TrainingConfig,
    v: f32,
    plan: &dyn FaultPlan,
) -> RetrainerReport {
    let mut trainer = DailyTrainer::new(training, v);
    let mut report = RetrainerReport::default();
    // A model whose install was stalled, due once `seen` reaches the mark.
    let mut pending: Option<(DecisionTree, u64)> = None;
    let mut attempt = 0u32;
    let mut swap_attempt = 0u64;
    let mut seen = 0u64;
    // One batch per pop, so the install lag reads the batches still queued
    // behind the one in hand; an empty, hung-up queue leaves `popped` empty.
    let mut popped = Vec::with_capacity(1);
    let batches = std::iter::from_fn(|| {
        rx.pop_batch(&mut popped, 1);
        popped.pop()
    });
    // Batches are flattened here: `seen` counts messages, not flushes, so a
    // `RetrainFault::Stall { messages }` deadline means the same thing at
    // every flush size.
    for sample in batches.flatten() {
        let (ts, features, one_time) = sample.read(prepared);
        seen += 1;
        if let Some((model, due)) = pending.take() {
            if seen >= due {
                install(model, gate, plan, &rx, &mut swap_attempt, &mut report);
            } else {
                pending = Some((model, due));
            }
        }
        // Training happens here, on the retrainer thread — workers only
        // ever see finished models. The plan is asked before the fit, once
        // a trainable window is due: a failed job costs no fit.
        let mut fault = RetrainFault::Proceed;
        let due = trainer.observe_if(ts, features, one_time, || {
            fault = plan.retrain_fault(attempt);
            fault != RetrainFault::Fail
        });
        if let Some(fitted) = due {
            match (fitted, fault) {
                (None, _) => report.failed += 1,
                (Some(model), RetrainFault::Stall { messages }) => {
                    report.deferred += 1;
                    if pending.replace((model, seen + messages)).is_some() {
                        report.dropped_installs += 1;
                    }
                }
                (Some(model), _) => {
                    // A fresher model supersedes any still-stalled older one
                    // (installing the stale model later would roll the gate
                    // backwards); the loss is tallied as a dropped install.
                    if pending.take().is_some() {
                        report.dropped_installs += 1;
                    }
                    install(model, gate, plan, &rx, &mut swap_attempt, &mut report)
                }
            }
            attempt += 1;
        }
    }
    // Stream over: a still-stalled install lands now (the job finished late).
    if let Some((model, _)) = pending.take() {
        install(model, gate, plan, &rx, &mut swap_attempt, &mut report);
    }
    report.trainings = trainer.trainings;
    report
}

fn install(
    model: DecisionTree,
    gate: &AdmissionGate,
    plan: &dyn FaultPlan,
    rx: &Consumer<TrainBatch>,
    swap_attempt: &mut u64,
    report: &mut RetrainerReport,
) {
    let fault = plan.swap_fault(*swap_attempt);
    *swap_attempt += 1;
    match fault {
        SwapFault::Install => {
            gate.install(model);
            report.installs += 1;
            let backlog = (rx.queued() * SAMPLE_FLUSH) as u64;
            report.install_backlog_max = report.install_backlog_max.max(backlog);
            report.install_backlog_total += backlog;
        }
        SwapFault::Drop => report.dropped_installs += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::NoFaults;
    use crate::loadgen::sample_queue_bound;
    use crate::request::{ModelSource, PreparedRequest};
    use otae_trace::diurnal::DAY;
    use otae_trace::ObjectId;
    use std::sync::Arc;

    /// `days` days of separable samples (x > 0.5 means one-time), 600 a day,
    /// as a prepared trace, and a hung-up queue forwarding every one of
    /// them in uneven batches so the tests exercise the batched transport.
    fn feed_days(days: u64) -> (Consumer<TrainBatch>, PreparedTrace) {
        let (requests, features) = (0..days)
            .flat_map(|day| (0..600u64).map(move |i| (day * DAY + i * 120, i % 100)))
            .zip(0u32..)
            .map(|((ts, x), idx)| {
                let mut row = [0.0f32; N_FEATURES];
                row[0] = x as f32 / 100.0;
                (PreparedRequest { idx, object: ObjectId(idx), size: 1, truth: x >= 50, ts }, row)
            })
            .unzip();
        let prepared = PreparedTrace {
            requests,
            features: Arc::new(features),
            models: ModelSource::Gate,
            trainings: 0,
            dropped_installs: 0,
        };
        let (tx, rx) =
            otae_store::intake::bounded(sample_queue_bound(prepared.requests.len(), 1), ());
        for batch in prepared.requests.chunks(97) {
            let batch = batch.iter().map(|r| SampleRef { idx: r.idx, corrupt: false }).collect();
            tx.push(batch).expect("consumer alive");
        }
        (rx, prepared)
    }

    #[test]
    fn trains_at_daily_boundaries_and_installs() {
        let (rx, days) = feed_days(2);
        let gate = AdmissionGate::new();
        let report = run_retrainer(rx, &days, &gate, TrainingConfig::default(), 2.0, &NoFaults);
        assert_eq!(report.trainings, 1, "day-1 boundary fires once within 2 days");
        assert_eq!(report.installs, 1);
        assert_eq!(gate.swaps(), 1);
        // 1200 messages travel as 13 flushes; the fit fires at 05:00 on day
        // two — message 750, inside the eighth — so five were still queued.
        assert_eq!(report.install_backlog_max, 5 * SAMPLE_FLUSH as u64);
        assert_eq!(report.install_backlog_total, report.install_backlog_max);
        let model = gate.current().expect("model installed");
        let mut hi = [0.0f32; N_FEATURES];
        hi[0] = 0.95;
        let mut lo = [0.0f32; N_FEATURES];
        lo[0] = 0.05;
        assert!(model.predict(&hi));
        assert!(!model.predict(&lo));
    }

    #[test]
    fn empty_stream_never_trains() {
        let (rx, days) = feed_days(0);
        let gate = AdmissionGate::new();
        let report = run_retrainer(rx, &days, &gate, TrainingConfig::default(), 2.0, &NoFaults);
        assert_eq!(report, RetrainerReport::default());
        assert!(gate.current().is_none());
    }

    #[test]
    fn failed_training_leaves_the_gate_cold() {
        #[derive(Debug)]
        struct FailAll;
        impl FaultPlan for FailAll {
            fn retrain_fault(&self, _attempt: u32) -> RetrainFault {
                RetrainFault::Fail
            }
        }
        let (rx, days) = feed_days(2);
        let gate = AdmissionGate::new();
        let report = run_retrainer(rx, &days, &gate, TrainingConfig::default(), 2.0, &FailAll);
        assert_eq!(report.trainings, 1, "the boundary was consumed…");
        assert_eq!(report.failed, 1, "…by a job that fitted nothing");
        assert_eq!(report.installs, 0);
        assert!(gate.current().is_none(), "no model must reach the gate");
    }

    #[test]
    fn stalled_install_lands_late_but_lands() {
        #[derive(Debug)]
        struct StallFirst;
        impl FaultPlan for StallFirst {
            fn retrain_fault(&self, attempt: u32) -> RetrainFault {
                if attempt == 0 {
                    RetrainFault::Stall { messages: 200 }
                } else {
                    RetrainFault::Proceed
                }
            }
        }
        let (rx, days) = feed_days(2);
        let gate = AdmissionGate::new();
        let report = run_retrainer(rx, &days, &gate, TrainingConfig::default(), 2.0, &StallFirst);
        assert_eq!(report.trainings, 1);
        assert_eq!(report.deferred, 1);
        assert_eq!(report.installs, 1, "the stalled install must still land");
        assert!(gate.current().is_some());
    }

    #[test]
    fn dropped_swap_keeps_the_previous_model() {
        #[derive(Debug)]
        struct DropAllSwaps;
        impl FaultPlan for DropAllSwaps {
            fn swap_fault(&self, _attempt: u64) -> SwapFault {
                SwapFault::Drop
            }
        }
        let (rx, days) = feed_days(2);
        let gate = AdmissionGate::new();
        let report = run_retrainer(rx, &days, &gate, TrainingConfig::default(), 2.0, &DropAllSwaps);
        assert_eq!(report.trainings, 1);
        assert_eq!(report.dropped_installs, 1);
        assert_eq!(report.installs, 0);
        assert!(gate.current().is_none(), "the dropped model never reached the gate");
    }

    /// Every fitted model is accounted for exactly once under a mixed fault
    /// script — `installs + failed + dropped_installs == trainings` — and
    /// the install-lag counters only ever move with an install. The report
    /// is destructured without `..`, so a new field has to be placed here.
    #[test]
    fn every_model_is_accounted_for_under_mixed_faults() {
        #[derive(Debug)]
        struct Mixed;
        impl FaultPlan for Mixed {
            fn retrain_fault(&self, attempt: u32) -> RetrainFault {
                match attempt {
                    // Never comes due: superseded by the next day's model.
                    0 => RetrainFault::Stall { messages: u64::MAX / 2 },
                    2 => RetrainFault::Fail,
                    // Still stalled when the stream closes: lands then.
                    4 => RetrainFault::Stall { messages: u64::MAX / 2 },
                    _ => RetrainFault::Proceed,
                }
            }
            fn swap_fault(&self, attempt: u64) -> SwapFault {
                if attempt == 1 {
                    SwapFault::Drop
                } else {
                    SwapFault::Install
                }
            }
        }
        let (rx, days) = feed_days(6);
        let gate = AdmissionGate::new();
        let report = run_retrainer(rx, &days, &gate, TrainingConfig::default(), 2.0, &Mixed);
        let RetrainerReport {
            trainings,
            installs,
            failed,
            deferred,
            dropped_installs,
            install_backlog_max,
            install_backlog_total,
        } = report;
        assert_eq!(trainings, 5, "one fit per boundary of a 6-day stream");
        assert_eq!(installs + failed + dropped_installs, trainings);
        assert_eq!((installs, failed, deferred, dropped_installs), (2, 1, 2, 2));
        assert_eq!(gate.swaps(), u64::from(installs));
        // The first install found flushes queued behind it; the second ran
        // after the stream closed, with nothing left to wait for.
        assert!(install_backlog_max > 0);
        assert_eq!(install_backlog_total, install_backlog_max);
    }
}
