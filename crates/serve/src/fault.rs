//! Fault-injection seams for the service.
//!
//! The learned admission layer must degrade to plain caching when its
//! training machinery misbehaves (a stalled retrainer, a lossy sample
//! channel, a dying shard) — Flashield and the learned-eviction literature
//! both call this out as the make-or-break property of ML cache layers.
//! These hooks let a harness script exactly that misbehaviour: every
//! decision point on the training/swap path consults the run's
//! [`FaultPlan`], which defaults to [`NoFaults`] (all seams compile to
//! trivially-inlined no-ops in production configs).

/// What happens to one training sample on its way to the retrainer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleFault {
    /// Forward the sample unchanged (the default).
    Deliver,
    /// Silently drop it (lossy log tailer / dropped sample batch).
    Drop,
    /// Deliver a corrupted record: scrambled finite features and a flipped
    /// label (a codec bit-flip that survived into the training path).
    Corrupt,
}

/// What happens to one completed daily training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrainFault {
    /// Install the model as usual (the default).
    Proceed,
    /// The training job dies before it fits: the day's window is discarded
    /// and the previous model keeps serving.
    Fail,
    /// The training job stalls: the model is installed only after the
    /// retrainer has seen this many further samples.
    Stall {
        /// Number of subsequent samples to hold the install for.
        messages: u64,
    },
}

/// What happens when a trained model is about to be swapped into the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapFault {
    /// Install it (the default).
    Install,
    /// Lose it: the gate keeps whatever it had.
    Drop,
}

/// A scripted schedule of failures injected into one serve run.
///
/// Implementations must be deterministic pure functions of their arguments
/// (plus interior counters at most), so a failing run replays exactly from
/// its seed and schedule. All hooks default to "no fault".
pub trait FaultPlan: std::fmt::Debug + Send + Sync {
    /// Consulted for each training sample about to be forwarded; `idx` is
    /// the request's trace position (stable across thread interleavings).
    fn sample_fault(&self, idx: u64) -> SampleFault {
        let _ = idx;
        SampleFault::Deliver
    }

    /// Consulted when daily training attempt `attempt` (0-based) is due — a
    /// boundary has passed over a trainable window — before anything is
    /// fitted.
    fn retrain_fault(&self, attempt: u32) -> RetrainFault {
        let _ = attempt;
        RetrainFault::Proceed
    }

    /// Consulted when install attempt `attempt` (0-based) reaches the gate.
    fn swap_fault(&self, attempt: u64) -> SwapFault {
        let _ = attempt;
        SwapFault::Install
    }

    /// Return `true` to panic shard `shard` while it processes the request
    /// at trace position `idx` (the worker catches the unwind and keeps
    /// serving — "shard panic-and-recover").
    fn shard_panic(&self, shard: usize, idx: u64) -> bool {
        let _ = (shard, idx);
        false
    }
}

/// The production plan: no faults, ever.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultPlan for NoFaults {}

/// Per-run tally of injected faults and degraded-path events, reported so
/// harnesses can assert conservation (e.g. `accesses == replayed -
/// shard_panics`) and graceful degradation (e.g. `installs == 0 ⇒ admit-all
/// behaviour`).
// lint: merge-exhaustive
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Training samples dropped before the retrainer saw them.
    pub dropped_samples: u64,
    /// Training samples delivered corrupted.
    pub corrupted_samples: u64,
    /// Trainings killed by a `RetrainFault::Fail` before they fitted.
    pub failed_trainings: u32,
    /// Trainings whose install was stalled by a `RetrainFault::Stall`.
    pub deferred_installs: u32,
    /// Trained models lost at the gate to a `SwapFault::Drop`.
    pub dropped_installs: u32,
    /// Requests consumed by injected shard panics (never reached a counter).
    pub shard_panics: u64,
    /// Client threads that died; their stride of the trace was not replayed.
    pub client_failures: u32,
    /// Worker threads that died outside an injected (caught) panic.
    pub worker_failures: u32,
    /// True when the retrainer thread itself died; the service keeps
    /// serving with whatever model the gate last held.
    pub retrainer_failure: bool,
    /// Segment-store operations that failed (a refused open degrades the
    /// run to storeless serving; put/remove/flush errors after a store
    /// crash each count once). Always zero when no store is attached.
    pub store_failures: u64,
}

impl FaultReport {
    /// True when the run saw no injected faults and no thread failures.
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

/// Panic payload used for injected shard faults, so a panic hook can tell
/// scripted failures apart from real bugs.
#[derive(Debug, Clone, Copy)]
pub struct InjectedFault {
    /// Shard that the fault hit.
    pub shard: usize,
    /// Trace position of the request consumed by the fault.
    pub request: u64,
}

/// Install (once, process-wide) a panic hook that stays silent for
/// [`InjectedFault`] payloads and defers to the previous hook for anything
/// else. Harness runs call this so scripted shard panics don't spray
/// backtraces over real failures.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedFault>().is_none() {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_transparent() {
        let plan = NoFaults;
        assert_eq!(plan.sample_fault(0), SampleFault::Deliver);
        assert_eq!(plan.retrain_fault(3), RetrainFault::Proceed);
        assert_eq!(plan.swap_fault(9), SwapFault::Install);
        assert!(!plan.shard_panic(2, 100));
    }

    #[test]
    fn clean_report_detects_any_fault() {
        assert!(FaultReport::default().is_clean());
        let r = FaultReport { dropped_samples: 1, ..Default::default() };
        assert!(!r.is_clean());
        let r = FaultReport { retrainer_failure: true, ..Default::default() };
        assert!(!r.is_clean());
    }

    #[test]
    fn injected_panics_are_catchable_and_identifiable() {
        silence_injected_panics();
        let result = std::panic::catch_unwind(|| {
            std::panic::panic_any(InjectedFault { shard: 1, request: 42 });
        });
        let payload = result.expect_err("must unwind");
        let fault = payload.downcast_ref::<InjectedFault>().expect("typed payload");
        assert_eq!(fault.shard, 1);
        assert_eq!(fault.request, 42);
    }
}
