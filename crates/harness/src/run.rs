//! Single fault-injected case execution with invariant checking, deadlock
//! detection, and replayable failure reports.

use crate::plan::FaultSchedule;
use otae_core::pipeline::{Mode, PolicyKind};
use otae_serve::{
    serve_trace, silence_injected_panics, LoadConfig, ServeConfig, ServeReport, ServiceClock,
    TrainerMode, VirtualClock,
};
use otae_trace::{generate, Trace, TraceConfig};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// One harness case: a seeded trace replayed through a serve topology under
/// a fault schedule.
#[derive(Debug, Clone)]
pub struct CaseConfig {
    /// Trace-generation seed (also the replay handle).
    pub seed: u64,
    /// Objects in the generated trace (scales its length).
    pub n_objects: usize,
    /// Cache shards.
    pub shards: usize,
    /// Worker threads.
    pub workers: usize,
    /// Client threads.
    pub clients: usize,
    /// Bound of the client ⇒ worker request queue.
    pub queue_depth: usize,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Admission mode.
    pub mode: Mode,
    /// Capacity as a fraction of the trace's unique bytes.
    pub capacity_frac: f64,
    /// The fault schedule to inject.
    pub schedule: FaultSchedule,
    /// Give up (and report a suspected deadlock) after this much wall time.
    pub timeout: Duration,
}

impl CaseConfig {
    /// A 4-shard/4-worker/2-client Proposal case over a small trace — the
    /// harness's default stress topology.
    pub fn new(seed: u64, schedule: FaultSchedule) -> Self {
        Self {
            seed,
            n_objects: 2_000,
            shards: 4,
            workers: 4,
            clients: 2,
            queue_depth: 1024,
            policy: PolicyKind::Lru,
            mode: Mode::Proposal,
            capacity_frac: 0.02,
            schedule,
            timeout: Duration::from_secs(120),
        }
    }
}

/// A failed case, carrying everything needed to replay it exactly.
#[derive(Debug, Clone)]
pub struct HarnessFailure {
    /// Trace seed of the failing case.
    pub seed: u64,
    /// Fault schedule of the failing case.
    pub schedule: FaultSchedule,
    /// Which invariant (or oracle) failed, with the observed values.
    pub message: String,
}

impl std::fmt::Display for HarnessFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "harness failure: {}", self.message)?;
        writeln!(f, "  seed:     {}", self.seed)?;
        writeln!(f, "  schedule: {}", self.schedule)?;
        write!(
            f,
            "  replay:   cargo run -p otae-harness -- --seed {} --plan {}",
            self.seed, self.schedule.name
        )
    }
}

impl std::error::Error for HarnessFailure {}

/// Generate the case's trace (shared with the differential oracle so both
/// sides see identical input).
pub fn case_trace(seed: u64, n_objects: usize) -> Trace {
    generate(&TraceConfig { n_objects, seed, ..Default::default() })
}

fn capacity(trace: &Trace, frac: f64) -> u64 {
    ((trace.unique_bytes() as f64 * frac) as u64).max(1)
}

/// Run one case to completion and check every interleaving-independent
/// invariant. Returns the serve report on success; on any violation (or a
/// suspected deadlock) returns a [`HarnessFailure`] carrying the seed and
/// schedule for exact replay.
pub fn run_case(cfg: &CaseConfig) -> Result<ServeReport, HarnessFailure> {
    silence_injected_panics();
    let fail = |message: String| HarnessFailure {
        seed: cfg.seed,
        schedule: cfg.schedule.clone(),
        message,
    };

    let trace = case_trace(cfg.seed, cfg.n_objects);
    let trace_len = trace.len() as u64;
    let mut serve_cfg = ServeConfig::new(cfg.policy, cfg.mode, capacity(&trace, cfg.capacity_frac));
    serve_cfg.shards = cfg.shards;
    serve_cfg.workers = cfg.workers;
    serve_cfg.queue_depth = cfg.queue_depth;
    serve_cfg.trainer = TrainerMode::Background;
    serve_cfg.clock = ServiceClock::Virtual(VirtualClock::new());
    serve_cfg.faults = Arc::new(cfg.schedule.compile());
    let load = LoadConfig { clients: cfg.clients, target_qps: 0.0, duration: None };

    // Deadlock detection: run the service on its own thread and bound the
    // wait. A service stuck on a channel or lock never returns; the timeout
    // converts that hang into a replayable failure instead of a hung CI job.
    let (done_tx, done_rx) = mpsc::sync_channel(1);
    let handle = std::thread::spawn(move || {
        let report = serve_trace(&trace, &serve_cfg, &load);
        let _ = done_tx.send(report);
    });
    let report = match done_rx.recv_timeout(cfg.timeout) {
        Ok(report) => {
            let _ = handle.join();
            report
        }
        Err(_) => {
            // The stuck thread is leaked deliberately: joining it would hang
            // the harness on exactly the deadlock being reported.
            return Err(fail(format!(
                "deadlock suspected: no result within {:?} \
                 ({} shards, {} workers, {} clients)",
                cfg.timeout, cfg.shards, cfg.workers, cfg.clients
            )));
        }
    };

    check_invariants(cfg, &report, trace_len).map_err(fail)?;
    Ok(report)
}

/// The interleaving-independent invariants every completed case must
/// satisfy, fault-injected or not.
fn check_invariants(cfg: &CaseConfig, r: &ServeReport, trace_len: u64) -> Result<(), String> {
    let s = &r.snapshot.stats;
    let f = &r.faults;

    // Thread-failure-free: scripted faults are injected *handled* faults;
    // none of them may kill a thread outright.
    if f.client_failures != 0 || f.worker_failures != 0 || f.retrainer_failure {
        return Err(format!(
            "thread deaths under scripted faults: {} clients, {} workers, retrainer {}",
            f.client_failures, f.worker_failures, f.retrainer_failure
        ));
    }
    // Complete replay: faults never cut the trace short.
    if r.replayed != trace_len {
        return Err(format!("replayed {} of {trace_len} requests", r.replayed));
    }
    // Conservation: every submitted request is either processed (counted as
    // exactly one of hit/write/bypass) or consumed by an injected panic.
    if s.accesses != r.replayed - f.shard_panics {
        return Err(format!(
            "conservation: accesses {} != replayed {} - panics {}",
            s.accesses, r.replayed, f.shard_panics
        ));
    }
    if s.accesses != s.hits + s.files_written + s.bypasses {
        return Err(format!(
            "conservation: accesses {} != hits {} + writes {} + bypasses {}",
            s.accesses, s.hits, s.files_written, s.bypasses
        ));
    }
    // Per-shard blocks sum to the merged block.
    let mut sum = otae_cache::CacheStats::default();
    for ps in &r.snapshot.per_shard {
        sum.merge(ps);
    }
    if sum != *s {
        return Err("per-shard stat blocks do not sum to the merged block".into());
    }
    if r.snapshot.response.requests() != s.accesses {
        return Err(format!(
            "latency accounting: {} samples vs {} accesses",
            r.snapshot.response.requests(),
            s.accesses
        ));
    }
    // Model accounting: every fitted model installs, fails, or is dropped.
    if cfg.mode == Mode::Proposal {
        let accounted =
            r.model_swaps + u64::from(f.failed_trainings) + u64::from(f.dropped_installs);
        if accounted != u64::from(r.trainings) {
            return Err(format!(
                "model accounting: swaps {} + failed {} + dropped {} != trainings {}",
                r.model_swaps, f.failed_trainings, f.dropped_installs, r.trainings
            ));
        }
        // Graceful degradation: a gate that never warmed admits everything —
        // no classifier decisions, no bypasses, exactly like Original mode.
        if r.model_swaps == 0 && (s.bypasses != 0 || r.snapshot.confusion.total() != 0) {
            return Err(format!(
                "degradation: cold gate but {} bypasses / {} decisions",
                s.bypasses,
                r.snapshot.confusion.total()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_case_passes_and_reports_no_faults() {
        let r = run_case(&CaseConfig::new(11, FaultSchedule::clean())).expect("clean case");
        assert!(r.faults.is_clean());
        assert!(r.model_swaps > 0, "clean Proposal run must train and install");
    }

    #[test]
    fn every_named_plan_completes_with_invariants_held() {
        for plan in FaultSchedule::named() {
            let name = plan.name.clone();
            let r = run_case(&CaseConfig::new(13, plan))
                .unwrap_or_else(|e| panic!("plan {name} failed:\n{e}"));
            if name == "shard-chaos" {
                assert!(r.faults.shard_panics > 0, "{name} must actually panic shards");
            }
            if name == "training-outage" {
                assert_eq!(r.model_swaps, 0, "{name} must keep the gate cold");
                assert!(r.faults.failed_trainings > 0);
            }
        }
    }

    /// The tightest queue the service allows, on a topology where both
    /// sides contend for it: every push blocks until a worker steals, and
    /// every injected shard panic unwinds a worker that is mid-batch. The
    /// run must still complete under the deadlock detector (`run_case`
    /// checks `accesses == replayed - shard_panics`).
    #[test]
    fn shard_panics_at_queue_depth_one_complete_and_conserve() {
        let plan = FaultSchedule::by_name("shard-chaos").expect("named plan");
        let mut case = CaseConfig::new(17, plan);
        case.shards = 2;
        case.workers = 2;
        case.queue_depth = 1;
        let r = run_case(&case).unwrap_or_else(|e| panic!("{e}"));
        assert!(r.faults.shard_panics > 0, "the schedule must actually panic shards");
        assert_eq!(r.snapshot.stats.accesses, r.replayed - r.faults.shard_panics);
    }

    #[test]
    fn failure_report_carries_seed_schedule_and_replay_command() {
        let f = HarnessFailure {
            seed: 99,
            schedule: FaultSchedule::seeded(99),
            message: "synthetic".into(),
        };
        let text = f.to_string();
        assert!(text.contains("seed:     99"), "{text}");
        assert!(text.contains("seeded:99"), "{text}");
        assert!(text.contains("cargo run -p otae-harness -- --seed 99 --plan seeded:99"), "{text}");
    }
}
