//! The service orchestrator: prepare → (clients ⇒ per-worker queues ⇒
//! workers, each owning its shards) → snapshot, with an optional background
//! retrainer hot-swapping the admission model mid-replay.

use crate::clock::ServiceClock;
use crate::fault::{FaultPlan, FaultReport, InjectedFault, NoFaults};
use crate::gate::AdmissionGate;
use crate::loadgen::{replay_client, sample_queue_bound, ClientReport, LoadConfig, Router};
use crate::request::{prepare, PreparedRequest, Verdicts};
use crate::retrainer::{run_retrainer, RetrainerReport};
use crate::shard::{shard_of, ShardState, Snapshot};
use crate::store_layer::{ShardStore, StoreMode};
use otae_core::pipeline::{Mode, PolicyKind};
use otae_core::{resolve_criteria, CriteriaSolution, ReaccessIndex, TrainingConfig};
use otae_device::{HddProfile, LatencyModel};
use otae_store::intake::{self, Consumer, IntakeStats};
use otae_trace::Trace;
use std::sync::Arc;
use std::time::Duration;

/// How Proposal-mode models are trained and delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainerMode {
    /// The prepare pass drives the daily trainer and records the run's
    /// model schedule: every request is judged by the model current at its
    /// trace position. Deterministic: a 1-shard/1-worker replay reproduces
    /// the single-threaded simulator exactly, regardless of queue depth or
    /// scheduling.
    Inline,
    /// A dedicated retrainer thread samples forwarded requests, trains at
    /// daily boundaries, and hot-swaps the shared gate; workers resolve
    /// the model at dispatch time. This is the production path.
    Background,
}

/// Full configuration of a serve run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of independent cache shards.
    pub shards: usize,
    /// Most request-processing worker threads. Each worker owns a
    /// contiguous run of `ceil(shards / min(workers, shards))` shards, so a
    /// worker beyond the shard count would own nothing and is not spawned;
    /// [`ServeReport::workers`] is the number that ran.
    pub workers: usize,
    /// Bound of *each* worker's ingestion queue (requests buffered between
    /// the clients and that worker); at most `workers × queue_depth`
    /// requests are buffered in total.
    pub queue_depth: usize,
    /// Replacement policy (each shard runs its own instance).
    pub policy: PolicyKind,
    /// Admission mode: the paper's Original/Proposal/Ideal plus the policy
    /// zoo's filters (SecondHit, TinyLFU, RejectX, CoinFlip).
    pub mode: Mode,
    /// Training delivery for Proposal mode. For every non-learned policy
    /// the retraining path is a structural no-op: no samples are forwarded,
    /// no retrainer thread spawns, the gate stays cold.
    pub trainer: TrainerMode,
    /// Total cache capacity in bytes, split evenly across shards.
    pub capacity: u64,
    /// Classifier training configuration (Proposal only).
    pub training: TrainingConfig,
    /// Device latency model for response-time accounting.
    pub latency: LatencyModel,
    /// HDD profile charging backend disk-head time per miss.
    pub hdd: HddProfile,
    /// Admit probability for the CoinFlip policy (ignored otherwise).
    pub coin_p: f32,
    /// Override the computed one-time-access threshold `M`.
    pub m_override: Option<u64>,
    /// Most requests a worker steals from its queue under one queue lock
    /// (minimum 1), then drives through its shards in pop order — and the
    /// block a client stages per queue and pushes under one lock; `1` takes
    /// the lock once per request on both sides. Decisions do not depend on
    /// it.
    pub max_batch: usize,
    /// Time source for pacing and duration caps (wall by default; virtual
    /// for deterministic harness runs).
    pub clock: ServiceClock,
    /// Fault-injection schedule ([`NoFaults`] by default). Faults apply to
    /// the background training path and the shard request path.
    pub faults: Arc<dyn FaultPlan>,
    /// Segment-store backing for admitted objects ([`StoreMode::None`] by
    /// default — the storeless pre-store behaviour).
    pub store: StoreMode,
    /// Tuning for the attached stores (segment size, write-queue depth,
    /// compaction trigger). Ignored when `store` is `None`.
    pub store_config: otae_store::StoreConfig,
}

impl ServeConfig {
    /// Config with single-shard/single-worker topology and paper-default
    /// training, latency and criteria settings.
    pub fn new(policy: PolicyKind, mode: Mode, capacity: u64) -> Self {
        Self {
            shards: 1,
            workers: 1,
            queue_depth: 1024,
            policy,
            mode,
            trainer: TrainerMode::Inline,
            capacity,
            training: TrainingConfig::default(),
            latency: LatencyModel::default(),
            hdd: HddProfile::default(),
            coin_p: 0.5,
            m_override: None,
            max_batch: 64,
            clock: ServiceClock::Wall,
            faults: Arc::new(NoFaults),
            store: StoreMode::None,
            store_config: otae_store::StoreConfig::default(),
        }
    }
}

/// Outcome of one serve run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Admission mode the run served under.
    pub mode: Mode,
    /// Final merged + per-shard statistics.
    pub snapshot: Snapshot,
    /// Criteria solution used for labels/admission.
    pub criteria: CriteriaSolution,
    /// Requests actually submitted (equals the trace length unless a
    /// duration cap cut the replay short or a client thread died).
    pub replayed: u64,
    /// Wall-clock time of the replay phase: client start to the last
    /// worker joining, i.e. until the final request was processed. The
    /// retrainer's post-replay backlog drain (digesting samples after the
    /// last request is already served) is shutdown bookkeeping, not
    /// serving, and is excluded — though any CPU the retrainer stole
    /// *during* the replay is still fully visible here. Excludes prepare.
    pub wall: Duration,
    /// The background retrainer's post-replay tail: wall time from the
    /// last worker joining (where [`Self::wall`] stops) to the retrainer
    /// joining, i.e. the fits and sample digestion still running after the
    /// final request was served. Zero without a background retrainer.
    /// Timing-dependent, so not part of the fingerprint.
    pub retrain_tail: Duration,
    /// Requests processed per wall-clock second of the replay phase.
    pub throughput_rps: f64,
    /// Worker threads that ran (at most `min(cfg.workers, cfg.shards)`).
    pub workers: usize,
    /// Admission models installed into the gate over the run.
    pub model_swaps: u64,
    /// Daily boundaries that found a trainable window: models fitted, plus
    /// background jobs an injected `RetrainFault::Fail` killed before they
    /// fitted anything.
    pub trainings: u32,
    /// Injected-fault and thread-failure tally (all-zero in clean runs).
    pub faults: FaultReport,
    /// Install lag of the background retrainer: the most requests already
    /// forwarded but not yet digested when a model was installed (see
    /// [`RetrainerReport::install_backlog_max`]). Timing-dependent, so not
    /// part of the fingerprint; zero without a background retrainer.
    pub install_backlog_max: u64,
    /// The install backlog summed over every install of the run.
    pub install_backlog_total: u64,
    /// The client → worker queues' counters, merged over every worker's
    /// queue: pushes and the client locks that made them, batches, parks
    /// and wakes on both sides, the highest high water. Timing-dependent,
    /// so not part of the fingerprint.
    pub handoff: IntakeStats,
    /// The same counters for the shard stores' command intakes (callers are
    /// the producers, each store's writer the consumer), merged over
    /// shards; `None` when serving storeless. Timing-dependent, so kept
    /// out of the fingerprint and of [`Snapshot::store`].
    pub store_intake: Option<IntakeStats>,
    /// Bytes the replay read beside the trace
    /// ([`PreparedTrace::bytes`](crate::PreparedTrace::bytes)): the request
    /// records, the feature column (the index's) and the model schedule.
    pub prepared_bytes: u64,
    /// Mean modeled service latency (µs).
    pub mean_latency_us: f64,
    /// Median modeled service latency (µs).
    pub latency_p50_us: f64,
    /// 99th-percentile modeled service latency (µs).
    pub latency_p99_us: f64,
    /// 99.9th-percentile modeled service latency (µs).
    pub latency_p999_us: f64,
}

impl ServeReport {
    /// The run's [`RunFingerprint`](otae_core::RunFingerprint), comparable
    /// against [`otae_core::pipeline::RunResult::fingerprint`] for
    /// differential testing. Classifier fields are populated only for
    /// Proposal runs, mirroring the simulator's `classifier: Option<_>`
    /// report.
    pub fn fingerprint(&self) -> otae_core::RunFingerprint {
        let proposal = self.mode == Mode::Proposal;
        otae_core::RunFingerprint {
            stats: self.snapshot.stats,
            m: self.criteria.m,
            confusion: proposal.then_some(self.snapshot.confusion),
            rectifications: proposal.then_some(self.snapshot.rectifications),
            trainings: proposal.then_some(self.trainings),
            service_time_us: self.snapshot.service_time.total_us(),
            service_peak_us: self.snapshot.service_time.peak_window_us(),
        }
    }
}

/// Replay a trace through the sharded service, building the reaccess index
/// internally. For repeated runs share the index via
/// [`serve_trace_with_index`]: it also holds the feature column, so only
/// the first Proposal run over it extracts the features.
pub fn serve_trace(trace: &Trace, cfg: &ServeConfig, load: &LoadConfig) -> ServeReport {
    let index = ReaccessIndex::build(trace);
    serve_trace_with_index(trace, &index, cfg, load)
}

/// Replay a trace through the sharded service against a precomputed
/// reaccess index.
///
/// # Panics
///
/// On zero workers or clients, an index built for another trace, or a
/// trace of more than `u32::MAX` requests (see [`prepare`]).
pub fn serve_trace_with_index(
    trace: &Trace,
    index: &ReaccessIndex,
    cfg: &ServeConfig,
    load: &LoadConfig,
) -> ServeReport {
    assert!(cfg.workers > 0, "need at least one worker");
    assert!(load.clients > 0, "need at least one client");
    assert_eq!(index.len(), trace.len(), "index must match the trace");

    let (criteria, m) = resolve_criteria(trace, index, cfg.policy, cfg.capacity, cfg.m_override);
    let v = cfg.training.cost.resolve(cfg.capacity, index.unique_bytes());

    let gate = AdmissionGate::new();
    let prepared = prepare(trace, index, cfg, &gate, m, v);

    // Build one segment store per shard before serving starts. A failed
    // open (disk mode only) degrades to storeless serving — recorded as a
    // store failure, never an unwind.
    let (stores, store_open_failures) =
        match ShardStore::build(&cfg.store, cfg.store_config, cfg.shards) {
            Ok(stores) => (stores, 0u64),
            Err(e) => {
                eprintln!("warning: segment store disabled, open failed: {e}");
                (Vec::new(), 1)
            }
        };
    let mut shards =
        ShardState::build_all(cfg, trace, m, criteria.history_table_capacity(), stores);
    // Ownership: worker `w` borrows shards `w * chunk ..` for the whole
    // scope and drains a queue of its own, which the clients fill by shard.
    let chunk = shards_per_worker(cfg.shards, cfg.workers);

    // The retrainer thread only exists for the learned policy: every filter
    // policy (and Original/Ideal) runs the whole replay without a trainer,
    // a sample queue, or a single gate install.
    let background = cfg.mode.is_learned() && cfg.trainer == TrainerMode::Background;
    // Requests cross the queues by reference, and samples the sample
    // queue by position: `prepared` is declared before the thread scope
    // below, so it outlives every client, worker and the retrainer.
    let (router, req_rxs) = Router::bounded(cfg.shards, chunk, cfg.queue_depth, cfg.max_batch);
    let (sample_tx, sample_rx) = if background {
        let bound = sample_queue_bound(prepared.requests.len(), load.clients);
        let (tx, rx) = intake::bounded(bound, ());
        (Some(tx), Some(rx))
    } else {
        (None, None)
    };

    let plan: &dyn FaultPlan = cfg.faults.as_ref();
    let mut shard_panics = 0u64;
    let mut handoff = IntakeStats::default();
    // Failure tallies accumulate in locals and land in the FaultReport via
    // one exhaustive literal below, so a new field cannot be forgotten
    // (merge-exhaustive).
    let mut client_failures = 0u32;
    let mut worker_failures = 0u32;
    let mut retrainer_failure = false;
    let mut client_reports: Vec<ClientReport> = Vec::new();
    let mut retrain_report = RetrainerReport::default();
    let clock = cfg.clock.start();
    // Thread failures are recorded, never propagated: a dead client only
    // loses its stride, a dead worker only its shards' share (its queue's
    // handles hang up on unwind rather than deadlock), a dead retrainer only
    // freezes the model — the service always reaches its snapshot.
    let (wall, retrain_tail) = std::thread::scope(|s| {
        let retrainer = sample_rx.map(|rx| {
            let (prepared, gate, training) = (&prepared, &gate, cfg.training.clone());
            s.spawn(move || run_retrainer(rx, prepared, gate, training, v, plan))
        });
        let workers: Vec<_> = shards
            .chunks_mut(chunk)
            .zip(req_rxs)
            .enumerate()
            .map(|(w, (owned, rx))| {
                let verdicts = Verdicts::new(&prepared.models, &prepared.features, &gate);
                let (first, n_shards, max_batch) = (w * chunk, cfg.shards, cfg.max_batch);
                // The closure owns `rx`: a worker that unwinds drops it,
                // which hangs its queue up instead of blocking the clients.
                s.spawn(move || run_worker(&rx, owned, first, n_shards, verdicts, plan, max_batch))
            })
            .collect();

        let clients: Vec<_> = (0..load.clients)
            .map(|c| {
                let router = router.clone();
                let stx = sample_tx.clone();
                let prepared = &prepared.requests;
                let clock = &clock;
                s.spawn(move || {
                    replay_client(
                        c,
                        load.clients,
                        prepared,
                        load,
                        clock,
                        &router,
                        stx.as_ref(),
                        plan,
                    )
                })
            })
            .collect();
        drop(router);
        drop(sample_tx);

        for h in clients {
            match h.join() {
                Ok(report) => client_reports.push(report),
                Err(_) => client_failures += 1,
            }
        }
        for w in workers {
            match w.join() {
                Ok((caught, queue)) => {
                    shard_panics += caught;
                    handoff.merge(&queue);
                }
                Err(_) => worker_failures += 1,
            }
        }
        // Every request is processed once the workers join; stamp the
        // replay wall here, before waiting out the retrainer's backlog.
        let wall = clock.wall_elapsed();
        let Some(r) = retrainer else { return (wall, Duration::ZERO) };
        match r.join() {
            Ok(report) => retrain_report = report,
            Err(_) => retrainer_failure = true,
        }
        (wall, clock.wall_elapsed().saturating_sub(wall))
    });

    let replayed: u64 = client_reports.iter().map(|r| r.submitted).sum();

    // Every worker has joined and handed its shards back: drain the store
    // write queues so the snapshot's byte counters cover every acknowledged
    // append.
    for shard in &mut shards {
        shard.flush_store();
    }
    let snapshot = Snapshot::merge(&shards, cfg.hdd);
    let store_intake = shards.iter().filter_map(ShardState::store_intake).reduce(|mut all, one| {
        all.merge(&one);
        all
    });
    // Destructured without `..`: a new retrainer counter has to be placed
    // in the report below before this compiles. `installs` is the one
    // field not copied — the gate's own swap count reports it.
    let RetrainerReport {
        trainings: background_trainings,
        installs: _,
        failed,
        deferred,
        dropped_installs,
        install_backlog_max,
        install_backlog_total,
    } = retrain_report;
    let faults = FaultReport {
        dropped_samples: client_reports.iter().map(|r| r.dropped_samples).sum(),
        corrupted_samples: client_reports.iter().map(|r| r.corrupted_samples).sum(),
        failed_trainings: failed,
        deferred_installs: deferred,
        dropped_installs: dropped_installs + prepared.dropped_installs,
        shard_panics,
        client_failures,
        worker_failures,
        retrainer_failure,
        store_failures: store_open_failures + snapshot.store.as_ref().map_or(0, |s| s.errors),
    };
    let response = snapshot.response.clone();
    ServeReport {
        mode: cfg.mode,
        snapshot,
        criteria,
        replayed,
        wall,
        retrain_tail,
        throughput_rps: replayed as f64 / wall.as_secs_f64().max(1e-9),
        workers: cfg.shards.div_ceil(chunk),
        model_swaps: gate.swaps(),
        trainings: if background { background_trainings } else { prepared.trainings },
        faults,
        install_backlog_max,
        install_backlog_total,
        handoff,
        store_intake,
        prepared_bytes: prepared.bytes(),
        mean_latency_us: response.mean_us(),
        latency_p50_us: response.percentile_us(0.5),
        latency_p99_us: response.percentile_us(0.99),
        latency_p999_us: response.percentile_us(0.999),
    }
}

/// Length of the contiguous run of shards each worker owns when at most
/// `workers` workers split `shards` shards: shard `s` belongs to worker
/// `s / chunk`, and `ceil(shards / chunk) ≤ min(workers, shards)` workers
/// have anything to own.
pub(crate) fn shards_per_worker(shards: usize, workers: usize) -> usize {
    shards.div_ceil(workers.min(shards))
}

/// Drain one worker's queue into the shards it owns until every client
/// hangs up: steal up to `max_batch` requests under one queue lock (blocking
/// only while the queue is empty) and drive them through their shards in pop
/// order — the shards are this worker's alone (`owned` is shards `first ..`
/// of `n_shards`), so nothing is locked and the model is consulted per miss.
/// The batch holds borrowed requests and is reused, so the loop allocates
/// nothing; a worker with a single shard does not hash.
/// A gate-resolved run's model snapshot is refreshed at most once per batch,
/// and only when the gate's lock-free epoch hint says it moved — the read
/// lock and `Arc` clone leave the per-request path entirely
/// ([`Verdicts::refresh`]). An injected shard panic is raised and caught
/// here, before the shard is touched: the request is consumed, the panic
/// counted, and the worker keeps draining. Returns the injected panics
/// caught and the counters of the queue it drained.
fn run_worker(
    rx: &Consumer<&PreparedRequest>,
    owned: &mut [ShardState],
    first: usize,
    n_shards: usize,
    mut verdicts: Verdicts<'_>,
    plan: &dyn FaultPlan,
    max_batch: usize,
) -> (u64, IntakeStats) {
    let max_batch = max_batch.max(1);
    let mut batch: Vec<&PreparedRequest> = Vec::with_capacity(max_batch);
    let mut panics = 0u64;

    while rx.pop_batch(&mut batch, max_batch) {
        verdicts.refresh();
        for &req in &batch {
            let shard = if owned.len() == 1 { first } else { shard_of(req.object, n_shards) };
            let request = u64::from(req.idx);
            if plan.shard_panic(shard, request) {
                let unwound = std::panic::catch_unwind(|| {
                    std::panic::panic_any(InjectedFault { shard, request })
                });
                debug_assert!(unwound.is_err());
                panics += 1;
                continue;
            }
            owned[shard - first].process(req, &mut verdicts);
        }
    }
    (panics, rx.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::fault::{RetrainFault, SampleFault};
    use crate::gate::GateModel;
    use crate::request::{ModelSource, PreparedTrace};
    use crate::shard::tests::{prepared, sharded, snapshot, tree, tree_digest, NO_MODEL};
    use otae_core::{ModelSchedule, N_FEATURES};
    use otae_trace::{generate, TraceConfig};
    use std::time::Instant;

    fn trace() -> Trace {
        generate(&TraceConfig { n_objects: 4_000, seed: 17, ..Default::default() })
    }

    fn cap(t: &Trace) -> u64 {
        (t.unique_bytes() as f64 * 0.02) as u64
    }

    #[test]
    fn original_mode_serves_whole_trace() {
        let t = trace();
        let cfg = ServeConfig::new(PolicyKind::Lru, Mode::Original, cap(&t));
        let r = serve_trace(&t, &cfg, &LoadConfig::default());
        assert_eq!(r.replayed as usize, t.len());
        assert_eq!(r.snapshot.stats.accesses as usize, t.len());
        assert_eq!(r.snapshot.stats.bypasses, 0);
        assert!(r.throughput_rps > 0.0);
        assert_eq!(r.model_swaps, 0);
        assert_eq!((r.install_backlog_max, r.install_backlog_total), (0, 0), "no retrainer ran");
        assert_eq!(r.prepared_bytes, 24 * t.len() as u64, "one 24-byte record a request");
        let h = r.handoff;
        assert_eq!(h.pushes, r.replayed, "every request crossed the queue once");
        assert!(h.pushes.div_ceil(64) <= h.batches && h.batches <= h.pushes, "{h:?}");
        assert!((1..=1024).contains(&h.high_water), "{h:?}");
        assert!(h.producer_wake_rounds <= h.producer_parks, "a round takes back a park's mark");
        assert!(r.faults.is_clean());
        assert!(r.latency_p999_us >= r.latency_p99_us);
        assert!(r.latency_p99_us >= r.latency_p50_us);
    }

    #[test]
    fn sharded_multiworker_conserves_accesses() {
        let t = trace();
        let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::Ideal, cap(&t));
        cfg.shards = 4;
        cfg.workers = 4;
        let load = LoadConfig { clients: 2, target_qps: 0.0, duration: None };
        let r = serve_trace(&t, &cfg, &load);
        assert_eq!(r.snapshot.stats.accesses as usize, t.len());
        assert_eq!(r.handoff.pushes, r.replayed, "the four queues' pushes merge");
        let s = &r.snapshot.stats;
        assert_eq!(s.accesses, s.hits + s.files_written + s.bypasses);
        assert!(s.bypasses > 0, "ideal mode must bypass one-time objects");
    }

    #[test]
    fn background_trainer_swaps_models_in() {
        let t = trace();
        let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::Proposal, cap(&t));
        cfg.trainer = TrainerMode::Background;
        cfg.shards = 2;
        cfg.workers = 2;
        let r = serve_trace(&t, &cfg, &LoadConfig::default());
        assert_eq!(r.snapshot.stats.accesses as usize, t.len());
        assert!(r.trainings >= 7, "9-day trace retrains daily: {}", r.trainings);
        assert_eq!(r.model_swaps, r.trainings as u64);
        assert!(r.faults.is_clean());
        // Install lag is timing-dependent; only its shape is fixed.
        assert!(r.install_backlog_max <= r.install_backlog_total);
        assert!(r.install_backlog_total <= r.install_backlog_max * r.model_swaps);
    }

    #[test]
    fn retrain_tail_is_zero_without_a_background_retrainer() {
        let t = trace();
        let original = ServeConfig::new(PolicyKind::Lru, Mode::Original, cap(&t));
        let inline = ServeConfig::new(PolicyKind::Lru, Mode::Proposal, cap(&t));
        assert_eq!(inline.trainer, TrainerMode::Inline);
        for cfg in [original, inline] {
            let r = serve_trace(&t, &cfg, &LoadConfig::default());
            assert_eq!(r.retrain_tail, Duration::ZERO, "{:?}", cfg.mode);
        }
        let mut background = ServeConfig::new(PolicyKind::Lru, Mode::Proposal, cap(&t));
        background.trainer = TrainerMode::Background;
        let call = Instant::now();
        let r = serve_trace(&t, &background, &LoadConfig::default());
        let call = call.elapsed();
        assert!(r.retrain_tail <= call, "tail {:?} > call {call:?}", r.retrain_tail);
        assert!(r.wall + r.retrain_tail <= call);
    }

    #[test]
    fn second_hit_mode_is_served() {
        let t = trace();
        let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::SecondHit, cap(&t));
        cfg.shards = 2;
        cfg.workers = 2;
        let r = serve_trace(&t, &cfg, &LoadConfig::default());
        assert_eq!(r.snapshot.stats.accesses as usize, t.len());
        assert!(r.snapshot.stats.bypasses > 0, "doorkeeper must bypass first-timers");
    }

    #[test]
    fn duration_cap_stops_early() {
        let t = trace();
        let cfg = ServeConfig::new(PolicyKind::Lru, Mode::Original, cap(&t));
        let load = LoadConfig {
            clients: 1,
            target_qps: 200.0,
            duration: Some(Duration::from_millis(100)),
        };
        let r = serve_trace(&t, &cfg, &load);
        assert!(r.replayed > 0);
        assert!((r.replayed as usize) < t.len(), "cap must stop the replay");
        assert_eq!(r.snapshot.stats.accesses, r.replayed);
    }

    #[test]
    fn virtual_clock_replays_paced_load_instantly() {
        let t = trace();
        let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::Original, cap(&t));
        cfg.clock = ServiceClock::Virtual(VirtualClock::new());
        // 500 QPS over tens of thousands of requests would take minutes of
        // wall time; virtually it completes immediately and fully.
        let load = LoadConfig { clients: 2, target_qps: 500.0, duration: None };
        let wall = Instant::now();
        let r = serve_trace(&t, &cfg, &load);
        assert_eq!(r.replayed as usize, t.len());
        assert!(wall.elapsed() < Duration::from_secs(30), "virtual pacing must not sleep");
    }

    /// Faults on the training path never disturb the request path: with
    /// every sample dropped and every training failed, the service still
    /// serves the whole trace and (never having installed a model) behaves
    /// exactly like admit-all.
    #[test]
    fn training_outage_degrades_to_admit_all() {
        #[derive(Debug)]
        struct TrainingOutage;
        impl FaultPlan for TrainingOutage {
            fn sample_fault(&self, idx: u64) -> SampleFault {
                if idx.is_multiple_of(2) {
                    SampleFault::Drop
                } else {
                    SampleFault::Deliver
                }
            }
            fn retrain_fault(&self, _attempt: u32) -> RetrainFault {
                RetrainFault::Fail
            }
        }
        let t = trace();
        let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::Proposal, cap(&t));
        cfg.trainer = TrainerMode::Background;
        // Two shards, two workers, one client: each shard's requests reach
        // its owner in trace order, so the cross-check below is exact.
        cfg.shards = 2;
        cfg.workers = 2;
        cfg.faults = Arc::new(TrainingOutage);
        let r = serve_trace(&t, &cfg, &LoadConfig::default());
        assert_eq!(r.workers, 2);
        assert_eq!(r.snapshot.stats.accesses as usize, t.len());
        assert_eq!(r.model_swaps, 0, "every training was failed");
        assert!(r.faults.failed_trainings > 0);
        assert!(r.faults.dropped_samples > 0);
        assert_eq!(r.snapshot.stats.bypasses, 0, "cold gate must admit everything");
        assert_eq!(r.snapshot.confusion.total(), 0);
        // Cross-check against an Original-mode run on the same topology
        // (shard count changes per-shard LRU behaviour): the same
        // fingerprint, once the classifier block only a Proposal run
        // reports (empty here, but present) is set aside.
        let mut orig = ServeConfig::new(PolicyKind::Lru, Mode::Original, cap(&t));
        orig.shards = 2;
        orig.workers = 2;
        let o = serve_trace(&t, &orig, &LoadConfig::default());
        let degraded = otae_core::RunFingerprint {
            confusion: None,
            rectifications: None,
            trainings: None,
            ..r.fingerprint()
        };
        assert_eq!(degraded, o.fingerprint());
        assert_eq!(r.snapshot.per_shard, o.snapshot.per_shard);
    }

    /// Injected shard panics consume their requests without breaking the
    /// books: `accesses == replayed - shard_panics` and the shards keep
    /// serving after each recovery.
    #[test]
    fn shard_panics_are_recovered_and_conserved() {
        crate::fault::silence_injected_panics();
        #[derive(Debug)]
        struct PanicEvery1000;
        impl FaultPlan for PanicEvery1000 {
            fn shard_panic(&self, _shard: usize, idx: u64) -> bool {
                idx % 1000 == 7
            }
        }
        let t = trace();
        let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::Original, cap(&t));
        cfg.shards = 4;
        cfg.workers = 4;
        cfg.faults = Arc::new(PanicEvery1000);
        let load = LoadConfig { clients: 2, target_qps: 0.0, duration: None };
        let r = serve_trace(&t, &cfg, &load);
        assert_eq!(r.replayed as usize, t.len());
        let expected_panics = (0..t.len() as u64).filter(|i| i % 1000 == 7).count() as u64;
        assert_eq!(r.faults.shard_panics, expected_panics);
        assert!(expected_panics > 0);
        assert_eq!(r.snapshot.stats.accesses, r.replayed - r.faults.shard_panics);
        assert_eq!(r.faults.worker_failures, 0, "workers must survive injected panics");
    }

    /// With a memory store attached, every admitted miss lands as an acked
    /// put and every eviction as an acked tombstone — the store's measured
    /// counters must reconcile exactly with the cache's decision counters.
    #[test]
    fn memory_store_reconciles_with_cache_counters() {
        let t = trace();
        let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::Ideal, cap(&t));
        cfg.shards = 2;
        cfg.workers = 2;
        cfg.store = StoreMode::Memory;
        let r = serve_trace(&t, &cfg, &LoadConfig::default());
        assert!(r.faults.is_clean());
        let s = &r.snapshot.stats;
        let store = r.snapshot.store.as_ref().expect("store snapshot");
        assert_eq!(store.errors, 0);
        assert_eq!(store.stats.acked_puts, s.files_written);
        assert_eq!(store.stats.acked_removes, s.evictions);
        assert_eq!(store.stats.live_records, s.files_written - s.evictions);
        // Host bytes = payload bytes (the cache's byte-write counter)
        // plus framing overhead; never less.
        assert!(store.stats.host_bytes > s.bytes_written);
        assert!(store.wear_ledger().host_bytes() == store.stats.host_bytes);
        assert!(store.write_amplification() >= 1.0);
        // Every put, tombstone and the final flush crossed a store intake
        // once, merged over both shards.
        let intake = r.store_intake.expect("store intake counters");
        assert_eq!(intake.pushes, s.files_written + s.evictions + 2);
        assert!((2..=intake.pushes).contains(&intake.batches), "{intake:?}");
        assert!((1..=64).contains(&intake.high_water), "default queue depth: {intake:?}");
    }

    /// Store traffic is a pure side effect: the decision stream (and hence
    /// the fingerprint) is bit-identical with the store on or off.
    #[test]
    fn store_never_changes_decisions() {
        let t = trace();
        for mode in [Mode::Original, Mode::Ideal] {
            let mut with = ServeConfig::new(PolicyKind::Lru, mode, cap(&t));
            with.store = StoreMode::Memory;
            let without = ServeConfig::new(PolicyKind::Lru, mode, cap(&t));
            let a = serve_trace(&t, &with, &LoadConfig::default());
            let b = serve_trace(&t, &without, &LoadConfig::default());
            assert_eq!(a.fingerprint(), b.fingerprint(), "mode {mode:?}");
            assert!(a.snapshot.store.is_some());
            assert!(b.snapshot.store.is_none());
            assert!(a.store_intake.is_some() && b.store_intake.is_none());
        }
    }

    /// Disk mode writes real segment files under per-shard directories and
    /// reports the same reconciliation as memory mode.
    #[test]
    fn disk_store_writes_real_segments() {
        let root = std::env::temp_dir()
            .join("otae-serve-store-test")
            .join(format!("pid-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let t = trace();
        let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::Ideal, cap(&t));
        cfg.shards = 2;
        cfg.store = StoreMode::Disk(root.clone());
        let r = serve_trace(&t, &cfg, &LoadConfig::default());
        assert!(r.faults.is_clean());
        let store = r.snapshot.store.as_ref().expect("store snapshot");
        assert_eq!(store.stats.acked_puts, r.snapshot.stats.files_written);
        for shard in 0..2 {
            let dir = root.join(format!("shard-{shard:02}"));
            assert!(dir.is_dir(), "missing {}", dir.display());
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The service's thread rig without prepare or report: `clients`
    /// clients route `prepared`'s requests to one queue per worker while the
    /// workers drive their runs of `shards`, and `meanwhile` runs on the
    /// calling thread. Returns every queue's counters.
    fn drive(
        shards: &mut [ShardState],
        workers: usize,
        queue_depth: usize,
        clients: usize,
        prepared: &PreparedTrace,
        gate: &AdmissionGate,
        meanwhile: impl FnOnce(),
    ) -> Vec<IntakeStats> {
        let n_shards = shards.len();
        let chunk = shards_per_worker(n_shards, workers);
        let (router, rxs) = Router::bounded(n_shards, chunk, queue_depth, 64);
        let load = LoadConfig { clients, target_qps: 0.0, duration: None };
        let clock = ServiceClock::Wall.start();
        let plan: &dyn FaultPlan = &NoFaults;
        let reqs = &prepared.requests;
        std::thread::scope(|s| {
            let workers: Vec<_> = shards
                .chunks_mut(chunk)
                .zip(&rxs)
                .enumerate()
                .map(|(w, (owned, rx))| {
                    let verdicts = Verdicts::new(&prepared.models, &prepared.features, gate);
                    s.spawn(move || run_worker(rx, owned, w * chunk, n_shards, verdicts, plan, 64))
                })
                .collect();
            let clients: Vec<_> = (0..clients)
                .map(|c| {
                    let (router, load, clock) = (router.clone(), &load, &clock);
                    s.spawn(move || {
                        replay_client(c, load.clients, reqs, load, clock, &router, None, plan)
                    })
                })
                .collect();
            drop(router);
            meanwhile();
            let submitted: u64 =
                clients.into_iter().map(|c| c.join().expect("client").submitted).sum();
            assert_eq!(submitted as usize, reqs.len());
            for w in workers {
                assert_eq!(w.join().expect("worker").0, 0, "no panic was injected");
            }
        });
        rxs.iter().map(Consumer::stats).collect()
    }

    /// `reqs` through `run_worker` on the calling thread, stolen in batches
    /// of exactly `max_batch`: the queue holds them all before the worker
    /// starts.
    fn drain_prefilled(
        shards: &mut [ShardState],
        reqs: &[PreparedRequest],
        verdicts: Verdicts<'_>,
        plan: &dyn FaultPlan,
        max_batch: usize,
    ) -> u64 {
        let (router, rxs) = Router::bounded(shards.len(), shards.len(), reqs.len(), max_batch);
        let (load, clock) = (LoadConfig::default(), ServiceClock::Wall.start());
        let sent = replay_client(0, 1, reqs, &load, &clock, &router, None, plan).submitted;
        assert_eq!(sent as usize, reqs.len(), "consumer alive");
        drop(router);
        run_worker(&rxs[0], shards, 0, shards.len(), verdicts, plan, max_batch).0
    }

    /// The per-request reference for the exactness test: the request kernel
    /// over the same policy and capacity as a 1-shard `sharded(..)`, driven
    /// one request at a time with the verdict computed ahead of the
    /// hit/miss test — no queue, no batch, no worker. Returns the counters
    /// a snapshot of the shard must equal.
    fn kernel_reference(
        reqs: &[PreparedRequest],
        verdict: impl Fn(&PreparedRequest) -> Option<bool>,
    ) -> (otae_cache::CacheStats, otae_ml::ConfusionMatrix, u64) {
        use otae_core::{Admission, Kernel};
        let trace = generate(&TraceConfig { n_objects: 100, seed: 1, ..Default::default() });
        let mut kernel = Kernel::new(PolicyKind::Lru.build(1 << 20, &trace));
        let mut admission = Admission::new(Mode::Proposal, None, 100, 64, true);
        for req in reqs {
            let (verdict, now) = (verdict(req), u64::from(req.idx));
            let admit = || admission.decide(verdict, req.object, now, req.truth);
            kernel.access(req.object, u64::from(req.size), now, admit, |_| {});
        }
        let learned = admission.learned().expect("proposal admission is learned");
        (*kernel.stats(), learned.confusion, learned.history.rectifications())
    }

    /// The exactness claim at worker granularity: however the pop order is
    /// cut into batches, driving it through the owned shard must leave
    /// counters bit-identical to the kernel driven one request at a time,
    /// including across a model swap mid-stream — whether the swap comes
    /// from the run's schedule, or from a stamped model giving way to the
    /// gate's.
    #[test]
    fn any_batching_of_the_pop_order_matches_the_kernel_reference_exactly() {
        let (model_a, model_b) = (Arc::new(tree(0.5)), Arc::new(tree(0.2)));
        // A stream with repeats, a swap at the midpoint — model A judges the
        // first half, model B the second — and truths that exercise both
        // confusion outcomes.
        let reqs: Vec<PreparedRequest> =
            (0..400u32).map(|i| prepared(i, i % 23, 500 + (i % 7) * 100, i % 3 == 0)).collect();
        let rows: Vec<[f32; N_FEATURES]> = (0..400)
            .map(|i| {
                let mut row = [0.0; N_FEATURES];
                row[0] = (i % 10) as f32 / 10.0;
                row
            })
            .collect();
        let (want_stats, want_confusion, want_rectifications) = kernel_reference(&reqs, |r| {
            let model = if r.idx < 200 { &model_a } else { &model_b };
            Some(model.predict(&rows[r.idx as usize]))
        });
        assert!(want_confusion.total() > 0, "models must have been consulted");
        assert!(want_stats.bypasses > 0 && want_stats.files_written > 0);

        let stamped =
            |installs| ModelSource::Stamped(ModelSchedule { m: 0, v: 0.0, installs, trainings: 0 });
        let scheduled = stamped(vec![(0, Arc::clone(&model_a)), (200, Arc::clone(&model_b))]);
        let first_half = stamped(vec![(0, model_a)]);
        let second_half = ModelSource::Gate;
        let gate = AdmissionGate::new();
        gate.install_arc(model_b);
        for batch in [1usize, 3, 32, 400] {
            let mut c = sharded(1, Mode::Proposal);
            let v = Verdicts::new(&scheduled, &rows, &gate);
            assert_eq!(drain_prefilled(&mut c, &reqs, v, &NoFaults, batch), 0);
            let mut stamped_then_gate = sharded(1, Mode::Proposal);
            for (half, models) in [(&reqs[..200], &first_half), (&reqs[200..], &second_half)] {
                let v = Verdicts::new(models, &rows, &gate);
                assert_eq!(drain_prefilled(&mut stamped_then_gate, half, v, &NoFaults, batch), 0);
            }
            for (arm, shards) in [("schedule", &c), ("stamped then gate", &stamped_then_gate)] {
                let got = snapshot(shards);
                assert_eq!(got.stats, want_stats, "{arm}, batch={batch}");
                assert_eq!(got.confusion, want_confusion, "{arm}, batch={batch}");
                assert_eq!(got.rectifications, want_rectifications, "{arm}, batch={batch}");
            }
        }
    }

    /// A shard dying mid-request, on a shard the worker only borrows: the
    /// injected panic unwinds and is caught before the shard is touched, so
    /// the shard keeps serving and its counters saw exactly the real
    /// requests.
    #[test]
    fn injected_panic_leaves_shard_usable_and_counters_untouched() {
        crate::fault::silence_injected_panics();
        #[derive(Debug)]
        struct PanicAtOne;
        impl FaultPlan for PanicAtOne {
            fn shard_panic(&self, shard: usize, idx: u64) -> bool {
                assert_eq!(shard, shard_of(otae_trace::ObjectId(1), 2), "the global shard index");
                idx == 1
            }
        }
        let mut c = sharded(2, Mode::Original);
        let reqs: Vec<PreparedRequest> = (0..3).map(|i| prepared(i, 1, 1000, false)).collect();
        let owned: &mut [ShardState] = &mut c;
        let gate = AdmissionGate::new();
        let verdicts = Verdicts::new(&NO_MODEL, &[], &gate);
        let caught = drain_prefilled(owned, &reqs, verdicts, &PanicAtOne, 64);
        assert_eq!(caught, 1, "the injection must unwind, once");
        // The shard recovered: same object still hits, counters saw exactly
        // the two *real* requests.
        let snap = snapshot(&c);
        assert_eq!(snap.stats.accesses, 2);
        assert_eq!(snap.stats.hits, 1);
    }

    /// The trace's first `n` requests, the run resolving its model from the
    /// gate, with a synthetic feature the test trees split on.
    fn gate_resolved(t: &Trace, index: &ReaccessIndex, m: u64, n: usize) -> PreparedTrace {
        let (requests, features) = t.requests[..n]
            .iter()
            .zip(0u32..)
            .map(|(req, idx)| {
                let mut row = [0.0f32; N_FEATURES];
                row[0] = (idx % 100) as f32 / 100.0;
                let size = t.photo(req.object).size;
                let truth = index.is_one_time(idx as usize, m);
                (PreparedRequest { idx, object: req.object, size, truth, ts: req.ts }, row)
            })
            .unzip();
        let models = ModelSource::Gate;
        let features = Arc::new(features);
        PreparedTrace { requests, features, models, trainings: 0, dropped_installs: 0 }
    }

    /// The ISSUE's hot-swap acceptance test: four workers, each draining
    /// its own queue into its own shard, replay a stream resolving the
    /// model from the gate per request while the main thread keeps swapping
    /// fresh models in; the replay must complete (no blocking) and the
    /// workers must observe installed models.
    #[test]
    fn hot_swap_mid_replay_never_blocks_workers() {
        let t = trace();
        let index = ReaccessIndex::build(&t);
        let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::Proposal, cap(&t));
        cfg.shards = 4;
        let mut shards = ShardState::build_all(&cfg, &t, 1000, 4096, Vec::new());
        let gate = AdmissionGate::new();
        gate.install_arc(Arc::new(tree(0.5))); // warm before replay so every decision consults a model
        let n = 40_000.min(t.len());
        let prepared = gate_resolved(&t, &index, 1000, n);

        let swaps_target = 50u64;
        drive(&mut shards, 4, 256, 1, &prepared, &gate, || {
            // Swap models while the replay is in flight.
            for i in 0..swaps_target {
                gate.install_arc(Arc::new(tree(0.2 + 0.6 * (i % 10) as f32 / 10.0)));
                std::thread::sleep(Duration::from_micros(200));
            }
        });

        assert_eq!(gate.swaps(), swaps_target + 1);
        let snap = snapshot(&shards);
        assert_eq!(snap.stats.accesses as usize, n, "every request must be served");
        assert!(snap.per_shard.iter().all(|s| s.accesses > 0), "every worker must have served");
        assert!(snap.confusion.total() > 0, "workers must have consulted the models");
    }

    /// `queue_depth` bounds each worker's queue, not their sum: with two
    /// clients filling four queues, no queue ever held more than its bound
    /// and every one of them was used.
    #[test]
    fn every_workers_queue_stays_inside_queue_depth() {
        let t = trace();
        let index = ReaccessIndex::build(&t);
        let prepared = gate_resolved(&t, &index, 1000, 20_000.min(t.len()));
        for queue_depth in [1usize, 2, 64] {
            let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::Original, cap(&t));
            cfg.shards = 4;
            let mut shards = ShardState::build_all(&cfg, &t, 1000, 4096, Vec::new());
            let gate = AdmissionGate::new();
            let queues = drive(&mut shards, 4, queue_depth, 2, &prepared, &gate, || {});
            assert_eq!(queues.len(), 4, "one queue per worker");
            for (w, queue) in queues.iter().enumerate() {
                let held = queue.high_water;
                assert!(
                    (1..=queue_depth as u64).contains(&held),
                    "queue {w} held {held} of {queue_depth}"
                );
            }
            assert_eq!(snapshot(&shards).stats.accesses as usize, prepared.requests.len());
        }
    }

    /// Drops one sample in eight and corrupts another one in eight, chosen
    /// by a hash of the trace position.
    #[derive(Debug)]
    struct SeededSampleFaults;
    impl FaultPlan for SeededSampleFaults {
        fn sample_fault(&self, idx: u64) -> SampleFault {
            match idx.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 61 {
                0 => SampleFault::Drop,
                1 => SampleFault::Corrupt,
                _ => SampleFault::Deliver,
            }
        }
    }

    /// A 1×1 background run's sample path without the worker: one client
    /// forwards the prepared trace's samples (its request queue deep enough
    /// to hold them all) and the retrainer digests them into its own gate
    /// once the client hangs up. Returns both sides' reports and the model
    /// the gate ends with.
    fn background_sample_stream(
        t: &Trace,
        cfg: &ServeConfig,
    ) -> (ClientReport, RetrainerReport, Option<Arc<GateModel>>) {
        let index = ReaccessIndex::build(t);
        let (_, m) = resolve_criteria(t, &index, cfg.policy, cfg.capacity, cfg.m_override);
        let v = cfg.training.cost.resolve(cfg.capacity, index.unique_bytes());
        let gate = AdmissionGate::new();
        let prepared = prepare(t, &index, cfg, &gate, m, v);
        let (router, rxs) = Router::bounded(1, 1, prepared.requests.len(), cfg.max_batch);
        let (stx, srx) = intake::bounded(sample_queue_bound(prepared.requests.len(), 1), ());
        let clock = ServiceClock::Wall.start();
        let plan = cfg.faults.as_ref();
        let load = LoadConfig::default();
        let client =
            replay_client(0, 1, &prepared.requests, &load, &clock, &router, Some(&stx), plan);
        drop((router, stx, rxs));
        let retrainer = run_retrainer(srx, &prepared, &gate, cfg.training.clone(), v, plan);
        (client, retrainer, gate.current())
    }

    /// Recorded before samples travelled by position: the sample stream of
    /// a 1×1 background run under seeded drops and corruptions, end to end
    /// — what the client tallied, how often the retrainer fitted, and the
    /// bytes of the tree it installed last. The service reports the same
    /// tallies.
    #[test]
    fn background_sample_stream_is_pinned() {
        let t = trace();
        let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::Proposal, cap(&t));
        cfg.trainer = TrainerMode::Background;
        cfg.faults = Arc::new(SeededSampleFaults);
        let (client, retrainer, model) = background_sample_stream(&t, &cfg);
        let tallies = (retrainer.trainings, client.dropped_samples, client.corrupted_samples);
        assert_eq!(tallies, (8, 2384, 2383));
        assert_eq!(retrainer.installs, retrainer.trainings);
        assert_eq!(model.as_deref().map(tree_digest), Some(7466998893877341639));

        let r = serve_trace(&t, &cfg, &LoadConfig::default());
        assert_eq!((r.trainings, r.faults.dropped_samples, r.faults.corrupted_samples), tallies);
    }

    /// Workers above the shard count would own nothing and are not spawned;
    /// below it, every worker owns a contiguous run and the runs cover the
    /// shards.
    #[test]
    fn workers_never_outnumber_shards() {
        for (shards, workers, ran) in
            [(1, 1, 1), (2, 4, 2), (4, 4, 4), (5, 3, 3), (5, 4, 3), (8, 3, 3), (8, 1, 1)]
        {
            let chunk = shards_per_worker(shards, workers);
            assert_eq!(shards.div_ceil(chunk), ran, "{shards} shards, {workers} workers");
            assert!(ran <= workers.min(shards));
        }
        let t = trace();
        let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::Original, cap(&t));
        cfg.shards = 2;
        cfg.workers = 4;
        let r = serve_trace(&t, &cfg, &LoadConfig::default());
        assert_eq!(r.workers, 2);
        assert_eq!(r.snapshot.stats.accesses as usize, t.len());
    }
}
