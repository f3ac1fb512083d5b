//! The four serve workloads: one trace replayed through `otae-serve` in a
//! closed loop (one client thread, unthrottled, each request submitted as
//! soon as the bounded queue takes it).

use crate::host::{peak_rss_mb, RunFacts};
use crate::layers;
use crate::report::RunOutput;
use crate::span::Tracer;
use crate::stats::{median, overhead_pct};
use crate::{clock, spec};
use otae_core::pipeline::{self, Mode, PolicyKind, RunConfig, RunFingerprint};
use otae_core::{solve_criteria, CriteriaSolution, ReaccessIndex};
use otae_serve::{
    serve_trace_with_index, FaultPlan, LoadConfig, RetrainFault, ServeConfig, ServeReport,
    StoreMode, TrainerMode,
};
use otae_trace::{generate, Trace, TraceConfig};
use std::sync::Arc;

/// One timed replay in this many is followed by another timed set-up (built
/// and dropped again), so the samples behind `setup_s` are spread over the
/// whole run like those of the calls instead of sitting in its first seconds.
pub const SETUP_EVERY: usize = 3;

/// Fewest timed replays a run reports on, however short `--seconds` is.
const MIN_TIMED_CALLS: usize = 3;

/// Recorded / unrecorded replay pairs in a traced run.
const TRACED_PAIRS: usize = 2;

/// The paper's 10 GB operating point: capacity is `10/448` of the unique
/// bytes, i.e. the working set is about 45× the cache.
const PAPER_CACHE_GB: f64 = 10.0;
const PAPER_WORKING_SET_GB: f64 = 448.0;

/// Cache capacity in bytes for `trace` at the paper's operating point.
pub fn paper_capacity(trace: &Trace) -> u64 {
    ((trace.unique_bytes() as f64) * PAPER_CACHE_GB / PAPER_WORKING_SET_GB).max(1.0) as u64
}

/// Topology, admission mode and input size of one serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    /// Workload name.
    pub name: &'static str,
    /// Admission mode.
    pub mode: Mode,
    /// Shards and workers (always equal here).
    pub shards: usize,
    /// Training delivery (only matters for `Mode::Proposal`).
    pub trainer: TrainerMode,
    /// Whether an in-memory segment store sits under the shards.
    pub store: bool,
    /// Objects in the generated trace (about 4.6 requests each).
    pub objects: usize,
    /// Objects under `--smoke`.
    pub smoke_objects: usize,
}

/// Storeless traces are sized for a 0.5-0.8 s replay (about 0.92 M requests,
/// 3× the old `serve_throughput` stage) so a 20 s run holds twenty or more:
/// this host's speed moves in phases of seconds to minutes, and what a run
/// reports is only as steady as the number of calls it saw. The cost per
/// request is the same as on a 500 k-object trace (measured interleaved).
const STORELESS_OBJECTS: usize = 200_000;

/// The store-backed replay runs ~12× slower per request and keeps every
/// admitted byte in memory until the call ends (~1.7 GB here), so its
/// trace is sized for a ~1.3 s replay. 24 k objects (1.1 GB) left the
/// learned gate's write rate moving 10 % from seed to seed; 48 k (2-3 GB)
/// fit only five replays into a run.
const STORE_OBJECTS: usize = 36_000;

/// The shape of serve workload `name`.
pub fn shape(name: &str) -> Option<ServeShape> {
    let storeless = |name, mode, shards, trainer| ServeShape {
        name,
        mode,
        shards,
        trainer,
        store: false,
        objects: STORELESS_OBJECTS,
        smoke_objects: 4_000,
    };
    match name {
        spec::SERVE_ORIGINAL => {
            Some(storeless(spec::SERVE_ORIGINAL, Mode::Original, 1, TrainerMode::Inline))
        }
        spec::SERVE_PROPOSAL => {
            Some(storeless(spec::SERVE_PROPOSAL, Mode::Proposal, 1, TrainerMode::Background))
        }
        spec::SERVE_FILTER_MT => {
            Some(storeless(spec::SERVE_FILTER_MT, Mode::TinyLfu, 2, TrainerMode::Inline))
        }
        spec::SERVE_STORE => Some(ServeShape {
            name: spec::SERVE_STORE,
            mode: Mode::Proposal,
            shards: 1,
            trainer: TrainerMode::Inline,
            store: true,
            objects: STORE_OBJECTS,
            smoke_objects: 1_500,
        }),
        _ => None,
    }
}

impl ServeShape {
    fn background(&self) -> bool {
        self.mode.is_learned() && self.trainer == TrainerMode::Background
    }

    /// Whether a replay's outcome is a pure function of the trace: one
    /// shard, one worker, and no retrainer racing the request path. Such
    /// a replay must reproduce the simulator's fingerprint exactly.
    fn deterministic(&self) -> bool {
        self.shards == 1 && !self.background()
    }

    /// Threads busy during a replay: client + workers (+ retrainer,
    /// + one store writer per shard).
    pub fn threads_needed(&self) -> usize {
        1 + self.shards + usize::from(self.background()) + if self.store { self.shards } else { 0 }
    }

    fn config(&self, capacity: u64) -> ServeConfig {
        let mut cfg = ServeConfig::new(PolicyKind::Lru, self.mode, capacity);
        cfg.shards = self.shards;
        cfg.workers = self.shards;
        cfg.trainer = self.trainer;
        if self.store {
            cfg.store = StoreMode::Memory;
            // Auto-compaction only fires when the store's writer finds its
            // intake empty, and under a replay's sustained load that is
            // decided by a wake-up race: the same binary and trace ran at
            // either ~36 k req/s (hundreds of passes) or ~87 k req/s (none).
            // A bimodal workload cannot hold a bound, so compaction is off
            // here: this is not the `StoreConfig` `otae-serve` ships, and
            // the default-config path is unmeasured under serve. Compaction
            // is measured on store_mixed, whose driver reads between writes
            // and so lets the writer idle. See the README's findings.
            cfg.store_config.compact_trigger = None;
        }
        cfg
    }

    /// The 1×1 inline twin of this workload's configuration — the arm
    /// whose fingerprint must equal the simulator's.
    fn reference_config(&self, capacity: u64) -> ServeConfig {
        let mut cfg = self.config(capacity);
        cfg.shards = 1;
        cfg.workers = 1;
        cfg.trainer = TrainerMode::Inline;
        cfg
    }
}

/// Everything the program under test receives: the generated trace and
/// what is derived from it before serving starts.
pub struct Inputs {
    /// The generated trace.
    pub trace: Trace,
    /// Reaccess distances of every request.
    pub index: ReaccessIndex,
    /// Cache capacity in bytes.
    pub capacity: u64,
}

impl Inputs {
    /// Generate the seed's trace and index it, under spans.
    pub fn build(objects: usize, seed: u64, tr: &mut Tracer) -> (Self, f64, f64) {
        let cfg = TraceConfig { n_objects: objects, seed, ..TraceConfig::default() };
        let (trace, generate_s) = tr.span("trace.generate", || generate(&cfg));
        let (index, index_s) = tr.span("reaccess.build", || ReaccessIndex::build(&trace));
        let capacity = paper_capacity(&trace);
        (Self { trace, index, capacity }, generate_s, index_s)
    }

    /// The criteria solution every run over these inputs resolves.
    pub fn criteria(&self) -> CriteriaSolution {
        solve_criteria(&self.index, self.capacity, self.trace.avg_object_size().max(1.0), 3)
    }
}

const LOAD: LoadConfig = LoadConfig { clients: 1, target_qps: 0.0, duration: None };

/// One replay: the report and the wall of the whole call.
fn replay(
    inputs: &Inputs,
    cfg: &ServeConfig,
    tr: &mut Tracer,
    span: &'static str,
) -> (ServeReport, f64) {
    tr.span(span, || serve_trace_with_index(&inputs.trace, &inputs.index, cfg, &LOAD))
}

/// Requests a replay failed to serve: never submitted, lost to a panic or
/// a dead thread, or refused by the store.
fn failed_requests(report: &ServeReport, attempted: u64) -> u64 {
    let f = &report.faults;
    attempted.saturating_sub(report.replayed)
        + f.shard_panics
        + u64::from(f.client_failures)
        + u64::from(f.worker_failures)
        + u64::from(f.retrainer_failure)
        + f.store_failures
}

/// The output checks every replay must pass.
fn check_replay(out: &mut RunOutput, what: &str, report: &ServeReport, inputs: &Inputs) {
    let len = inputs.trace.len() as u64;
    let s = &report.snapshot.stats;
    out.check(report.replayed == len, || {
        format!("{what}: replayed {} of {len} requests", report.replayed)
    });
    out.check(s.accesses == report.replayed, || {
        format!("{what}: {} accesses accounted for {} replayed", s.accesses, report.replayed)
    });
    out.check(s.hits + s.files_written + s.bypasses == s.accesses, || {
        format!(
            "{what}: hits {} + admitted {} + bypassed {} != accesses {}",
            s.hits, s.files_written, s.bypasses, s.accesses
        )
    });
    out.check(report.faults.is_clean(), || format!("{what}: faults {:?}", report.faults));
    let store_errors = report.snapshot.store.as_ref().map_or(0, |st| st.errors);
    out.check(store_errors == 0, || format!("{what}: {store_errors} store errors"));
}

/// Compare a deterministic replay against the simulator's fingerprint.
pub fn check_fingerprint(
    out: &mut RunOutput,
    what: &str,
    got: &RunFingerprint,
    expected: &RunFingerprint,
) {
    out.check(got == expected, || {
        format!("{what}: fingerprint differs from the simulator's\n  serve:    {got:?}\n  pipeline: {expected:?}")
    });
}

/// Samples collected over timed replays.
#[derive(Default)]
struct Replays {
    call_wall_s: Vec<f64>,
    replay_wall_s: Vec<f64>,
    rps: Vec<f64>,
    hit: Vec<f64>,
    bwr: Vec<f64>,
    latency_us: Vec<f64>,
    wa: Vec<f64>,
    last: Option<ServeReport>,
}

impl Replays {
    fn push(&mut self, report: ServeReport, call_wall_s: f64) {
        self.call_wall_s.push(call_wall_s);
        self.replay_wall_s.push(report.wall.as_secs_f64());
        self.rps.push(report.replayed as f64 / report.wall.as_secs_f64().max(1e-9));
        self.hit.push(report.snapshot.stats.file_hit_rate());
        self.bwr.push(report.snapshot.stats.byte_write_rate());
        self.latency_us.push(report.mean_latency_us);
        // No log under the cache means every admitted byte reaches the
        // device exactly once.
        self.wa.push(report.snapshot.store.as_ref().map_or(1.0, |s| s.write_amplification()));
        self.last = Some(report);
    }
}

/// Warm up, verify against the simulator, and return the pipeline
/// fingerprint for per-replay checks. `warmup_s` is the wall of the
/// untimed first call (page faults, lazy allocation, allocator growth).
fn warm_up_and_verify(
    shape: &ServeShape,
    inputs: &Inputs,
    out: &mut RunOutput,
    tr: &mut Tracer,
) -> (RunFingerprint, f64) {
    let cfg = shape.config(inputs.capacity);
    let (warm, warmup_s) = replay(inputs, &cfg, tr, "serve.warmup");
    check_replay(out, "warm-up", &warm, inputs);

    let (expected, _) = tr.span("check.pipeline", || {
        let rc = RunConfig::new(PolicyKind::Lru, shape.mode, inputs.capacity);
        pipeline::run_with_index(&inputs.trace, &inputs.index, &rc).fingerprint()
    });
    if shape.deterministic() {
        check_fingerprint(out, "warm-up", &warm.fingerprint(), &expected);
    } else {
        let (reference, _) =
            replay(inputs, &shape.reference_config(inputs.capacity), tr, "check.reference");
        check_replay(out, "1x1 inline reference", &reference, inputs);
        check_fingerprint(out, "1x1 inline reference", &reference.fingerprint(), &expected);
    }
    (expected, warmup_s)
}

/// Untraced run: the end-to-end metrics.
pub fn run(shape: &ServeShape, facts: &RunFacts) -> RunOutput {
    let mut out = RunOutput::default();
    let mut tr = Tracer::new(false);
    let objects = if facts.smoke { shape.smoke_objects } else { shape.objects };

    let (inputs, generate_s, index_s) = Inputs::build(objects, facts.seed, &mut tr);
    let mut setup_s = vec![generate_s + index_s];
    let (expected, _) = warm_up_and_verify(shape, &inputs, &mut out, &mut tr);

    let cfg = shape.config(inputs.capacity);
    let len = inputs.trace.len() as u64;
    let mut replays = Replays::default();
    let started = clock::now();
    while replays.rps.len() < MIN_TIMED_CALLS || clock::secs_since(started) < facts.seconds {
        let (report, call_wall_s) = replay(&inputs, &cfg, &mut tr, "serve.call");
        check_replay(&mut out, "timed replay", &report, &inputs);
        if shape.deterministic() {
            check_fingerprint(&mut out, "timed replay", &report.fingerprint(), &expected);
        }
        out.attempted += len;
        out.failed += failed_requests(&report, len);
        replays.push(report, call_wall_s);
        if replays.rps.len() % SETUP_EVERY == 1 {
            let (again, generate_s, index_s) = Inputs::build(objects, facts.seed, &mut tr);
            setup_s.push(generate_s + index_s);
            drop(again);
        }
    }

    out.set_best("setup_s", &setup_s);
    out.set_best("throughput_rps", &replays.rps);
    out.set_best("call_wall_s", &replays.call_wall_s);
    out.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    out.set_samples("file_hit_rate", &replays.hit);
    out.set_samples("byte_write_rate", &replays.bwr);
    out.set_samples("modeled_mean_latency_us", &replays.latency_us);
    out.set_samples("write_amplification", &replays.wa);
    out
}

/// Fails every training, so the gate stays cold: what is left of the
/// background path is sampling, channel traffic and history bookkeeping.
#[derive(Debug)]
struct FailAllTrainings;

impl FaultPlan for FailAllTrainings {
    fn retrain_fault(&self, _attempt: u32) -> RetrainFault {
        RetrainFault::Fail
    }
}

/// Traced run: spans around every call into a layer, and the per-layer
/// metrics. Returns the output and the tracer holding the spans.
pub fn run_traced(shape: &ServeShape, facts: &RunFacts) -> (RunOutput, Tracer) {
    let mut out = RunOutput::per_layer_zeroed();
    let mut tr = Tracer::new(true);
    let objects = if facts.smoke { shape.smoke_objects } else { shape.objects };

    let setup = tr.enter("setup");
    let (inputs, generate_s, index_s) = Inputs::build(objects, facts.seed, &mut tr);
    let (criteria, criteria_s) = tr.span("criteria.solve", || inputs.criteria());
    let _ = tr.exit(setup);
    let len = inputs.trace.len() as u64;
    out.set("trace.generate_s", generate_s);
    out.set("trace.requests", len as f64);
    out.set("reaccess.build_s", index_s);
    out.set("criteria.solve_ms", criteria_s * 1e3);
    out.set("criteria.m", criteria.m as f64);

    let (_, warmup_s) = warm_up_and_verify(shape, &inputs, &mut out, &mut tr);
    out.set("serve.warmup_wall_s", warmup_s);

    // Recorded and unrecorded replays alternate, so drift hits both arms.
    let cfg = shape.config(inputs.capacity);
    let (mut recorded, mut unrecorded) = (Replays::default(), Replays::default());
    let pairs = if facts.smoke { 1 } else { TRACED_PAIRS };
    for _ in 0..pairs {
        for (arm, recording) in [(&mut recorded, true), (&mut unrecorded, false)] {
            tr.set_recording(recording);
            let (report, call_wall_s) = replay(&inputs, &cfg, &mut tr, "serve.call");
            check_replay(&mut out, "traced-run replay", &report, &inputs);
            out.attempted += len;
            out.failed += failed_requests(&report, len);
            arm.push(report, call_wall_s);
        }
    }
    tr.set_recording(true);
    out.set("tracing_overhead_pct", overhead_pct(&recorded.rps, &unrecorded.rps));

    let mut replay_wall = recorded.replay_wall_s.clone();
    replay_wall.extend(&unrecorded.replay_wall_s);
    let mut call_wall = recorded.call_wall_s.clone();
    call_wall.extend(&unrecorded.call_wall_s);
    out.set_samples("serve.replay_wall_s", &replay_wall);
    let serve_ns: Vec<f64> = replay_wall.iter().map(|w| w * 1e9 / len as f64).collect();
    out.set_samples("serve.ns_per_req", &serve_ns);
    let serve_ns_per_req = out.value("serve.ns_per_req").unwrap_or(f64::NAN);
    if shape.mode.is_learned() {
        let last = recorded.last.as_ref().expect("at least one recorded replay");
        out.set("serve.model_swaps", last.model_swaps as f64);
        out.set("serve.trainings", f64::from(last.trainings));
    }
    if shape.background() {
        let mut cold_cfg = cfg.clone();
        cold_cfg.faults = Arc::new(FailAllTrainings);
        let (cold, _) = replay(&inputs, &cold_cfg, &mut tr, "serve.call_cold_gate");
        out.check(cold.model_swaps == 0, || "cold-gate replay installed a model".into());
        let cold_ns = cold.wall.as_secs_f64() * 1e9 / cold.replayed.max(1) as f64;
        out.set("serve.cold_gate_ns_per_req", cold_ns);
        out.set("serve.retrain_interference_ns_per_req", serve_ns_per_req - cold_ns);
    }
    if let Some(store) = recorded.last.as_ref().and_then(|r| r.snapshot.store.as_ref()) {
        layers::set_store_counters(&mut out, &store.stats);
    }

    let probes = tr.enter("layers");
    let ctx = layers::Context { inputs: &inputs, criteria, cfg: &cfg, smoke: facts.smoke };
    let prepare_s = layers::prepare_and_handoff(&ctx, &mut out, &mut tr);
    out.set("serve.prepare_share", prepare_s / median(&call_wall));
    layers::kernel(&ctx, shape.mode, &mut out, &mut tr);
    let pipeline_ns = out.value("pipeline.ns_per_req").unwrap_or(f64::NAN);
    out.set("serve.handoff_lock_ns_per_req", serve_ns_per_req - pipeline_ns);
    if shape.store {
        layers::store(&mut out, &mut tr, facts.smoke);
    }
    let _ = tr.exit(probes);
    out.set("trace.spans", tr.spans().len() as f64);
    (out, tr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_facts(workload: &str) -> RunFacts {
        RunFacts {
            workload: workload.into(),
            seed: 42,
            seconds: 0.0,
            traced: false,
            smoke: true,
            commit: "test".into(),
            rustc: "test".into(),
        }
    }

    #[test]
    fn every_serve_workload_has_a_shape_and_store_mixed_has_none() {
        for name in spec::SERVE_WORKLOADS {
            let s = shape(name).expect("serve workload");
            assert_eq!(s.name, name);
            assert!(s.smoke_objects < s.objects);
        }
        assert!(shape(spec::STORE_MIXED).is_none());
        let mt = shape(spec::SERVE_FILTER_MT).expect("filter_mt");
        assert_eq!((mt.shards, mt.threads_needed(), mt.deterministic()), (2, 3, false));
        let store = shape(spec::SERVE_STORE).expect("store");
        assert_eq!((store.threads_needed(), store.deterministic()), (3, true));
        assert!(!shape(spec::SERVE_PROPOSAL).expect("proposal").deterministic());
    }

    /// Acceptance: a deliberately wrong expected fingerprint fails the run
    /// (and a failed run makes the command exit non-zero, see `main`).
    #[test]
    fn a_wrong_expected_fingerprint_makes_the_run_incorrect() {
        let shape = shape(spec::SERVE_ORIGINAL).expect("shape");
        let mut tr = Tracer::new(false);
        let (inputs, _, _) = Inputs::build(shape.smoke_objects, 42, &mut tr);
        let (report, _) = replay(&inputs, &shape.config(inputs.capacity), &mut tr, "serve.call");
        let rc = RunConfig::new(PolicyKind::Lru, shape.mode, inputs.capacity);
        let expected = pipeline::run_with_index(&inputs.trace, &inputs.index, &rc).fingerprint();

        let mut out = RunOutput::default();
        check_replay(&mut out, "replay", &report, &inputs);
        check_fingerprint(&mut out, "replay", &report.fingerprint(), &expected);
        assert!(out.correct(), "the real fingerprints agree: {:?}", out.failures);

        let mut wrong = expected;
        wrong.stats.hits += 1;
        check_fingerprint(&mut out, "replay", &report.fingerprint(), &wrong);
        assert!(!out.correct());
        assert!(out.failures[0].contains("fingerprint differs"));
        assert!(out.result_line().contains("\"correct\": false"));
    }

    #[test]
    fn a_short_replay_is_counted_as_failed_requests() {
        let shape = shape(spec::SERVE_ORIGINAL).expect("shape");
        let mut tr = Tracer::new(false);
        let (inputs, _, _) = Inputs::build(shape.smoke_objects, 7, &mut tr);
        let (mut report, _) =
            replay(&inputs, &shape.config(inputs.capacity), &mut tr, "serve.call");
        let len = inputs.trace.len() as u64;
        assert_eq!(failed_requests(&report, len), 0);
        report.replayed -= 5;
        report.faults.shard_panics = 2;
        assert_eq!(failed_requests(&report, len), 7);
        let mut out = RunOutput::default();
        check_replay(&mut out, "replay", &report, &inputs);
        assert!(!out.correct());
    }

    #[test]
    fn smoke_run_reports_every_end_to_end_metric() {
        let shape = shape(spec::SERVE_STORE).expect("shape");
        let out = run(&shape, &smoke_facts(spec::SERVE_STORE));
        assert!(out.correct(), "{:?}", out.failures);
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 0);
        for m in &spec::END_TO_END {
            let v = out.value(m.name).unwrap_or_else(|| panic!("{} missing", m.name));
            assert!(v.is_finite() && v > 0.0, "{} = {v}", m.name);
        }
    }
}
