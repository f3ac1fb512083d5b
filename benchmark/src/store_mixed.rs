//! `store_mixed`: the segment store as the backing store of a cache that
//! also *reads* it — the seeded trace replayed through an LRU in the
//! driver, every hit a `get_into`, every admitted miss a `put`, every
//! eviction a `remove`, and the device closed and reopened (recovered)
//! between sessions.
//!
//! The put/remove stream, its key skew and its payload sizes are exactly
//! what `otae-serve` hands its store in `Mode::Original` (put on admit,
//! then a remove per eviction, sizes from the trace); a unit test holds
//! the driver's LRU against the simulator's counts. What this workload
//! adds is the read per hit and the reopen, which `otae-serve` never does,
//! so a put-path gain that costs reads, compaction or recovery shows here
//! and nowhere else.
//!
//! Closed loop, one client. The flush policy is forced by the store's
//! contract, not chosen: a put is visible to `get_into` only once the
//! writer has acknowledged it, so the driver flushes exactly when a hit
//! lands on a key whose put it has not flushed yet (and before each
//! close). Every read is therefore of a settled key and is held to the
//! model strictly.

use crate::clock;
use crate::host::{peak_rss_mb, RunFacts};
use crate::layers;
use crate::report::RunOutput;
use crate::serve::{paper_capacity, SETUP_EVERY};
use crate::span::Tracer;
use crate::stats::{overhead_pct, percentile};
use otae_cache::{Cache, CacheStats, Evicted};
use otae_core::pipeline::PolicyKind;
use otae_device::LatencyModel;
use otae_serve::fill_payload;
use otae_store::{
    MemBackend, NoStoreFaults, RecoveryReport, SegmentStore, StoreConfig, StoreStats, MAX_PAYLOAD,
};
use otae_trace::{generate, ObjectId, Trace, TraceConfig};
use std::sync::Arc;
use std::time::Instant;

/// Fewest timed sessions a run reports on.
const MIN_TIMED_SESSIONS: usize = 3;

/// Every this-many reads are compared byte for byte against
/// `fill_payload`; the rest are checked by length.
const FULL_COMPARE_EVERY: u64 = 64;

/// Resident keys read back after every reopen.
const REOPEN_READBACKS: usize = 64;

/// In a traced run, every this-many store calls become a span of their
/// own (all of them are timed; recording each would make the span file,
/// not the store, the thing being measured).
const SPAN_EVERY: u64 = 256;

/// Removed keys a reopen brought back: the per-layer metric of a traced
/// run and the defect counter in an untraced run's record, both as the
/// mean per reopen.
pub const RESURRECTED_KEYS: &str = "store.resurrected_keys_per_reopen";

/// Input sizes of the workload.
#[derive(Debug, Clone, Copy)]
pub struct MixedShape {
    /// Objects in the generated trace (about 4.6 requests each).
    pub objects: usize,
    /// Sessions one pass over the trace is cut into. A session — reopen
    /// the device (recovery), replay the next slice, flush, close — is the
    /// timed unit; the request stream wraps around at the end of the
    /// trace with cache and device kept, so every timed session starts
    /// from a warm cache and a recovered log.
    pub sessions_per_pass: usize,
}

impl MixedShape {
    /// Full size: 60 k objects (≈ 275 k requests; the cache, and so the
    /// store's live set, is ≈ 36 MB or 4-5 segments, against ≈ 4.5 GB of
    /// puts a pass, so the log turns over a hundred times and compaction
    /// runs throughout). A session is ≈ 17 k requests, about a second.
    pub const FULL: Self = Self { objects: 60_000, sessions_per_pass: 16 };
    /// `--smoke`: still enough reads and puts for a p99 with ten samples
    /// beyond it.
    pub const SMOKE: Self = Self { objects: 1_500, sessions_per_pass: 3 };
}

/// Threads busy while the workload runs: the driver and the store writer.
pub const THREADS_NEEDED: usize = 2;

/// Everything the program under test receives: the generated trace and the
/// cache capacity derived from it.
struct Inputs {
    trace: Trace,
    capacity: u64,
}

impl Inputs {
    fn build(shape: MixedShape, seed: u64) -> Self {
        let cfg = TraceConfig { n_objects: shape.objects, seed, ..TraceConfig::default() };
        let trace = generate(&cfg);
        let capacity = paper_capacity(&trace);
        Self { trace, capacity }
    }
}

/// Per-call timings of a recorded session, in ns.
#[derive(Default)]
struct OpTimes {
    get_ns: Vec<f64>,
    put_ns: Vec<f64>,
}

/// What one session's requests added up to.
#[derive(Default)]
struct Tally {
    cache: CacheStats,
    modeled_us: f64,
    flushes: u64,
    failed: u64,
    /// Set for the recorded sessions of a traced run.
    times: Option<OpTimes>,
}

/// The cache in front of the store — the driver's model of what the store
/// must hold — the device, and the position in the request stream.
struct Driver<'a> {
    inputs: &'a Inputs,
    backend: MemBackend,
    cache: Box<dyn Cache<ObjectId> + Send>,
    evicted: Vec<Evicted<ObjectId>>,
    /// Object has a put the driver has not flushed yet.
    unflushed: Vec<bool>,
    unflushed_keys: Vec<usize>,
    /// Requests replayed so far; the stream wraps around the trace.
    replayed: usize,
    reads: u64,
    store_calls: u64,
    /// The paper's Eq. 3-6 device constants, applied to the request stream.
    latency: LatencyModel,
    tally: Tally,
    payload: Vec<u8>,
    value: Vec<u8>,
    expected: Vec<u8>,
}

/// Keep the first few failure lines; the tally counts the rest.
fn note(failures: &mut Vec<String>, what: String) {
    if failures.len() < 16 {
        failures.push(what);
    }
}

fn open(backend: &MemBackend) -> Result<(SegmentStore, RecoveryReport), String> {
    SegmentStore::open(Arc::new(backend.clone()), StoreConfig::default(), Arc::new(NoStoreFaults))
        .map_err(|e| format!("open failed: {e}"))
}

impl<'a> Driver<'a> {
    /// An empty cache over an empty device.
    fn new(inputs: &'a Inputs) -> Self {
        Self {
            inputs,
            backend: MemBackend::new(),
            cache: PolicyKind::Lru.build(inputs.capacity, &inputs.trace),
            evicted: Vec::new(),
            unflushed: vec![false; inputs.trace.meta.len()],
            unflushed_keys: Vec::new(),
            replayed: 0,
            reads: 0,
            store_calls: 0,
            latency: LatencyModel::default(),
            tally: Tally::default(),
            payload: Vec::new(),
            value: Vec::new(),
            expected: Vec::new(),
        }
    }

    fn payload_len(&self, object: ObjectId) -> usize {
        u64::from(self.inputs.trace.photo(object).size).min(u64::from(MAX_PAYLOAD)) as usize
    }

    /// Start timing a store call, in a traced run's recorded session.
    fn call_start(&mut self) -> Option<Instant> {
        self.store_calls += 1;
        self.tally.times.is_some().then(clock::now)
    }

    fn call_end(&mut self, tr: &mut Tracer, name: &'static str, t0: Option<Instant>) {
        let (Some(t0), Some(times)) = (t0, self.tally.times.as_mut()) else { return };
        let t1 = clock::now();
        let ns = t1.duration_since(t0).as_nanos() as f64;
        match name {
            "store.get_into" => times.get_ns.push(ns),
            "store.put" => times.put_ns.push(ns),
            _ => {}
        }
        if self.store_calls.is_multiple_of(SPAN_EVERY) {
            tr.record(name, t0, t1);
        }
    }

    /// Flush: afterwards every put so far is acknowledged and readable.
    fn flush(&mut self, store: &SegmentStore, tr: &mut Tracer) {
        let (result, _) = tr.span("store.flush", || store.flush());
        self.tally.failed += u64::from(result.is_err());
        self.tally.flushes += 1;
        for key in self.unflushed_keys.drain(..) {
            self.unflushed[key] = false;
        }
    }

    /// Read a resident object and hold the result against the model: it
    /// must be there, with the right length, and 1 in 64 byte for byte.
    fn read(
        &mut self,
        store: &SegmentStore,
        object: ObjectId,
        tr: &mut Tracer,
        failures: &mut Vec<String>,
    ) {
        if self.unflushed[object.0 as usize] {
            self.flush(store, tr);
        }
        let key = u64::from(object.0);
        let t0 = self.call_start();
        let found = store.get_into(key, &mut self.value);
        self.call_end(tr, "store.get_into", t0);
        let len = self.payload_len(object);
        let wrong = match found {
            Err(e) => Some(format!("get_into({key}) failed: {e}")),
            Ok(false) => Some(format!("resident key {key} is not in the store")),
            Ok(true) if self.value.len() != len => {
                Some(format!("key {key}: {} bytes, expected {len}", self.value.len()))
            }
            Ok(true) if self.reads.is_multiple_of(FULL_COMPARE_EVERY) => {
                fill_payload(key, len, &mut self.expected);
                (self.value != self.expected)
                    .then(|| format!("key {key}: payload differs from fill_payload"))
            }
            Ok(true) => None,
        };
        self.reads += 1;
        if let Some(wrong) = wrong {
            self.tally.failed += 1;
            note(failures, wrong);
        }
    }

    /// The next request of the stream: a hit reads the store; a miss is
    /// admitted (put) and whatever the cache evicts for it is removed —
    /// the order `otae-serve`'s shard uses.
    fn request(&mut self, store: &SegmentStore, tr: &mut Tracer, failures: &mut Vec<String>) {
        let trace = &self.inputs.trace;
        let object = trace.requests[self.replayed % trace.len()].object;
        let size = u64::from(trace.photo(object).size);
        let now = self.replayed as u64;
        self.replayed += 1;
        let hit = self.cache.contains(&object);
        self.tally.modeled_us += self.latency.request_latency_us(hit, size, false);
        if hit {
            self.cache.on_hit(&object, now);
            self.tally.cache.record_hit(size);
            self.read(store, object, tr, failures);
            return;
        }
        self.evicted.clear();
        self.cache.insert(object, size, now, &mut self.evicted);
        self.tally.cache.record_admitted_miss(size);
        // An object larger than the whole cache is never resident.
        if self.cache.contains(&object) {
            let key = u64::from(object.0);
            fill_payload(key, self.payload_len(object), &mut self.payload);
            let t0 = self.call_start();
            self.tally.failed += u64::from(store.put(key, &self.payload).is_err());
            self.call_end(tr, "store.put", t0);
            if !std::mem::replace(&mut self.unflushed[object.0 as usize], true) {
                self.unflushed_keys.push(object.0 as usize);
            }
        }
        for i in 0..self.evicted.len() {
            let Evicted { key, size } = self.evicted[i];
            self.tally.cache.record_eviction(size);
            let t0 = self.call_start();
            self.tally.failed += u64::from(store.remove(u64::from(key.0)).is_err());
            self.call_end(tr, "store.remove", t0);
        }
    }

    /// After a reopen: hold the recovered index against the model, key by
    /// key. The model stays authoritative. A resident key the store lost
    /// is a durability failure. A key the cache evicted (removed) that
    /// recovery brought back is counted and removed again, so the store
    /// converges to the model and one resurrection is counted once.
    /// Returns how many came back.
    fn reconcile(
        &mut self,
        store: &SegmentStore,
        report: &RecoveryReport,
        failures: &mut Vec<String>,
    ) -> u64 {
        let mut in_store = vec![false; self.unflushed.len()];
        let mut resurrected = 0;
        for (key, _) in store.live_entries() {
            match in_store.get_mut(key as usize) {
                Some(slot) => *slot = true,
                None => {
                    self.tally.failed += 1;
                    note(failures, format!("reopen: unknown key {key} in the index"));
                    continue;
                }
            }
            if !self.cache.contains(&ObjectId(key as u32)) {
                resurrected += 1;
                self.tally.failed += u64::from(store.remove(key).is_err());
            }
        }
        for (id, _) in in_store.iter().enumerate().filter(|(_, &stored)| !stored) {
            if self.cache.contains(&ObjectId(id as u32)) {
                self.tally.failed += 1;
                note(failures, format!("reopen: acknowledged key {id} is gone"));
            }
        }
        let expected = self.cache.len() as u64 + resurrected;
        if report.live_records != expected || report.torn_tail {
            self.tally.failed += 1;
            note(
                failures,
                format!(
                    "reopen: {report:?}, but the cache holds {} keys and {resurrected} removed \
                     keys came back",
                    self.cache.len()
                ),
            );
        }
        resurrected
    }

    /// One session: reopen the device (recovery), check what came back,
    /// replay the next `requests` requests, flush, close.
    fn session(
        &mut self,
        requests: usize,
        tr: &mut Tracer,
        timed_calls: bool,
        failures: &mut Vec<String>,
    ) -> Result<Session, String> {
        self.tally = Tally { times: timed_calls.then(OpTimes::default), ..Tally::default() };
        let whole = tr.enter("store_mixed.session");
        let (opened, recovery_s) = tr.span("store.open_recover", || open(&self.backend));
        let (store, report) = opened?;
        let resurrected = self.reconcile(&store, &report, failures);
        // Everything is settled right after a reopen: read keys back.
        let live = store.live_entries();
        for &(key, _) in live.iter().step_by((live.len() / REOPEN_READBACKS).max(1)) {
            if self.cache.contains(&ObjectId(key as u32)) {
                self.read(&store, ObjectId(key as u32), tr, failures);
            }
        }

        let ops = tr.enter("store_mixed.ops");
        for _ in 0..requests {
            self.request(&store, tr, failures);
        }
        self.flush(&store, tr);
        let ops_s = tr.exit(ops);

        let stats = store.stats();
        if stats.live_records != self.cache.len() as u64 {
            self.tally.failed += 1;
            note(
                failures,
                format!(
                    "after flush the store holds {} live records, the cache {}",
                    stats.live_records,
                    self.cache.len()
                ),
            );
        }
        let ((), _) = tr.span("store.close", || drop(store));
        let wall_s = tr.exit(whole);
        Ok(Session {
            recovery_s,
            ops_s,
            wall_s,
            tally: std::mem::take(&mut self.tally),
            store: stats,
            device_bytes: self.backend.total_bytes(),
            recovered_records: report.records,
            resurrected,
        })
    }
}

/// What one session measured.
struct Session {
    recovery_s: f64,
    ops_s: f64,
    wall_s: f64,
    tally: Tally,
    /// The store's counters (they restart at every open).
    store: StoreStats,
    /// Bytes on the device after the close.
    device_bytes: u64,
    recovered_records: u64,
    /// Removed keys that recovery brought back at this session's reopen.
    resurrected: u64,
}

/// Samples collected over sessions.
#[derive(Default)]
struct Sessions {
    rps: Vec<f64>,
    call_wall_s: Vec<f64>,
    recovery_ms: Vec<f64>,
    /// The cache's counts and modeled latency over all sessions pushed.
    cache: CacheStats,
    modeled_us: f64,
    wa: Vec<f64>,
    space: Vec<f64>,
    flushes: Vec<f64>,
    resurrected: Vec<f64>,
    last: Option<(StoreStats, u64)>,
}

impl Sessions {
    fn push(&mut self, out: &mut RunOutput, s: &Session) {
        let requests = s.tally.cache.accesses;
        out.attempted += requests;
        out.failed += s.tally.failed;
        self.rps.push(requests as f64 / s.ops_s.max(1e-9));
        self.call_wall_s.push(s.wall_s);
        self.recovery_ms.push(s.recovery_s * 1e3);
        self.cache.merge(&s.tally.cache);
        self.modeled_us += s.tally.modeled_us;
        self.wa.push(s.store.write_amplification());
        self.space.push(s.device_bytes as f64 / s.store.live_bytes.max(1) as f64);
        self.flushes.push(s.tally.flushes as f64);
        self.resurrected.push(s.resurrected as f64);
        self.last = Some((s.store, s.recovered_records));
    }
}

fn note_resurrected(out: &mut RunOutput, per_session: &[f64]) {
    let total: f64 = per_session.iter().sum();
    if total > 0.0 {
        out.notes.push(format!(
            "{total} removed keys came back over {} reopens (tombstone defect of the store at \
             this commit, see benchmark/README.md); each was counted and removed again",
            per_session.len()
        ));
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn shape_for(facts: &RunFacts) -> MixedShape {
    if facts.smoke {
        MixedShape::SMOKE
    } else {
        MixedShape::FULL
    }
}

/// The untimed first sessions: fill the cache, turn the log over once,
/// grow the allocator.
const WARMUP_SESSIONS: usize = 2;

/// Untraced run: the end-to-end metrics.
pub fn run(facts: &RunFacts) -> RunOutput {
    let mut out = RunOutput::default();
    if let Err(e) = run_inner(facts, &mut out) {
        out.check(false, || e);
    }
    out
}

fn run_inner(facts: &RunFacts, out: &mut RunOutput) -> Result<(), String> {
    let shape = shape_for(facts);
    let mut tr = Tracer::new(false);
    let mut failures = Vec::new();

    let (inputs, secs) = clock::timed(|| Inputs::build(shape, facts.seed));
    let mut setup_s = vec![secs];
    let per_session = inputs.trace.len().div_ceil(shape.sessions_per_pass);

    let mut driver = Driver::new(&inputs);
    for _ in 0..WARMUP_SESSIONS {
        let warm = driver.session(per_session, &mut tr, false, &mut failures)?;
        out.failed += warm.tally.failed;
    }
    let mut sessions = Sessions::default();
    let started = clock::now();
    while sessions.rps.len() < MIN_TIMED_SESSIONS || clock::secs_since(started) < facts.seconds {
        let s = driver.session(per_session, &mut tr, false, &mut failures)?;
        sessions.push(out, &s);
        // Set-up samples are spread over the run, like the serve workloads'.
        if sessions.rps.len() % SETUP_EVERY == 1 {
            setup_s.push(clock::timed(|| Inputs::build(shape, facts.seed)).1);
        }
    }
    out.failures.append(&mut failures);
    note_resurrected(out, &sessions.resurrected);
    out.set_count(RESURRECTED_KEYS, mean(&sessions.resurrected));

    out.set_best("setup_s", &setup_s);
    out.set_best("throughput_rps", &sessions.rps);
    out.set_best("call_wall_s", &sessions.call_wall_s);
    out.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    // The cache's own numbers, over all timed sessions together: the
    // store cannot move them (spec::NOT_GUARDED).
    out.set("file_hit_rate", sessions.cache.file_hit_rate());
    out.set("byte_write_rate", sessions.cache.byte_write_rate());
    out.set("modeled_mean_latency_us", sessions.modeled_us / sessions.cache.accesses.max(1) as f64);
    out.set_samples("write_amplification", &sessions.wa);
    Ok(())
}

/// Recorded / unrecorded session pairs in a traced run.
const TRACED_PAIRS: usize = 5;

/// Traced run: per-call timing, spans, and the store's per-layer
/// metrics. Returns the output and the tracer holding the spans.
pub fn run_traced(facts: &RunFacts) -> (RunOutput, Tracer) {
    let mut out = RunOutput::per_layer_zeroed();
    let mut tr = Tracer::new(true);
    if let Err(e) = run_traced_inner(facts, &mut out, &mut tr) {
        out.check(false, || e);
    }
    out.set("trace.spans", tr.spans().len() as f64);
    (out, tr)
}

fn run_traced_inner(facts: &RunFacts, out: &mut RunOutput, tr: &mut Tracer) -> Result<(), String> {
    let shape = shape_for(facts);
    let mut failures = Vec::new();
    let (inputs, _) = tr.span("setup", || Inputs::build(shape, facts.seed));
    let per_session = inputs.trace.len().div_ceil(shape.sessions_per_pass);
    let mut driver = Driver::new(&inputs);
    for _ in 0..WARMUP_SESSIONS {
        let warm = driver.session(per_session, tr, false, &mut failures)?;
        out.failed += warm.tally.failed;
    }

    let (mut recorded, mut unrecorded) = (Sessions::default(), Sessions::default());
    let mut times = OpTimes::default();
    let pairs = if facts.smoke { 2 } else { TRACED_PAIRS };
    for _ in 0..pairs {
        tr.set_recording(true);
        let mut s = driver.session(per_session, tr, true, &mut failures)?;
        if let Some(t) = s.tally.times.take() {
            times.get_ns.extend(t.get_ns);
            times.put_ns.extend(t.put_ns);
        }
        recorded.push(out, &s);
        tr.set_recording(false);
        let s = driver.session(per_session, tr, false, &mut failures)?;
        unrecorded.push(out, &s);
    }
    tr.set_recording(true);
    out.failures.append(&mut failures);

    out.set("tracing_overhead_pct", overhead_pct(&recorded.rps, &unrecorded.rps));
    let mut resurrected = recorded.resurrected.clone();
    resurrected.extend(&unrecorded.resurrected);
    out.set(RESURRECTED_KEYS, mean(&resurrected));
    note_resurrected(out, &resurrected);

    let probes = tr.enter("layers");
    layers::store(out, tr, facts.smoke);
    let _ = tr.exit(probes);

    // The workload's own reopens and counters override the probe store's:
    // they are what `store_mixed` actually paid.
    let mut recovery_ms = recorded.recovery_ms.clone();
    recovery_ms.extend(&unrecorded.recovery_ms);
    out.set_samples("store.recovery_ms", &recovery_ms);
    let mut flushes = recorded.flushes.clone();
    flushes.extend(&unrecorded.flushes);
    out.set_samples("store.read_barrier_flushes", &flushes);
    let mut space = recorded.space.clone();
    space.extend(&unrecorded.space);
    out.set_samples("store.space_amplification", &space);
    if let Some((stats, recovered)) = unrecorded.last {
        layers::set_store_counters(out, &stats);
        out.set("store.recovery_records", recovered as f64);
    }
    let clock_ns = clock::pair_overhead_ns();
    for (kind, ns) in [("get", &mut times.get_ns), ("put", &mut times.put_ns)] {
        ns.sort_by(f64::total_cmp);
        out.set(&format!("store.{kind}_samples"), ns.len() as f64);
        for (label, p) in [("p50", 0.5), ("p99", 0.99)] {
            match percentile(ns, p) {
                Some(v) => {
                    out.set(&format!("store.{kind}_{label}_us"), (v - clock_ns).max(0.0) / 1e3)
                }
                None => out.check(false, || {
                    format!("{} {kind} samples cannot support a {label}", ns.len())
                }),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use otae_core::pipeline::{self, Mode, RunConfig};
    use otae_core::ReaccessIndex;

    fn facts(traced: bool) -> RunFacts {
        RunFacts {
            workload: crate::spec::STORE_MIXED.into(),
            seed: 42,
            seconds: 0.0,
            traced,
            smoke: true,
            commit: "test".into(),
            rustc: "test".into(),
        }
    }

    /// The put/remove stream is the one `otae-serve` produces in
    /// `Mode::Original`: over one pass the driver's cache makes the
    /// simulator's decisions, and the store sees one put per admitted
    /// miss and one remove per eviction.
    #[test]
    fn the_op_stream_is_the_served_one() {
        let shape = MixedShape::SMOKE;
        let inputs = Inputs::build(shape, 42);
        assert_eq!(inputs.trace, Inputs::build(shape, 42).trace, "same seed, same inputs");
        assert_ne!(inputs.trace, Inputs::build(shape, 43).trace);

        let per_session = inputs.trace.len().div_ceil(shape.sessions_per_pass);
        let mut driver = Driver::new(&inputs);
        let (mut tr, mut failures) = (Tracer::new(false), Vec::new());
        let (mut cache, mut store) = (CacheStats::default(), StoreStats::default());
        let mut repairs = 0;
        for i in 0..shape.sessions_per_pass {
            let requests = per_session.min(inputs.trace.len() - i * per_session);
            let s = driver.session(requests, &mut tr, false, &mut failures).expect("session");
            assert_eq!((s.tally.failed, failures.len()), (0, 0), "{failures:?}");
            cache.merge(&s.tally.cache);
            store.merge(&s.store);
            repairs += s.resurrected;
        }
        let rc = RunConfig::new(PolicyKind::Lru, Mode::Original, inputs.capacity);
        let index = ReaccessIndex::build(&inputs.trace);
        let simulated = pipeline::run_with_index(&inputs.trace, &index, &rc).fingerprint().stats;
        assert_eq!(cache, simulated, "hits, admits, evictions and bytes match the simulator");
        assert_eq!(store.acked_puts, simulated.files_written, "one put per admitted miss");
        assert_eq!(store.acked_removes, simulated.evictions + repairs, "one remove per eviction");
    }

    #[test]
    fn reads_and_reopens_are_held_against_the_model() {
        let inputs = Inputs::build(MixedShape::SMOKE, 1);
        let mut driver = Driver::new(&inputs);
        let backend = driver.backend.clone();
        let (mut tr, mut failures) = (Tracer::new(false), Vec::new());
        let (store, _) = open(&backend).expect("open");
        for _ in 0..200 {
            driver.request(&store, &mut tr, &mut failures);
        }
        driver.flush(&store, &mut tr);
        assert_eq!((driver.tally.failed, failures.len()), (0, 0), "{failures:?}");
        let resident = driver.cache.len() as u64;
        assert_eq!(store.stats().live_records, resident);

        // A key the cache holds but the store lost is a failed read...
        let object = inputs.trace.requests[199].object;
        assert!(driver.cache.contains(&object));
        store.remove(u64::from(object.0)).expect("remove");
        store.flush().expect("flush");
        driver.read(&store, object, &mut tr, &mut failures);
        assert_eq!(driver.tally.failed, 1);
        assert!(failures[0].contains("is not in the store"), "{failures:?}");
        drop(store);

        // ...and a failed reopen: the lost key is named, the count is off.
        let (store, report) = open(&backend).expect("reopen");
        assert_eq!(driver.reconcile(&store, &report, &mut failures), 0);
        assert_eq!(driver.tally.failed, 3, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("acknowledged key")));

        // A key the cache does not hold, found at a reopen, is counted as
        // resurrected and removed again; the reopen itself must be exact.
        let stray = (0..inputs.trace.meta.len() as u32)
            .find(|&id| !driver.cache.contains(&ObjectId(id)))
            .expect("a non-resident object");
        store.put(u64::from(object.0), &[0; 8]).expect("restore the lost key");
        store.put(u64::from(stray), &[0; 8]).expect("plant a stray key");
        store.flush().expect("flush");
        drop(store);
        let (store, report) = open(&backend).expect("reopen");
        assert_eq!(report.live_records, resident + 1);
        assert_eq!(driver.reconcile(&store, &report, &mut failures), 1);
        assert_eq!(driver.tally.failed, 3, "a counted resurrection is not a failed operation");
        store.flush().expect("flush");
        assert_eq!(store.stats().live_records, resident, "the stray key was removed again");
    }

    #[test]
    fn smoke_run_is_correct_and_reports_every_end_to_end_metric() {
        let out = run(&facts(false));
        assert!(out.correct(), "{:?}", out.failures);
        assert_eq!(out.failed, 0);
        assert!(out.attempted >= 3 * 2_000);
        for m in &crate::spec::END_TO_END {
            let v = out.value(m.name).unwrap_or_else(|| panic!("{} missing", m.name));
            assert!(v.is_finite() && v > 0.0, "{} = {v}", m.name);
        }
        let record = out.record(&facts(false), THREADS_NEEDED);
        let counted = record.get("counts").and_then(|c| c.get(RESURRECTED_KEYS));
        assert!(
            counted.and_then(crate::json::Json::as_f64).is_some(),
            "the defect counter is in the record"
        );
    }

    #[test]
    fn traced_smoke_run_times_every_store_call_and_keeps_a_sample_of_spans() {
        let (out, tr) = run_traced(&facts(true));
        assert!(out.correct(), "{:?}", out.failures);
        for name in ["store.get_p50_us", "store.get_p99_us", "store.put_p50_us", "store.put_p99_us"]
        {
            assert!(out.value(name).is_some_and(|v| v > 0.0), "{name}");
        }
        assert!(out.value("store.get_p99_us") >= out.value("store.get_p50_us"));
        assert!(out.value("store.get_samples").is_some_and(|n| n >= 1000.0));
        assert!(out.value("store.recovery_ms").is_some_and(|v| v > 0.0));
        assert!(out.value("store.read_barrier_flushes").is_some_and(|v| v > 0.0));
        let gets = tr.spans().iter().filter(|s| s.name == "store.get_into").count();
        let timed = out.value("store.get_samples").expect("samples") as usize;
        assert!(gets > 0 && gets < timed / 8, "store-call spans are sampled: {gets} of {timed}");
        assert!(tr
            .spans()
            .iter()
            .filter(|s| s.name == "store.get_into")
            .all(|s| s.parent.is_some_and(|p| tr.spans()[p].name.starts_with("store_mixed."))));
    }
}
