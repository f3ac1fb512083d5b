//! Per-layer probes: each calls one layer's public functions in isolation,
//! on the workload's own trace, inside a span.
//!
//! A probe says what a layer costs when nothing else contends with it;
//! the replay says what the request path costs as a whole. The difference
//! (`serve.handoff_lock_ns_per_req`, `pipeline.unattributed_share`) is
//! what the layers do not explain.

use crate::clock;
use crate::report::RunOutput;
use crate::serve::Inputs;
use crate::span::Tracer;
use crate::stats::median;
use crossbeam::channel::bounded;
use otae_core::daily::{train_tree, MinuteSampler, Sample};
use otae_core::pipeline::{self, Mode, PolicyKind, RunConfig};
use otae_core::{
    CriteriaSolution, FeatureExtractor, HistoryTable, MissFilter, TrainedModel, N_FEATURES,
};
use otae_device::{ResponseTime, ServiceTimeModel};
use otae_ml::{BinnedDataset, Dataset};
use otae_serve::{
    feature_bits, fill_payload, AdmissionGate, DecisionCache, FeatureBits, PreparedRequest,
    ServeConfig,
};
use otae_store::{
    crc32, encode_record, MemBackend, NoStoreFaults, RecordKind, SegmentStore, StoreConfig,
    StoreStats,
};
use otae_trace::diurnal::DAY;
use std::hint::black_box;
use std::sync::Arc;

/// Requests a per-request probe walks at most (keeps the side arrays of
/// feature rows and bit patterns to tens of MB on the full-size trace).
const PROBE_REQUESTS: usize = 1 << 20;

/// Bins the histogram trainer quantises features into.
const TRAIN_BINS: usize = 256;

/// What every serve-side probe needs.
pub struct Context<'a> {
    /// The workload's inputs.
    pub inputs: &'a Inputs,
    /// The criteria solution resolved from them.
    pub criteria: CriteriaSolution,
    /// The workload's serve configuration.
    pub cfg: &'a ServeConfig,
    /// Tiny-input mode: one repetition of everything.
    pub smoke: bool,
}

impl Context<'_> {
    fn reps(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }

    fn cost_v(&self) -> f32 {
        self.cfg.training.cost.resolve(self.inputs.capacity, self.inputs.trace.unique_bytes())
    }
}

fn ns_per(secs: f64, count: usize) -> f64 {
    secs * 1e9 / count.max(1) as f64
}

/// `otae_serve::prepare` over the trace, then the client→worker channel
/// moving the prepared requests. Returns the prepare wall in seconds.
pub fn prepare_and_handoff(ctx: &Context<'_>, out: &mut RunOutput, tr: &mut Tracer) -> f64 {
    let Inputs { trace, index, .. } = ctx.inputs;
    let gate = AdmissionGate::new();
    let (prepared, prepare_s) = tr.span("serve.prepare", || {
        otae_serve::prepare(trace, index, ctx.cfg, &gate, ctx.criteria.m, ctx.cost_v())
    });
    out.set("prepare.wall_s", prepare_s);
    out.set("prepare.ns_per_req", ns_per(prepare_s, trace.len()));

    // The worker's receive loop: block for one request, then drain up to
    // a batch of 64 without blocking.
    let requests = &prepared.requests[..prepared.requests.len().min(PROBE_REQUESTS)];
    let (tx, rx) = bounded::<PreparedRequest>(ctx.cfg.queue_depth.max(1));
    let (received, handoff_s) = tr.span("handoff.channel", || {
        crossbeam::thread::scope(|s| {
            s.spawn(move |_| {
                for req in requests {
                    if tx.send(req.clone()).is_err() {
                        break;
                    }
                }
            });
            let mut received = 0usize;
            while let Ok(first) = rx.recv() {
                black_box(&first);
                received += 1;
                for _ in 1..ctx.cfg.max_batch.max(1) {
                    match rx.try_recv() {
                        Ok(req) => {
                            black_box(&req);
                            received += 1;
                        }
                        Err(_) => break,
                    }
                }
            }
            received
        })
        .unwrap_or(0)
    });
    out.check(received == requests.len(), || {
        format!("handoff probe delivered {received} of {} messages", requests.len())
    });
    out.set("handoff.channel_ns_per_msg", ns_per(handoff_s, received));
    prepare_s
}

/// Cache, device accounting and the single-threaded pipeline, plus the
/// admission layers the workload's `mode` puts on the miss path.
pub fn kernel(ctx: &Context<'_>, mode: Mode, out: &mut RunOutput, tr: &mut Tracer) {
    let Inputs { trace, index, capacity } = ctx.inputs;
    let n = trace.len();

    // Replacement policy: contains + on_hit, or insert with evictions.
    // Timed per operation; the clock pair's own cost is subtracted.
    let clock_ns = clock::pair_overhead_ns();
    let mut cache = PolicyKind::Lru.build(*capacity, trace);
    let mut evicted = Vec::new();
    let mut hit_flags = Vec::with_capacity(n);
    let (mut hit_ns, mut miss_ns, mut hits, mut evictions) = (0.0f64, 0.0f64, 0usize, 0usize);
    let open = tr.enter("cache.lru");
    for (i, req) in trace.requests.iter().enumerate() {
        let size = trace.photo(req.object).size as u64;
        let t0 = clock::now();
        let hit = cache.contains(&req.object);
        if hit {
            cache.on_hit(&req.object, i as u64);
        } else {
            evicted.clear();
            cache.insert(req.object, size, i as u64, &mut evicted);
            evictions += evicted.len();
        }
        let ns = clock::since(t0).as_nanos() as f64;
        if hit {
            hit_ns += ns;
            hits += 1;
        } else {
            miss_ns += ns;
        }
        hit_flags.push(hit);
    }
    let _ = tr.exit(open);
    let misses = n - hits;
    let cache_hit_ns = (hit_ns / hits.max(1) as f64 - clock_ns).max(0.0);
    let cache_miss_ns = (miss_ns / misses.max(1) as f64 - clock_ns).max(0.0);
    let miss_share = misses as f64 / n.max(1) as f64;
    out.set("cache.lru_hit_ns", cache_hit_ns);
    out.set("cache.lru_miss_insert_ns", cache_miss_ns);
    out.set("cache.lru_hit_ratio", 1.0 - miss_share);
    out.set("cache.lru_evictions", evictions as f64);

    // Eq. 3-6 response-time model and the HDD head-time model.
    let classified = mode != Mode::Original;
    let mut response = ResponseTime::default();
    let mut service = ServiceTimeModel::new(ctx.cfg.hdd);
    let ((), device_s) = tr.span("device.account", || {
        for (req, &hit) in trace.requests.iter().zip(&hit_flags) {
            let size = trace.photo(req.object).size as u64;
            response.record(ctx.cfg.latency.request_latency_us(hit, size, classified));
            if !hit {
                service.record_miss(req.ts, size);
            }
        }
        black_box((response.mean_us(), service.total_us()));
    });
    let device_ns = ns_per(device_s, n);
    out.set("device.account_ns_per_req", device_ns);

    // The kernel with no threads: same mode, policy and capacity.
    let rc = RunConfig::new(PolicyKind::Lru, mode, *capacity);
    let pipeline_s: Vec<f64> = (0..ctx.reps(2))
        .map(|_| {
            tr.span("pipeline.run", || black_box(pipeline::run_with_index(trace, index, &rc))).1
        })
        .collect();
    let pipeline_s = median(&pipeline_s);
    let pipeline_ns = ns_per(pipeline_s, n);
    out.set("pipeline.ops_per_s", n as f64 / pipeline_s.max(1e-9));
    out.set("pipeline.ns_per_req", pipeline_ns);

    let mut isolated_ns =
        (1.0 - miss_share) * cache_hit_ns + miss_share * cache_miss_ns + device_ns;
    if mode.is_learned() {
        isolated_ns += learned(ctx, out, tr, miss_share);
    }
    if mode == Mode::TinyLfu {
        let filter = MissFilter::for_run(
            mode,
            trace.meta.len(),
            ctx.criteria.m,
            ctx.cfg.training.max_splits,
            ctx.cfg.coin_p,
        );
        if let Some(mut filter) = filter {
            let ((), secs) = tr.span("filter.tinylfu", || {
                for req in &trace.requests {
                    black_box(filter.decide(req.object));
                }
            });
            out.set("filter.tinylfu_ns_per_decide", ns_per(secs, n));
            isolated_ns += miss_share * ns_per(secs, n);
        }
    }
    out.set("pipeline.unattributed_share", 1.0 - isolated_ns / pipeline_ns.max(1e-9));
}

/// Feature extraction, the eight daily fits, the gate, the decision cache
/// and the history table. Returns their isolated cost per request (the
/// fits spread over the whole trace, the miss-path layers weighted by the
/// miss share).
fn learned(ctx: &Context<'_>, out: &mut RunOutput, tr: &mut Tracer, miss_share: f64) -> f64 {
    let Inputs { trace, index, .. } = ctx.inputs;
    let n = trace.len();
    let m = ctx.criteria.m;
    let training = &ctx.cfg.training;

    let (features, extract_s) =
        tr.span("features.extract", || FeatureExtractor::extract_all(trace));
    let extract_ns = ns_per(extract_s, n);
    out.set("features.extract_ns_per_req", extract_ns);

    // The windows the retrainer fits: 24 h of per-minute samples ending at
    // each daily boundary.
    let mut sampler = MinuteSampler::new(training.records_per_minute);
    let mut boundary = DAY + u64::from(training.retrain_hour) * 3600;
    let mut windows: Vec<Vec<Sample>> = Vec::new();
    for (i, req) in trace.requests.iter().enumerate() {
        if req.ts >= boundary {
            windows.push(sampler.window(boundary.saturating_sub(DAY), boundary).to_vec());
            sampler.discard_before(boundary.saturating_sub(DAY));
            while req.ts >= boundary {
                boundary += DAY;
            }
        }
        sampler.offer(req.ts, features[i], index.is_one_time(i, m));
    }
    let v = ctx.cost_v();
    let mut fit_ms = Vec::with_capacity(windows.len());
    let mut last_tree = None;
    for window in &windows {
        let (tree, secs) =
            tr.span("train.fit", || train_tree(black_box(window), v, training.max_splits));
        fit_ms.push(secs * 1e3);
        last_tree = tree.or(last_tree);
    }
    out.set("train.windows", windows.len() as f64);
    out.set("train.samples_total", windows.iter().map(Vec::len).sum::<usize>() as f64);
    let fit_ms_total: f64 = fit_ms.iter().sum();
    out.set("train.fit_ms_total", fit_ms_total);
    out.set_samples("train.fit_ms_median", &fit_ms);

    if let Some(largest) = windows.iter().max_by_key(|w| w.len()) {
        let mut data = Dataset::new(N_FEATURES);
        let dataset_ms: Vec<f64> = (0..ctx.reps(3))
            .map(|_| {
                let ((), secs) = tr.span("ml.dataset_build", || {
                    data = Dataset::new(N_FEATURES);
                    for s in largest {
                        data.push(black_box(&s.features), s.one_time);
                    }
                });
                secs * 1e3
            })
            .collect();
        out.set("ml.dataset_build_ms", median(&dataset_ms));
        let binning_ms: Vec<f64> = (0..ctx.reps(3))
            .map(|_| {
                tr.span("ml.binning_build", || {
                    black_box(BinnedDataset::build(black_box(&data), TRAIN_BINS));
                })
                .1 * 1e3
            })
            .collect();
        out.set("ml.binning_build_ms", median(&binning_ms));
    }

    let Some(tree) = last_tree else {
        out.check(false, || {
            "no daily window produced a tree; the gate probes have no model".into()
        });
        return extract_ns;
    };

    // Install (compile included) and snapshot.
    let gate = AdmissionGate::new();
    let installs = ctx.reps(64);
    let trees: Vec<_> = (0..installs).map(|_| tree.clone()).collect();
    let ((), install_s) = tr.span("gate.install", || {
        for t in trees {
            gate.install_trained(TrainedModel::new(t));
        }
    });
    out.set("gate.install_us", install_s * 1e6 / installs as f64);
    let snapshots = if ctx.smoke { 10_000 } else { 1_000_000 };
    let ((), snapshot_s) = tr.span("gate.snapshot", || {
        for _ in 0..snapshots {
            black_box(gate.current_with_epoch());
        }
    });
    out.set("gate.snapshot_ns", ns_per(snapshot_s, snapshots));

    // Scoring: the compiled 64-row batch walk vs one interpreted row.
    let rows = &features[..n.min(PROBE_REQUESTS)];
    let Some(model) = gate.current() else {
        return extract_ns;
    };
    let mut scores = Vec::with_capacity(64);
    let ((), batch_s) = tr.span("gate.score_batch64", || {
        for chunk in rows.chunks(64) {
            scores.clear();
            model.score_rows_fixed(chunk, true, &mut scores);
            black_box(&scores);
        }
    });
    let batch_ns = ns_per(batch_s, rows.len());
    out.set("gate.score_batch64_ns_per_row", batch_ns);
    let ((), scalar_s) = tr.span("gate.score_scalar", || {
        for row in rows {
            black_box(model.score(row));
        }
    });
    out.set("gate.score_scalar_ns_per_row", ns_per(scalar_s, rows.len()));

    // Decision cache in one epoch, driven by the (object, feature bits)
    // stream. The first pass looks up and inserts on a miss; the second
    // only looks up, so the difference is the cost of the inserts.
    let requests = &trace.requests[..rows.len()];
    let bits: Vec<FeatureBits> = rows.iter().map(feature_bits).collect();
    let verdicts: Vec<bool> = rows.iter().map(|r| model.predict(r)).collect();
    let history_capacity = ctx.criteria.history_table_capacity();
    let mut memo = DecisionCache::new(history_capacity);
    let mut memo_hits = 0usize;
    let ((), fill_s) = tr.span("memo.lookup_insert", || {
        for ((req, bits), &verdict) in requests.iter().zip(&bits).zip(&verdicts) {
            match memo.lookup(req.object, bits) {
                Some(hit) => {
                    black_box(hit);
                    memo_hits += 1;
                }
                None => memo.insert(req.object, *bits, verdict),
            }
        }
    });
    let ((), lookup_s) = tr.span("memo.lookup", || {
        for (req, bits) in requests.iter().zip(&bits) {
            black_box(memo.lookup(req.object, bits));
        }
    });
    let inserts = rows.len() - memo_hits;
    let lookup_ns = ns_per(lookup_s, rows.len());
    out.set("memo.lookup_ns", lookup_ns);
    out.set("memo.insert_ns", ns_per((fill_s - lookup_s).max(0.0), inserts));
    out.set("memo.hit_ratio", memo_hits as f64 / rows.len().max(1) as f64);

    // History table: one rectification check and one record per request.
    let mut history = HistoryTable::new(history_capacity);
    let ((), history_s) = tr.span("history.table", || {
        for (i, req) in requests.iter().enumerate() {
            black_box(history.check_and_rectify(req.object, i as u64, m));
            history.record_one_time(req.object, i as u64);
        }
    });
    let history_ns = ns_per(history_s, 2 * rows.len());
    out.set("history.ns_per_op", history_ns);

    extract_ns
        + fit_ms_total * 1e6 / n as f64
        + miss_share * (lookup_ns + batch_ns + 2.0 * history_ns)
}

/// Copy a workload's measured store counters into the per-layer output.
pub fn set_store_counters(out: &mut RunOutput, stats: &StoreStats) {
    out.set("store.compactions", stats.compactions as f64);
    out.set("store.rewritten_records", stats.rewritten_records as f64);
    out.set("store.host_bytes", stats.host_bytes as f64);
    out.set("store.gc_bytes", stats.gc_bytes as f64);
    out.set("store.segments_created", stats.segments_created as f64);
    out.set("store.live_records", stats.live_records as f64);
}

/// Photo-sized payload the store probes move.
const PROBE_PAYLOAD: usize = 32 << 10;

/// The store's layers one at a time: payload fill, CRC, record framing,
/// then a probe store put → flush → read → compact → reopen.
pub fn store(out: &mut RunOutput, tr: &mut Tracer, smoke: bool) {
    // Even the smoke probe must seal a few 8 MiB segments, or compaction
    // has no victim to reclaim.
    let scale = if smoke { 4 } else { 1 };
    let mut payload = Vec::new();

    let fills = 4096 / scale;
    let ((), fill_s) = tr.span("store_probe.payload_fill", || {
        for key in 0..fills as u64 {
            fill_payload(key, PROBE_PAYLOAD, &mut payload);
            black_box(&payload);
        }
    });
    out.set("store.payload_fill_ns_per_kib", ns_per(fill_s, fills * (PROBE_PAYLOAD >> 10)));

    let ((), crc_s) = tr.span("store_probe.crc32", || {
        for _ in 0..fills {
            black_box(crc32(black_box(&payload)));
        }
    });
    let mb = |bytes: usize| bytes as f64 / (1 << 20) as f64;
    out.set("store.crc32_mb_per_s", mb(fills * PROBE_PAYLOAD) / crc_s.max(1e-9));

    let mut framed = Vec::with_capacity(PROBE_PAYLOAD + 64);
    let ((), encode_s) = tr.span("store_probe.encode_record", || {
        for key in 0..fills as u64 {
            framed.clear();
            black_box(encode_record(key, RecordKind::Put, &payload, &mut framed));
        }
    });
    out.set("store.encode_record_ns", ns_per(encode_s, fills));

    // Every key written four times, so three quarters of the log is dead
    // by the time the explicit compaction passes run.
    let (puts, keys) = (4096 / scale, 1024 / scale as u64);
    let cfg = StoreConfig { compact_trigger: None, ..StoreConfig::default() };
    let backend = MemBackend::new();
    let open = |cfg| SegmentStore::open(Arc::new(backend.clone()), cfg, Arc::new(NoStoreFaults));
    let Ok((probe, _)) = open(cfg) else {
        out.check(false, || "store probe: open failed".into());
        return;
    };
    let mut errors = 0u64;
    let ((), put_s) = tr.span("store_probe.put", || {
        for i in 0..puts as u64 {
            errors += u64::from(probe.put(i % keys, &payload).is_err());
        }
    });
    let ((), flush_s) =
        tr.span("store_probe.flush", || errors += u64::from(probe.flush().is_err()));
    out.set("store.put_ns_per_op", ns_per(put_s, puts));
    out.set("store.put_mb_per_s", mb(puts * PROBE_PAYLOAD) / (put_s + flush_s).max(1e-9));
    out.set("store.flush_ms", flush_s * 1e3);

    let gets = 8192 / scale;
    let mut value = Vec::new();
    let ((), get_s) = tr.span("store_probe.get_into", || {
        for i in 0..gets as u64 {
            match probe.get_into(i % keys, &mut value) {
                Ok(true) if value.len() == PROBE_PAYLOAD => {}
                _ => errors += 1,
            }
        }
    });
    out.set("store.get_into_ns_per_op", ns_per(get_s, gets));

    let mut reclaimed = 0u64;
    let ((), compact_s) = tr.span("store_probe.compact", || {
        for _ in 0..64 {
            match probe.compact() {
                Ok(report) if report.victim.is_some() => reclaimed += report.reclaimed_bytes,
                Ok(_) => break,
                Err(_) => {
                    errors += 1;
                    break;
                }
            }
        }
    });
    out.set("store.compact_reclaimed_mb_per_s", mb(reclaimed as usize) / compact_s.max(1e-9));

    let live = probe.stats().live_records;
    drop(probe);
    let (reopened, recovery_s) = tr.span("store_probe.recovery", || open(cfg));
    match reopened {
        Ok((_, report)) => {
            out.check(report.live_records == live && !report.torn_tail, || {
                format!("store probe: reopen found {report:?}, expected {live} live records")
            });
            out.set("store.recovery_ms", recovery_s * 1e3);
            out.set("store.recovery_records", report.records as f64);
        }
        Err(e) => out.check(false, || format!("store probe: reopen failed: {e}")),
    }
    out.check(errors == 0, || format!("store probe: {errors} operations failed"));
}
