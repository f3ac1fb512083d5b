//! The names every later change claims against: workloads, end-to-end
//! metrics with their regression bounds, and per-layer metrics.
//!
//! `BENCHMARK.json` at the repository root is this table rendered by
//! [`benchmark_json`] (`run.sh --print-spec`); a unit test keeps the two
//! identical, so a name cannot be added in one place and forgotten in the
//! other.

use crate::json::Json;

/// How long one run measures, in seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line on why it exists.
    pub why: &'static str,
}

/// Storeless admit-everything control.
pub const SERVE_ORIGINAL: &str = "serve_original";
/// The paper's learned gate with the background retrainer.
pub const SERVE_PROPOSAL: &str = "serve_proposal";
/// TinyLFU filter on a 2×2 topology.
pub const SERVE_FILTER_MT: &str = "serve_filter_mt";
/// Learned gate over the segment store.
pub const SERVE_STORE: &str = "serve_store";
/// The segment store driven directly, reads and reopen included.
pub const STORE_MIXED: &str = "store_mixed";

/// The five workloads, in run order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: SERVE_ORIGINAL,
        why: "Original/LRU, no store, 1 shard x 1 worker x 1 client: only handoff, shard lock, \
              cache op and accounting run; the control no gate/ML/retrain change may move",
    },
    Workload {
        name: SERVE_PROPOSAL,
        why: "Proposal/LRU with the background retrainer, 1x1x1: adds feature extraction, \
              batched compiled scoring, decision cache, history table and eight daily fits \
              sharing the core",
    },
    Workload {
        name: SERVE_FILTER_MT,
        why: "TinyLFU behind the global policy mutex, 2 shards x 2 workers x 1 client: two \
              queue consumers and two shard locks, the scaling suspects; no model at all",
    },
    Workload {
        name: SERVE_STORE,
        why:
            "Proposal inline over an in-memory segment store, 1x1x1, auto-compaction OFF (bimodal \
              under replay load; the default StoreConfig is unmeasured under serve): payload \
              fill, intake, group commit, CRC",
    },
    Workload {
        name: STORE_MIXED,
        why: "Store under an LRU replaying the trace: hit = get_into, admit = put, evict = remove \
              (Original-mode store traffic plus reads), compaction on, reopened each session; \
              only place reads and recovery show",
    },
];

/// The four workloads that replay a trace through `otae-serve`.
pub const SERVE_WORKLOADS: [&str; 4] =
    [SERVE_ORIGINAL, SERVE_PROPOSAL, SERVE_FILTER_MT, SERVE_STORE];

/// One end-to-end metric: what a user of the service or store would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of goodness.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change is rejected. One bound per metric has to hold on every
    /// workload across seeds, so it covers the seed-to-seed variation of
    /// the noisiest one.
    pub bound: f64,
    /// For a metric that repeats (nearly) exactly for a given seed: the
    /// share by which it may worsen *at the same seed*. `compare` pairs the
    /// two sets' runs by seed and judges the mean per-seed change against
    /// this, which is the bound that guards the paper's claim.
    pub paired_bound: Option<f64>,
}

/// End-to-end metrics. Every workload reports every one of them (the
/// contract has one list for all workloads; [`NOT_GUARDED`] names the
/// pairings that are constants); none is ever 0.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25, None),
    e2e("throughput_rps", "1/s", Better::Higher, 0.25, None),
    e2e("call_wall_s", "s", Better::Lower, 0.25, None),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25, None),
    e2e("file_hit_rate", "ratio", Better::Higher, 0.2, Some(0.01)),
    e2e("byte_write_rate", "ratio", Better::Lower, 0.25, Some(0.01)),
    e2e("modeled_mean_latency_us", "us", Better::Lower, 0.15, Some(0.01)),
    e2e("write_amplification", "ratio", Better::Lower, 0.03, None),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    paired_bound: Option<f64>,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound, paired_bound }
}

/// Pairings of workload and end-to-end metric whose value the program
/// under test cannot move, with the reason. The contract makes every
/// workload report every metric, so they are emitted; `compare` labels
/// them `not-guarded` rather than pretend a bound protects anything.
pub const NOT_GUARDED: [(&str, &str, &str); 7] = [
    (SERVE_ORIGINAL, "write_amplification", "no log under the cache: 1.0 by definition"),
    (SERVE_PROPOSAL, "write_amplification", "no log under the cache: 1.0 by definition"),
    (SERVE_FILTER_MT, "write_amplification", "no log under the cache: 1.0 by definition"),
    (SERVE_STORE, "write_amplification", "auto-compaction is off there: 1.0 by construction"),
    (STORE_MIXED, "file_hit_rate", "decided by the driver's LRU; the store can only fail a read"),
    (STORE_MIXED, "byte_write_rate", "decided by the driver's LRU, not by the store"),
    (STORE_MIXED, "modeled_mean_latency_us", "decided by the driver's LRU, not by the store"),
];

/// Why the pairing is a constant, if it is one.
pub fn not_guarded(workload: &str, metric: &str) -> Option<&'static str> {
    NOT_GUARDED.iter().find(|(w, m, _)| *w == workload && *m == metric).map(|&(_, _, why)| why)
}

/// One per-layer metric (traced run only; no bound).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of goodness.
    pub better: Better,
    /// Workloads on whose request path the layer lies. Elsewhere the
    /// metric is reported as 0: the layer does no work there.
    pub on: &'static [&'static str],
}

const ALL_SERVE: &[&str] = &SERVE_WORKLOADS;
const LEARNED: &[&str] = &[SERVE_PROPOSAL, SERVE_STORE];
const FILTER: &[&str] = &[SERVE_FILTER_MT];
const BACKGROUND: &[&str] = &[SERVE_PROPOSAL];
const STORES: &[&str] = &[SERVE_STORE, STORE_MIXED];
const MIXED: &[&str] = &[STORE_MIXED];
const EVERY: &[&str] = &[SERVE_ORIGINAL, SERVE_PROPOSAL, SERVE_FILTER_MT, SERVE_STORE, STORE_MIXED];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer { name, unit, better, on }
}

use Better::{Higher, Lower};

/// Per-layer metrics, grouped by the module they measure.
pub const PER_LAYER: &[PerLayer] = &[
    // otae-trace / otae-core set-up: moves `setup_s`.
    layer("trace.generate_s", "s", Lower, ALL_SERVE),
    layer("trace.requests", "count", Higher, ALL_SERVE),
    layer("reaccess.build_s", "s", Lower, ALL_SERVE),
    layer("criteria.solve_ms", "ms", Lower, ALL_SERVE),
    layer("criteria.m", "count", Lower, ALL_SERVE),
    // Feature extraction and the prepare pass: moves `call_wall_s`.
    layer("features.extract_ns_per_req", "ns", Lower, LEARNED),
    layer("prepare.wall_s", "s", Lower, ALL_SERVE),
    layer("prepare.ns_per_req", "ns", Lower, ALL_SERVE),
    // Daily training: background fits steal the core on serve_proposal
    // (`throughput_rps`), inline fits sit in prepare on serve_store.
    layer("train.windows", "count", Higher, LEARNED),
    layer("train.samples_total", "count", Higher, LEARNED),
    layer("train.fit_ms_median", "ms", Lower, LEARNED),
    layer("train.fit_ms_total", "ms", Lower, LEARNED),
    layer("ml.dataset_build_ms", "ms", Lower, LEARNED),
    layer("ml.binning_build_ms", "ms", Lower, LEARNED),
    // The admission gate and its per-shard helpers.
    layer("gate.install_us", "us", Lower, LEARNED),
    layer("gate.snapshot_ns", "ns", Lower, LEARNED),
    layer("gate.score_batch64_ns_per_row", "ns", Lower, LEARNED),
    layer("gate.score_scalar_ns_per_row", "ns", Lower, LEARNED),
    layer("memo.lookup_ns", "ns", Lower, LEARNED),
    layer("memo.insert_ns", "ns", Lower, LEARNED),
    layer("memo.hit_ratio", "ratio", Higher, LEARNED),
    layer("history.ns_per_op", "ns", Lower, LEARNED),
    layer("filter.tinylfu_ns_per_decide", "ns", Lower, FILTER),
    // Replacement policy and device accounting: every serve workload.
    layer("cache.lru_hit_ns", "ns", Lower, ALL_SERVE),
    layer("cache.lru_miss_insert_ns", "ns", Lower, ALL_SERVE),
    layer("cache.lru_hit_ratio", "ratio", Higher, ALL_SERVE),
    layer("cache.lru_evictions", "count", Lower, ALL_SERVE),
    layer("device.account_ns_per_req", "ns", Lower, ALL_SERVE),
    // The single-threaded kernel: the ceiling for `throughput_rps`.
    layer("pipeline.ops_per_s", "1/s", Higher, ALL_SERVE),
    layer("pipeline.ns_per_req", "ns", Lower, ALL_SERVE),
    layer("pipeline.unattributed_share", "ratio", Lower, ALL_SERVE),
    // Client -> worker handoff and the service around the kernel.
    layer("handoff.channel_ns_per_msg", "ns", Lower, ALL_SERVE),
    layer("serve.warmup_wall_s", "s", Lower, ALL_SERVE),
    layer("serve.replay_wall_s", "s", Lower, ALL_SERVE),
    layer("serve.ns_per_req", "ns", Lower, ALL_SERVE),
    layer("serve.handoff_lock_ns_per_req", "ns", Lower, ALL_SERVE),
    layer("serve.prepare_share", "ratio", Lower, ALL_SERVE),
    layer("serve.model_swaps", "count", Higher, LEARNED),
    layer("serve.trainings", "count", Higher, LEARNED),
    layer("serve.cold_gate_ns_per_req", "ns", Lower, BACKGROUND),
    layer("serve.retrain_interference_ns_per_req", "ns", Lower, BACKGROUND),
    // The segment store: put side on serve_store, read and reopen side on
    // store_mixed.
    layer("store.payload_fill_ns_per_kib", "ns", Lower, STORES),
    layer("store.crc32_mb_per_s", "MB/s", Higher, STORES),
    layer("store.encode_record_ns", "ns", Lower, STORES),
    layer("store.put_ns_per_op", "ns", Lower, STORES),
    layer("store.put_mb_per_s", "MB/s", Higher, STORES),
    layer("store.flush_ms", "ms", Lower, STORES),
    layer("store.get_into_ns_per_op", "ns", Lower, STORES),
    layer("store.compact_reclaimed_mb_per_s", "MB/s", Higher, STORES),
    layer("store.compactions", "count", Lower, STORES),
    layer("store.rewritten_records", "count", Lower, STORES),
    layer("store.host_bytes", "bytes", Lower, STORES),
    layer("store.gc_bytes", "bytes", Lower, STORES),
    layer("store.segments_created", "count", Lower, STORES),
    layer("store.recovery_ms", "ms", Lower, STORES),
    layer("store.recovery_records", "count", Lower, STORES),
    // Per-operation latency as the store_mixed driver sees it. These and
    // `store.recovery_ms` are the issue's store-only end-to-end metrics;
    // they sit here because every end-to-end metric must exist on every
    // workload (see the README).
    layer("store.get_p50_us", "us", Lower, MIXED),
    layer("store.get_p99_us", "us", Lower, MIXED),
    layer("store.put_p50_us", "us", Lower, MIXED),
    layer("store.put_p99_us", "us", Lower, MIXED),
    layer("store.get_samples", "count", Higher, MIXED),
    layer("store.put_samples", "count", Higher, MIXED),
    layer("store.live_records", "count", Higher, STORES),
    // Flushes the store_mixed driver needed before reading a key whose put
    // was not acknowledged yet (plus one per close).
    layer("store.read_barrier_flushes", "count", Lower, MIXED),
    // Bytes on the device per live byte when a store_mixed session closes.
    layer("store.space_amplification", "ratio", Lower, MIXED),
    // Removed keys that a reopen brought back (a defect: should be 0).
    layer("store.resurrected_keys_per_reopen", "count", Lower, MIXED),
    // Cost of recording spans: traced vs untraced throughput, same run.
    layer("tracing_overhead_pct", "%", Lower, EVERY),
    layer("trace.spans", "count", Lower, EVERY),
];

/// True when `name` is a legal metric or workload name under the
/// benchmark contract: 1–64 of `[A-Za-z0-9_.-]`, starting with a letter
/// or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// True when `unit` is a legal unit: 1–16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

/// Look up a workload by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Look up an end-to-end metric by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Look up a per-layer metric by name.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.word())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validator_follows_the_contract() {
        for good in
            ["a", "serve_original", "store.get_p99_us", "9lives", "a-b.c_d", &"x".repeat(64)]
        {
            assert!(valid_name(good), "{good:?} is legal");
        }
        for bad in
            ["", "_lead", ".lead", "-lead", "has space", "slash/ed", "pct%", "é", &"x".repeat(65)]
        {
            assert!(!valid_name(bad), "{bad:?} is illegal");
        }
        for good in ["ms", "s", "1/s", "count", "%", "MB/s", "ns"] {
            assert!(valid_unit(good), "{good:?} is a legal unit");
        }
        for bad in ["", "per second", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?} is an illegal unit");
        }
    }

    #[test]
    fn every_declared_name_is_legal_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "{n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &END_TO_END {
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound outside (0, 0.25]", m.name);
            assert!(m.paired_bound.is_none_or(|p| p > 0.0 && p <= m.bound), "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.on.iter().all(|w| workload(w).is_some()), "{}: unknown workload", m.name);
        }
        for (w, m, _) in &NOT_GUARDED {
            assert!(workload(w).is_some() && end_to_end(m).is_some(), "{w}/{m}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }
        let setup = end_to_end("setup_s").expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the widest bound");
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024, "the contract caps the file at 64 KiB");
        let committed = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with `benchmark/run.sh --print-spec`"
        );
        let keys: Vec<&str> =
            committed.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
            "exactly the contract's keys"
        );
    }
}
