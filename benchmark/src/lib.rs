//! # otae-benchmark — one benchmark for the whole request path
//!
//! Five named workloads ([`spec::WORKLOADS`]), end-to-end metrics with
//! regression bounds ([`spec::END_TO_END`]) and an outside-in per-layer
//! trace ([`spec::PER_LAYER`]). See `README.md` beside this crate for why
//! each workload exists and which end-to-end metric each layer should move.
//!
//! The program under test only ever sees generated inputs: a seeded
//! `otae_trace::Trace`, replayed through `otae-serve` by the serve workloads
//! and through an LRU over the bare store by `store_mixed`.

#![warn(missing_docs)]

pub mod clock;
pub mod compare;
pub mod host;
pub mod json;
pub mod layers;
pub mod report;
pub mod serve;
pub mod span;
pub mod spec;
pub mod stats;
pub mod store_mixed;

use host::RunFacts;
use report::RunOutput;
use span::Tracer;

/// What running one workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// Metrics, tally and failed checks.
    pub output: RunOutput,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
    /// The workload's busiest thread count, for the `oversubscribed` stamp.
    pub threads_needed: usize,
}

/// Run the workload `facts` names, traced or untraced as it says.
pub fn run_workload(facts: &RunFacts) -> Result<Outcome, String> {
    let (output, tracer, threads_needed) = if let Some(shape) = serve::shape(&facts.workload) {
        if facts.traced {
            let (out, tr) = serve::run_traced(&shape, facts);
            (out, Some(tr), shape.threads_needed())
        } else {
            (serve::run(&shape, facts), None, shape.threads_needed())
        }
    } else if facts.workload == spec::STORE_MIXED {
        if facts.traced {
            let (out, tr) = store_mixed::run_traced(facts);
            (out, Some(tr), store_mixed::THREADS_NEEDED)
        } else {
            (store_mixed::run(facts), None, store_mixed::THREADS_NEEDED)
        }
    } else {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {:?}; known: {}", facts.workload, known.join(", ")));
    };
    Ok(Outcome { output, tracer, threads_needed })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric `BENCHMARK.json` declares is emitted, finite and
    /// carries its declared unit, on every workload, in the run mode the
    /// contract assigns it to — and nothing undeclared is emitted.
    #[test]
    fn smoke_run_emits_exactly_the_declared_metrics_on_every_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let declared = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names_units = |section: &str| -> Vec<(String, String)> {
            declared
                .get(section)
                .and_then(json::Json::as_arr)
                .expect("section")
                .iter()
                .map(|m| {
                    let field =
                        |k| m.get(k).and_then(json::Json::as_str).expect("field").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let workloads = declared.get("workloads").and_then(json::Json::as_arr).expect("workloads");
        assert_eq!(workloads.len(), 5);
        for w in workloads {
            let workload = w.get("name").and_then(json::Json::as_str).expect("name");
            for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let facts = RunFacts {
                    workload: workload.into(),
                    seed: 42,
                    seconds: 0.0,
                    traced,
                    smoke: true,
                    commit: "test".into(),
                    rustc: "test".into(),
                };
                let outcome = run_workload(&facts).expect("known workload");
                let out = &outcome.output;
                assert!(out.correct(), "{workload} trace={traced}: {:?}", out.failures);
                assert!(out.attempted >= 1 && out.failed == 0, "{workload}");
                assert_eq!(outcome.tracer.is_some(), traced);
                let line = json::parse(&out.result_line()).expect("result line");
                let emitted = line.get("metrics").and_then(json::Json::as_obj).expect("metrics");
                let want = names_units(section);
                assert_eq!(emitted.len(), want.len(), "{workload} {section}: metric count");
                for (name, unit) in &want {
                    let m = line
                        .get("metrics")
                        .and_then(|ms| ms.get(name))
                        .unwrap_or_else(|| panic!("{workload}: {name} not emitted"));
                    let value = m.get("value").and_then(json::Json::as_f64);
                    assert!(value.is_some_and(f64::is_finite), "{workload}: {name} = {value:?}");
                    assert_eq!(m.get("unit").and_then(json::Json::as_str), Some(unit.as_str()));
                    if !traced {
                        assert!(
                            value.is_some_and(|v| v > 0.0),
                            "{workload}: {name} must never be 0"
                        );
                    }
                }
                // A layer on the workload's path must actually have been measured.
                if traced {
                    for m in spec::PER_LAYER.iter().filter(|m| m.on.contains(&workload)) {
                        // Differences, clamped timings and defect counters
                        // may legitimately read 0 on tiny inputs.
                        let may_be_zero = matches!(
                            m.name,
                            "tracing_overhead_pct"
                                | "pipeline.unattributed_share"
                                | "serve.handoff_lock_ns_per_req"
                                | "serve.retrain_interference_ns_per_req"
                                | "memo.insert_ns"
                                | "memo.hit_ratio"
                                | "store.resurrected_keys_per_reopen"
                                | "store.gc_bytes"
                                | "store.compactions"
                                | "store.rewritten_records"
                                | "cache.lru_hit_ns"
                                | "cache.lru_miss_insert_ns"
                        );
                        let v = out.value(m.name).expect("declared");
                        assert!(may_be_zero || v > 0.0, "{workload}: {} was not measured", m.name);
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_workloads_are_refused_with_the_known_names() {
        let facts = RunFacts {
            workload: "nope".into(),
            seed: 1,
            seconds: 0.0,
            traced: false,
            smoke: true,
            commit: String::new(),
            rustc: String::new(),
        };
        let err = run_workload(&facts).expect_err("refused");
        assert!(err.contains("serve_original") && err.contains("store_mixed"));
    }
}
