//! What one run reports: named metrics with their sample summaries, the
//! attempted/failed tally, and every output check that did not hold.

use crate::host::RunFacts;
use crate::json::Json;
use crate::spec;
use crate::stats::Summary;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as declared in [`spec`].
    pub name: &'static str,
    /// Unit, from the declaration.
    pub unit: &'static str,
    /// The reported value: the median of the samples behind it, or for a
    /// timing of an untraced run their best (see [`RunOutput::set_best`]).
    pub value: f64,
    /// Sample count and extremes.
    pub summary: Summary,
    /// The samples themselves, in the order they were taken.
    pub samples: Vec<f64>,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct RunOutput {
    /// Operations (requests, store ops) the timed phase attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or went unanswered.
    pub failed: u64,
    /// One line per output check that did not hold; empty means correct.
    pub failures: Vec<String>,
    /// Things a reader should know that do not make the run incorrect.
    pub notes: Vec<String>,
    metrics: Vec<Metric>,
    /// Defect counters of an untraced run (see [`RunOutput::set_count`]).
    counts: Vec<(&'static str, f64)>,
}

impl RunOutput {
    /// A traced run's output: every per-layer metric declared, at 0 —
    /// the value a layer keeps on workloads whose path it is not on.
    pub fn per_layer_zeroed() -> Self {
        let metrics = spec::PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name,
                unit: m.unit,
                value: 0.0,
                summary: Summary::of(&[0.0]),
                samples: vec![0.0],
            })
            .collect();
        Self { metrics, ..Self::default() }
    }

    fn declared(name: &str) -> (&'static str, &'static str) {
        spec::end_to_end(name)
            .map(|m| (m.name, m.unit))
            .or_else(|| spec::per_layer(name).map(|m| (m.name, m.unit)))
            .unwrap_or_else(|| panic!("metric {name:?} is not declared in spec.rs"))
    }

    fn put(&mut self, name: &str, samples: &[f64], value_of: impl FnOnce(&Summary) -> f64) {
        let (name, unit) = Self::declared(name);
        let summary = Summary::of(samples);
        let metric =
            Metric { name, unit, value: value_of(&summary), summary, samples: samples.to_vec() };
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(slot) => *slot = metric,
            None => self.metrics.push(metric),
        }
    }

    /// Report `name` as the median of `samples`.
    pub fn set_samples(&mut self, name: &str, samples: &[f64]) {
        self.put(name, samples, |s| s.median);
    }

    /// Report the end-to-end timing `name` as the best of `samples`: the
    /// smallest where lower is better, the largest where higher is.
    ///
    /// The host only ever adds time to a call, and on this shared VM it does
    /// so in phases of seconds to minutes: over ten 20 s runs of unchanged
    /// code the per-run *median* of `call_wall_s` spread by 15-18 % of its
    /// median, the per-run *minimum* by 4-11 % (README, "What the bounds can
    /// and cannot do"). The fastest call of a run is the nearest thing to
    /// what the program costs on a quiet host, so that is the value held to
    /// the bound; the median, the extremes and every sample stay in the
    /// stderr table and the run record.
    pub fn set_best(&mut self, name: &str, samples: &[f64]) {
        let better = spec::end_to_end(name)
            .unwrap_or_else(|| panic!("{name:?} is not an end-to-end metric"))
            .better;
        self.put(name, samples, |s| match better {
            spec::Better::Lower => s.min,
            spec::Better::Higher => s.max,
        });
    }

    /// Report `name` as one exact value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_samples(name, &[value]);
    }

    /// The value reported for `name`, if any.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Report a defect counter of an untraced run: something the program
    /// got wrong that the parent commit already gets wrong, so it cannot
    /// fail the run, and that must not grow. The contract's result line
    /// has no place for it (an end-to-end metric may never be 0, and this
    /// should be); it goes into the run record under `counts`, where
    /// `compare` treats any increase over the parent as a regression.
    pub fn set_count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, value));
    }

    /// Every reported metric.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Record an output check: when `ok` is false the run is incorrect
    /// and `what` says why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Whether every output check held, no operation failed and every
    /// value is a finite number.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
            && self.failed == 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric exactly `value` and `unit`.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (m.name, Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// The full run record: run and host facts, the tally, failed checks,
    /// and every metric with its sample count and min / median / max.
    pub fn record(&self, facts: &RunFacts, threads_needed: usize) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit)),
                    ("n", Json::Num(m.summary.n as f64)),
                    ("min", Json::Num(m.summary.min)),
                    ("median", Json::Num(m.summary.median)),
                    ("max", Json::Num(m.summary.max)),
                    ("samples", Json::Arr(m.samples.iter().map(|&v| Json::Num(v)).collect())),
                ]),
            )
        });
        let counts = self.counts.iter().map(|&(name, v)| (name, Json::Num(v)));
        let mut members = facts.to_members(threads_needed);
        members.extend([
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            (
                "failures".to_string(),
                Json::Arr(self.failures.iter().map(|f| Json::str(f.as_str())).collect()),
            ),
            (
                "notes".to_string(),
                Json::Arr(self.notes.iter().map(|n| Json::str(n.as_str())).collect()),
            ),
            ("metrics".to_string(), Json::obj(metrics)),
            ("counts".to_string(), Json::obj(counts)),
        ]);
        Json::Obj(members)
    }

    /// A human-readable table of every metric, for stderr.
    pub fn table(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.metrics {
            let Summary { n, min, median, max } = m.summary;
            out.push_str(&format!("  {:<width$}  {:>16.6} {:<6}", m.name, m.value, m.unit));
            if n > 1 {
                out.push_str(&format!("  n={n} min={min:.6} median={median:.6} max={max:.6}"));
            }
            out.push('\n');
        }
        for (name, v) in &self.counts {
            out.push_str(&format!("  {name:<width$}  {v:>16.6} count   (defect counter)\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = RunOutput { attempted: 10, ..RunOutput::default() };
        out.set_samples("throughput_rps", &[3.0, 1.0, 2.0]);
        out.set("setup_s", 0.5);
        let doc = crate::json::parse(&out.result_line()).expect("result line is JSON");
        let keys: Vec<&str> =
            doc.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let rps = doc.get("metrics").and_then(|m| m.get("throughput_rps")).expect("metric");
        assert_eq!(rps.get("value").and_then(Json::as_f64), Some(2.0), "median of the samples");
        assert_eq!(rps.get("unit").and_then(Json::as_str), Some("1/s"));
        assert_eq!(rps.as_obj().map(<[_]>::len), Some(2), "value and unit, nothing else");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    fn a_failed_check_or_a_non_finite_value_makes_the_run_incorrect() {
        let mut out = RunOutput::default();
        out.set("setup_s", 1.0);
        assert!(out.correct());
        out.check(1 + 1 == 2, || unreachable!("holds"));
        assert!(out.correct());
        out.check(false, || "fingerprint mismatch".into());
        assert!(!out.correct());
        assert!(out.result_line().contains("\"correct\": false"));

        let mut nan = RunOutput::default();
        nan.set("setup_s", f64::NAN);
        assert!(!nan.correct());
    }

    #[test]
    fn traced_output_starts_with_every_per_layer_metric_at_zero() {
        let mut out = RunOutput::per_layer_zeroed();
        assert_eq!(out.metrics().len(), spec::PER_LAYER.len());
        assert!(out.metrics().iter().all(|m| m.value == 0.0));
        out.set("trace.requests", 42.0);
        assert_eq!(out.metrics().len(), spec::PER_LAYER.len(), "set replaces in place");
        assert_eq!(out.value("trace.requests"), Some(42.0));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_names_are_refused() {
        RunOutput::default().set("made.up", 1.0);
    }

    #[test]
    fn record_stamps_facts_and_sample_summaries() {
        let facts = RunFacts {
            workload: "serve_original".into(),
            seed: 7,
            seconds: 12.0,
            traced: false,
            smoke: false,
            commit: "abc123".into(),
            rustc: "rustc 1.0".into(),
        };
        let mut out = RunOutput { attempted: 5, ..RunOutput::default() };
        out.set_samples("call_wall_s", &[2.0, 4.0, 9.0]);
        let rec = out.record(&facts, 3);
        assert_eq!(rec.get("seed").and_then(Json::as_f64), Some(7.0));
        assert_eq!(rec.get("commit").and_then(Json::as_str), Some("abc123"));
        assert!(rec.get("hw_threads").and_then(Json::as_f64).is_some());
        assert!(matches!(rec.get("oversubscribed"), Some(Json::Bool(_))));
        let m = rec.get("metrics").and_then(|m| m.get("call_wall_s")).expect("metric");
        let field = |k: &str| m.get(k).and_then(Json::as_f64);
        assert_eq!(
            (field("n"), field("min"), field("median"), field("max")),
            (Some(3.0), Some(2.0), Some(4.0), Some(9.0))
        );
        assert_eq!(field("value"), Some(4.0), "set_samples reports the median");
        assert_eq!(m.get("samples").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
    }

    #[test]
    fn a_timing_is_reported_as_the_best_sample_in_its_own_direction() {
        let mut out = RunOutput::default();
        out.set_best("call_wall_s", &[4.0, 2.0, 9.0]);
        out.set_best("throughput_rps", &[4.0, 2.0, 9.0]);
        assert_eq!(out.value("call_wall_s"), Some(2.0), "lower is better: the minimum");
        assert_eq!(out.value("throughput_rps"), Some(9.0), "higher is better: the maximum");
        let table = out.table();
        assert!(table.contains("median=4.000000"), "the median stays visible: {table}");
    }
}
