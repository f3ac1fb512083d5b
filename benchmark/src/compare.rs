//! Compare two sets of run records, or show the spread of one.
//!
//! A *set* is a file of run records, one JSON object per line, as
//! `run.sh --record FILE` appends them. Several records of one workload
//! (different seeds, or repeats) are summarised by their median and by the
//! interquartile range as a share of the median, exactly as the
//! acceptance procedure does.
//!
//! The quality metrics repeat (nearly) exactly for a given seed, so their
//! spread over a set is the generator's seed-to-seed variation, not noise,
//! and a bound wide enough to cover it guards nothing. Two sets are
//! therefore paired by seed for those metrics and the mean per-seed change
//! is judged against the metric's `paired_bound`.

use crate::json::{self, Json};
use crate::spec::{self, Better, EndToEnd};
use crate::stats::{iqr_share, median};
use std::fmt::Write as _;

/// Verdict on one (workload, end-to-end metric) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// One set: spread within a third of the bound.
    Steady,
    /// One set: spread within the bound but above a third of it.
    Wide,
    /// One set: spread exceeds the bound; the bound cannot be held.
    Exceeds,
    /// One set: a defect counter that should be 0 is not.
    Nonzero,
    /// Two sets: B is no worse than A by more than the bound.
    Ok,
    /// Two sets: spread exceeds the bound, yet every B run beats every A run.
    Better,
    /// Two sets: the sets' own spread hides a change of the bound's size.
    Unresolved,
    /// Two sets: B is worse than A by more than the bound.
    Regressed,
    /// The program under test cannot move this pairing (`spec::NOT_GUARDED`).
    NotGuarded,
    /// Too few runs to say.
    NoData,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Steady => "steady",
            Verdict::Wide => "wide",
            Verdict::Exceeds => "EXCEEDS-BOUND",
            Verdict::Nonzero => "nonzero",
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
            Verdict::NotGuarded => "not-guarded",
            Verdict::NoData => "no-data",
        }
    }

    fn is_bad(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Exceeds)
    }
}

/// One value of one untraced run record.
#[derive(Debug)]
struct Value {
    workload: String,
    seed: u64,
    /// Metric name, or defect-counter name when `counter` is set.
    name: String,
    counter: bool,
    value: f64,
}

/// The untraced run records of one file.
#[derive(Debug, Default)]
pub struct RunSet {
    values: Vec<Value>,
}

impl RunSet {
    /// Parse a file of run records (one per line; blank lines ignored).
    /// Smoke records are refused: their inputs are not the workload's.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut set = Self::default();
        for (lineno, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
            let at = |what: &str| format!("line {}: {what}", lineno + 1);
            let rec = json::parse(line).map_err(|e| at(&e))?;
            let workload =
                rec.get("workload").and_then(Json::as_str).ok_or_else(|| at("no workload"))?;
            if rec.get("smoke") == Some(&Json::Bool(true)) {
                return Err(at("a --smoke record is not a measurement"));
            }
            let seed = rec.get("seed").and_then(Json::as_f64).ok_or_else(|| at("no seed"))? as u64;
            let metrics =
                rec.get("metrics").and_then(Json::as_obj).ok_or_else(|| at("no metrics"))?;
            let mut push = |name: &str, counter, value| {
                set.values.push(Value {
                    workload: workload.to_string(),
                    seed,
                    name: name.to_string(),
                    counter,
                    value,
                });
            };
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    push(name, false, v);
                }
            }
            for (name, v) in rec.get("counts").and_then(Json::as_obj).unwrap_or(&[]) {
                if let Some(v) = v.as_f64() {
                    push(name, true, v);
                }
            }
        }
        Ok(set)
    }

    fn select<'a>(
        &'a self,
        workload: &'a str,
        name: &'a str,
        counter: bool,
    ) -> impl Iterator<Item = &'a Value> {
        self.values
            .iter()
            .filter(move |v| v.workload == workload && v.name == name && v.counter == counter)
    }

    /// Every run's value of a metric, in file order.
    fn get(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.select(workload, metric, false).map(|v| v.value).collect()
    }

    /// A metric's value per seed (the median, where a seed ran twice).
    fn by_seed(&self, workload: &str, metric: &str) -> Vec<(u64, f64)> {
        let mut seeds: Vec<u64> = self.select(workload, metric, false).map(|v| v.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        seeds
            .into_iter()
            .map(|seed| {
                let runs: Vec<f64> = self
                    .select(workload, metric, false)
                    .filter(|v| v.seed == seed)
                    .map(|v| v.value)
                    .collect();
                (seed, median(&runs))
            })
            .collect()
    }

    /// Names of the defect counters the set's records of `workload` carry.
    fn counters(&self, workload: &str) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .values
            .iter()
            .filter(|v| v.counter && v.workload == workload)
            .map(|v| v.name.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judge one set's spread against the metric's bound.
pub fn judge_spread(values: &[f64], bound: f64) -> Verdict {
    match iqr_share(values) {
        None => Verdict::NoData,
        Some(s) if s * 3.0 <= bound => Verdict::Steady,
        Some(s) if s <= bound => Verdict::Wide,
        Some(_) => Verdict::Exceeds,
    }
}

/// Judge set `b` against set `a` for one metric, runs pooled: the verdict
/// and how much worse B's median is.
pub fn judge_pooled(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, Option<f64>) {
    if a.is_empty() || b.is_empty() {
        return (Verdict::NoData, None);
    }
    let delta = worse_by(median(a), median(b), better);
    let spread = iqr_share(a).unwrap_or(0.0).max(iqr_share(b).unwrap_or(0.0));
    let verdict = if spread > bound {
        let all_better = a.iter().all(|&x| b.iter().all(|&y| worse_by(x, y, better) < 0.0));
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if delta > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, Some(delta))
}

/// Judge set `b` against set `a` seed by seed: the verdict and the mean
/// per-seed change, over the seeds both sets ran. `None` when they share
/// no seed.
pub fn judge_by_seed(
    a: &[(u64, f64)],
    b: &[(u64, f64)],
    better: Better,
    bound: f64,
) -> Option<(Verdict, f64, usize)> {
    let deltas: Vec<f64> = a
        .iter()
        .filter_map(|&(seed, x)| {
            b.iter().find(|&&(s, _)| s == seed).map(|&(_, y)| worse_by(x, y, better))
        })
        .collect();
    if deltas.is_empty() {
        return None;
    }
    let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
    let verdict = if mean > bound { Verdict::Regressed } else { Verdict::Ok };
    Some((verdict, mean, deltas.len()))
}

/// Judge a defect counter (0 is the only good value, and the parent's
/// value is a known defect, not a bound): any increase that the parent's
/// own runs do not explain is a regression.
pub fn judge_counter(a: &[f64], b: Option<&[f64]>) -> Verdict {
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    match b {
        _ if a.is_empty() => Verdict::NoData,
        None if max(a) > 0.0 => Verdict::Nonzero,
        None => Verdict::Steady,
        Some([]) => Verdict::NoData,
        Some(b) if median(b) > max(a) => Verdict::Regressed,
        Some(b) if median(b) > median(a) => Verdict::Unresolved,
        Some(_) => Verdict::Ok,
    }
}

struct Row<'a> {
    workload: &'a str,
    name: &'a str,
    a: &'a [f64],
    b: &'a [f64],
    /// `pooled`, or `N seeds` when judged seed by seed.
    how: String,
    delta: Option<f64>,
    bound: Option<f64>,
    verdict: Verdict,
}

fn write_row(out: &mut String, row: &Row<'_>) {
    let med = |v: &[f64]| if v.is_empty() { "-".to_string() } else { format!("{:.6}", median(v)) };
    let pct = |x: Option<f64>| x.map_or("      -".to_string(), |v| format!("{:>6.2}%", v * 100.0));
    let _ = writeln!(
        out,
        "{:<16} {:<34} {:>3} {:>14} {}   {:>3} {:>14} {}   {:>8} {:>8} {:>6}  {}",
        row.workload,
        row.name,
        row.a.len(),
        med(row.a),
        pct(iqr_share(row.a)),
        row.b.len(),
        med(row.b),
        pct(iqr_share(row.b)),
        row.how,
        row.delta.map_or("-".to_string(), |d| format!("{:+.2}%", d * 100.0)),
        row.bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
        row.verdict.word()
    );
}

fn judge_metric(
    a: &RunSet,
    b: Option<&RunSet>,
    workload: &str,
    m: &EndToEnd,
    va: &[f64],
    vb: &[f64],
) -> (Verdict, String, Option<f64>, f64) {
    let pooled = "pooled".to_string();
    // The acceptance procedure holds every pairing's spread to the bound,
    // movable or not.
    let Some(b) = b else {
        return (judge_spread(va, m.bound), pooled, None, m.bound);
    };
    if spec::not_guarded(workload, m.name).is_some() {
        return (Verdict::NotGuarded, pooled, None, m.bound);
    }
    let by_seed = m.paired_bound.and_then(|bound| {
        let pairs = judge_by_seed(
            &a.by_seed(workload, m.name),
            &b.by_seed(workload, m.name),
            m.better,
            bound,
        );
        pairs.map(|(verdict, mean, n)| (verdict, format!("{n} seeds"), Some(mean), bound))
    });
    by_seed.unwrap_or_else(|| {
        let (verdict, delta) = judge_pooled(va, vb, m.better, m.bound);
        (verdict, pooled, delta, m.bound)
    })
}

/// The comparison table, and whether any pairing regressed or any single
/// set's spread exceeds its bound.
pub fn report(a: &RunSet, b: Option<&RunSet>) -> (String, bool) {
    let mut out = String::new();
    let mut bad = false;
    let _ = writeln!(
        out,
        "{:<16} {:<34} {:>3} {:>14} {:>7}   {:>3} {:>14} {:>7}   {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "nA",
        "median A",
        "iqr A",
        "nB",
        "median B",
        "iqr B",
        "judged",
        "worse by",
        "bound"
    );
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let va = a.get(w.name, m.name);
            let vb = b.map_or(Vec::new(), |b| b.get(w.name, m.name));
            let (verdict, how, delta, bound) = judge_metric(a, b, w.name, m, &va, &vb);
            bad |= verdict.is_bad();
            let row = Row {
                workload: w.name,
                name: m.name,
                a: &va,
                b: &vb,
                how,
                delta,
                bound: Some(bound),
                verdict,
            };
            write_row(&mut out, &row);
        }
        let mut counters = a.counters(w.name);
        counters.extend(b.map_or(Vec::new(), |b| b.counters(w.name)));
        counters.sort_unstable();
        counters.dedup();
        for name in counters {
            let values = |set: &RunSet| set.select(w.name, name, true).map(|v| v.value).collect();
            let va: Vec<f64> = values(a);
            let vb: Vec<f64> = b.map_or(Vec::new(), values);
            let verdict = judge_counter(&va, b.map(|_| vb.as_slice()));
            bad |= verdict.is_bad();
            let row = Row {
                workload: w.name,
                name,
                a: &va,
                b: &vb,
                how: "counter".into(),
                delta: None,
                bound: None,
                verdict,
            };
            write_row(&mut out, &row);
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, seed: u64, metric: &str, value: f64) -> String {
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("smoke", Json::Bool(false)),
            ("metrics", Json::obj([(metric, Json::obj([("value", Json::Num(value))]))])),
        ])
        .render()
    }

    fn set(lines: &[String]) -> RunSet {
        RunSet::parse(&lines.join("\n")).expect("valid set")
    }

    #[test]
    fn spread_is_judged_against_a_third_of_the_bound() {
        let tight: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.1).collect();
        assert_eq!(judge_spread(&tight, 0.1), Verdict::Steady);
        let wide: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        assert_eq!(judge_spread(&wide, 0.1), Verdict::Wide, "5% spread, 10% bound");
        assert_eq!(judge_spread(&wide, 0.03), Verdict::Exceeds);
        assert_eq!(judge_spread(&[1.0], 0.1), Verdict::NoData);
    }

    #[test]
    fn pooled_sets_are_ok_regressed_unresolved_or_clearly_better() {
        let verdict = |a: &[f64], b: &[f64], better, bound| judge_pooled(a, b, better, bound).0;
        let a = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(verdict(&a, &[95.0, 96.0, 94.0, 95.5], Better::Higher, 0.1), Verdict::Ok);
        assert_eq!(verdict(&a, &[80.0, 81.0, 79.0, 80.5], Better::Higher, 0.1), Verdict::Regressed);
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0, 80.5], Better::Lower, 0.1),
            Verdict::Ok,
            "a fall is an improvement when lower is better"
        );
        // Noisy sets: medians differ, but spread swamps the 5% bound.
        let noisy_a = [100.0, 140.0, 70.0, 120.0];
        let noisy_b = [90.0, 130.0, 60.0, 75.0];
        assert_eq!(verdict(&noisy_a, &noisy_b, Better::Higher, 0.05), Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        let far_b = [300.0, 340.0, 270.0, 320.0];
        assert_eq!(verdict(&noisy_a, &far_b, Better::Higher, 0.05), Verdict::Better);
        assert_eq!(verdict(&a, &[], Better::Higher, 0.1), Verdict::NoData);
    }

    /// The case the pooled bound cannot see: write rates that differ by
    /// 40 % from seed to seed, and a change that writes 3 % more on each.
    #[test]
    fn a_small_change_at_every_seed_is_caught_by_pairing_not_by_pooling() {
        let a = [(1, 0.20), (2, 0.25), (3, 0.30)];
        let worse: Vec<(u64, f64)> = a.iter().map(|&(s, v)| (s, v * 1.03)).collect();
        let (verdict, mean, n) = judge_by_seed(&a, &worse, Better::Lower, 0.01).expect("pairs");
        assert_eq!((verdict, n), (Verdict::Regressed, 3));
        assert!((mean - 0.03).abs() < 1e-12);
        let pool = |v: &[(u64, f64)]| v.iter().map(|&(_, x)| x).collect::<Vec<_>>();
        assert_ne!(
            judge_pooled(&pool(&a), &pool(&worse), Better::Lower, 0.25).0,
            Verdict::Regressed,
            "3 % is invisible under a bound that covers the seeds"
        );
        let same = judge_by_seed(&a, &a, Better::Lower, 0.01).expect("pairs");
        assert_eq!((same.0, same.1), (Verdict::Ok, 0.0));
        // Only shared seeds are paired; none shared means no pairing.
        let other = [(3, 0.30), (4, 0.90)];
        assert_eq!(judge_by_seed(&a, &other, Better::Lower, 0.01).map(|r| r.2), Some(1));
        assert!(judge_by_seed(&a, &[(9, 1.0)], Better::Lower, 0.01).is_none());
    }

    #[test]
    fn a_defect_counter_may_not_grow_beyond_what_the_parent_shows() {
        assert_eq!(judge_counter(&[0.0, 0.0], None), Verdict::Steady);
        assert_eq!(judge_counter(&[0.0, 2.0], None), Verdict::Nonzero);
        assert_eq!(judge_counter(&[0.0, 0.0], Some(&[0.0, 0.0])), Verdict::Ok);
        assert_eq!(judge_counter(&[0.0, 0.0], Some(&[1.0, 1.0])), Verdict::Regressed);
        assert_eq!(judge_counter(&[1.5, 2.0, 2.5], Some(&[1.0, 1.8, 2.0])), Verdict::Ok);
        assert_eq!(judge_counter(&[1.5, 2.0, 2.5], Some(&[2.0, 2.4, 2.6])), Verdict::Unresolved);
        assert_eq!(judge_counter(&[1.5, 2.0, 2.5], Some(&[3.0, 3.5, 4.0])), Verdict::Regressed);
        assert_eq!(judge_counter(&[1.0], Some(&[])), Verdict::NoData);
    }

    #[test]
    fn sets_parse_group_by_seed_and_refuse_smoke_records() {
        let s = set(&[
            record("serve_original", 1, "throughput_rps", 100.0),
            String::new(),
            record("serve_original", 2, "throughput_rps", 110.0),
            record("serve_original", 2, "throughput_rps", 130.0),
            record("store_mixed", 1, "throughput_rps", 5.0),
        ]);
        assert_eq!(s.get("serve_original", "throughput_rps"), [100.0, 110.0, 130.0]);
        assert_eq!(s.by_seed("serve_original", "throughput_rps"), [(1, 100.0), (2, 120.0)]);
        assert_eq!(s.get("store_mixed", "throughput_rps"), [5.0]);
        assert!(s.get("serve_store", "throughput_rps").is_empty());
        let smoke = record("serve_original", 1, "setup_s", 1.0).replace("false", "true");
        assert!(RunSet::parse(&smoke).expect_err("refused").contains("smoke"));
        assert!(RunSet::parse("{not json").is_err());
    }

    #[test]
    fn report_pairs_quality_by_seed_pools_timings_and_labels_constants() {
        let a = set(&[
            record("serve_original", 1, "throughput_rps", 100.0),
            record("serve_proposal", 1, "byte_write_rate", 0.20),
            record("serve_proposal", 2, "byte_write_rate", 0.30),
            record("serve_original", 1, "write_amplification", 1.0),
        ]);
        let b = set(&[
            record("serve_original", 1, "throughput_rps", 50.0),
            record("serve_proposal", 1, "byte_write_rate", 0.21),
            record("serve_proposal", 2, "byte_write_rate", 0.31),
            record("serve_original", 1, "write_amplification", 1.0),
        ]);
        let (table, bad) = report(&a, Some(&b));
        assert!(bad);
        let line = |w: &str, m: &str| {
            table
                .lines()
                .find(|l| l.starts_with(w) && l.split_whitespace().nth(1) == Some(m))
                .unwrap_or_else(|| panic!("{w} {m} missing"))
                .to_string()
        };
        assert!(line("serve_original", "throughput_rps").ends_with("REGRESSED"));
        let bwr = line("serve_proposal", "byte_write_rate");
        assert!(bwr.contains("2 seeds") && bwr.ends_with("REGRESSED"), "{bwr}");
        assert!(line("serve_original", "write_amplification").ends_with("not-guarded"));
        assert_eq!(table.lines().count(), 1 + spec::WORKLOADS.len() * spec::END_TO_END.len());
        let (_, bad) = report(&a, Some(&a));
        assert!(!bad);
    }

    #[test]
    fn report_lists_defect_counters_and_flags_their_growth() {
        let with_count = |n: f64| {
            let rec = record("store_mixed", 1, "throughput_rps", 10.0);
            format!(
                "{}, \"counts\": {{\"store.resurrected_keys_per_reopen\": {n}}}}}",
                &rec[..rec.len() - 1]
            )
        };
        let (a, b) = (set(&[with_count(0.0)]), set(&[with_count(3.0)]));
        let (table, bad) = report(&a, Some(&b));
        assert!(bad, "{table}");
        assert!(table.lines().any(|l| l.contains("resurrected") && l.ends_with("REGRESSED")));
        let (table, bad) = report(&b, None);
        assert!(!bad, "a known defect does not fail a lone set");
        assert!(table.lines().any(|l| l.contains("resurrected") && l.ends_with("nonzero")));
    }
}
