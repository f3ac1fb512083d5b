//! Order statistics for benchmark samples.

/// Samples that must lie beyond a percentile before it is reported: a p99
/// over 200 samples is the second-largest value, i.e. an anecdote.
pub const MIN_SAMPLES_BEYOND: usize = 10;

fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

fn median_of_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of `values`; NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    median_of_sorted(&v)
}

/// How much slower the `recorded` arm ran than the `unrecorded` one, in
/// percent of the unrecorded median (both are throughputs).
pub fn overhead_pct(recorded: &[f64], unrecorded: &[f64]) -> f64 {
    (1.0 - median(recorded) / median(unrecorded)) * 100.0
}

/// The three quartile cut points, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) so spreads
/// printed here match the ones the acceptance procedure computes.
/// `None` with fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // Position i*(n+1)/4 in 1-based ranks, clamped to the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the run-to-run spread
/// the acceptance procedure compares against a metric's bound.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The `p`-th percentile (`0 < p < 1`, nearest-rank) of `sorted`, or `None`
/// unless at least [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "percentile needs sorted input");
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_SAMPLES_BEYOND).then(|| sorted[rank - 1])
}

/// Sample count with min / median / max — stamped beside every reported
/// metric so a reader can see how many samples a median rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Median sample.
    pub median: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise `values`; a single exact value is its own one-sample summary.
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        sort(&mut v);
        let median = median_of_sorted(&v);
        Self {
            n: v.len(),
            min: v.first().copied().unwrap_or(f64::NAN),
            median,
            max: v.last().copied().unwrap_or(f64::NAN),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(overhead_pct(&[75.0, 50.0, 100.0], &[100.0]), 25.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = iqr_share(&v).expect("ten samples");
        assert!((spread - 1.0).abs() < 1e-12, "(8.25 - 2.75) / 5.5");
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0), "exactly ten samples beyond");
        assert_eq!(percentile(&v, 0.999), None, "one sample beyond is an anecdote");
        assert_eq!(percentile(&v[..999], 0.99), None, "nine beyond is one short");
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn summary_reports_count_and_extremes() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!(s, Summary { n: 3, min: 1.0, median: 3.0, max: 5.0 });
        assert_eq!(Summary::of(&[]).n, 0);
    }
}
