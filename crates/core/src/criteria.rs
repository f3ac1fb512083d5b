//! The one-time-access criteria solver (§4.3).
//!
//! A photo is one-time-access w.r.t. a cache when its reaccess distance
//! exceeds `M`, the number of accesses a freshly-admitted object survives in
//! the cache. With capacity `C`, mean object size `S`, hit rate `h` and
//! one-time fraction `p`, Eq. 2 gives `M·(1−h)·(1−p) = C/S`, i.e.
//! `M = C / (S·(1−h)·(1−p))`.
//!
//! `p` and `h` themselves depend on `M` (`p↑ → M↑ → p↓`), so the paper
//! iterates from `p = 0` until the value settles — "empirically, we set the
//! iterations to be 3". We implement exactly that fixed-point iteration,
//! measuring `p(M)` on the trace through [`ReaccessIndex`] — one count of
//! `dist > M` per round — and taking `h(M) = 1 − p(M)`.

use crate::pipeline::PolicyKind;
use crate::reaccess::ReaccessIndex;
use otae_trace::Trace;

/// Result of the criteria fixed point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriteriaSolution {
    /// Reaccess-distance threshold (in accesses).
    pub m: u64,
    /// Converged one-time-access fraction `p`.
    pub p: f64,
    /// Converged hit-rate estimate `h`.
    pub h: f64,
}

impl CriteriaSolution {
    /// The LIRS variant (§5.2): `M_LIRS = M_LRU × R_s` where `R_s = C_s/C`
    /// is the LIR-stack share of the cache.
    fn for_lirs(&self, stack_ratio: f64) -> CriteriaSolution {
        assert!((0.0..=1.0).contains(&stack_ratio));
        CriteriaSolution { m: ((self.m as f64 * stack_ratio) as u64).max(1), ..*self }
    }

    /// History-table capacity per §4.4.2: `M(1−h)p × 0.05` entries
    /// (2–5 % of the SSD metadata table), at least 16.
    pub fn history_table_capacity(&self) -> usize {
        ((self.m as f64 * (1.0 - self.h) * self.p * 0.05) as usize).max(16)
    }
}

/// Fixed-point rounds of every criteria solve: "empirically, we set the
/// iterations to be 3" (§4.3).
pub const CRITERIA_ITERATIONS: usize = 3;

/// Solve the criteria on a trace.
///
/// * `index` — precomputed reaccess distances;
/// * `cache_bytes` — cache capacity `C`;
/// * `avg_object_size` — mean photo size `S`;
/// * `iterations` — fixed-point rounds (the paper uses 3).
pub fn solve_criteria(
    index: &ReaccessIndex,
    cache_bytes: u64,
    avg_object_size: f64,
    iterations: usize,
) -> CriteriaSolution {
    assert!(avg_object_size > 0.0, "mean object size must be positive");
    let c_over_s = cache_bytes as f64 / avg_object_size;
    // Initial round: p = 0 and h = 0 give M0 = C/S (Eq. 1 with h = 0).
    let (mut p, mut h) = (0.0f64, 0.0f64);
    let mut m = c_over_s.max(1.0);
    for _ in 0..iterations {
        let m_u = m.min(u64::MAX as f64) as u64;
        p = index.one_time_fraction(m_u);
        // Accesses whose object returns within `M`: the hit-rate estimate of
        // a cache retaining roughly the last `M` accesses.
        h = (1.0 - p).min(0.99);
        m = c_over_s / ((1.0 - h).max(0.01) * (1.0 - p).max(0.01));
    }
    CriteriaSolution { m: m.min(u64::MAX as f64) as u64, p, h }
}

/// The criteria a cache of `capacity` bytes under `policy` runs with, and
/// the threshold `M` in force. Every driver resolves through here, so the
/// §5.2 LIRS scaling cannot be forgotten: the fixed point is solved on the
/// mean object size the index counted ([`ReaccessIndex::avg_object_size`])
/// in [`CRITERIA_ITERATIONS`] rounds, scaled by the policy's stack share,
/// and `M` is `m_override` when set (the returned solution keeps the solved
/// value). Nothing here walks the trace; it is checked against the index.
///
/// # Panics
///
/// When `index` was built for a trace of another length.
pub fn resolve_criteria(
    trace: &Trace,
    index: &ReaccessIndex,
    policy: PolicyKind,
    capacity: u64,
    m_override: Option<u64>,
) -> (CriteriaSolution, u64) {
    assert_eq!(index.len(), trace.len(), "index must match the trace");
    let avg_size = index.avg_object_size().max(1.0);
    let mut criteria = solve_criteria(index, capacity, avg_size, CRITERIA_ITERATIONS);
    if policy == PolicyKind::Lirs {
        criteria = criteria.for_lirs(policy.stack_ratio());
    }
    (criteria, m_override.unwrap_or(criteria.m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use otae_trace::{generate, TraceConfig};

    fn index() -> ReaccessIndex {
        let trace = generate(&TraceConfig { n_objects: 10_000, seed: 21, ..Default::default() });
        ReaccessIndex::build(&trace)
    }

    #[test]
    fn m_grows_with_capacity() {
        let idx = index();
        let small = solve_criteria(&idx, 1 << 20, 32_768.0, 3);
        let large = solve_criteria(&idx, 1 << 26, 32_768.0, 3);
        assert!(large.m > small.m, "{} !> {}", large.m, small.m);
    }

    #[test]
    fn m_at_least_c_over_s() {
        let idx = index();
        let sol = solve_criteria(&idx, 1 << 24, 32_768.0, 3);
        let c_over_s = (1 << 24) as f64 / 32_768.0;
        assert!(sol.m as f64 >= c_over_s, "M must exceed C/S");
    }

    #[test]
    fn p_and_h_are_probabilities_and_consistent() {
        let idx = index();
        let sol = solve_criteria(&idx, 1 << 24, 32_768.0, 3);
        assert!((0.0..=1.0).contains(&sol.p));
        assert!((0.0..=1.0).contains(&sol.h));
        // One-time fraction of a social trace is substantial.
        assert!(sol.p > 0.2, "p = {}", sol.p);
    }

    #[test]
    fn fixed_point_settles_within_three_iterations() {
        let idx = index();
        let three = solve_criteria(&idx, 1 << 24, 32_768.0, 3);
        let six = solve_criteria(&idx, 1 << 24, 32_768.0, 6);
        let rel = (three.m as f64 - six.m as f64).abs() / six.m as f64;
        assert!(rel < 0.25, "3 vs 6 iterations differ by {rel}");
    }

    #[test]
    fn lirs_variant_shrinks_m() {
        let sol = CriteriaSolution { m: 1000, p: 0.5, h: 0.4 };
        let lirs = sol.for_lirs(0.8);
        assert_eq!(lirs.m, 800);
        assert_eq!(sol.for_lirs(0.0).m, 1); // clamped to at least 1
    }

    #[test]
    fn history_capacity_formula() {
        let sol = CriteriaSolution { m: 10_000, p: 0.5, h: 0.6 };
        // 10000 * 0.4 * 0.5 * 0.05 = 100.
        assert_eq!(sol.history_table_capacity(), 100);
        // Floor at 16.
        let tiny = CriteriaSolution { m: 10, p: 0.1, h: 0.9 };
        assert_eq!(tiny.history_table_capacity(), 16);
    }

    #[test]
    #[should_panic]
    fn zero_size_rejected() {
        solve_criteria(&index(), 1 << 20, 0.0, 3);
    }
}
