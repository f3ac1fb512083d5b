//! Parallel experiment grids.
//!
//! The paper's figures sweep (policy × mode × capacity); runs are
//! independent, so they fan out over scoped threads sharing one
//! reaccess index. Results return in the order of the input points,
//! regardless of scheduling.
//!
//! Proposal points additionally share the expensive capacity-independent
//! work: the feature column is the index's, extracted once for every run
//! over it, and the classifier is trained once per distinct `(M, v)` pair —
//! points differing only in capacity replay the same [`ModelSchedule`]
//! instead of re-fitting identical trees.

use crate::criteria::resolve_criteria;
use crate::daily::ModelSchedule;
use crate::pipeline::{run_with_plan, Mode, PolicyKind, RunConfig, RunPlan, RunResult};
use crate::reaccess::ReaccessIndex;
use otae_trace::Trace;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SweepPoint {
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Admission mode.
    pub mode: Mode,
    /// Cache capacity in bytes.
    pub capacity: u64,
}

/// Cartesian helper: all (policy × mode × capacity) combinations.
pub fn grid(policies: &[PolicyKind], modes: &[Mode], capacities: &[u64]) -> Vec<SweepPoint> {
    let mut out = Vec::with_capacity(policies.len() * modes.len() * capacities.len());
    for &policy in policies {
        for &mode in modes {
            for &capacity in capacities {
                out.push(SweepPoint { policy, mode, capacity });
            }
        }
    }
    out
}

/// Run `job(i)` for every `i < n` across scoped worker threads and return
/// the results in index order. Each index has exactly one producer, so
/// results travel over a bounded channel sized to hold them all (sends
/// never block) and land in their slot with no per-slot locking.
fn indexed_parallel<T, F>(n: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, T)>(n);
    std::thread::scope(|scope| {
        let next = &next;
        let job = &job;
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // Infallible: the receiver outlives the scope and the
                // channel holds all n results without blocking.
                let _ = tx.send((i, job(i)));
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    while let Ok((i, result)) = rx.try_recv() {
        slots[i] = Some(result);
    }
    slots.into_iter().map(|s| s.expect("every point completed")).collect()
}

/// Run every point in parallel (`threads = 0` uses available parallelism).
/// `base` supplies training/latency/criteria settings; its policy, mode and
/// capacity fields are overridden per point.
pub fn sweep(
    trace: &Trace,
    index: &ReaccessIndex,
    points: &[SweepPoint],
    base: &RunConfig,
    threads: usize,
) -> Vec<RunResult> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
    } else {
        threads
    }
    .min(points.len().max(1));

    let unique_bytes = index.unique_bytes();
    // `(M, v)` fully determines training: labels come from `M`, tree costs
    // from `v`; both resolve exactly as a run resolves them.
    let key_of = |p: &SweepPoint| -> (u64, u32) {
        let (_, m) = resolve_criteria(trace, index, p.policy, p.capacity, base.m_override);
        let v = base.training.cost.resolve(p.capacity, unique_bytes);
        (m, v.to_bits())
    };
    let mut keys: Vec<(u64, u32)> = Vec::new();
    let point_key: Vec<Option<usize>> = points
        .iter()
        .map(|p| {
            (p.mode == Mode::Proposal).then(|| {
                let key = key_of(p);
                keys.iter().position(|&k| k == key).unwrap_or_else(|| {
                    keys.push(key);
                    keys.len() - 1
                })
            })
        })
        .collect();
    let schedules: Vec<ModelSchedule> = indexed_parallel(keys.len(), threads, |i| {
        let (m, v_bits) = keys[i];
        let features = index.features(trace);
        ModelSchedule::build(trace, index, features, m, f32::from_bits(v_bits), &base.training)
    });

    indexed_parallel(points.len(), threads, |i| {
        let p = points[i];
        let cfg =
            RunConfig { policy: p.policy, mode: p.mode, capacity: p.capacity, ..base.clone() };
        let plan = RunPlan { schedule: point_key[i].map(|k| &schedules[k]) };
        run_with_plan(trace, index, &cfg, &plan)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_with_index;
    use otae_trace::{generate, TraceConfig};

    #[test]
    fn grid_enumerates_cartesian_product() {
        let g = grid(
            &[PolicyKind::Lru, PolicyKind::Fifo],
            &[Mode::Original, Mode::Ideal],
            &[100, 200, 300],
        );
        assert_eq!(g.len(), 12);
        assert_eq!(
            g[0],
            SweepPoint { policy: PolicyKind::Lru, mode: Mode::Original, capacity: 100 }
        );
    }

    #[test]
    fn sweep_matches_sequential_runs() {
        let trace = generate(&TraceConfig { n_objects: 2_000, seed: 17, ..Default::default() });
        let index = ReaccessIndex::build(&trace);
        let cap = (trace.unique_bytes() as f64 * 0.03) as u64;
        let points = grid(
            &[PolicyKind::Lru, PolicyKind::Fifo],
            &[Mode::Original, Mode::Ideal],
            &[cap, cap * 2],
        );
        let base = RunConfig::new(PolicyKind::Lru, Mode::Original, cap);
        let par = sweep(&trace, &index, &points, &base, 4);
        assert_eq!(par.len(), points.len());
        for (point, result) in points.iter().zip(&par) {
            let cfg = RunConfig {
                policy: point.policy,
                mode: point.mode,
                capacity: point.capacity,
                ..base.clone()
            };
            let seq = run_with_index(&trace, &index, &cfg);
            assert_eq!(seq.stats, result.stats, "point {point:?} must be deterministic");
            assert_eq!(seq.policy, result.policy);
            assert_eq!(seq.capacity, result.capacity);
        }
    }

    #[test]
    fn proposal_sweep_shares_training_and_matches_sequential_runs() {
        // Proposal points across two capacities and a LIRS point (different
        // M, hence a distinct schedule) — every fingerprint must be
        // bit-identical to a standalone run that trains inline.
        let trace = generate(&TraceConfig { n_objects: 2_000, seed: 23, ..Default::default() });
        let index = ReaccessIndex::build(&trace);
        let cap = (trace.unique_bytes() as f64 * 0.03) as u64;
        let mut points = grid(&[PolicyKind::Lru], &[Mode::Proposal], &[cap, cap * 2]);
        points.push(SweepPoint { policy: PolicyKind::Lirs, mode: Mode::Proposal, capacity: cap });
        let base = RunConfig::new(PolicyKind::Lru, Mode::Proposal, cap);
        let par = sweep(&trace, &index, &points, &base, 4);
        for (point, result) in points.iter().zip(&par) {
            let cfg = RunConfig {
                policy: point.policy,
                mode: point.mode,
                capacity: point.capacity,
                ..base.clone()
            };
            let seq = run_with_index(&trace, &index, &cfg);
            assert_eq!(
                seq.fingerprint(),
                result.fingerprint(),
                "point {point:?} must match the inline-training run exactly"
            );
        }

        // With M pinned, every point resolves to the same (M, v) key: the
        // whole grid replays a single schedule. Results must still match
        // per-point inline training bit for bit.
        let mut pinned = base.clone();
        pinned.m_override = Some(200);
        let par = sweep(&trace, &index, &points, &pinned, 4);
        for (point, result) in points.iter().zip(&par) {
            let cfg = RunConfig {
                policy: point.policy,
                mode: point.mode,
                capacity: point.capacity,
                ..pinned.clone()
            };
            let seq = run_with_index(&trace, &index, &cfg);
            assert_eq!(
                seq.fingerprint(),
                result.fingerprint(),
                "pinned-M point {point:?} must match the inline-training run exactly"
            );
        }
    }

    #[test]
    fn sweep_handles_empty_points() {
        let trace = generate(&TraceConfig { n_objects: 100, seed: 1, ..Default::default() });
        let index = ReaccessIndex::build(&trace);
        let base = RunConfig::new(PolicyKind::Lru, Mode::Original, 1000);
        assert!(sweep(&trace, &index, &[], &base, 2).is_empty());
    }
}
