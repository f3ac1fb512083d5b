//! The paper's trace-sampling procedure (§5.1):
//!
//! 1. extract the set of distinct objects `L`;
//! 2. random-sample `L` at a given rate (the paper uses 1:100) to get `L'`;
//! 3. keep exactly the requests whose object is in `L'`, in timestamp order.
//!
//! Sampling by *object* (not by request) preserves per-object access counts
//! and reaccess-distance structure, which is what the one-time-access
//! analysis depends on.

use crate::types::{Request, Trace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Sample a trace at `rate` (e.g. `0.01` for the paper's 1:100), keeping all
/// requests of each sampled object. Object ids are preserved (they still
/// index the original `meta` table). Deterministic in `seed`.
pub fn sample_objects(trace: &Trace, rate: f64, seed: u64) -> Trace {
    assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut keep = vec![false; trace.meta.len()];
    let mut decided = vec![false; trace.meta.len()];
    // Decide membership lazily in first-appearance order so the outcome only
    // depends on the set of distinct objects, not request multiplicity.
    let mut requests: Vec<Request> = Vec::new();
    for r in &trace.requests {
        let i = r.object.0 as usize;
        if !decided[i] {
            decided[i] = true;
            keep[i] = rng.gen::<f64>() < rate;
        }
        if keep[i] {
            requests.push(*r);
        }
    }
    Trace { requests, meta: trace.meta.clone(), owners: trace.owners.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, TraceConfig};
    use crate::types::ObjectId;
    use otae_fxhash::FxHashMap;

    fn base() -> Trace {
        generate(&TraceConfig { n_objects: 10_000, seed: 5, ..Default::default() })
    }

    #[test]
    fn sampling_preserves_per_object_counts() {
        let t = base();
        let s = sample_objects(&t, 0.1, 7);
        let mut full: FxHashMap<ObjectId, u32> = FxHashMap::default();
        for r in &t.requests {
            *full.entry(r.object).or_insert(0) += 1;
        }
        let mut sub: FxHashMap<ObjectId, u32> = FxHashMap::default();
        for r in &s.requests {
            *sub.entry(r.object).or_insert(0) += 1;
        }
        for (id, c) in &sub {
            assert_eq!(full[id], *c, "object {id:?} lost requests");
        }
    }

    #[test]
    fn sample_rate_respected() {
        let t = base();
        let s = sample_objects(&t, 0.1, 7);
        let n_full = t.characterize().objects as f64;
        let n_sub = s.characterize().objects as f64;
        let rate = n_sub / n_full;
        assert!((rate - 0.1).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn sampled_trace_remains_time_ordered() {
        let t = base();
        let s = sample_objects(&t, 0.2, 9);
        assert!(s.is_time_ordered());
    }

    #[test]
    fn deterministic_in_seed() {
        let t = base();
        assert_eq!(sample_objects(&t, 0.1, 3).requests, sample_objects(&t, 0.1, 3).requests);
        assert_ne!(sample_objects(&t, 0.1, 3).requests, sample_objects(&t, 0.1, 4).requests);
    }

    #[test]
    fn rate_extremes() {
        let t = base();
        assert!(sample_objects(&t, 0.0, 1).requests.is_empty());
        assert_eq!(sample_objects(&t, 1.0, 1).requests, t.requests);
    }

    #[test]
    #[should_panic]
    fn rejects_invalid_rate() {
        sample_objects(&Trace::default(), 1.5, 0);
    }
}
