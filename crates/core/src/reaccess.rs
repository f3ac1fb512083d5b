//! Forward reaccess distances.
//!
//! The one-time-access criteria (§4.3) is defined on the **reaccess
//! distance**: "the number of successive accesses between the time when
//! [a photo] is brought into the cache and the time when it is accessed
//! again". This module precomputes, for every request position, the distance
//! (in requests) to the next access of the same object. The index also
//! carries the trace's feature column (§3.2), extracted on first use and
//! shared by every run over the index.

use crate::{FeatureExtractor, N_FEATURES};
use otae_trace::{ObjectTally, Trace};
use std::sync::{Arc, OnceLock};

/// Distance marker for "never accessed again within the trace".
pub const NEVER: u64 = u64::MAX;

/// [`NEVER`] as the index stores it: positions and distances fit `u32`
/// (the build asserts it), which halves the per-request column.
const STORED_NEVER: u32 = u32::MAX;

/// Per-request forward reaccess information over one trace, plus the
/// distinct requested objects the criteria's `S` and the cost policy's
/// working set are taken from, and the trace's feature column once a
/// learned run has asked for it.
#[derive(Clone)]
pub struct ReaccessIndex {
    /// `dist[i]` = number of requests until the object of request `i` is
    /// accessed again (1 = very next request), or [`STORED_NEVER`].
    dist: Vec<u32>,
    /// Distinct requested objects and their bytes.
    requested: ObjectTally,
    /// Feature row of every request ([`Self::features`]); empty until the
    /// first learned run, so an index that never serves one never pays for
    /// the extraction.
    features: OnceLock<Arc<Vec<[f32; N_FEATURES]>>>,
}

impl std::fmt::Debug for ReaccessIndex {
    /// Counts only: the columns hold a value per request.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReaccessIndex {{ requests: {}, {:?} }}", self.len(), self.requested)
    }
}

impl ReaccessIndex {
    /// Build the index with a backward and a forward pass over the requests
    /// and one sweep of `trace.meta`.
    ///
    /// Object ids are dense indices into `trace.meta`, so the next-position
    /// map is a flat `Vec<u32>` (`u32::MAX` = unseen) and the set of
    /// requested objects a bit vector — both O(1) with no hashing, turning
    /// the build into one cache-friendly backward sweep. The bits then give
    /// the distinct objects' count and bytes in one sequential pass of
    /// `meta` ([`Trace::tally_marked`]), never one `meta` lookup per first
    /// sighting in request order.
    ///
    /// # Panics
    ///
    /// When a request names an object beyond `trace.meta`, as
    /// [`Trace::unique_bytes`] does: such a trace has no size to count. And
    /// on a trace of `u32::MAX` requests or more, whose positions the index
    /// cannot hold.
    pub fn build(trace: &Trace) -> Self {
        let n = trace.len();
        assert!(
            u32::try_from(n).is_ok_and(|n| n < STORED_NEVER),
            "a trace of {n} requests does not fit the u32 reaccess index"
        );
        let n_objects = trace.meta.len();
        let mut dist = vec![STORED_NEVER; n];
        let mut next_pos = vec![STORED_NEVER; n_objects];
        let mut seen = vec![0u64; n_objects.div_ceil(64)];
        for (i, req) in trace.requests.iter().enumerate().rev() {
            let id = req.object.0 as usize;
            let Some(slot) = next_pos.get_mut(id) else {
                panic!("request {i} names object {id} beyond the trace's {n_objects} objects");
            };
            // In range: `i < n < u32::MAX`.
            let pos = i as u32;
            if *slot != STORED_NEVER {
                dist[i] = *slot - pos;
            } else {
                seen[id / 64] |= 1u64 << (id % 64);
            }
            *slot = pos;
        }
        let requested = trace.tally_marked(&seen);
        Self { dist, requested, features: OnceLock::new() }
    }

    /// The feature row of every request of `trace`, the trace this index
    /// was built from. The first call extracts the column
    /// ([`FeatureExtractor::extract_all`]); every later one, from any
    /// thread, shares it without a copy.
    ///
    /// # Panics
    ///
    /// When `trace` holds a different number of requests than the index.
    pub fn features(&self, trace: &Trace) -> &Arc<Vec<[f32; N_FEATURES]>> {
        assert_eq!(trace.len(), self.len(), "the feature column must match the indexed trace");
        self.features.get_or_init(|| Arc::new(FeatureExtractor::extract_all(trace)))
    }

    /// Number of indexed requests.
    pub fn len(&self) -> usize {
        self.dist.len()
    }

    /// True when the index covers no requests.
    pub fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }

    /// Forward distance of request `i` ([`NEVER`] if not reaccessed).
    pub fn distance(&self, i: usize) -> u64 {
        widen(self.dist[i])
    }

    /// The paper's label: request `i` is a **one-time access** w.r.t.
    /// threshold `m` when its object will not return within `m` requests.
    pub fn is_one_time(&self, i: usize, m: u64) -> bool {
        self.distance(i) > m
    }

    /// Fraction of requests that are one-time w.r.t. `m` (the criteria's `p`).
    pub fn one_time_fraction(&self, m: u64) -> f64 {
        if self.dist.is_empty() {
            return 0.0;
        }
        let ones = self.dist.iter().filter(|&&d| widen(d) > m).count();
        ones as f64 / self.dist.len() as f64
    }

    /// Sum of sizes over the distinct requested objects; equal to
    /// [`Trace::unique_bytes`] of the indexed trace.
    pub fn unique_bytes(&self) -> u64 {
        self.requested.bytes
    }

    /// Mean size of the distinct requested objects (0 for none); equal to
    /// [`Trace::avg_object_size`] of the indexed trace, bit for bit.
    pub fn avg_object_size(&self) -> f64 {
        self.requested.mean_size()
    }
}

/// A stored distance as [`ReaccessIndex::distance`] returns it.
fn widen(d: u32) -> u64 {
    if d == STORED_NEVER {
        NEVER
    } else {
        u64::from(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otae_trace::{ObjectId, Owner, OwnerId, PhotoMeta, PhotoType, Request, Terminal};

    fn trace_of(keys: &[u32]) -> Trace {
        let n_obj = keys.iter().max().map_or(0, |m| m + 1);
        Trace {
            requests: keys
                .iter()
                .enumerate()
                .map(|(i, &k)| Request {
                    ts: i as u64,
                    object: ObjectId(k),
                    terminal: Terminal::Pc,
                })
                .collect(),
            meta: (0..n_obj)
                .map(|_| PhotoMeta {
                    owner: OwnerId(0),
                    ptype: PhotoType::L5,
                    size: 1,
                    upload_ts: 0,
                })
                .collect(),
            owners: vec![Owner { activity: 0.5, active_friends: 1 }],
        }
    }

    #[test]
    fn distances_on_simple_trace() {
        // positions: 0:A 1:B 2:A 3:C 4:A
        let idx = ReaccessIndex::build(&trace_of(&[0, 1, 0, 2, 0]));
        assert_eq!(idx.distance(0), 2);
        assert_eq!(idx.distance(1), NEVER);
        assert_eq!(idx.distance(2), 2);
        assert_eq!(idx.distance(3), NEVER);
        assert_eq!(idx.distance(4), NEVER);
    }

    #[test]
    fn one_time_labels_depend_on_m() {
        let idx = ReaccessIndex::build(&trace_of(&[0, 1, 0, 2, 0]));
        // With m = 1, even object 0's accesses (distance 2) are one-time.
        assert!(idx.is_one_time(0, 1));
        // With m = 2 they are not.
        assert!(!idx.is_one_time(0, 2));
        // Never-reaccessed requests are one-time for any m.
        assert!(idx.is_one_time(1, u64::MAX - 1));
    }

    #[test]
    fn one_time_fraction_falls_with_m() {
        let idx = ReaccessIndex::build(&trace_of(&[0, 1, 0, 2, 0, 1, 3, 3]));
        let ps: Vec<f64> = [0u64, 1, 2, 4, 8].iter().map(|&m| idx.one_time_fraction(m)).collect();
        for w in ps.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn empty_trace() {
        let idx = ReaccessIndex::build(&trace_of(&[]));
        assert!(idx.is_empty());
        assert_eq!(idx.one_time_fraction(10), 0.0);
        assert_eq!((idx.unique_bytes(), idx.avg_object_size()), (0, 0.0));
    }

    #[test]
    #[should_panic(expected = "beyond the trace's 2 objects")]
    fn request_beyond_meta_is_refused() {
        let mut trace = trace_of(&[0, 1, 0]);
        trace.requests[1].object = ObjectId(2);
        ReaccessIndex::build(&trace);
    }

    fn generated() -> Trace {
        otae_trace::generate(&otae_trace::TraceConfig {
            n_objects: 2_000,
            seed: 5,
            ..Default::default()
        })
    }

    #[test]
    fn feature_column_is_extract_all_bit_for_bit() {
        let trace = generated();
        let idx = ReaccessIndex::build(&trace);
        let bits = |rows: &[[f32; N_FEATURES]]| -> Vec<u32> {
            rows.iter().flatten().map(|x| x.to_bits()).collect()
        };
        let want = FeatureExtractor::extract_all(&trace);
        assert_eq!(idx.features(&trace).len(), trace.len());
        assert_eq!(bits(idx.features(&trace)), bits(&want));
    }

    #[test]
    fn concurrent_first_use_extracts_one_column() {
        let trace = generated();
        let idx = ReaccessIndex::build(&trace);
        let (idx, trace) = (&idx, &trace);
        // Every thread waits at its gate until all are spawned, then all
        // race for the first use.
        let (starts, gates): (Vec<_>, Vec<_>) =
            (0..4).map(|_| std::sync::mpsc::sync_channel::<()>(1)).unzip();
        let columns: Vec<Arc<Vec<[f32; N_FEATURES]>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = gates
                .into_iter()
                .map(|gate| {
                    scope.spawn(move || {
                        gate.recv().expect("the test opens every gate");
                        Arc::clone(idx.features(trace))
                    })
                })
                .collect();
            for start in &starts {
                start.send(()).expect("every thread waits at its gate");
            }
            handles.into_iter().map(|h| h.join().expect("extraction panicked")).collect()
        });
        assert!(columns.iter().all(|c| Arc::ptr_eq(c, &columns[0])));
        assert!(Arc::ptr_eq(idx.features(trace), &columns[0]), "later calls share it too");
    }

    #[test]
    #[should_panic(expected = "must match the indexed trace")]
    fn feature_column_of_another_trace_is_refused() {
        let idx = ReaccessIndex::build(&trace_of(&[0, 1, 0]));
        idx.features(&trace_of(&[0, 1]));
    }

    /// Debug output counts the columns instead of printing them.
    #[test]
    fn debug_prints_counts_not_columns() {
        let trace = generated();
        let idx = ReaccessIndex::build(&trace);
        idx.features(&trace);
        let shown = format!("{idx:?}");
        assert!(shown.len() < 160, "{} bytes: {shown}", shown.len());
        assert!(shown.contains(&format!("requests: {}", trace.len())), "{shown}");
    }

    /// The dense-array build must reproduce the straightforward hash-map
    /// reference on a generated trace with skewed, gappy object ids.
    #[test]
    fn dense_build_matches_hashmap_reference() {
        use otae_fxhash::FxHashMap;
        use rand::{Rng, SeedableRng};

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        // Skewed popularity plus deliberate id gaps (ids are multiples of 3).
        let keys: Vec<u32> = (0..5000)
            .map(|_| {
                let hot = rng.gen::<f32>() < 0.7;
                let id: u32 = if hot { rng.gen_range(0..20) } else { rng.gen_range(0..800) };
                id * 3
            })
            .collect();
        let trace = trace_of(&keys);
        let idx = ReaccessIndex::build(&trace);

        let mut ref_dist = vec![NEVER; keys.len()];
        let mut next_pos: FxHashMap<u32, u64> = FxHashMap::default();
        for (i, &k) in keys.iter().enumerate().rev() {
            if let Some(&next) = next_pos.get(&k) {
                ref_dist[i] = next - i as u64;
            }
            next_pos.insert(k, i as u64);
        }
        for (i, &want) in ref_dist.iter().enumerate() {
            assert_eq!(idx.distance(i), want, "distance at {i}");
        }
        assert_eq!(idx.unique_bytes(), trace.unique_bytes(), "distinct objects counted once");
    }
}
