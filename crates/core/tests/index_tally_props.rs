//! The reaccess index's count of the distinct requested objects equals the
//! trace's own, bit for bit: `ReaccessIndex::{unique_bytes,
//! avg_object_size}` against `Trace::{unique_bytes, avg_object_size}`. The
//! drivers take the criteria's `S` and the cost policy's working set from
//! the index, so any difference would move `M` or `v`.

use otae_core::ReaccessIndex;
use otae_trace::{generate, ObjectId, PhotoMeta, PhotoType, Request, Terminal, Trace, TraceConfig};
use proptest::prelude::*;

fn assert_index_matches(trace: &Trace) {
    let index = ReaccessIndex::build(trace);
    assert_eq!(index.unique_bytes(), trace.unique_bytes());
    assert_eq!(index.avg_object_size().to_bits(), trace.avg_object_size().to_bits());
}

/// The straightforward count both are defined by: sizes of first sightings.
fn reference(trace: &Trace) -> (u64, f64) {
    let mut seen = vec![false; trace.meta.len()];
    let (mut bytes, mut count) = (0u64, 0u64);
    for r in &trace.requests {
        let id = r.object.0 as usize;
        if !seen[id] {
            seen[id] = true;
            bytes += u64::from(trace.meta[id].size);
            count += 1;
        }
    }
    (bytes, if count == 0 { 0.0 } else { bytes as f64 / count as f64 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn index_tally_equals_trace_tally(seed in 0u64..1_000, n_objects in 1usize..3_000) {
        let trace = generate(&TraceConfig { n_objects, seed, ..Default::default() });
        assert_index_matches(&trace);
        let (bytes, mean) = reference(&trace);
        prop_assert_eq!(trace.unique_bytes(), bytes);
        prop_assert_eq!(trace.avg_object_size().to_bits(), mean.to_bits());
    }

    /// A prefix of the requests leaves objects in `meta` that are never
    /// requested; they must count for neither side.
    #[test]
    fn request_prefix_counts_only_requested_objects(seed in 0u64..1_000, keep in 0.0f64..1.0) {
        let mut trace = generate(&TraceConfig { n_objects: 2_000, seed, ..Default::default() });
        trace.requests.truncate((trace.requests.len() as f64 * keep) as usize);
        assert_index_matches(&trace);
        let (bytes, mean) = reference(&trace);
        prop_assert_eq!(trace.unique_bytes(), bytes);
        prop_assert_eq!(trace.avg_object_size().to_bits(), mean.to_bits());
    }
}

#[test]
fn one_object_trace() {
    let meta = PhotoMeta {
        owner: otae_trace::OwnerId(0),
        ptype: PhotoType::L5,
        size: 12_345,
        upload_ts: 0,
    };
    let requests =
        (0..3).map(|ts| Request { ts, object: ObjectId(0), terminal: Terminal::Pc }).collect();
    let trace = Trace { requests, meta: vec![meta], owners: Vec::new() };
    assert_index_matches(&trace);
    assert_eq!(ReaccessIndex::build(&trace).avg_object_size(), 12_345.0);
}

#[test]
fn empty_trace() {
    assert_index_matches(&Trace::default());
    // Objects in `meta`, none requested.
    let mut trace = generate(&TraceConfig { n_objects: 100, seed: 3, ..Default::default() });
    trace.requests.clear();
    assert_index_matches(&trace);
    assert_eq!(ReaccessIndex::build(&trace).unique_bytes(), 0);
}
