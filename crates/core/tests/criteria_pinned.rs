//! The criteria every driver resolves, pinned: `(M, p, h)` from
//! `resolve_criteria` and the cost policy's `v`, for three generated
//! traces, three capacities (two below and one above the `v = 2 | 3`
//! boundary at 2.7 % of the unique bytes) and both policies the §4.3
//! solver treats differently (LRU, and LIRS with its stack-share scaling).
//! `p` and `h` are compared bit for bit, as are the trace statistics the
//! solver and `v` are taken from (`S`, the unique bytes).
//!
//! On a mismatch the failure message prints the whole table as it is now.

use otae_core::{resolve_criteria, PolicyKind, ReaccessIndex, TrainingConfig};
use otae_trace::{generate, TraceConfig};

/// `(seed, unique_bytes, S bits, [(capacity, policy, M, p bits, h bits, v)])`.
type Row = (u64, u64, u64, Vec<(u64, PolicyKind, u64, u64, u64, f32)>);

const SEEDS: [u64; 3] = [7, 21, 42];
const CAPACITY_SHARES: [f64; 3] = [0.005, 0.02, 0.05];

fn rows() -> Vec<Row> {
    let training = TrainingConfig::default();
    SEEDS
        .iter()
        .map(|&seed| {
            let trace = generate(&TraceConfig { n_objects: 20_000, seed, ..Default::default() });
            let index = ReaccessIndex::build(&trace);
            let unique = trace.unique_bytes();
            let mut cells = Vec::new();
            for share in CAPACITY_SHARES {
                let capacity = (unique as f64 * share) as u64;
                let v = training.cost.resolve(capacity, unique);
                for policy in [PolicyKind::Lru, PolicyKind::Lirs] {
                    let (c, m) = resolve_criteria(&trace, &index, policy, capacity, None);
                    assert_eq!(m, c.m, "no override: the solved M is in force");
                    // h is the complement of p, capped at 0.99: p + h = 1 below the cap.
                    assert_eq!(
                        c.h.to_bits(),
                        (1.0 - c.p).min(0.99).to_bits(),
                        "h = min(1 - p, 0.99)"
                    );
                    assert!(c.h == 0.99 || (c.p + c.h - 1.0).abs() < 1e-12, "p + h = 1");
                    cells.push((capacity, policy, m, c.p.to_bits(), c.h.to_bits(), v));
                }
            }
            (seed, unique, trace.avg_object_size().to_bits(), cells)
        })
        .collect()
}

#[test]
fn resolved_criteria_and_cost_are_pinned() {
    use PolicyKind::{Lirs, Lru};
    let expected: Vec<Row> = vec![
        (
            7,
            675408317,
            4674920829958880572,
            vec![
                (3377041, Lru, 455, 4604301417026779357, 4599433623464382022, 2.0),
                (3377041, Lirs, 450, 4604301417026779357, 4599433623464382022, 2.0),
                (13508166, Lru, 1607, 4601585128863613628, 4603225664327163554, 2.0),
                (13508166, Lirs, 1590, 4601585128863613628, 4603225664327163554, 2.0),
                (33770415, Lru, 4689, 4599126064004032848, 4604455196756953944, 3.0),
                (33770415, Lirs, 4642, 4599126064004032848, 4604455196756953944, 3.0),
            ],
        ),
        (
            21,
            684391209,
            4674976472442975234,
            vec![
                (3421956, Lru, 458, 4604333177556196865, 4599370102405547006, 2.0),
                (3421956, Lirs, 453, 4604333177556196865, 4599370102405547006, 2.0),
                (13687824, Lru, 1608, 4601611475280050539, 4603212491118945098, 2.0),
                (13687824, Lirs, 1591, 4601611475280050539, 4603212491118945098, 2.0),
                (34219560, Lru, 4699, 4599120053064981242, 4604458202226479747, 3.0),
                (34219560, Lirs, 4652, 4599120053064981242, 4604458202226479747, 3.0),
            ],
        ),
        (
            42,
            679764225,
            4674952732937135096,
            vec![
                (3398821, Lru, 449, 4604238525054879584, 4599559407408181568, 2.0),
                (3398821, Lirs, 444, 4604238525054879584, 4599559407408181568, 2.0),
                (13595284, Lru, 1611, 4601493902183598349, 4603271277667171194, 2.0),
                (13595284, Lirs, 1594, 4601493902183598349, 4603271277667171194, 2.0),
                (33988211, Lru, 4735, 4599031393133732061, 4604502532192104338, 3.0),
                (33988211, Lirs, 4687, 4599031393133732061, 4604502532192104338, 3.0),
            ],
        ),
    ];
    let got = rows();
    assert_eq!(got, expected, "\nnow:\n{got:#?}");
}
