//! The benchmark's only wall-clock read.
//!
//! Every duration the benchmark reports — end-to-end walls, per-layer
//! probe times, span boundaries — is the difference of two [`now`] calls,
//! so the workspace linter's `no-wall-clock` rule has exactly one
//! allow-listed line to audit in this directory.

use std::time::{Duration, Instant};

/// Read the monotonic clock.
pub fn now() -> Instant {
    // otae-lint: allow(no-wall-clock)
    Instant::now()
}

/// Time elapsed since `since`.
pub fn since(since: Instant) -> Duration {
    now().duration_since(since)
}

/// Seconds elapsed since `since`.
pub fn secs_since(since: Instant) -> f64 {
    self::since(since).as_secs_f64()
}

/// Run `f`, returning its result and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = now();
    let out = f();
    (out, secs_since(t0))
}

/// Cost of one back-to-back clock pair in nanoseconds (median of many),
/// subtracted from per-operation timings so a 25 ns clock read does not
/// masquerade as part of a 50 ns cache operation.
pub fn pair_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2001)
        .map(|_| {
            let t0 = now();
            since(t0).as_nanos() as f64
        })
        .collect();
    crate::stats::median(&samples)
}
