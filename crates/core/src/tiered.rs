//! Two-tier cache simulation — the paper's production topology (§2.1).
//!
//! Tencent's download path has an **Outside Cache** (OC, close to users,
//! latency-oriented) in front of a **Datacenter Cache** (DC, shields the
//! backend, bandwidth-oriented); both tiers are SSD caches. The paper
//! evaluates its admission policy on a single tier; this module extends the
//! reproduction to the full topology so the policy can be studied where it
//! is actually deployed:
//!
//! * a request first probes the OC; an OC hit returns immediately;
//! * an OC miss probes the DC; a DC hit backfills the OC (subject to the
//!   OC's admission policy);
//! * a DC miss fetches from backend storage and backfills both tiers,
//!   each subject to its own admission policy.
//!
//! Each tier can independently run `Original`, `Proposal`, `Ideal` or
//! `SecondHit` admission; the per-tier `M` is solved from that tier's own capacity
//! (§4.3's criteria is capacity-dependent, so the OC's threshold is much
//! smaller than the DC's).

use crate::criteria::CriteriaSolution;
use crate::daily::TrainingConfig;
use crate::engine::{Outcome, Server};
use crate::features::{FeatureExtractor, N_FEATURES};
use crate::pipeline::{Mode, PolicyKind};
use crate::reaccess::ReaccessIndex;
use otae_cache::CacheStats;
use otae_device::{LatencyModel, ResponseTime};
use otae_trace::Trace;

/// Configuration of one tier.
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Replacement policy of the tier.
    pub policy: PolicyKind,
    /// Admission mode of the tier.
    pub mode: Mode,
    /// Capacity in bytes.
    pub capacity: u64,
}

/// Configuration of the OC → DC → backend path.
#[derive(Debug, Clone)]
pub struct TieredConfig {
    /// Outside Cache (small, close to the user).
    pub oc: TierConfig,
    /// Datacenter Cache (large, shields the backend).
    pub dc: TierConfig,
    /// Network hop from user to datacenter, in µs (an OC hit avoids it).
    pub wan_hop_us: f64,
    /// Device timing model.
    pub latency: LatencyModel,
}

/// Per-tier outcome of a tiered run.
#[derive(Debug, Clone)]
pub struct TierResult {
    /// Cache counters of the tier (accesses = requests that *reached* it).
    pub stats: CacheStats,
    /// Criteria solution used by the tier.
    pub criteria: CriteriaSolution,
}

/// Outcome of a tiered simulation.
#[derive(Debug, Clone)]
pub struct TieredResult {
    /// Outside Cache outcome.
    pub oc: TierResult,
    /// Datacenter Cache outcome.
    pub dc: TierResult,
    /// Fraction of all requests served by the OC.
    pub oc_hit_rate: f64,
    /// Fraction of all requests served by OC or DC (backend shielded).
    pub combined_hit_rate: f64,
    /// Fraction of requests that reached the backend.
    pub backend_fetch_rate: f64,
    /// Mean end-to-end latency (µs), including the WAN hop on OC misses.
    pub mean_latency_us: f64,
    /// Total SSD bytes written across both tiers.
    pub total_bytes_written: u64,
}

/// Run the full OC → DC → backend simulation over a trace.
pub fn run_tiered(trace: &Trace, cfg: &TieredConfig) -> TieredResult {
    let index = ReaccessIndex::build(trace);
    run_tiered_with_index(trace, &index, cfg)
}

/// [`run_tiered`] against a precomputed reaccess index.
pub fn run_tiered_with_index(
    trace: &Trace,
    index: &ReaccessIndex,
    cfg: &TieredConfig,
) -> TieredResult {
    assert_eq!(index.len(), trace.len(), "index must match the trace");
    let training = TrainingConfig::default();
    let tier = |t: &TierConfig| {
        Server::new(trace, index, t.policy, t.mode, t.capacity, &training, trace.meta.len())
    };
    let (mut oc, mut dc) = (tier(&cfg.oc), tier(&cfg.dc));
    let mut extractor = FeatureExtractor::new(trace);
    let needs_features = cfg.oc.mode.is_learned() || cfg.dc.mode.is_learned();
    let classified = cfg.oc.mode != Mode::Original || cfg.dc.mode != Mode::Original;

    let mut response = ResponseTime::default();
    let (mut oc_hits, mut dc_hits, mut backend) = (0u64, 0u64, 0u64);

    for (i, req) in trace.requests.iter().enumerate() {
        let now = i as u64;
        let size = trace.photo(req.object).size as u64;
        let mut features = [0.0f32; N_FEATURES];
        if needs_features {
            features = extractor.extract(trace, req);
        }
        // Per-tier ground truth differs: each tier has its own M.
        let oc_truth = index.is_one_time(i, oc.criteria.m);
        let dc_truth = index.is_one_time(i, dc.criteria.m);

        let classify_us = if classified { cfg.latency.t_classify_us } else { 0.0 };
        if oc.access(req.object, size, now, req.ts, &features, oc_truth) == Outcome::Hit {
            oc_hits += 1;
            response.record(cfg.latency.t_query_us + cfg.latency.ssd_read_us(size));
        } else if dc.access(req.object, size, now, req.ts, &features, dc_truth) == Outcome::Hit {
            dc_hits += 1;
            response.record(
                cfg.wan_hop_us
                    + 2.0 * cfg.latency.t_query_us
                    + classify_us
                    + cfg.latency.ssd_read_us(size),
            );
        } else {
            backend += 1;
            response.record(
                cfg.wan_hop_us
                    + 2.0 * cfg.latency.t_query_us
                    + 2.0 * classify_us
                    + cfg.latency.hdd_read_us(size),
            );
        }
        if needs_features {
            extractor.update(trace, req);
        }
    }

    let n = trace.len().max(1) as f64;
    let (oc_stats, dc_stats) = (*oc.kernel.stats(), *dc.kernel.stats());
    TieredResult {
        oc_hit_rate: oc_hits as f64 / n,
        combined_hit_rate: (oc_hits + dc_hits) as f64 / n,
        backend_fetch_rate: backend as f64 / n,
        mean_latency_us: response.mean_us(),
        total_bytes_written: oc_stats.bytes_written + dc_stats.bytes_written,
        oc: TierResult { stats: oc_stats, criteria: oc.criteria },
        dc: TierResult { stats: dc_stats, criteria: dc.criteria },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otae_trace::{generate, TraceConfig};

    fn trace() -> Trace {
        generate(&TraceConfig { n_objects: 6_000, seed: 77, ..Default::default() })
    }

    fn cfg(trace: &Trace, oc_mode: Mode, dc_mode: Mode) -> TieredConfig {
        let unique = trace.unique_bytes();
        TieredConfig {
            oc: TierConfig { policy: PolicyKind::Lru, mode: oc_mode, capacity: unique / 200 },
            dc: TierConfig { policy: PolicyKind::Lru, mode: dc_mode, capacity: unique / 30 },
            wan_hop_us: 10_000.0,
            latency: LatencyModel::default(),
        }
    }

    #[test]
    fn request_conservation_across_tiers() {
        let t = trace();
        let r = run_tiered(&t, &cfg(&t, Mode::Original, Mode::Original));
        // Every request is exactly one of: OC hit, DC hit, backend fetch.
        let total = r.oc_hit_rate + (r.combined_hit_rate - r.oc_hit_rate) + r.backend_fetch_rate;
        assert!((total - 1.0).abs() < 1e-9);
        // The DC only sees OC misses.
        assert_eq!(r.dc.stats.accesses, r.oc.stats.accesses - r.oc.stats.hits);
    }

    #[test]
    fn dc_shields_the_backend() {
        let t = trace();
        let r = run_tiered(&t, &cfg(&t, Mode::Original, Mode::Original));
        assert!(r.combined_hit_rate > r.oc_hit_rate, "DC must add hits");
        assert!(r.backend_fetch_rate < 1.0 - r.oc_hit_rate);
    }

    #[test]
    fn oc_criteria_is_tighter_than_dc() {
        let t = trace();
        let r = run_tiered(&t, &cfg(&t, Mode::Ideal, Mode::Ideal));
        assert!(
            r.oc.criteria.m < r.dc.criteria.m,
            "smaller tier must use a smaller M ({} vs {})",
            r.oc.criteria.m,
            r.dc.criteria.m
        );
    }

    #[test]
    fn admission_cuts_writes_on_both_tiers() {
        let t = trace();
        let orig = run_tiered(&t, &cfg(&t, Mode::Original, Mode::Original));
        let ideal = run_tiered(&t, &cfg(&t, Mode::Ideal, Mode::Ideal));
        assert!(ideal.oc.stats.files_written < orig.oc.stats.files_written);
        assert!(ideal.dc.stats.files_written < orig.dc.stats.files_written);
        assert!(ideal.total_bytes_written < orig.total_bytes_written / 2);
    }

    #[test]
    fn proposal_helps_the_combined_path() {
        let t = trace();
        let orig = run_tiered(&t, &cfg(&t, Mode::Original, Mode::Original));
        let prop = run_tiered(&t, &cfg(&t, Mode::Proposal, Mode::Proposal));
        assert!(
            prop.combined_hit_rate > orig.combined_hit_rate - 0.01,
            "proposal must not regress the combined hit rate: {} vs {}",
            prop.combined_hit_rate,
            orig.combined_hit_rate
        );
        assert!(prop.total_bytes_written < orig.total_bytes_written);
    }

    #[test]
    fn wan_hop_penalises_oc_misses() {
        let t = trace();
        let near = run_tiered(&t, &cfg(&t, Mode::Original, Mode::Original));
        let mut far_cfg = cfg(&t, Mode::Original, Mode::Original);
        far_cfg.wan_hop_us = 100_000.0;
        let far = run_tiered(&t, &far_cfg);
        assert!(far.mean_latency_us > near.mean_latency_us);
        assert_eq!(far.oc_hit_rate, near.oc_hit_rate, "caching unaffected by latency");
    }

    #[test]
    fn deterministic() {
        let t = trace();
        let a = run_tiered(&t, &cfg(&t, Mode::Proposal, Mode::Proposal));
        let b = run_tiered(&t, &cfg(&t, Mode::Proposal, Mode::Proposal));
        assert_eq!(a.oc.stats, b.oc.stats);
        assert_eq!(a.dc.stats, b.dc.stats);
        assert_eq!(a.mean_latency_us, b.mean_latency_us);
    }
}
