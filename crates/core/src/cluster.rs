//! Multi-server cache cluster — §2.1's "the Outside Cache layer consists of
//! many cache servers", made concrete.
//!
//! Objects are partitioned over `n` cache servers with a consistent-hash
//! ring (virtual nodes for balance); each server runs its own replacement
//! policy and its own admission state (per-server classifiers, as a fleet
//! would train locally). The module answers deployment questions the paper
//! leaves implicit:
//!
//! * how much hit rate does partitioning cost versus one big cache of the
//!   same total capacity (per-server `M` shrinks with per-server capacity);
//! * how uneven is the load across servers;
//! * what a mid-trace server failure costs, with and without
//!   one-time-access exclusion (remapped objects are all cold misses — a
//!   flood of effectively-one-time traffic into the surviving servers).

use crate::daily::TrainingConfig;
use crate::engine::{Outcome, Server};
use crate::features::{FeatureExtractor, N_FEATURES};
use crate::pipeline::{Mode, PolicyKind};
use crate::reaccess::ReaccessIndex;
use crate::zoo::splitmix64;
use otae_cache::CacheStats;
use otae_trace::{ObjectId, Trace};

/// Consistent-hash ring over cache servers.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted (hash, node) points.
    points: Vec<(u64, u16)>,
}

impl HashRing {
    /// Ring over nodes `0..n_nodes` with `vnodes` virtual points each.
    pub fn new(n_nodes: u16, vnodes: u16) -> Self {
        assert!(n_nodes > 0 && vnodes > 0);
        let mut points: Vec<(u64, u16)> = (0..n_nodes)
            .flat_map(|node| {
                (0..vnodes).map(move |v| (splitmix64(((node as u64) << 32) | v as u64), node))
            })
            .collect();
        points.sort_unstable();
        Self { points }
    }

    /// Node owning `obj`.
    pub fn node_of(&self, obj: ObjectId) -> u16 {
        let h = splitmix64(obj.0 as u64 ^ 0xA5A5_5A5A_DEAD_BEEF);
        let idx = self.points.partition_point(|&(p, _)| p < h);
        self.points[idx % self.points.len()].1
    }

    /// Remove a node; its arc is absorbed by ring successors.
    pub fn remove_node(&mut self, node: u16) {
        self.points.retain(|&(_, n)| n != node);
        assert!(!self.points.is_empty(), "cannot remove the last node");
    }

    /// Distinct nodes currently on the ring.
    pub fn nodes(&self) -> Vec<u16> {
        let mut nodes: Vec<u16> = self.points.iter().map(|&(_, n)| n).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of cache servers.
    pub n_nodes: u16,
    /// Virtual points per server on the ring.
    pub vnodes: u16,
    /// Per-server capacity in bytes (total = `n_nodes × capacity`).
    pub node_capacity: u64,
    /// Replacement policy on every server.
    pub policy: PolicyKind,
    /// Admission mode on every server.
    pub mode: Mode,
    /// Kill this server at this request index (simulated failure), if set.
    pub failure: Option<(u16, u64)>,
    /// Training settings for Proposal mode.
    pub training: TrainingConfig,
}

impl ClusterConfig {
    /// Cluster of `n_nodes` LRU servers with the given per-node capacity.
    pub fn new(n_nodes: u16, node_capacity: u64, mode: Mode) -> Self {
        Self {
            n_nodes,
            vnodes: 64,
            node_capacity,
            policy: PolicyKind::Lru,
            mode,
            failure: None,
            training: TrainingConfig::default(),
        }
    }
}

/// Aggregated outcome of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Per-server statistics (dead servers keep their pre-failure counters).
    pub per_node: Vec<CacheStats>,
    /// Whole-cluster counters.
    pub total: CacheStats,
    /// max/mean accesses per surviving server (1.0 = perfectly balanced).
    pub load_imbalance: f64,
    /// Hit rate over the period after the failure (equals the overall hit
    /// rate when no failure is configured).
    pub post_failure_hit_rate: f64,
}

/// Run a trace through the cluster.
pub fn run_cluster(trace: &Trace, index: &ReaccessIndex, cfg: &ClusterConfig) -> ClusterResult {
    assert_eq!(index.len(), trace.len());
    let mut ring = HashRing::new(cfg.n_nodes, cfg.vnodes);
    // Per-server criteria: each server holds node_capacity and sees ~1/n of
    // the stream, so M is solved from per-server capacity (request distances
    // remain global — a conservative, consistent choice). Filters are
    // per-node too: each server sizes its sketch for its ~1/n share of the
    // object population.
    let mut nodes: Vec<Server> = (0..cfg.n_nodes)
        .map(|_| {
            Server::new(
                trace,
                index,
                cfg.policy,
                cfg.mode,
                cfg.node_capacity,
                &cfg.training,
                trace.meta.len() / cfg.n_nodes as usize,
            )
        })
        .collect();
    // Every node has the same capacity, hence the same M.
    let m = nodes[0].criteria.m;

    let needs_features = cfg.mode.is_learned();
    let mut extractor = FeatureExtractor::new(trace);
    let (mut post_hits, mut post_total) = (0u64, 0u64);
    let failure_at = cfg.failure.map(|(_, at)| at).unwrap_or(u64::MAX);

    for (i, req) in trace.requests.iter().enumerate() {
        let now = i as u64;
        if let Some((node, at)) = cfg.failure {
            if now == at {
                ring.remove_node(node);
            }
        }
        let size = trace.photo(req.object).size as u64;
        let truth = index.is_one_time(i, m);
        let mut features = [0.0f32; N_FEATURES];
        if needs_features {
            features = extractor.extract(trace, req);
        }

        let node = &mut nodes[ring.node_of(req.object) as usize];
        let outcome = node.access(req.object, size, now, req.ts, &features, truth);
        if now >= failure_at {
            post_total += 1;
            post_hits += u64::from(outcome == Outcome::Hit);
        }
        if needs_features {
            extractor.update(trace, req);
        }
    }

    let per_node: Vec<CacheStats> = nodes.iter().map(|n| *n.kernel.stats()).collect();
    let mut total = CacheStats::default();
    for s in &per_node {
        total.merge(s);
    }
    let surviving = ring.nodes();
    let accesses = |n: &u16| per_node[*n as usize].accesses as f64;
    let mean = surviving.iter().map(accesses).sum::<f64>() / surviving.len().max(1) as f64;
    let max = surviving.iter().map(accesses).fold(0.0, f64::max);
    let post_failure_hit_rate =
        if post_total > 0 { post_hits as f64 / post_total as f64 } else { total.file_hit_rate() };
    ClusterResult {
        per_node,
        total,
        load_imbalance: if mean > 0.0 { max / mean } else { 1.0 },
        post_failure_hit_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_with_index, RunConfig};
    use otae_trace::{generate, TraceConfig};

    fn setup() -> (Trace, ReaccessIndex) {
        let t = generate(&TraceConfig { n_objects: 8_000, seed: 21, ..Default::default() });
        let i = ReaccessIndex::build(&t);
        (t, i)
    }

    #[test]
    fn ring_is_deterministic_and_balanced() {
        let ring = HashRing::new(8, 64);
        let mut counts = [0u32; 8];
        for k in 0..40_000u32 {
            counts[ring.node_of(ObjectId(k)) as usize] += 1;
        }
        let mean = 40_000.0 / 8.0;
        for (n, &c) in counts.iter().enumerate() {
            let ratio = c as f64 / mean;
            assert!((0.6..1.5).contains(&ratio), "node {n} ratio {ratio}");
        }
        // Determinism.
        let ring2 = HashRing::new(8, 64);
        for k in 0..100u32 {
            assert_eq!(ring.node_of(ObjectId(k)), ring2.node_of(ObjectId(k)));
        }
    }

    #[test]
    fn removing_a_node_only_remaps_its_own_keys() {
        let mut ring = HashRing::new(8, 64);
        let before: Vec<u16> = (0..20_000).map(|k| ring.node_of(ObjectId(k))).collect();
        ring.remove_node(3);
        let mut moved = 0;
        for (k, &was) in before.iter().enumerate() {
            let now = ring.node_of(ObjectId(k as u32));
            if was == 3 {
                assert_ne!(now, 3, "keys of the dead node must move");
            } else {
                assert_eq!(now, was, "other keys must stay (consistent hashing)");
            }
            if now != was {
                moved += 1;
            }
        }
        // Roughly 1/8 of keys move.
        let frac = moved as f64 / before.len() as f64;
        assert!((0.05..0.25).contains(&frac), "moved fraction {frac}");
        assert_eq!(ring.nodes().len(), 7);
    }

    #[test]
    fn cluster_conserves_requests() {
        let (t, i) = setup();
        let cap = t.unique_bytes() / 100;
        let r = run_cluster(&t, &i, &ClusterConfig::new(4, cap / 4, Mode::Original));
        assert_eq!(r.total.accesses as usize, t.len());
        let per_node_sum: u64 = r.per_node.iter().map(|s| s.accesses).sum();
        assert_eq!(per_node_sum as usize, t.len());
        assert!(r.load_imbalance >= 1.0 && r.load_imbalance < 2.0, "{}", r.load_imbalance);
    }

    #[test]
    fn partitioning_costs_some_hit_rate_vs_one_big_cache() {
        let (t, i) = setup();
        let total_cap = t.unique_bytes() / 50;
        let single =
            run_with_index(&t, &i, &RunConfig::new(PolicyKind::Lru, Mode::Original, total_cap));
        let cluster = run_cluster(&t, &i, &ClusterConfig::new(8, total_cap / 8, Mode::Original));
        // Partitioning can only lose (no shared capacity), but not by much
        // with a balanced ring.
        assert!(cluster.total.file_hit_rate() <= single.stats.file_hit_rate() + 0.01);
        assert!(
            cluster.total.file_hit_rate() > single.stats.file_hit_rate() - 0.10,
            "cluster {} vs single {}",
            cluster.total.file_hit_rate(),
            single.stats.file_hit_rate()
        );
    }

    #[test]
    fn admission_helps_the_cluster_too() {
        let (t, i) = setup();
        let cap = t.unique_bytes() / 100;
        let orig = run_cluster(&t, &i, &ClusterConfig::new(4, cap / 4, Mode::Original));
        let ideal = run_cluster(&t, &i, &ClusterConfig::new(4, cap / 4, Mode::Ideal));
        assert!(ideal.total.file_hit_rate() > orig.total.file_hit_rate());
        assert!(ideal.total.files_written < orig.total.files_written / 2);
    }

    #[test]
    fn node_failure_redirects_and_costs_hits() {
        let (t, i) = setup();
        let cap = t.unique_bytes() / 50;
        let at = (t.len() / 2) as u64;
        let mut cfg = ClusterConfig::new(4, cap / 4, Mode::Original);
        cfg.failure = Some((2, at));
        let failed = run_cluster(&t, &i, &cfg);
        let healthy = run_cluster(&t, &i, &ClusterConfig::new(4, cap / 4, Mode::Original));
        assert_eq!(failed.total.accesses as usize, t.len(), "requests rerouted, not lost");
        assert!(
            failed.post_failure_hit_rate < healthy.post_failure_hit_rate + 1e-9,
            "failure must not help: {} vs {}",
            failed.post_failure_hit_rate,
            healthy.post_failure_hit_rate
        );
        // The dead node stops taking traffic.
        let dead = &failed.per_node[2];
        assert!(dead.accesses < healthy.per_node[2].accesses);
    }

    /// §5.2 by construction: a node resolves its criteria through the same
    /// helper as a single-cache run, so a LIRS node gets the scaled `M`.
    #[test]
    fn lirs_node_resolves_the_same_m_as_a_pipeline_run_at_its_capacity() {
        let (t, i) = setup();
        let cap = t.unique_bytes() / 400;
        for policy in [PolicyKind::Lirs, PolicyKind::Lru] {
            let node = Server::new(&t, &i, policy, Mode::Ideal, cap, &TrainingConfig::default(), 1);
            let single = run_with_index(&t, &i, &RunConfig::new(policy, Mode::Ideal, cap));
            assert_eq!(node.criteria, single.criteria, "{policy:?}");
        }
        let m_of = |policy| {
            Server::new(&t, &i, policy, Mode::Ideal, cap, &TrainingConfig::default(), 1).criteria.m
        };
        assert!(m_of(PolicyKind::Lirs) < m_of(PolicyKind::Lru), "LIRS scales M by its stack share");
    }

    #[test]
    fn cluster_proposal_is_deterministic() {
        let (t, i) = setup();
        let cap = t.unique_bytes() / 100;
        let a = run_cluster(&t, &i, &ClusterConfig::new(3, cap / 3, Mode::Proposal));
        let b = run_cluster(&t, &i, &ClusterConfig::new(3, cap / 3, Mode::Proposal));
        assert_eq!(a.total, b.total);
    }
}
