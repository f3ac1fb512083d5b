//! Minimal always-admit trace driver (the paper's "Original" configuration).
//!
//! Classifier-gated admission lives in `otae-core`; this helper exists so the
//! cache crate is independently usable and testable.

use crate::{Cache, CacheStats, Evicted, Key};

/// Drive `cache` over `(key, size)` accesses, admitting every miss, and
/// return the collected statistics.
pub fn run_always_admit<K: Key, C: Cache<K>>(cache: &mut C, accesses: &[(K, u64)]) -> CacheStats {
    let mut stats = CacheStats::default();
    let mut evicted: Vec<Evicted<K>> = Vec::new();
    for (now, &(key, size)) in accesses.iter().enumerate() {
        if cache.on_hit(&key, now as u64) {
            stats.record_hit(size);
        } else {
            evicted.clear();
            cache.insert(key, size, now as u64, &mut evicted);
            stats.record_admitted_miss(size);
            for e in &evicted {
                stats.record_eviction(e.size);
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lru;

    #[test]
    fn always_admit_counts_writes_per_miss() {
        let mut lru = Lru::new(1000);
        let accesses: Vec<(u64, u64)> = vec![(1, 10), (2, 10), (1, 10), (3, 10)];
        let stats = run_always_admit(&mut lru, &accesses);
        assert_eq!(stats.accesses, 4);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.files_written, 3);
        assert_eq!(stats.bytes_written, 30);
        assert_eq!(stats.bypasses, 0);
    }

    #[test]
    fn evictions_are_counted() {
        let mut lru = Lru::new(20);
        let accesses: Vec<(u64, u64)> = (0..5).map(|k| (k, 10)).collect();
        let stats = run_always_admit(&mut lru, &accesses);
        assert_eq!(stats.files_written, 5);
        assert_eq!(stats.evictions, 3);
        assert_eq!(stats.bytes_evicted, 30);
    }
}
