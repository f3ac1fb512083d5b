//! # otae-cache — byte-capacity cache simulation substrate
//!
//! Trace-driven cache simulator used as the evaluation substrate for the
//! ICPP 2018 one-time-access-exclusion paper. It provides the replacement
//! algorithms the paper evaluates (§5): **LRU**, **FIFO**, **S3LRU**
//! (segmented LRU), **ARC**, **LIRS**, the offline-optimal **Belady** bound,
//! plus **LFU**, **2Q** and **GDSF** as extra classical baselines.
//!
//! All policies implement the [`Cache`] trait, account capacity in **bytes**
//! (photo objects have heterogeneous sizes), and are deterministic. Admission
//! control is deliberately *not* part of this crate: a policy only sees
//! `on_hit` / `insert` / `on_bypass`, so any admission logic (the paper's
//! classifier, an oracle, or always-admit) can be layered on top — that
//! layering lives in `otae-core`.
//!
//! ```
//! use otae_cache::{Cache, Lru};
//!
//! let mut lru = Lru::new(100);
//! let mut evicted = Vec::new();
//! lru.insert(1u64, 60, 0, &mut evicted);
//! lru.insert(2u64, 60, 1, &mut evicted); // evicts key 1
//! assert!(!lru.contains(&1));
//! assert!(lru.contains(&2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arc;
mod belady;
mod fifo;
mod gdsf;
mod lfu;
mod lirs;
pub mod list;
mod lru;
mod s3lru;
pub mod stats;
mod twoq;

pub use arc::ArcCache;
pub use belady::Belady;
pub use fifo::Fifo;
pub use gdsf::Gdsf;
pub use lfu::Lfu;
pub use lirs::Lirs;
pub use lru::Lru;
pub use s3lru::S3Lru;
pub use stats::CacheStats;
pub use twoq::TwoQ;

use std::hash::Hash;

/// Key bound required by all policies.
pub trait Key: Copy + Eq + Hash + Ord + std::fmt::Debug {}
impl<T: Copy + Eq + Hash + Ord + std::fmt::Debug> Key for T {}

/// An entry pushed out of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted<K> {
    /// Evicted key.
    pub key: K,
    /// Its size in bytes.
    pub size: u64,
}

/// A byte-capacity cache with an external admission decision.
///
/// The driver calls `on_hit` first, which is also the hit test: it returns
/// whether the key was resident, and only then records the hit. On a miss
/// the driver either calls `insert` (admitted) or `on_bypass` (excluded).
/// `now` is the logical access index within the request stream — policies
/// with future knowledge (Belady) or aging use it.
pub trait Cache<K: Key> {
    /// Human-readable policy name.
    fn name(&self) -> &'static str;
    /// Capacity in bytes.
    fn capacity(&self) -> u64;
    /// Bytes currently resident.
    fn used(&self) -> u64;
    /// Number of resident objects.
    fn len(&self) -> usize;
    /// Whether `key` is resident.
    fn contains(&self, key: &K) -> bool;
    /// Record a hit on `key` if it is resident and return whether it was.
    /// An absent key — including one a policy remembers only as a ghost —
    /// changes nothing and returns `false`.
    fn on_hit(&mut self, key: &K, now: u64) -> bool;
    /// Admit `key` after a miss, evicting into `evicted` as needed.
    /// Objects larger than the whole cache are ignored (never resident).
    fn insert(&mut self, key: K, size: u64, now: u64, evicted: &mut Vec<Evicted<K>>);
    /// Record a miss that was *not* admitted. Default: no-op.
    fn on_bypass(&mut self, _key: &K, _size: u64, _now: u64) {}
    /// True when no objects are resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;

    /// Drive a policy with a (key, size) sequence, always admitting, and
    /// return per-access hit flags. Shared by per-policy tests.
    pub fn drive<C: Cache<u64>>(cache: &mut C, accesses: &[(u64, u64)]) -> Vec<bool> {
        let mut out = Vec::with_capacity(accesses.len());
        let mut evicted = Vec::new();
        for (now, &(k, s)) in accesses.iter().enumerate() {
            let hit = cache.on_hit(&k, now as u64);
            if !hit {
                cache.insert(k, s, now as u64, &mut evicted);
            }
            out.push(hit);
        }
        out
    }

    /// Capacity accounting invariant shared by per-policy tests.
    pub fn check_capacity_invariant<C: Cache<u64>>(cache: &C) {
        assert!(
            cache.used() <= cache.capacity(),
            "{}: used {} > capacity {}",
            cache.name(),
            cache.used(),
            cache.capacity()
        );
    }
}
