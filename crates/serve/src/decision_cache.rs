//! Memoization of one model's admission predictions.
//!
//! Not used by the service: bit-exact feature rows never repeat on real
//! traffic (age, recency and owner averages are continuous), so the memo
//! never hit and the shards score on a miss instead. The module stays for
//! its only caller, `benchmark/src/layers.rs` (the `memo.*` probes).
//!
//! The classifier's verdict for a request is a pure function of (installed
//! model, feature row): a small FIFO map remembers the last verdict per
//! object, guarded by a bit-exact feature comparison. A cached decision
//! must never survive a model swap, so each model gets a cache of its own.

use otae_core::N_FEATURES;
use otae_fxhash::FxHashMap;
use otae_trace::ObjectId;
use std::collections::VecDeque;

/// Feature row reduced to its exact bit pattern (`f32::to_bits` per lane):
/// NaN-safe equality, no float comparison on the hot path.
pub type FeatureBits = [u32; N_FEATURES];

/// Pack a feature row into its comparable bit pattern.
pub fn feature_bits(features: &[f32; N_FEATURES]) -> FeatureBits {
    let mut bits = [0u32; N_FEATURES];
    for (b, f) in bits.iter_mut().zip(features) {
        *b = f.to_bits();
    }
    bits
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    bits: FeatureBits,
    predicted_one_time: bool,
}

/// Bounded FIFO memo of (object → model verdict), valid for one model.
///
/// Mirrors the history table's eviction discipline: insertion order is
/// tracked in a queue and the oldest entries fall out first. A lookup hits
/// only when the stored feature bits equal the current row's bits exactly,
/// so the returned verdict is — by construction — what `model.predict`
/// would return right now.
#[derive(Debug)]
pub struct DecisionCache {
    capacity: usize,
    map: FxHashMap<ObjectId, Entry>,
    fifo: VecDeque<ObjectId>,
}

impl DecisionCache {
    /// Empty cache holding at most `capacity` memoized verdicts (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            map: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
            fifo: VecDeque::with_capacity(capacity),
        }
    }

    /// Memoized verdict for `obj`, if the stored feature bits match `bits`
    /// exactly.
    pub fn lookup(&self, obj: ObjectId, bits: &FeatureBits) -> Option<bool> {
        let entry = self.map.get(&obj)?;
        (entry.bits == *bits).then_some(entry.predicted_one_time)
    }

    /// Memoize `predicted_one_time` for `obj`, evicting the oldest entries
    /// FIFO when full. Re-inserting an existing object refreshes its entry
    /// without re-queueing it (same discipline as the history table).
    pub fn insert(&mut self, obj: ObjectId, bits: FeatureBits, predicted_one_time: bool) {
        let entry = Entry { bits, predicted_one_time };
        if self.map.insert(obj, entry).is_some() {
            return;
        }
        while self.map.len() > self.capacity {
            match self.fifo.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                }
                None => break,
            }
        }
        self.fifo.push_back(obj);
    }

    /// Memoized verdicts currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(x: f32) -> [f32; N_FEATURES] {
        let mut f = [0.0f32; N_FEATURES];
        f[0] = x;
        f
    }

    #[test]
    fn memoizes_and_respects_feature_bits() {
        let mut c = DecisionCache::new(4);
        let bits = feature_bits(&row(0.9));
        assert_eq!(c.lookup(ObjectId(1), &bits), None);
        c.insert(ObjectId(1), bits, true);
        assert_eq!(c.lookup(ObjectId(1), &bits), Some(true));
        // Same object, different features: the memo must not answer.
        let other = feature_bits(&row(0.1));
        assert_eq!(c.lookup(ObjectId(1), &other), None);
    }

    #[test]
    fn fifo_eviction_bounds_the_map() {
        let mut c = DecisionCache::new(2);
        let bits = feature_bits(&row(0.5));
        c.insert(ObjectId(1), bits, true);
        c.insert(ObjectId(2), bits, true);
        c.insert(ObjectId(3), bits, true);
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(ObjectId(1), &bits), None, "oldest entry evicted first");
        assert_eq!(c.lookup(ObjectId(3), &bits), Some(true));
        // Refreshing an existing key neither grows nor re-queues it.
        c.insert(ObjectId(2), bits, false);
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(ObjectId(2), &bits), Some(false));
    }

    #[test]
    fn nan_features_never_false_hit() {
        let mut c = DecisionCache::new(2);
        let nan = feature_bits(&row(f32::NAN));
        c.insert(ObjectId(1), nan, true);
        // Bit-exact NaN matches itself (same payload), unlike float ==.
        assert_eq!(c.lookup(ObjectId(1), &nan), Some(true));
        assert_eq!(c.lookup(ObjectId(1), &feature_bits(&row(0.0))), None);
    }
}
