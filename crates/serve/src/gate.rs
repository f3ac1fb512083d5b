//! The shared admission-model slot (hot-swap seam).

use otae_core::TrainedModel;
use otae_ml::{Classifier, DecisionTree};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An installed admission model: the trained tree the shards consult on a
/// miss.
#[derive(Debug)]
pub struct GateModel {
    tree: DecisionTree,
}

impl GateModel {
    /// Wrap a freshly trained tree.
    pub fn new(tree: DecisionTree) -> Self {
        Self { tree }
    }

    /// The wrapped tree.
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }

    /// Positive-class confidence for one row. Only caller:
    /// `benchmark/src/layers.rs`.
    pub fn score(&self, row: &[f32]) -> f32 {
        self.tree.score(row)
    }

    /// Hard decision at the 0.5 threshold.
    pub fn predict(&self, row: &[f32]) -> bool {
        self.tree.predict(row)
    }

    /// Per-row scores appended to `out`; the flag is ignored. Only caller:
    /// `benchmark/src/layers.rs` (its `gate.score_batch64` probe).
    pub fn score_rows_fixed<const F: usize>(
        &self,
        rows: &[[f32; F]],
        _use_compiled: bool,
        out: &mut Vec<f32>,
    ) {
        out.extend(rows.iter().map(|r| self.tree.score(r)));
    }
}

/// Shared slot holding the current admission classifier.
///
/// Request workers take a read lock only long enough to clone the `Arc`
/// (nanoseconds), then classify against their private reference, so a
/// retrainer swapping in a freshly trained tree never stalls the request
/// path: in-flight requests finish against the model they resolved, new
/// requests see the new one.
#[derive(Debug, Default)]
pub struct AdmissionGate {
    /// Model plus its epoch (the install count), updated together under
    /// the lock so a snapshot can never pair a model with another epoch.
    slot: RwLock<(Option<Arc<GateModel>>, u64)>,
    /// Lock-free mirror of the epoch, so workers can poll "did the model
    /// change?" with one relaxed load instead of taking the read lock per
    /// request. May briefly lag the locked epoch; it never runs ahead.
    swaps: AtomicU64,
}

impl AdmissionGate {
    /// Empty gate: no model installed, every miss is admitted (cold-start
    /// behaves like the paper's Original mode).
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the current model (cheap: read-lock + `Arc` clone).
    pub fn current(&self) -> Option<Arc<GateModel>> {
        self.slot.read().0.clone()
    }

    /// Snapshot the current model together with its epoch (the install
    /// count at the time the model was installed). The pair is read under
    /// one lock, so it is always internally consistent. Only caller outside
    /// the tests: `benchmark/src/layers.rs`.
    pub fn current_with_epoch(&self) -> (Option<Arc<GateModel>>, u64) {
        let slot = self.slot.read();
        (slot.0.clone(), slot.1)
    }

    /// Install a freshly trained tree, replacing the previous model.
    pub fn install(&self, model: DecisionTree) {
        self.install_arc(Arc::new(GateModel::new(model)));
    }

    /// [`AdmissionGate::install`] of a wrapped tree. Only caller:
    /// `benchmark/src/layers.rs`.
    pub fn install_trained(&self, model: TrainedModel) {
        self.install(model.tree);
    }

    /// Install an already-shared model.
    pub fn install_arc(&self, model: Arc<GateModel>) {
        let epoch = {
            let mut slot = self.slot.write();
            slot.0 = Some(model);
            slot.1 += 1;
            slot.1
        };
        self.swaps.store(epoch, Ordering::Release);
    }

    /// Number of models installed so far (0 = still cold). Also the current
    /// model epoch — a cheap staleness hint for cached gate snapshots.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otae_ml::{Classifier, Dataset, TreeParams};

    fn tree(threshold: f32) -> DecisionTree {
        let mut d = Dataset::new(1);
        for i in 0..100 {
            let x = i as f32 / 100.0;
            d.push(&[x], x > threshold);
        }
        let mut t = DecisionTree::new(TreeParams::default());
        t.fit(&d);
        t
    }

    #[test]
    fn starts_cold_and_warms_on_install() {
        let gate = AdmissionGate::new();
        assert!(gate.current().is_none());
        assert_eq!(gate.swaps(), 0);
        gate.install(tree(0.5));
        assert_eq!(gate.swaps(), 1);
        let m = gate.current().expect("installed");
        assert!(m.predict(&[0.9]));
        assert!(!m.predict(&[0.1]));
    }

    #[test]
    fn epoch_tracks_installs_and_stays_paired_with_the_model() {
        let gate = AdmissionGate::new();
        let (m, e) = gate.current_with_epoch();
        assert!(m.is_none());
        assert_eq!(e, 0);
        gate.install(tree(0.5));
        let (m, e) = gate.current_with_epoch();
        assert!(m.is_some());
        assert_eq!(e, 1);
        gate.install(tree(0.2));
        assert_eq!(gate.current_with_epoch().1, 2);
        assert_eq!(gate.swaps(), 2);
    }

    #[test]
    fn swap_replaces_model_but_keeps_old_snapshots_alive() {
        let gate = AdmissionGate::new();
        gate.install(tree(0.5));
        let old = gate.current().expect("first");
        gate.install(tree(0.2));
        let new = gate.current().expect("second");
        assert_eq!(gate.swaps(), 2);
        // The old snapshot still classifies with the old boundary.
        assert!(!old.predict(&[0.4]));
        assert!(new.predict(&[0.4]));
    }

    #[test]
    fn concurrent_readers_see_some_installed_model() {
        let gate = std::sync::Arc::new(AdmissionGate::new());
        gate.install(tree(0.5));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let gate = std::sync::Arc::clone(&gate);
                s.spawn(move || {
                    for _ in 0..1000 {
                        assert!(gate.current().is_some());
                    }
                });
            }
            for t in [0.3f32, 0.6, 0.8] {
                gate.install(tree(t));
            }
        });
        assert_eq!(gate.swaps(), 4);
    }
}
