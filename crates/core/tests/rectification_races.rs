//! §4.4.2 invariant under retrain races: the history table's verdict
//! memory must survive model swaps.
//!
//! An object judged one-time and bypassed, then reappearing within `M`
//! accesses, must be force-admitted — *even when the daily retrain swapped
//! in a different model between the two misses*. The rectification is keyed
//! on the object and the miss clock, not on which model produced the first
//! judgement; a swap that reset (or shadowed) the table would silently
//! re-bypass hot objects every training day.

use otae_core::Learned;
use otae_ml::{Classifier, Dataset, DecisionTree, TreeParams};
use otae_trace::ObjectId;
use proptest::prelude::*;

/// A model that judges `x > threshold` one-time — different thresholds
/// yield genuinely different trees (distinct split points), simulating the
/// daily retrain producing a new model.
fn tree(threshold: f32) -> DecisionTree {
    let mut d = Dataset::new(1);
    for i in 0..200 {
        let x = i as f32 / 200.0;
        d.push(&[x], x > threshold);
    }
    let mut t = DecisionTree::new(TreeParams::default());
    t.fit(&d);
    t
}

/// Drive two misses of `obj` `gap` accesses apart, swapping models between
/// them, with `noise` other one-time objects in between (they stress the
/// table without evicting `obj` — capacity is sized for all of them).
/// Returns (first admitted?, second admitted?, rectifications).
fn two_misses_across_swap(obj: ObjectId, gap: u64, m: u64, noise: u32) -> (bool, bool, u64) {
    let model_a = tree(0.4);
    let model_b = tree(0.6);
    // Both models must judge x=0.95 one-time, or the scenario is vacuous.
    assert!(model_a.predict(&[0.95]));
    assert!(model_b.predict(&[0.95]));

    let mut gate = Learned::new(m, (noise as usize + 2).next_power_of_two().max(16), true);
    let mut decide =
        |model: &DecisionTree, obj, now| gate.apply(Some(model.predict(&[0.95])), obj, now, true);

    let first = decide(&model_a, obj, 0);
    // Other objects miss in between — under model A or B, mimicking traffic
    // spanning the swap.
    for i in 0..noise {
        let model = if i % 2 == 0 { &model_a } else { &model_b };
        let now = 1 + (u64::from(i) * gap.max(2)) / u64::from(noise.max(1)).max(1);
        decide(model, ObjectId(1_000_000 + i), now);
    }
    // The retrain race: model B is now installed when obj returns.
    let second = decide(&model_b, obj, gap);
    (first, second, gate.history.rectifications())
}

proptest! {
    /// Reappearance within `M` across a swap ⇒ force-admitted (rectified).
    #[test]
    fn reappearance_within_m_is_rectified_across_model_swap(
        obj in 0u32..10_000,
        m in 2u64..5_000,
        gap_frac in 0.01f64..1.0,
        noise in 0u32..40,
    ) {
        let gap = ((m as f64 * gap_frac) as u64).clamp(1, m);
        let (first, second, rect) = two_misses_across_swap(ObjectId(obj), gap, m, noise);
        prop_assert!(!first, "first miss is judged one-time and bypassed");
        prop_assert!(second, "return at gap {gap} <= M {m} must be force-admitted");
        prop_assert!(rect >= 1, "the admission must be a rectification");
    }

    /// Reappearance beyond `M` ⇒ the (new) model's judgement stands.
    #[test]
    fn reappearance_beyond_m_is_still_bypassed_across_model_swap(
        obj in 0u32..10_000,
        m in 2u64..5_000,
        extra in 1u64..10_000,
    ) {
        let (first, second, rect) = two_misses_across_swap(ObjectId(obj), m + extra, m, 0);
        prop_assert!(!first);
        prop_assert!(!second, "return at M + {extra} must stay bypassed");
        prop_assert_eq!(rect, 0);
    }
}

/// The named regression shape from the serve layer: one-time verdict under
/// model A, swap, return within M under model B — pinned here at the
/// classifier-state level with exact counters.
#[test]
fn rectification_survives_swap_exact_counters() {
    let (first, second, rect) = two_misses_across_swap(ObjectId(7), 50, 100, 4);
    assert!(!first);
    assert!(second);
    assert_eq!(rect, 1);
}
