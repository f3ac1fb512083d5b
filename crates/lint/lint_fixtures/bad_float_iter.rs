// otae-lint-fixture-path: crates/ml/src/fixture.rs
//! Hash-map iteration feeding float accumulation in a scoring path.
use otae_fxhash::FxHashMap;

fn score(weights: &FxHashMap<u64, f32>) -> f32 {
    let direct = weights.values().sum::<f32>(); //~ ERROR no-float-nondeterminism
    let folded = weights.values().fold(0f32, |a, b| a + b); //~ ERROR no-float-nondeterminism
    let mut total = 0.0f32;
    for (_k, w) in weights.iter() { //~ ERROR no-float-nondeterminism
        total += w;
    }
    direct + folded + total
}
