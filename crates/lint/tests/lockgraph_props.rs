//! Property tests for the lock-order analysis.
//!
//! Synthetic programs are generated around a random global lock order: `n`
//! lock classes behind one `App` struct, one `pair_*` fn per included
//! consecutive edge of the order, each edge either acquiring both locks
//! directly or routing the second acquisition through a `grab_*` helper
//! (exercising the transitive, call-graph side of the analysis).
//!
//! * Programs whose acquisitions all follow the global order never trip
//!   `lock-order`.
//! * Planting a single reversed edge always trips it.

use otae_lint::lint_source;
use proptest::collection::vec;
use proptest::prelude::*;

const PATH: &str = "crates/core/src/fixture.rs";

/// Permutation of `0..n` from arbitrary swap seeds (Fisher–Yates).
fn permutation(n: usize, seeds: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = seeds.get(i).copied().unwrap_or(0) % (i + 1);
        order.swap(i, j);
    }
    order
}

/// Render the synthetic workspace file. `reversed` plants one fn that
/// acquires edge `k`'s locks in the opposite order.
fn program(
    order: &[usize],
    include: &[bool],
    indirect: &[bool],
    reversed: Option<usize>,
) -> String {
    let n = order.len();
    let mut s = String::from("use std::sync::Mutex;\n\n");
    for i in 0..n {
        s.push_str(&format!("pub struct L{i} {{ v: u64 }}\n"));
    }
    s.push_str("pub struct App {\n");
    for i in 0..n {
        s.push_str(&format!("    f{i}: Mutex<L{i}>,\n"));
    }
    s.push_str("}\n\nimpl App {\n");
    for i in 0..n {
        s.push_str(&format!(
            "    fn grab_{i}(&self) -> u64 {{\n        let g = self.f{i}.lock();\n        g.v\n    }}\n"
        ));
    }
    for (k, w) in order.windows(2).enumerate() {
        if !include[k] {
            continue;
        }
        let (x, y) = (w[0], w[1]);
        if indirect[k] {
            s.push_str(&format!(
                "    fn pair_{k}(&self) -> u64 {{\n        let a = self.f{x}.lock();\n        a.v + self.grab_{y}()\n    }}\n"
            ));
        } else {
            s.push_str(&format!(
                "    fn pair_{k}(&self) -> u64 {{\n        let a = self.f{x}.lock();\n        let b = self.f{y}.lock();\n        a.v + b.v\n    }}\n"
            ));
        }
    }
    if let Some(k) = reversed {
        let (x, y) = (order[k], order[k + 1]);
        s.push_str(&format!(
            "    fn reversed(&self) -> u64 {{\n        let b = self.f{y}.lock();\n        let a = self.f{x}.lock();\n        a.v + b.v\n    }}\n"
        ));
    }
    s.push_str("}\n");
    s
}

fn lock_order_diags(src: &str) -> usize {
    let diags = lint_source(PATH, src);
    for d in &diags {
        assert_eq!(
            d.rule.name(),
            "lock-order",
            "synthetic program tripped an unrelated rule:\n{src}\n{}",
            d.render()
        );
    }
    diags.len()
}

proptest! {
    #[test]
    fn ordered_programs_never_cycle(
        n in 2usize..6,
        seeds in vec(any::<usize>(), 6),
        include_bits in vec(any::<bool>(), 5),
        indirect_bits in vec(any::<bool>(), 5),
    ) {
        let order = permutation(n, &seeds);
        let src = program(&order, &include_bits, &indirect_bits, None);
        prop_assert_eq!(lock_order_diags(&src), 0, "acyclic program flagged:\n{}", src);
    }

    #[test]
    fn planted_reversal_is_always_caught(
        n in 2usize..6,
        seeds in vec(any::<usize>(), 6),
        include_bits in vec(any::<bool>(), 5),
        indirect_bits in vec(any::<bool>(), 5),
        pick in any::<usize>(),
    ) {
        let order = permutation(n, &seeds);
        // The reversed edge must coexist with its forward twin.
        let k = pick % (n - 1);
        let mut include_bits = include_bits;
        include_bits[k] = true;
        let src = program(&order, &include_bits, &indirect_bits, Some(k));
        prop_assert!(lock_order_diags(&src) >= 1, "planted cycle missed:\n{}", src);
    }
}
