//! Rule identities, path scoping, and per-rule allowlists.
//!
//! Paths are workspace-relative with forward slashes. Scoping is
//! deliberately path-based rather than module-path-based: the invariants
//! being enforced are *architectural* ("time goes through `serve::clock`",
//! "the serve request path never panics") and the architecture maps 1:1
//! onto the crate layout, so path prefixes are both simpler and harder to
//! dodge than `mod` tracking.

/// Every rule the linter knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `std::collections::HashMap`/`HashSet` construction (SipHash) banned
    /// in first-party non-test code — use `otae_fxhash`.
    NoSiphash,
    /// `Instant::now` / `SystemTime::now` / `thread::sleep` banned outside
    /// `serve::clock` — everything routes through `ServiceClock`.
    NoWallClock,
    /// `thread_rng` / `from_entropy` / `OsRng` banned everywhere: every RNG
    /// must be seeded so any run replays from its seed.
    NoUnseededRng,
    /// `unwrap`/`expect`/panic-family macros/indexing-through-locks banned
    /// in non-test serve and harness run paths — degrade via `FaultReport`
    /// counters and `Result`, never by unwinding a worker.
    NoPanicInServe,
    /// Hash-map iteration feeding float accumulation banned in ML scoring
    /// paths — ordering-dependent sums break engine-parity tests.
    NoFloatNondeterminism,
    /// Structural: the cross-crate lock acquisition graph must be acyclic;
    /// any cycle is a potential deadlock and fails with a witness path.
    LockOrder,
    /// Structural: channel send/recv, file I/O, `join`, and paced sleeps
    /// are banned while a lock guard is held on serve/store paths.
    NoBlockingUnderLock,
    /// Structural: structs tagged `// lint: merge-exhaustive` must
    /// destructure every field in `merge` and never use `..` functional
    /// updates; `(fingerprint)`-tagged structs must flow into
    /// `RunFingerprint`.
    MergeExhaustive,
    /// Structural: lock guards may not be moved into spawned closures —
    /// a guard crossing a thread boundary outlives all local reasoning.
    GuardAcrossSpawn,
}

/// Every rule, in diagnostic order.
pub const ENFORCED: [Rule; 9] = [
    Rule::NoSiphash,
    Rule::NoWallClock,
    Rule::NoUnseededRng,
    Rule::NoPanicInServe,
    Rule::NoFloatNondeterminism,
    Rule::LockOrder,
    Rule::NoBlockingUnderLock,
    Rule::MergeExhaustive,
    Rule::GuardAcrossSpawn,
];

impl Rule {
    /// The rule's diagnostic name (also what `allow(…)` directives use).
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoSiphash => "no-siphash",
            Rule::NoWallClock => "no-wall-clock",
            Rule::NoUnseededRng => "no-unseeded-rng",
            Rule::NoPanicInServe => "no-panic-in-serve",
            Rule::NoFloatNondeterminism => "no-float-nondeterminism",
            Rule::LockOrder => "lock-order",
            Rule::NoBlockingUnderLock => "no-blocking-under-lock",
            Rule::MergeExhaustive => "merge-exhaustive",
            Rule::GuardAcrossSpawn => "guard-across-spawn",
        }
    }

    /// One-line statement of the invariant, shown with every diagnostic.
    pub fn invariant(self) -> &'static str {
        match self {
            Rule::NoSiphash => {
                "hot paths hash with otae-fxhash, not SipHash; construct FxHashMap/FxHashSet"
            }
            Rule::NoWallClock => {
                "time is injected through ServiceClock so harness runs replay deterministically"
            }
            Rule::NoUnseededRng => {
                "every RNG is seeded; an unseeded source breaks bit-exact replay from a seed"
            }
            Rule::NoPanicInServe => {
                "serve/harness run paths degrade via FaultReport counters and Result, never panic"
            }
            Rule::NoFloatNondeterminism => {
                "float accumulation over hash-map order is nondeterministic; iterate a sorted or \
                 dense structure"
            }
            Rule::LockOrder => {
                "lock classes are acquired in one global order; a cycle in the acquisition \
                 graph is a latent deadlock"
            }
            Rule::NoBlockingUnderLock => {
                "nothing blocks (channel send/recv, file I/O, join, paced sleep) while a lock \
                 guard is held — critical-path latency must stay bounded"
            }
            Rule::MergeExhaustive => {
                "tagged accounting structs destructure every field in merge and flow into \
                 RunFingerprint, so adding a field cannot silently escape the audit"
            }
            Rule::GuardAcrossSpawn => {
                "lock guards never move into spawned closures; a guard crossing threads defeats \
                 local lock-discipline reasoning"
            }
        }
    }

    /// Whether the rule also applies inside `#[cfg(test)]`/`#[test]` scopes
    /// and `tests/` trees. Only the replayability rule does: tests that use
    /// entropy are exactly the flaky tests the harness exists to prevent.
    pub fn checks_tests(self) -> bool {
        matches!(self, Rule::NoUnseededRng)
    }

    /// Path prefixes the rule applies to. Empty means "everywhere".
    pub fn applies_to(self) -> &'static [&'static str] {
        match self {
            // The sweep converted every first-party crate, so the hash rule
            // holds workspace-wide, strictly wider than the hot-path floor
            // (cache, core history, serve) the invariant requires.
            Rule::NoSiphash => &[],
            // Global scope deliberately covers the admission-policy zoo
            // (core/src/zoo.rs): every zoo filter must be
            // seeded-deterministic (CoinFlip's RNG, the sketch hashes)
            // and clock-free, or differential fingerprint equality between
            // the pipeline and the service breaks.
            Rule::NoWallClock => &[],
            Rule::NoUnseededRng => &[],
            // Widened when crates/device, the zoo and the request kernel
            // grew real service-path code: FTL/wear models and the kernel
            // (core/src/engine.rs) run on the serve worker's request path,
            // the zoo's filters run per request, and a worker resolves an
            // inline run's model through the schedule in core/src/daily.rs.
            Rule::NoPanicInServe => &[
                "crates/serve/src/",
                "crates/harness/src/",
                "crates/store/src/",
                "crates/device/src/",
                "crates/core/src/zoo.rs",
                "crates/core/src/engine.rs",
                "crates/core/src/daily.rs",
            ],
            Rule::NoFloatNondeterminism => &["crates/ml/src/", "crates/core/src/"],
            // Structural rules see the whole workspace; no-blocking-under-lock
            // is confined to the latency-critical serve/store/harness paths
            // (the pipeline and bench crates block deliberately).
            Rule::LockOrder => &[],
            Rule::NoBlockingUnderLock => {
                &["crates/serve/src/", "crates/harness/src/", "crates/store/src/"]
            }
            Rule::MergeExhaustive => &[],
            Rule::GuardAcrossSpawn => &[],
        }
    }

    /// Per-rule allowlist: (path prefix, rationale). Rationales are printed
    /// by `--list-rules` and documented in DESIGN.md §10.
    pub fn allowlist(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Rule::NoWallClock => &[
                (
                    "crates/serve/src/clock.rs",
                    "the one place wall time is allowed: ServiceClock wraps it",
                ),
                (
                    "crates/bench/",
                    "benchmarks measure wall time by definition; they never feed simulation state",
                ),
            ],
            Rule::NoSiphash => &[],
            Rule::NoUnseededRng => &[],
            Rule::NoPanicInServe => &[],
            Rule::NoFloatNondeterminism => &[],
            Rule::LockOrder => &[],
            Rule::NoBlockingUnderLock => &[],
            Rule::MergeExhaustive => &[],
            Rule::GuardAcrossSpawn => &[],
        }
    }

    /// Does the rule apply to `path` (workspace-relative, `/`-separated)?
    pub fn in_scope(self, path: &str) -> bool {
        let applies = self.applies_to();
        if !applies.is_empty() && !applies.iter().any(|p| path.starts_with(p)) {
            return false;
        }
        !self.allowlist().iter().any(|(p, _)| path.starts_with(p))
    }
}

/// Is `path` test-only code by location (integration tests, benches)?
/// Criterion benches drive wall-clock timing by design and never feed
/// simulation state, so they sit with tests for scoping purposes.
pub fn path_is_test(path: &str) -> bool {
    path.split('/').any(|seg| seg == "tests" || seg == "benches")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_honours_prefixes_and_allowlists() {
        assert!(Rule::NoPanicInServe.in_scope("crates/serve/src/service.rs"));
        assert!(Rule::NoPanicInServe.in_scope("crates/serve/src/decision_cache.rs"));
        assert!(!Rule::NoPanicInServe.in_scope("crates/ml/src/tree.rs"));
        assert!(Rule::NoFloatNondeterminism.in_scope("crates/ml/src/tree.rs"));
        assert!(Rule::NoWallClock.in_scope("crates/serve/src/service.rs"));
        assert!(!Rule::NoWallClock.in_scope("crates/serve/src/clock.rs"));
        assert!(!Rule::NoWallClock.in_scope("crates/bench/src/experiments/policy_sweep.rs"));
        assert!(Rule::NoSiphash.in_scope("src/cli.rs"));
        // The admission-policy zoo sits inside the global determinism
        // rules' scope.
        assert!(Rule::NoUnseededRng.in_scope("crates/core/src/zoo.rs"));
        // Widened scopes: device models, the zoo, the request kernel and the
        // model schedule run on the request path, the kernel and the
        // schedule's lookup on the shard's owning worker.
        assert!(Rule::NoPanicInServe.in_scope("crates/device/src/ftl.rs"));
        for path in
            ["crates/core/src/zoo.rs", "crates/core/src/engine.rs", "crates/core/src/daily.rs"]
        {
            assert!(Rule::NoPanicInServe.in_scope(path), "{path} must be lint-covered");
        }
        assert!(!Rule::NoPanicInServe.in_scope("crates/core/src/pipeline.rs"));
        // Structural rules: lock-order everywhere, blocking confined.
        assert!(Rule::LockOrder.in_scope("crates/cache/src/lru.rs"));
        assert!(Rule::NoBlockingUnderLock.in_scope("crates/store/src/store.rs"));
        assert!(!Rule::NoBlockingUnderLock.in_scope("crates/core/src/pipeline.rs"));
        assert!(Rule::MergeExhaustive.in_scope("crates/device/src/latency.rs"));
        // The store's group-commit write buffer and file-handle cache are
        // inside the enforced store scope: the handle cache holds a lock
        // around lookup only (opens happen outside it), and the write
        // buffer runs on the writer's critical path. The bounded intake
        // sits on every request's path and owns a mutex of its own.
        for path in [
            "crates/store/src/write_buffer.rs",
            "crates/store/src/handles.rs",
            "crates/store/src/intake.rs",
        ] {
            assert!(Rule::NoBlockingUnderLock.in_scope(path), "{path} must be lint-covered");
            assert!(Rule::NoPanicInServe.in_scope(path), "{path} must be lint-covered");
            assert!(Rule::LockOrder.in_scope(path), "{path} must be lint-covered");
        }
    }

    #[test]
    fn rule_names_are_unique_and_stable() {
        let names: Vec<&str> = ENFORCED.iter().map(|r| r.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn test_paths_are_detected() {
        assert!(path_is_test("crates/cache/tests/props.rs"));
        assert!(path_is_test("tests/properties.rs"));
        assert!(path_is_test("crates/bench/benches/cache_ops.rs"));
        assert!(!path_is_test("crates/cache/src/lru.rs"));
    }
}
