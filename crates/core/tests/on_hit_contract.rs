//! `Cache::on_hit` is the hit test: it returns whether the key was resident,
//! records the hit only then, and leaves the policy untouched for an absent
//! key — including one a policy still remembers as a ghost (ARC's B1/B2,
//! 2Q's A1out, LIRS's non-resident HIR blocks).
//!
//! Every policy, built through `PolicyKind::build`, replays one seeded
//! stream twice: plainly, and with `on_hit` calls on absent keys (the ones
//! just evicted among them) before every request. The two replays must
//! agree on every hit, every eviction list, `used` and `len`.

use otae_cache::{Cache, Evicted};
use otae_core::PolicyKind;
use otae_trace::{ObjectId, Request, Terminal, Trace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const POLICIES: [PolicyKind; 9] = [
    PolicyKind::Lru,
    PolicyKind::Fifo,
    PolicyKind::Lfu,
    PolicyKind::S3Lru,
    PolicyKind::Arc,
    PolicyKind::Lirs,
    PolicyKind::TwoQ,
    PolicyKind::Gdsf,
    PolicyKind::Belady,
];

const KEYS: u32 = 200;
const CAPACITY: u64 = 40_000;

/// Skewed keys, each with one size; a few keys are larger than the cache.
fn stream(seed: u64, len: usize) -> (Vec<ObjectId>, Vec<u64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sizes = (0..KEYS)
        .map(|k| if k % 37 == 0 { CAPACITY + 1 } else { rng.gen_range(100..4_000) })
        .collect();
    let keys = (0..len)
        .map(|_| {
            let r: f64 = rng.gen();
            ObjectId((r * r * KEYS as f64) as u32)
        })
        .collect();
    (keys, sizes)
}

fn trace_of(keys: &[ObjectId]) -> Trace {
    let requests = keys
        .iter()
        .enumerate()
        .map(|(ts, &object)| Request { ts: ts as u64, object, terminal: Terminal::Pc })
        .collect();
    Trace { requests, ..Trace::default() }
}

/// What one replay observed: per request, the hit flag, the evictions and
/// `(used, len)` after it.
type Replay = Vec<(bool, Vec<Evicted<ObjectId>>, u64, usize)>;

/// `on_hit` on `key`, checked against `contains` just before it.
fn checked_on_hit(cache: &mut dyn Cache<ObjectId>, key: ObjectId, now: u64) -> bool {
    let resident = cache.contains(&key);
    let hit = cache.on_hit(&key, now);
    assert_eq!(hit, resident, "{}: on_hit({key:?}) returned {hit}", cache.name());
    hit
}

/// Replay `keys`; with `probe`, first call `on_hit` on up to four absent
/// keys per request: the last request's evictions and random others.
fn replay(
    policy: PolicyKind,
    keys: &[ObjectId],
    sizes: &[u64],
    mut probe: Option<&mut ChaCha8Rng>,
) -> Replay {
    let mut cache = policy.build(CAPACITY, &trace_of(keys));
    let mut evicted = Vec::new();
    let mut out: Replay = Vec::with_capacity(keys.len());
    for (now, &key) in keys.iter().enumerate() {
        let now = now as u64;
        if let Some(rng) = probe.as_deref_mut() {
            let mut others: Vec<ObjectId> =
                out.last().map_or(Vec::new(), |s| s.1.iter().map(|e| e.key).take(2).collect());
            others.extend((0..2).map(|_| ObjectId(rng.gen_range(0..KEYS))));
            for other in others {
                if !cache.contains(&other) {
                    assert!(!checked_on_hit(cache.as_mut(), other, now));
                }
            }
        }
        let hit = checked_on_hit(cache.as_mut(), key, now);
        evicted.clear();
        if !hit {
            cache.insert(key, sizes[key.0 as usize], now, &mut evicted);
        }
        out.push((hit, evicted.clone(), cache.used(), cache.len()));
    }
    out
}

#[test]
fn on_hit_of_an_absent_key_changes_nothing_in_any_policy() {
    for seed in [1u64, 2, 3] {
        let (keys, sizes) = stream(seed, 6_000);
        for policy in POLICIES {
            let plain = replay(policy, &keys, &sizes, None);
            let probed = replay(policy, &keys, &sizes, Some(&mut ChaCha8Rng::seed_from_u64(seed)));
            let name = policy.name();
            assert!(plain.iter().any(|s| s.0), "{name}: the stream must hit");
            assert!(plain.iter().any(|s| !s.1.is_empty()), "{name}: the stream must evict");
            for (i, (a, b)) in plain.iter().zip(&probed).enumerate() {
                assert_eq!(a, b, "{name}, seed {seed}: request {i} diverged");
            }
        }
    }
}
