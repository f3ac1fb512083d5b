//! Black-box tests of the clients ⇒ one worker request queue
//! (`otae_serve::intake`): conservation, per-producer order and the bound
//! under real contention, and hang-up when a thread on either side dies.

use otae_serve::intake::bounded;
use otae_serve::{silence_injected_panics, InjectedFault};
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};

const PRODUCERS: u64 = 3;
const PER_PRODUCER: u64 = 20_000;

/// 3 producers ⇒ 1 consumer at every cap and batch size the service uses at
/// its extremes: nothing is lost or duplicated, the consumer sees every
/// producer's items in the order they were pushed, no batch exceeds `max`,
/// and the queue never held more than `cap`.
#[test]
fn three_producers_conserve_items_and_keep_their_order() {
    for cap in [1usize, 2, 1024] {
        for max in [1usize, 64] {
            let (tx, rx) = bounded::<(u64, u64)>(cap);
            let mut seen: Vec<(u64, u64)> = std::thread::scope(|s| {
                let consumer = s.spawn(|| {
                    let mut got = Vec::new();
                    let mut batch = Vec::new();
                    let mut last = [None::<u64>; PRODUCERS as usize];
                    while rx.pop_batch(&mut batch, max) {
                        assert!(!batch.is_empty() && batch.len() <= max, "cap {cap}");
                        for &(p, seq) in &batch {
                            assert!(last[p as usize] < Some(seq), "producer {p} reordered");
                            last[p as usize] = Some(seq);
                        }
                        got.append(&mut batch);
                    }
                    got
                });
                for p in 0..PRODUCERS {
                    let tx = tx.clone();
                    s.spawn(move || {
                        for seq in 0..PER_PRODUCER {
                            tx.push((p, seq)).expect("the consumer outlives the producers");
                        }
                    });
                }
                drop(tx);
                consumer.join().expect("consumer")
            });
            assert!(rx.high_water() <= cap, "cap {cap}: held {}", rx.high_water());
            assert!(rx.high_water() >= 1);
            seen.sort_unstable();
            let want: Vec<(u64, u64)> =
                (0..PRODUCERS).flat_map(|p| (0..PER_PRODUCER).map(move |s| (p, s))).collect();
            assert_eq!(seen, want, "cap {cap} max {max}");
        }
    }
}

/// A producer that panics mid-stream still hangs up: its handle drops on
/// unwind, so the consumer drains what was queued and then sees the end of
/// the stream instead of sleeping forever.
#[test]
fn panicking_producer_still_hangs_up() {
    silence_injected_panics();
    let (tx, rx) = bounded::<u64>(8);
    std::thread::scope(|s| {
        s.spawn(move || {
            let unwound = catch_unwind(AssertUnwindSafe(move || {
                for i in 0..5 {
                    tx.push(i).expect("consumer alive");
                }
                panic_any(InjectedFault { shard: 0, request: 5 });
            }));
            assert!(unwound.is_err());
        });
        let (mut got, mut batch) = (Vec::new(), Vec::new());
        while rx.pop_batch(&mut batch, 64) {
            got.append(&mut batch);
        }
        assert_eq!(got, [0, 1, 2, 3, 4]);
    });
}

/// A consumer that panics mid-stream still hangs up: the producer — blocked
/// on the full queue or about to be — gets an error, not a deadlock.
#[test]
fn panicking_consumer_still_hangs_up() {
    silence_injected_panics();
    let (tx, rx) = bounded::<u64>(1);
    std::thread::scope(|s| {
        s.spawn(move || {
            let unwound = catch_unwind(AssertUnwindSafe(move || {
                let mut batch = Vec::new();
                assert!(rx.pop_batch(&mut batch, 1));
                panic_any(InjectedFault { shard: 0, request: batch[0] });
            }));
            assert!(unwound.is_err());
        });
        let refused = (0..).find(|&i| tx.push(i).is_err()).expect("push must fail eventually");
        assert!((1..=2).contains(&refused), "one item popped, at most one queued: {refused}");
    });
}
