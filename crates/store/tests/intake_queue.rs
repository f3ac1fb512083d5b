//! Black-box tests of the bounded intake (`otae_store::intake`) that feeds
//! each serve worker and the store's writer: conservation, per-producer
//! order and the bound under real contention, the producer wake-up rule's
//! cost bound, and hang-up when a thread on either side dies.

use otae_store::intake::bounded;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

const PRODUCERS: u64 = 3;
const PER_PRODUCER: u64 = 4_000;
/// Every bound up to four (the producer wake point `⌊cap/2⌋` is 0, 1, 1
/// and 2 there) and the service default.
const CAPS: [usize; 5] = [1, 2, 3, 4, 1024];
const MAX_BATCHES: [usize; 3] = [1, 2, 64];

/// The payload of the panics these tests plant.
struct Planted;

/// Keep planted panics off stderr; anything else still reaches the
/// previous hook.
fn silence_planted_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Planted>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Run `f` on a thread of its own and fail — instead of hanging the test
/// binary — if it has not finished within a minute (a lost wake-up).
fn with_watchdog(what: &str, f: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::sync_channel(1);
    let worker = std::thread::spawn(move || {
        f();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => worker.join().expect("test thread"),
        // The thread panicked: re-raise its assertion.
        Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => panic!("{what}: no progress in 60 s (lost wake-up?)"),
    }
}

/// 3 producers ⇒ 1 consumer at every bound up to four and the default,
/// stolen 1, 2 or 64 at a time: nothing is lost or duplicated, the consumer
/// sees every producer's items in the order they were pushed, no batch
/// exceeds `max`, the queue never held more than `cap`, and the whole grid
/// finishes under a watchdog.
#[test]
fn three_producers_conserve_items_and_keep_their_order() {
    with_watchdog("3 producers x 1 consumer", || {
        for cap in CAPS {
            for max in MAX_BATCHES {
                let (tx, rx) = bounded::<(u64, u64), _>(cap, ());
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
                let stats = rx.stats();
                assert!((1..=cap as u64).contains(&stats.high_water), "cap {cap}: {stats:?}");
                assert_eq!(stats.pushes, PRODUCERS * PER_PRODUCER);
                seen.sort_unstable();
                let want: Vec<(u64, u64)> =
                    (0..PRODUCERS).flat_map(|p| (0..PER_PRODUCER).map(move |s| (p, s))).collect();
                assert_eq!(seen, want, "cap {cap} max {max}");
            }
        }
    });
}

/// One producer that outruns its consumer pays at most one wake round per
/// `cap − ⌊cap/2⌋` items: after a round the queue holds at most half its
/// bound, and the producer has to fill it before it can park again. Rounds
/// are counted, not parks — a spurious condvar return re-parks without a
/// round — and every round takes back at least one park's mark.
#[test]
fn one_producer_pays_a_wake_round_per_half_queue() {
    const ITEMS: u64 = 20_000;
    with_watchdog("1 producer x 1 consumer", || {
        for cap in CAPS {
            for max in MAX_BATCHES {
                let (tx, rx) = bounded::<u64, _>(cap, ());
                std::thread::scope(|s| {
                    s.spawn(move || {
                        for i in 0..ITEMS {
                            tx.push(i).expect("consumer alive");
                        }
                    });
                    let (mut next, mut batch) = (0, Vec::new());
                    while rx.pop_batch(&mut batch, max) {
                        for &i in &batch {
                            assert_eq!(i, next, "cap {cap} max {max}");
                            next += 1;
                        }
                    }
                    assert_eq!(next, ITEMS);
                });
                let stats = rx.stats();
                let per_round = (cap - cap / 2) as u64;
                assert!(
                    stats.producer_wake_rounds <= ITEMS / per_round + 1,
                    "cap {cap} max {max}: {stats:?}"
                );
                assert!(stats.producer_wake_rounds <= stats.producer_parks, "{stats:?}");
                assert_eq!(stats.pushes, ITEMS);
                assert!(ITEMS.div_ceil(max as u64) <= stats.batches, "{stats:?}");
            }
        }
    });
}

/// A producer that panics mid-stream still hangs up: its handle drops on
/// unwind, so the consumer drains what was queued and then sees the end of
/// the stream instead of sleeping forever.
#[test]
fn panicking_producer_still_hangs_up() {
    silence_planted_panics();
    let (tx, rx) = bounded::<u64, _>(8, ());
    std::thread::scope(|s| {
        s.spawn(move || {
            let unwound = catch_unwind(AssertUnwindSafe(move || {
                for i in 0..5 {
                    tx.push(i).expect("consumer alive");
                }
                panic_any(Planted);
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
    silence_planted_panics();
    let (tx, rx) = bounded::<u64, _>(1, ());
    std::thread::scope(|s| {
        s.spawn(move || {
            let unwound = catch_unwind(AssertUnwindSafe(move || {
                let mut batch = Vec::new();
                assert!(rx.pop_batch(&mut batch, 1));
                panic_any(Planted);
            }));
            assert!(unwound.is_err());
        });
        let refused = (0..).find(|&i| tx.push(i).is_err()).expect("push must fail eventually");
        assert!((1..=2).contains(&refused), "one item popped, at most one queued: {refused}");
    });
}
