//! Black-box tests of the bounded intake (`otae_store::intake`) that feeds
//! each serve worker and the store's writer: conservation, per-producer
//! order and the bound under real contention, the producer wake-up rule's
//! cost bound, hang-up when a thread on either side dies, and block pushes:
//! order past the bound, the accepted prefix on a hang-up, and their
//! counters.

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

/// A 64-item block pushed onto a queue of one or three, whose consumer is
/// already parked on it: the push wakes the consumer before it parks on the
/// full queue itself, so every item arrives, in order, without a deadlock —
/// whether the consumer steals one item or everything at a time.
#[test]
fn a_block_larger_than_the_queue_arrives_in_order() {
    with_watchdog("64-item block x parked consumer", || {
        for cap in [1usize, 3] {
            for max in [1usize, 64] {
                let (tx, rx) = bounded::<u64, _>(cap, ());
                let got = std::thread::scope(|s| {
                    let consumer = s.spawn(|| {
                        let (mut got, mut batch) = (Vec::new(), Vec::new());
                        while rx.pop_batch(&mut batch, max) {
                            got.append(&mut batch);
                        }
                        got
                    });
                    while tx.stats().consumer_parks == 0 {
                        std::thread::yield_now();
                    }
                    assert_eq!(tx.push_block(0..64), 64, "cap {cap} max {max}");
                    drop(tx);
                    consumer.join().expect("consumer")
                });
                assert_eq!(got, (0..64).collect::<Vec<_>>(), "cap {cap} max {max}");
                let stats = rx.stats();
                assert_eq!((stats.pushes, stats.push_locks), (64, 1), "cap {cap}: {stats:?}");
                assert!(stats.high_water <= cap as u64, "cap {cap}: {stats:?}");
                assert!(stats.consumer_wakes >= 1, "cap {cap}: the parked consumer was woken");
            }
        }
    });
}

/// A consumer that hangs up in the middle of a block: `push_block` returns
/// the prefix the queue accepted before the hang-up — exactly what its
/// counters saw pushed — and the rest is refused, as is every later block.
#[test]
fn a_consumer_hang_up_mid_block_returns_the_accepted_prefix() {
    with_watchdog("hang-up mid-block", || {
        let (tx, rx) = bounded::<u64, _>(4, ());
        let (accepted, popped) = std::thread::scope(|s| {
            let consumer = s.spawn(move || {
                let (mut got, mut batch) = (Vec::new(), Vec::new());
                while got.len() < 10 && rx.pop_batch(&mut batch, 3) {
                    got.append(&mut batch);
                }
                got
            });
            let accepted = tx.push_block(0..64);
            (accepted, consumer.join().expect("consumer"))
        });
        assert!((10..64).contains(&accepted), "{accepted}");
        assert_eq!(popped, (0..popped.len() as u64).collect::<Vec<_>>(), "a prefix, in order");
        assert!(popped.len() <= accepted);
        let stats = tx.stats();
        assert_eq!(stats.pushes, accepted as u64, "{stats:?}");
        assert_eq!(tx.push_block(64..70), 0, "nobody left to accept a block");
        assert_eq!(tx.push(70), Err(70));
        assert_eq!(tx.push_block(std::iter::empty()), 0);
        assert_eq!(tx.stats().push_locks, 3, "the empty block took no lock");
    });
}

/// A block push counts its items exactly as per-item pushes of the same
/// items do — pushes, batches and high water at every bound that holds
/// them — and differs only in the producer lock acquisitions it paid.
#[test]
fn block_pushes_count_items_like_per_item_pushes() {
    for cap in [64usize, 1024] {
        for max in MAX_BATCHES {
            let stats_after = |block: bool| {
                let (tx, rx) = bounded::<u64, _>(cap, ());
                if block {
                    assert_eq!(tx.push_block(0..64), 64);
                } else {
                    (0..64).for_each(|i| tx.push(i).expect("consumer alive"));
                }
                drop(tx);
                let mut batch = Vec::new();
                while rx.pop_batch(&mut batch, max) {}
                rx.stats()
            };
            let (items, block) = (stats_after(false), stats_after(true));
            assert_eq!((items.push_locks, block.push_locks), (64, 1), "cap {cap} max {max}");
            let (mut items, mut block) = (items, block);
            (items.push_locks, block.push_locks) = (0, 0);
            assert_eq!(items, block, "cap {cap} max {max}");
            assert_eq!((block.pushes, block.high_water), (64, 64));
            assert_eq!(block.batches, 64u64.div_ceil(max as u64));
        }
    }
}
