//! The request queue between the client threads and one worker: a bounded
//! multi-producer single-consumer FIFO whose consumer steals a whole batch
//! under one lock and whose wake-ups are paid only when someone sleeps. The
//! service builds one per worker; the clients route each request to the
//! queue of the worker that owns its shard.
//!
//! The channel this replaced took its mutex and called
//! `Condvar::notify_one` — a futex syscall whether or not anyone waits —
//! once per `send` and again per `recv`/`try_recv`; that handoff cost five
//! times the hit/miss/evict/account kernel it fed. Here the lock is taken
//! once per [`Producer::push`] and once per [`Consumer::pop_batch`] (up to
//! `max` requests), and the guarded state knows who is parked on each
//! condvar, so a `push` signals `not_empty` only when the consumer is parked
//! and a `pop_batch` signals `not_full` only when a producer is — and then
//! only once the queue has drained to half its bound.
//!
//! **Bound.** At most `cap` items are queued; `push` blocks while the queue
//! is full. Items a consumer has popped into its batch no longer count —
//! exactly the bound the channel gave.
//!
//! **Wake accounting.** A thread marks itself parked (producers count, the
//! consumer sets a flag) under the lock just before it waits; the thread
//! that signals it takes the mark back under the same lock before notifying.
//! The marks are therefore an upper bound on the waiters nobody has
//! signalled yet: with none, no notify is owed and the syscall is skipped. A
//! spurious wake-up leaves a mark standing, which costs one needless notify
//! later — never a lost one.
//!
//! **Producers wake at half.** A `push` wakes a parked consumer at once; a
//! `pop_batch` wakes parked producers only when it leaves the queue at or
//! below `⌊cap/2⌋` items, and then takes back every producer mark and
//! notifies them all in one round. A producer parks only on a full queue, so
//! each park buys at least `cap − ⌊cap/2⌋` pushes before the next one, and
//! the consumer still holds `⌊cap/2⌋` requests of work while the producers
//! wake — where waking after every batch let a client that outruns its
//! worker refill one batch and park again. Nothing is lost: the consumer
//! never parks on a non-empty queue, and the pop that empties it leaves
//! `0 ≤ ⌊cap/2⌋`, so every standing mark is taken back by the time the
//! consumer could sleep.
//!
//! **Counters.** [`IntakeStats`] counts pushes, batches, parks and wakes on
//! both sides and the high water, as plain fields under the lock each
//! operation already holds; [`Consumer::stats`] reads them.
//!
//! **Order.** One FIFO, one consumer: the pop order is the push order, and
//! each producer's items are popped in the order it pushed them — what
//! keeps a one-client replay a pure function of the trace at any topology,
//! and a 1×1 inline replay bit-identical to the single-threaded pipeline.
//!
//! **Hang-up.** [`Producer`] is a counted handle, [`Consumer`] a unique
//! one. When the last producer drops, a parked consumer wakes, drains what
//! is queued and sees `pop_batch` return `false`; when the consumer drops,
//! blocked and later `push`es get their item back as an error. Drop runs on
//! unwind too, so a panicking client or worker disconnects the other side
//! instead of deadlocking it.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

struct QueueState<T> {
    queue: VecDeque<T>,
    producers: usize,
    /// False once the consumer dropped.
    consumer_alive: bool,
    /// Producers waiting on `not_full` that no `pop_batch` has signalled.
    parked_producers: usize,
    /// The consumer waits on `not_empty` and no `push` has signalled it.
    consumer_parked: bool,
    stats: IntakeStats,
}

/// What one queue did, counted under its lock. Timing-dependent: two runs
/// of the same trace reach the same decisions with different counts.
// lint: merge-exhaustive
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntakeStats {
    /// Items pushed.
    pub pushes: u64,
    /// Batches popped (each of at least one item).
    pub batches: u64,
    /// Times a producer waited on a full queue.
    pub producer_parks: u64,
    /// Times the consumer waited on an empty queue.
    pub consumer_parks: u64,
    /// Pops that woke the parked producers, one notify round each.
    pub producer_wake_rounds: u64,
    /// Pushes that woke the parked consumer.
    pub consumer_wakes: u64,
    /// Most items queued at once (never above the bound).
    pub high_water: u64,
}

impl IntakeStats {
    /// Fold another queue's counters into these: counts add, the high
    /// water is the larger of the two.
    pub fn merge(&mut self, other: &IntakeStats) {
        let IntakeStats {
            pushes,
            batches,
            producer_parks,
            consumer_parks,
            producer_wake_rounds,
            consumer_wakes,
            high_water,
        } = *other;
        self.pushes += pushes;
        self.batches += batches;
        self.producer_parks += producer_parks;
        self.consumer_parks += consumer_parks;
        self.producer_wake_rounds += producer_wake_rounds;
        self.consumer_wakes += consumer_wakes;
        self.high_water = self.high_water.max(high_water);
    }
}

struct Shared<T> {
    // Lock class `QueueState`, a leaf of the acquisition graph: nothing
    // else is acquired while it is held, and the request path holds no
    // other lock when it is taken.
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

/// Submitting half of the request queue; clone for more producers.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
}

/// Draining half of the request queue: exactly one per queue.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
}

/// A queue holding at most `cap` items (minimum 1).
pub fn bounded<T>(cap: usize) -> (Producer<T>, Consumer<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(QueueState {
            queue: VecDeque::new(),
            producers: 1,
            consumer_alive: true,
            parked_producers: 0,
            consumer_parked: false,
            stats: IntakeStats::default(),
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        cap: cap.max(1),
    });
    (Producer { shared: Arc::clone(&shared) }, Consumer { shared })
}

impl<T> Producer<T> {
    /// Queue one item, blocking while the queue is full. Fails — handing
    /// the item back — once the consumer is gone.
    pub fn push(&self, item: T) -> Result<(), T> {
        let sh = &*self.shared;
        let mut st = sh.state.lock();
        loop {
            if !st.consumer_alive {
                return Err(item);
            }
            if st.queue.len() < sh.cap {
                break;
            }
            st.parked_producers += 1;
            st.stats.producer_parks += 1;
            // A condvar wait releases the guard for its whole sleep; the
            // textual rule cannot see that.
            // otae-lint: allow(no-blocking-under-lock)
            sh.not_full.wait(&mut st);
        }
        st.queue.push_back(item);
        debug_assert!(st.queue.len() <= sh.cap, "queue above its bound");
        let len = st.queue.len() as u64;
        let wake = std::mem::take(&mut st.consumer_parked);
        let stats = &mut st.stats;
        stats.pushes += 1;
        stats.high_water = stats.high_water.max(len);
        stats.consumer_wakes += u64::from(wake);
        drop(st);
        if wake {
            sh.not_empty.notify_one();
        }
        Ok(())
    }
}

impl<T> Consumer<T> {
    /// Replace the contents of `into` with up to `max` (minimum 1) items
    /// from the head of the queue, blocking while it is empty. Returns
    /// `false` — leaving `into` empty — once the queue is empty and every
    /// producer is gone.
    pub fn pop_batch(&self, into: &mut Vec<T>, max: usize) -> bool {
        into.clear();
        let sh = &*self.shared;
        let mut st = sh.state.lock();
        while st.queue.is_empty() {
            if st.producers == 0 {
                return false;
            }
            st.consumer_parked = true;
            st.stats.consumer_parks += 1;
            // See `push`: the wait releases the guard.
            // otae-lint: allow(no-blocking-under-lock)
            sh.not_empty.wait(&mut st);
        }
        let n = st.queue.len().min(max.max(1));
        into.extend(st.queue.drain(..n));
        st.stats.batches += 1;
        // Producers wake at half (see the module docs): every mark at once.
        let wake = st.parked_producers > 0 && st.queue.len() <= sh.cap / 2;
        if wake {
            st.parked_producers = 0;
            st.stats.producer_wake_rounds += 1;
        }
        drop(st);
        if wake {
            sh.not_full.notify_all();
        }
        true
    }

    /// The queue's counters so far.
    pub fn stats(&self) -> IntakeStats {
        self.shared.state.lock().stats
    }
}

impl<T> Clone for Producer<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().producers += 1;
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock();
        st.producers -= 1;
        if st.producers == 0 {
            st.consumer_parked = false;
            drop(st);
            self.shared.not_empty.notify_one();
        }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock();
        st.consumer_alive = false;
        st.parked_producers = 0;
        drop(st);
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_push_order_and_never_more_than_max() {
        let (tx, rx) = bounded(16);
        for i in 0..10 {
            tx.push(i).unwrap();
        }
        let mut batch = vec![99];
        assert!(rx.pop_batch(&mut batch, 4));
        assert_eq!(batch, [0, 1, 2, 3], "replaces the stale contents, head first");
        assert!(rx.pop_batch(&mut batch, 0), "max is clamped to 1");
        assert_eq!(batch, [4]);
        assert!(rx.pop_batch(&mut batch, 64));
        assert_eq!(batch, [5, 6, 7, 8, 9]);
        drop(tx);
        assert!(!rx.pop_batch(&mut batch, 64));
        assert!(batch.is_empty());
    }

    #[test]
    fn queued_items_survive_the_last_producer() {
        let (tx, rx) = bounded(4);
        tx.push('a').unwrap();
        tx.push('b').unwrap();
        drop(tx);
        let mut batch = Vec::new();
        assert!(rx.pop_batch(&mut batch, 1));
        assert!(rx.pop_batch(&mut batch, 1));
        assert_eq!(batch, ['b']);
        assert!(!rx.pop_batch(&mut batch, 1));
    }

    #[test]
    fn push_fails_once_the_consumer_is_gone() {
        let (tx, rx) = bounded(2);
        tx.push(1).unwrap();
        drop(rx);
        assert_eq!(tx.push(2), Err(2), "room in the queue, nobody to drain it");
    }

    /// A producer blocked on a full queue of two is released by exactly one
    /// `pop_batch`: one item left is half the bound. The queue is full
    /// before the producer starts; the parked count (read under the lock)
    /// orders "producer is asleep" before the pop.
    #[test]
    fn one_pop_releases_a_blocked_producer() {
        let (tx, rx) = bounded(2);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        std::thread::scope(|s| {
            let producer = s.spawn(|| tx.push(3).unwrap());
            while rx.shared.state.lock().parked_producers == 0 {
                std::thread::yield_now();
            }
            let mut batch = Vec::new();
            assert!(rx.pop_batch(&mut batch, 1));
            assert_eq!(batch, [1]);
            producer.join().unwrap();
        });
        let stats = rx.stats();
        assert_eq!((stats.pushes, stats.batches, stats.high_water), (3, 1, 2));
        assert_eq!(stats.producer_wake_rounds, 1);
        assert!(stats.producer_parks >= 1);
        let mut batch = Vec::new();
        assert!(rx.pop_batch(&mut batch, 8));
        assert_eq!(batch, [2, 3]);
    }

    /// The wake rule, transition by transition, at every bound up to four:
    /// with the marks three producers leave when they park on the full
    /// queue, each one-item pop that leaves more than `⌊cap/2⌋` items keeps
    /// every mark, and the first pop that leaves `⌊cap/2⌋` or fewer takes
    /// all three back in one wake round. No producer thread runs, so no
    /// push can interleave.
    #[test]
    fn marks_stand_until_a_pop_leaves_half_the_bound() {
        for cap in 1..=4usize {
            let (tx, rx) = bounded(cap);
            for i in 0..cap {
                tx.push(i).unwrap();
            }
            rx.shared.state.lock().parked_producers = 3;
            let mut batch = Vec::new();
            for left in (0..cap).rev() {
                assert!(rx.pop_batch(&mut batch, 1));
                let st = rx.shared.state.lock();
                assert_eq!(st.queue.len(), left);
                let woken = left <= cap / 2;
                let marks = if woken { 0 } else { 3 };
                assert_eq!(st.parked_producers, marks, "cap {cap}, {left} left");
                assert_eq!(st.stats.producer_wake_rounds, u64::from(woken), "cap {cap}");
            }
        }
    }

    /// Three producers asleep on a full queue all wake from the one round a
    /// draining pop pays, and each finds room: at bounds of three and four
    /// the queue takes all their items without anyone parking again. At
    /// bounds of one and two there is room for fewer than three, so later
    /// rounds release the rest; every item still arrives. Producers run on
    /// detached threads so a lost wake-up fails the deadline instead of
    /// hanging the test.
    #[test]
    fn one_wake_round_releases_every_parked_producer() {
        fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
            let until = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while !done() {
                assert!(std::time::Instant::now() < until, "timed out waiting for {what}");
                std::thread::yield_now();
            }
        }
        for cap in 1..=4usize {
            let (tx, rx) = bounded(cap);
            for i in 0..cap {
                tx.push(i).unwrap();
            }
            let producers: Vec<_> = (0..3)
                .map(|p| {
                    let tx = tx.clone();
                    std::thread::spawn(move || tx.push(100 + p).unwrap())
                })
                .collect();
            drop(tx);
            wait_for("three parks", || rx.shared.state.lock().parked_producers >= 3);
            let mut batch = Vec::new();
            assert!(rx.pop_batch(&mut batch, cap));
            assert_eq!(rx.stats().producer_wake_rounds, 1, "cap {cap}: the draining pop wakes");
            if cap >= 3 {
                wait_for("three pushes", || rx.stats().pushes == cap as u64 + 3);
                assert_eq!(rx.stats().producer_wake_rounds, 1, "cap {cap}: one round for all");
            }
            let mut got = Vec::new();
            while got.len() < 3 {
                wait_for("an item", || !rx.shared.state.lock().queue.is_empty());
                assert!(rx.pop_batch(&mut batch, 1));
                got.append(&mut batch);
            }
            for p in producers {
                p.join().unwrap();
            }
            got.sort_unstable();
            assert_eq!(got, [100, 101, 102], "cap {cap}");
        }
    }

    /// Wake-ups are owed only to parked threads: with nobody parked the
    /// counts stay at zero, and a signalled waiter is taken off the books by
    /// the thread that signals it.
    #[test]
    fn parked_counts_track_unsignalled_waiters() {
        let (tx, rx) = bounded::<u32>(4);
        tx.push(1).unwrap();
        let mut batch = Vec::new();
        assert!(rx.pop_batch(&mut batch, 4));
        {
            let st = tx.shared.state.lock();
            assert_eq!((st.parked_producers, st.consumer_parked), (0, false));
        }
        std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                let mut batch = Vec::new();
                assert!(rx.pop_batch(&mut batch, 4));
                batch
            });
            while !tx.shared.state.lock().consumer_parked {
                std::thread::yield_now();
            }
            tx.push(7).unwrap();
            assert!(!tx.shared.state.lock().consumer_parked, "push settles the wake it owes");
            assert_eq!(consumer.join().unwrap(), [7]);
        });
    }

    /// A consumer asleep on an empty queue must wake and hang up when the
    /// last producer handle drops — no push owes it a notify, so the drop
    /// has to wake it itself — and not before.
    #[test]
    fn parked_consumer_returns_false_after_the_last_producer_drops() {
        let (tx, rx) = bounded::<u32>(4);
        let tx2 = tx.clone();
        std::thread::scope(|s| {
            let rx = &rx;
            let consumer = s.spawn(move || rx.pop_batch(&mut Vec::new(), 8));
            while !tx.shared.state.lock().consumer_parked {
                std::thread::yield_now();
            }
            drop(tx);
            assert!(tx2.shared.state.lock().consumer_parked, "one producer is still alive");
            drop(tx2);
            assert!(!consumer.join().unwrap());
        });
    }

    /// A producer asleep on a full queue gets its item back — not a hang —
    /// when the consumer drops.
    #[test]
    fn blocked_producer_errors_when_the_consumer_drops() {
        let (tx, rx) = bounded(1);
        tx.push(1).unwrap();
        std::thread::scope(|s| {
            let producer = s.spawn(|| tx.push(2));
            while rx.shared.state.lock().parked_producers == 0 {
                std::thread::yield_now();
            }
            drop(rx);
            assert_eq!(producer.join().unwrap(), Err(2));
        });
    }
}
