//! The bounded intake in front of one consumer thread: a multi-producer
//! single-consumer FIFO whose consumer takes a whole batch under one lock
//! and whose wake-ups are paid only when someone sleeps. Every queue in the
//! workspace is one: `otae-serve`'s clients ⇒ worker request queues and
//! clients ⇒ retrainer sample queue, and the
//! [`SegmentStore`](crate::SegmentStore)'s callers ⇒ writer command intake.
//!
//! A channel takes its mutex and calls `Condvar::notify_one` — a futex
//! syscall whether or not anyone waits — once per send and again per
//! receive; on the serve path that cost five times the kernel it fed, and on
//! the store's append path it dominated a record. Here the lock is taken
//! once per [`Producer::push`], once per [`Producer::push_block`] (a whole
//! block of items, in order) and once per [`Consumer::pop_batch`] (up to
//! `max` items), and the guarded state knows who is parked on each condvar,
//! so a push signals `not_empty` only when the consumer is parked and a pop
//! signals `not_full` only when a producer is — and then only once the
//! queue has drained to half its bound.
//!
//! **Steps.** Every transition is a pure function on [`QueueState`] that
//! returns what its thread must notify once the lock is released; the
//! handles only lock, call a step, wait and notify. `otae-harness`'s
//! `tests/intake_model.rs` runs the same steps through every interleaving of
//! three producers and one consumer at small bounds.
//!
//! **Bound.** At most `cap` items are queued; `push` blocks while the queue
//! is full. Items a consumer has popped into its batch no longer count.
//!
//! **Blocks.** [`Producer::push_block`] runs the push step once per item
//! under one acquisition, parking only on a full queue. A wake it owes the
//! consumer is paid before it parks — the consumer must be awake to make
//! the room it waits for — and otherwise once, after the block. A block
//! larger than the bound is queued in pieces as the consumer drains them,
//! still in order and under the same half-queue wake rule.
//!
//! **Wake accounting.** A thread marks itself parked (producers count, the
//! consumer sets a flag) under the lock just before it waits; the thread
//! that signals it takes the mark back under the same lock before notifying.
//! The marks are therefore an upper bound on the waiters nobody has
//! signalled yet: with none, no notify is owed and the syscall is skipped. A
//! spurious wake-up leaves a mark standing, which costs one needless notify
//! later — never a lost one.
//!
//! **Producers wake at half.** A push wakes a parked consumer at once; a
//! pop wakes parked producers only when it leaves the queue at or below
//! `⌊cap/2⌋` items, and then takes back every producer mark and notifies
//! them all in one round. A producer parks only on a full queue, so each
//! park buys at least `cap − ⌊cap/2⌋` pushes before the next one, and the
//! consumer still holds `⌊cap/2⌋` items of work while the producers wake.
//! Nothing is lost: the consumer never parks on a non-empty queue, and the
//! pop that empties it leaves `0 ≤ ⌊cap/2⌋`, so every standing mark is
//! taken back by the time the consumer could sleep.
//!
//! **Backpressure.** From the first push that had to park until the
//! consumer next finds the queue empty — a blocking or a non-blocking pop —
//! the queue reports backpressure: its consumer is the bottleneck and its
//! producers are about to idle. The store reads the flag to decide who
//! frames a put; the serve queues ignore it.
//!
//! **Side state.** `S` lives under the queue's own lock (the store keeps its
//! record-buffer pool there), so reading it together with the backpressure
//! flag costs one acquisition and no lock class of its own.
//!
//! **Counters.** [`IntakeStats`] counts pushes, the producer acquisitions
//! that made them, batches, parks and wakes on both sides and the high
//! water, as plain fields under the lock each
//! operation already holds; [`Consumer::stats`] and [`Producer::stats`]
//! read them.
//!
//! **Order.** One FIFO, one consumer: the pop order is the push order, and
//! each producer's items are popped in the order it pushed them — what
//! keeps a one-client replay a pure function of the trace at any topology,
//! and what the store's fault-seam clock and per-key last-write-wins rely on.
//!
//! **Hang-up.** [`Producer`] is a counted handle, [`Consumer`] a unique
//! one. When the last producer drops, a parked consumer wakes, pops what is
//! queued and then sees `pop_batch` return `false`; when the consumer drops,
//! the items still queued are dropped (after the lock is released) and
//! blocked and later `push`es get their item back as an error. Drop runs on
//! unwind too, so a panicking thread on either side disconnects the other
//! instead of deadlocking it.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The guarded state of one queue and its transitions. Production holds it
/// under the queue's mutex; a model checker can own one outright and call
/// the same steps in any order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueueState<T, S = ()> {
    queue: VecDeque<T>,
    cap: usize,
    producers: usize,
    /// False once the consumer hung up.
    consumer_alive: bool,
    /// Producers waiting on `not_full` that no pop has signalled.
    parked_producers: usize,
    /// The consumer waits on `not_empty` and no push has signalled it.
    consumer_parked: bool,
    /// A push has parked since the consumer last found the queue empty.
    backpressure: bool,
    stats: Counters,
    side: S,
}

/// The counters, which state equality and hashing skip: they never steer
/// a step, so two states that differ only in what they counted take every
/// step alike, and a model checker may merge them.
#[derive(Debug, Clone, Copy, Default)]
struct Counters(IntakeStats);

impl PartialEq for Counters {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for Counters {}

impl Hash for Counters {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

/// What a [`QueueState::push`] did, and what its thread does next.
#[derive(Debug, PartialEq, Eq)]
pub enum Push<T> {
    /// Queued; `true` if the parked consumer is owed a `notify_one` on
    /// `not_empty` once the lock is released.
    Queued(bool),
    /// The queue is full and the producer is marked parked: it waits on
    /// `not_full`, then pushes the item handed back here again.
    Park(T),
    /// The consumer hung up: the item comes back.
    Refused(T),
}

/// What a [`QueueState::pop`] did, and what its thread does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pop {
    /// Moved at least one item; `true` if the parked producers are owed a
    /// `notify_all` on `not_full` once the lock is released.
    Popped(bool),
    /// The queue is empty and the consumer is marked parked: it waits on
    /// `not_empty`, then pops again.
    Park,
    /// The queue is empty and the consumer does not wait: it asked not to,
    /// or every producer hung up.
    Empty,
}

/// What one queue did, counted under its lock. Timing-dependent: two runs
/// of the same trace reach the same decisions with different counts.
// lint: merge-exhaustive
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntakeStats {
    /// Items pushed.
    pub pushes: u64,
    /// Producer lock acquisitions that offered items: one per
    /// [`Producer::push`] and one per [`Producer::push_block`], however many
    /// items it queued (re-acquisitions after a park aside). `pushes` over
    /// this is the mean block a producer handed over.
    pub push_locks: u64,
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
            push_locks,
            batches,
            producer_parks,
            consumer_parks,
            producer_wake_rounds,
            consumer_wakes,
            high_water,
        } = *other;
        self.pushes += pushes;
        self.push_locks += push_locks;
        self.batches += batches;
        self.producer_parks += producer_parks;
        self.consumer_parks += consumer_parks;
        self.producer_wake_rounds += producer_wake_rounds;
        self.consumer_wakes += consumer_wakes;
        self.high_water = self.high_water.max(high_water);
    }
}

impl<T, S> QueueState<T, S> {
    /// An empty queue of at most `cap` (minimum 1) items with one producer,
    /// its consumer and the side state `side`.
    pub fn new(cap: usize, side: S) -> Self {
        Self {
            queue: VecDeque::new(),
            cap: cap.max(1),
            producers: 1,
            consumer_alive: true,
            parked_producers: 0,
            consumer_parked: false,
            backpressure: false,
            stats: Counters::default(),
            side,
        }
    }

    /// Items queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether a backpressure episode is open (see the module docs).
    pub fn backpressure(&self) -> bool {
        self.backpressure
    }

    /// One more producer handle.
    pub fn add_producer(&mut self) {
        self.producers += 1;
    }

    /// A producer offers `item`.
    pub fn push(&mut self, item: T) -> Push<T> {
        if !self.consumer_alive {
            return Push::Refused(item);
        }
        if self.queue.len() >= self.cap {
            self.parked_producers += 1;
            self.stats.0.producer_parks += 1;
            self.backpressure = true;
            return Push::Park(item);
        }
        self.queue.push_back(item);
        let wake_consumer = std::mem::take(&mut self.consumer_parked);
        let stats = &mut self.stats.0;
        stats.pushes += 1;
        stats.high_water = stats.high_water.max(self.queue.len() as u64);
        stats.consumer_wakes += u64::from(wake_consumer);
        Push::Queued(wake_consumer)
    }

    /// The consumer moves up to `max` (minimum 1) items from the head of
    /// the queue onto `into`; on an empty queue it parks if `block` and a
    /// producer is left. Finding the queue empty ends a backpressure episode.
    pub fn pop(&mut self, into: &mut Vec<T>, max: usize, block: bool) -> Pop {
        if self.queue.is_empty() {
            self.backpressure = false;
            if !block || self.producers == 0 {
                return Pop::Empty;
            }
            self.consumer_parked = true;
            self.stats.0.consumer_parks += 1;
            return Pop::Park;
        }
        let n = self.queue.len().min(max.max(1));
        into.extend(self.queue.drain(..n));
        self.stats.0.batches += 1;
        // Producers wake at half (see the module docs): every mark at once.
        let wake_producers = self.parked_producers > 0 && self.queue.len() <= self.cap / 2;
        if wake_producers {
            self.parked_producers = 0;
            self.stats.0.producer_wake_rounds += 1;
        }
        Pop::Popped(wake_producers)
    }

    /// A producer handle drops. Returns whether the parked consumer is owed
    /// a `notify_one`: the last producer gone, it must wake to see it.
    pub fn producer_hang_up(&mut self) -> bool {
        self.producers -= 1;
        self.producers == 0 && std::mem::take(&mut self.consumer_parked)
    }

    /// The consumer drops. Returns the items still queued, for the caller
    /// to drop once the lock is released, and whether parked producers are
    /// owed a `notify_all` to see their pushes refused.
    pub fn consumer_hang_up(&mut self) -> (VecDeque<T>, bool) {
        self.consumer_alive = false;
        let wake_producers = std::mem::take(&mut self.parked_producers) > 0;
        (std::mem::take(&mut self.queue), wake_producers)
    }
}

struct Shared<T, S> {
    // Lock class `QueueState`, a leaf of the acquisition graph: nothing
    // else is acquired while it is held, and neither hand-off holds another
    // lock when it is taken.
    state: Mutex<QueueState<T, S>>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Submitting half of the queue; clone for more producers.
pub struct Producer<T, S = ()> {
    shared: Arc<Shared<T, S>>,
}

/// Draining half of the queue: exactly one per queue.
pub struct Consumer<T, S = ()> {
    shared: Arc<Shared<T, S>>,
}

/// A queue holding at most `cap` items (minimum 1), with side state `side`.
pub fn bounded<T, S>(cap: usize, side: S) -> (Producer<T, S>, Consumer<T, S>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(QueueState::new(cap, side)),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Producer { shared: Arc::clone(&shared) }, Consumer { shared })
}

impl<T, S> Producer<T, S> {
    /// Queue one item, blocking while the queue is full. Fails — handing
    /// the item back — once the consumer is gone.
    pub fn push(&self, item: T) -> Result<(), T> {
        match self.push_each(&mut std::iter::once(item)) {
            (_, Some(back)) => Err(back),
            (_, None) => Ok(()),
        }
    }

    /// Queue every item of `block`, in order, under one lock acquisition,
    /// blocking only while the queue is full (see "Blocks" in the module
    /// docs). Returns how many were queued: all of them, or the prefix
    /// queued before the consumer hung up — the rest are dropped once the
    /// lock is released. An empty block takes no lock. `block`'s iterator
    /// runs under the queue's lock: hand it items, not work.
    pub fn push_block(&self, block: impl IntoIterator<Item = T>) -> usize {
        let mut items = block.into_iter();
        let (queued, refused) = self.push_each(&mut items);
        // What the consumer's hang-up refused, dropped outside the lock.
        drop((refused, items));
        queued
    }

    /// The one push loop behind [`Producer::push`] and
    /// [`Producer::push_block`]: queue `items` in order under one lock
    /// acquisition until they run out or the consumer hangs up. Returns how
    /// many were queued and the item the hang-up refused; the rest stay in
    /// `items`. Takes no lock when `items` is empty.
    fn push_each(&self, items: &mut impl Iterator<Item = T>) -> (usize, Option<T>) {
        let Some(mut item) = items.next() else { return (0, None) };
        let (mut queued, mut wake_consumer, mut refused) = (0, false, None);
        let mut st = self.shared.state.lock();
        st.stats.0.push_locks += 1;
        loop {
            // The waiting arm comes first: otae-lint reads guard liveness
            // in token order, and the `drop(st)` below ends it.
            match st.push(item) {
                Push::Park(back) => {
                    item = back;
                    // The consumer must be awake to make the room this
                    // waits for: pay a wake owed to it first.
                    if std::mem::take(&mut wake_consumer) {
                        self.shared.not_empty.notify_one();
                    }
                    // A condvar wait releases the guard for its whole
                    // sleep; the textual rule cannot see that.
                    // otae-lint: allow(no-blocking-under-lock)
                    self.shared.not_full.wait(&mut st);
                }
                Push::Refused(back) => {
                    refused = Some(back);
                    break;
                }
                Push::Queued(wake) => {
                    wake_consumer |= wake;
                    queued += 1;
                    match items.next() {
                        Some(more) => item = more,
                        None => break,
                    }
                }
            }
        }
        drop(st);
        if wake_consumer {
            self.shared.not_empty.notify_one();
        }
        (queued, refused)
    }

    /// Run `f` on the side state and the backpressure flag, under the
    /// queue's lock.
    pub fn with_side<R>(&self, f: impl FnOnce(&mut S, bool) -> R) -> R {
        let mut st = self.shared.state.lock();
        let backpressure = st.backpressure;
        f(&mut st.side, backpressure)
    }

    /// The queue's counters so far, as [`Consumer::stats`] reads them:
    /// still readable once the consumer has hung up.
    pub fn stats(&self) -> IntakeStats {
        self.shared.state.lock().stats.0
    }
}

impl<T, S> Consumer<T, S> {
    /// Replace the contents of `into` with up to `max` (minimum 1) items
    /// from the head of the queue, blocking while it is empty. Returns
    /// `false` — leaving `into` empty — once the queue is empty and every
    /// producer is gone.
    pub fn pop_batch(&self, into: &mut Vec<T>, max: usize) -> bool {
        self.pop(into, max, true)
    }

    /// [`Consumer::pop_batch`] that returns `false` instead of blocking on
    /// an empty queue, for a consumer with work of its own to do first.
    pub fn try_pop_batch(&self, into: &mut Vec<T>, max: usize) -> bool {
        self.pop(into, max, false)
    }

    fn pop(&self, into: &mut Vec<T>, max: usize, block: bool) -> bool {
        into.clear();
        let mut st = self.shared.state.lock();
        loop {
            // See `push` for the arm order and the wait.
            match st.pop(into, max, block) {
                // otae-lint: allow(no-blocking-under-lock)
                Pop::Park => self.shared.not_empty.wait(&mut st),
                Pop::Empty => return false,
                Pop::Popped(wake_producers) => {
                    drop(st);
                    if wake_producers {
                        self.shared.not_full.notify_all();
                    }
                    return true;
                }
            }
        }
    }

    /// Items queued and not yet popped.
    pub fn queued(&self) -> usize {
        self.shared.state.lock().len()
    }

    /// Run `f` on the side state, under the queue's lock.
    pub fn with_side<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.shared.state.lock().side)
    }

    /// The queue's counters so far.
    pub fn stats(&self) -> IntakeStats {
        self.shared.state.lock().stats.0
    }
}

impl<T, S> Clone for Producer<T, S> {
    fn clone(&self) -> Self {
        self.shared.state.lock().add_producer();
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<T, S> Drop for Producer<T, S> {
    fn drop(&mut self) {
        let wake_consumer = self.shared.state.lock().producer_hang_up();
        if wake_consumer {
            self.shared.not_empty.notify_one();
        }
    }
}

impl<T, S> Drop for Consumer<T, S> {
    fn drop(&mut self) {
        let (stranded, wake_producers) = self.shared.state.lock().consumer_hang_up();
        if wake_producers {
            self.shared.not_full.notify_all();
        }
        drop(stranded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Yield until `done`, failing after ten seconds instead of hanging.
    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        let until = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !done() {
            assert!(std::time::Instant::now() < until, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    fn parked_producers<T, S>(rx: &Consumer<T, S>) -> usize {
        rx.shared.state.lock().parked_producers
    }

    fn consumer_parked<T, S>(tx: &Producer<T, S>) -> bool {
        tx.shared.state.lock().consumer_parked
    }

    #[test]
    fn pops_in_push_order_and_never_more_than_max() {
        let (tx, rx) = bounded(16, ());
        for i in 0..12 {
            tx.push(i).unwrap();
        }
        let mut batch = vec![99];
        assert!(rx.pop_batch(&mut batch, 4));
        assert_eq!(batch, [0, 1, 2, 3], "replaces the stale contents, head first");
        assert!(rx.pop_batch(&mut batch, 0), "max is clamped to 1");
        assert_eq!(batch, [4]);
        assert!(rx.try_pop_batch(&mut batch, 2));
        assert_eq!(batch, [5, 6]);
        assert!(rx.try_pop_batch(&mut batch, usize::MAX), "the store writer takes everything");
        assert_eq!(batch, [7, 8, 9, 10, 11]);
        assert!(!rx.try_pop_batch(&mut batch, usize::MAX), "an empty queue does not block it");
        assert!(batch.is_empty());
        drop(tx);
        assert!(!rx.pop_batch(&mut batch, 64));
        assert!(batch.is_empty());
    }

    #[test]
    fn queued_items_survive_the_last_producer() {
        let (tx, rx) = bounded(4, ());
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
        let (tx, rx) = bounded(2, ());
        tx.push(1).unwrap();
        drop(rx);
        assert_eq!(tx.push(2), Err(2), "room in the queue, nobody to drain it");
    }

    /// What the consumer never popped is dropped with it, not when the last
    /// producer lets go of the queue: an item that owns a reply sender (the
    /// store's `flush`) disconnects its waiting caller at once.
    #[test]
    fn dropping_the_consumer_drops_queued_items_while_a_producer_lives() {
        use std::sync::mpsc::{sync_channel, TryRecvError};
        let (tx, rx) = bounded(4, ());
        let replies: Vec<_> = (0..3)
            .map(|_| {
                let (reply_tx, reply_rx) = sync_channel::<()>(1);
                tx.push(reply_tx).unwrap();
                reply_rx
            })
            .collect();
        assert_eq!(replies[0].try_recv(), Err(TryRecvError::Empty), "queued, not yet dropped");
        drop(rx);
        for reply in &replies {
            assert_eq!(reply.try_recv(), Err(TryRecvError::Disconnected));
        }
        drop(tx);
    }

    /// A producer parked on a full queue of two is released by exactly one
    /// pop: one item left is half the bound. The queue is full before the
    /// producer starts; the parked count (read under the lock) orders
    /// "producer is asleep" before the pop.
    #[test]
    fn one_pop_releases_a_blocked_producer() {
        let (tx, rx) = bounded(2, ());
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        std::thread::scope(|s| {
            let producer = s.spawn(|| tx.push(3).unwrap());
            wait_for("a park", || parked_producers(&rx) > 0);
            let mut batch = Vec::new();
            assert!(rx.pop_batch(&mut batch, 1));
            assert_eq!(batch, [1]);
            producer.join().unwrap();
        });
        let stats = rx.stats();
        assert_eq!(tx.stats(), stats, "both ends read the same counters");
        assert_eq!((stats.pushes, stats.batches, stats.high_water), (3, 1, 2));
        assert_eq!(stats.producer_wake_rounds, 1);
        assert!(stats.producer_parks >= 1);
        let mut batch = Vec::new();
        assert!(rx.pop_batch(&mut batch, 8));
        assert_eq!(batch, [2, 3]);
    }

    /// The wake rule, step by step, at every bound up to four: three pushes
    /// onto the full queue park and leave three marks; each one-item pop
    /// that leaves more than `⌊cap/2⌋` items keeps every mark, and the
    /// first pop that leaves `⌊cap/2⌋` or fewer takes all three back in one
    /// wake round.
    #[test]
    fn marks_stand_until_a_pop_leaves_half_the_bound() {
        for cap in 1..=4usize {
            let mut st = QueueState::new(cap, ());
            for i in 0..cap {
                assert_eq!(st.push(i), Push::Queued(false));
            }
            for p in 0..3 {
                assert_eq!(st.push(100 + p), Push::Park(100 + p));
            }
            let mut batch = Vec::new();
            for left in (0..cap).rev() {
                let woken = left <= cap / 2 && st.parked_producers > 0;
                assert_eq!(st.pop(&mut batch, 1, true), Pop::Popped(woken));
                assert_eq!(st.len(), left);
                let marks = if left <= cap / 2 { 0 } else { 3 };
                assert_eq!(st.parked_producers, marks, "cap {cap}, {left} left");
                assert_eq!(st.stats.0.producer_wake_rounds, 1 - u64::from(marks > 0), "cap {cap}");
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
        for cap in 1..=4usize {
            let (tx, rx) = bounded(cap, ());
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
            wait_for("three parks", || parked_producers(&rx) >= 3);
            let mut batch = Vec::new();
            assert!(rx.pop_batch(&mut batch, cap));
            assert_eq!(rx.stats().producer_wake_rounds, 1, "cap {cap}: the draining pop wakes");
            if cap >= 3 {
                wait_for("three pushes", || rx.stats().pushes == cap as u64 + 3);
                assert_eq!(rx.stats().producer_wake_rounds, 1, "cap {cap}: one round for all");
            }
            let mut got = Vec::new();
            while got.len() < 3 {
                wait_for("an item", || !rx.shared.state.lock().is_empty());
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
    /// marks stay clear, and a signalled waiter is taken off the books by
    /// the thread that signals it.
    #[test]
    fn parked_marks_track_unsignalled_waiters() {
        let (tx, rx) = bounded::<u32, _>(4, ());
        tx.push(1).unwrap();
        let mut batch = Vec::new();
        assert!(rx.pop_batch(&mut batch, 4));
        assert_eq!((parked_producers(&rx), consumer_parked(&tx)), (0, false));
        std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                let mut batch = Vec::new();
                assert!(rx.pop_batch(&mut batch, 4));
                batch
            });
            wait_for("the consumer to park", || consumer_parked(&tx));
            tx.push(7).unwrap();
            assert!(!consumer_parked(&tx), "push settles the wake it owes");
            assert_eq!(consumer.join().unwrap(), [7]);
        });
    }

    /// A consumer asleep on an empty queue must wake and hang up when the
    /// last producer handle drops — no push owes it a notify, so the drop
    /// has to wake it itself — and not before.
    #[test]
    fn parked_consumer_returns_false_after_the_last_producer_drops() {
        let (tx, rx) = bounded::<u32, _>(4, ());
        let tx2 = tx.clone();
        std::thread::scope(|s| {
            let rx = &rx;
            let consumer = s.spawn(move || rx.pop_batch(&mut Vec::new(), 8));
            wait_for("the consumer to park", || consumer_parked(&tx));
            drop(tx);
            assert!(consumer_parked(&tx2), "one producer is still alive");
            drop(tx2);
            assert!(!consumer.join().unwrap());
        });
    }

    /// A producer asleep on a full queue gets its item back — not a hang —
    /// when the consumer drops.
    #[test]
    fn blocked_producer_errors_when_the_consumer_drops() {
        let (tx, rx) = bounded(1, ());
        tx.push(1).unwrap();
        std::thread::scope(|s| {
            let producer = s.spawn(|| tx.push(2));
            wait_for("a park", || parked_producers(&rx) > 0);
            drop(rx);
            assert_eq!(producer.join().unwrap(), Err(2));
        });
    }

    /// A backpressure episode opens on a push that parks, survives pops
    /// that find work, and closes when the consumer finds the queue empty:
    /// first through a non-blocking pop, then, in a second episode, through
    /// a blocking one that parks.
    #[test]
    fn backpressure_opens_on_a_parked_push_and_closes_on_an_empty_pop() {
        let (tx, rx) = bounded(1, ());
        let backpressure = || tx.with_side(|_, bp| bp);
        let mut batch = Vec::new();
        for blocking in [false, true] {
            tx.push(1).unwrap();
            assert!(!backpressure(), "a push that found room is not backpressure");
            std::thread::scope(|s| {
                // Nothing pops until the flag is up, so this push must park.
                s.spawn(|| tx.push(2).unwrap());
                wait_for("a parked push", backpressure);
                assert!(rx.try_pop_batch(&mut batch, 1));
                assert_eq!(batch, [1]);
            });
            assert!(rx.pop_batch(&mut batch, 1));
            assert_eq!(batch, [2]);
            assert!(backpressure(), "the episode outlives pops that find work");
            if blocking {
                std::thread::scope(|s| {
                    let consumer = s.spawn(|| rx.pop_batch(&mut Vec::new(), 1));
                    wait_for("the consumer to park", || consumer_parked(&tx));
                    assert!(!backpressure(), "a blocking pop on an empty queue closes it");
                    tx.push(3).unwrap();
                    assert!(consumer.join().unwrap());
                });
            } else {
                assert!(!rx.try_pop_batch(&mut batch, 1));
                assert!(!backpressure(), "a non-blocking pop on an empty queue closes it");
            }
        }
    }
}
