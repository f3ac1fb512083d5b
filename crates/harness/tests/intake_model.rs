//! Every interleaving of the bounded intake's steps, at small bounds.
//!
//! `otae_store::intake`'s handles only lock, run one step on a
//! `QueueState`, wait on a condvar, and — once the lock is released —
//! notify whatever the step returned. This explorer runs the same steps as a
//! model: up to three producers and one consumer, each a small state machine
//! around its step calls, taken through every order in which the threads can
//! win the lock, with a hang-up possible whenever a thread is between calls.
//! Condvars are wait sets: a thread enters one in the same step that marks it
//! parked (a condvar wait joins the wait set before it releases the lock); a
//! notification is an action of its own after the step (so other threads
//! can run in between); `notify_all` moves every waiter out, `notify_one` any
//! one of them (only the consumer ever waits on `not_empty`, so that choice
//! is trivial here); and each thread may wake once spuriously.
//!
//! Checked in every reachable state:
//! - the bound: at most `cap` items queued;
//! - order: the consumer receives each producer's items in push order, none
//!   twice, and once every thread is done each pushed item was either popped
//!   or dropped with the consumer;
//! - liveness: no state has every live thread parked — work queued, a
//!   hang-up unseen or room unseen with nobody awake to act on it is a lost
//!   wake-up;
//! - backpressure rises only on a push that parks and falls only when the
//!   consumer finds the queue empty.
//!
//! A producer runs the loop both `Producer::push` (a block of one item)
//! and `Producer::push_block` share; the first producer may push its items
//! as one block: push steps on every item under one lock hold, the wake it
//! owes the consumer paid under the lock before it parks and after the lock
//! once the block is queued.
//!
//! Planted variants that ignore the pop step's "wake producers", or let a
//! block park before paying the consumer's wake, must be reported as lost
//! wake-ups: the liveness check is not vacuous.

use otae_store::intake::{Pop, Push, QueueState};
use std::collections::HashSet;

/// Four items split over one to three producers, every way up to order.
/// Fewer items are covered too: any producer may hang up early.
const SPLITS: [&[u8]; 4] = [&[4], &[3, 1], &[2, 2], &[2, 1, 1]];
/// Bounds 1–3: the producer wake point `⌊cap/2⌋` is 0, 1 and 1.
const CAPS: [usize; 3] = [1, 2, 3];
/// The batch sizes a consumer asks for: one at a time, or everything (what
/// the store's writer takes).
const MAXES: [usize; 2] = [1, usize::MAX];

/// `(producer, sequence number)`.
type Item = (u8, u8);

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Phase {
    /// Between calls: the thread may start a call or hang up.
    Idle,
    /// Woken inside a call: it retakes the lock and runs its step again.
    Stepping,
    /// In its condvar's wait set.
    Parked,
    /// Past its step with the lock released, owing the notification the
    /// step returned; `done` if that step was its hang-up.
    Notifying { done: bool },
    /// Hung up.
    Done,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Producer {
    phase: Phase,
    /// Items pushed so far; the next one has this sequence number.
    next: u8,
    /// Items it will push (cut short when a push is refused).
    total: u8,
    /// It pushes all of them as one block.
    block: bool,
    /// It may still wake spuriously.
    spurious: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Consumer {
    phase: Phase,
    /// The `max` and blocking mode of the pop it is parked in.
    max: usize,
    block: bool,
    spurious: bool,
    /// Items received per producer.
    received: [u8; 3],
    /// Items dropped with the consumer.
    dropped: u8,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct World {
    q: QueueState<Item>,
    producers: Vec<Producer>,
    consumer: Consumer,
}

/// What a transition did to the queue, for the backpressure rule.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Event {
    PushParked,
    ConsumerFoundEmpty,
    Other,
}

/// The model: the bound, whether the first producer pushes a block, and
/// the bug it carries, if any.
struct Model {
    cap: usize,
    block: bool,
    plant: Plant,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Plant {
    None,
    /// A pop that should wake the producers does not.
    IgnorePopWake,
    /// A block parks without paying the wake it owes the consumer.
    BlockParksOwingWake,
}

#[derive(Default)]
struct Exploration {
    states: usize,
    violations: Vec<String>,
}

impl Model {
    fn start(&self, split: &[u8]) -> World {
        let mut q = QueueState::new(self.cap, ());
        for _ in 1..split.len() {
            q.add_producer();
        }
        let producers = (split.iter().enumerate())
            .map(|(p, &total)| Producer {
                phase: Phase::Idle,
                next: 0,
                total,
                block: self.block && p == 0,
                spurious: true,
            })
            .collect();
        let consumer = Consumer {
            phase: Phase::Idle,
            max: 1,
            block: true,
            spurious: true,
            received: [0; 3],
            dropped: 0,
        };
        World { q, producers, consumer }
    }

    /// Every state reachable from `split`'s start, and what broke.
    fn explore(&self, split: &[u8]) -> Exploration {
        let start = self.start(split);
        let mut seen = HashSet::from([start.clone()]);
        let mut stack = vec![start];
        let mut out = Exploration::default();
        while let Some(world) = stack.pop() {
            out.states += 1;
            if let Some(v) = self.check_state(&world) {
                out.violations.push(v);
                continue;
            }
            for (next, event) in self.successors(&world) {
                if let Some(v) = check_transition(&world, &next, event) {
                    out.violations.push(v);
                } else if seen.insert(next.clone()) {
                    stack.push(next);
                }
            }
        }
        out
    }

    fn check_state(&self, w: &World) -> Option<String> {
        if w.q.len() > self.cap {
            return Some(format!("bound: {} items queued at cap {}: {w:?}", w.q.len(), self.cap));
        }
        let c = &w.consumer;
        let live_producers = || w.producers.iter().filter(|p| p.phase != Phase::Done);
        let everyone_done = c.phase == Phase::Done && live_producers().next().is_none();
        if everyone_done {
            let pushed: u32 = w.producers.iter().map(|p| u32::from(p.next)).sum();
            let received: u32 = c.received.iter().map(|&n| u32::from(n)).sum();
            if !w.q.is_empty() || pushed != received + u32::from(c.dropped) {
                return Some(format!("conservation: {pushed} pushed, {received} popped: {w:?}"));
            }
            return None;
        }
        let consumer_stuck = matches!(c.phase, Phase::Parked | Phase::Done);
        if !(consumer_stuck && live_producers().all(|p| p.phase == Phase::Parked)) {
            return None;
        }
        let why = match (c.phase, w.q.is_empty(), live_producers().next().is_none()) {
            (Phase::Done, ..) => "the consumer's hang-up unseen",
            (_, false, _) => "work queued",
            (_, true, true) => "the last producer's hang-up unseen",
            (_, true, false) => "room unseen",
        };
        Some(format!("lost wake-up ({why}): every live thread is parked: {w:?}"))
    }

    fn successors(&self, w: &World) -> Vec<(World, Event)> {
        let mut out = Vec::new();
        for p in 0..w.producers.len() {
            self.producer_moves(w, p, &mut out);
        }
        self.consumer_moves(w, &mut out);
        out
    }

    fn producer_moves(&self, w: &World, p: usize, out: &mut Vec<(World, Event)>) {
        let me = w.producers[p];
        match me.phase {
            Phase::Idle => {
                if me.next < me.total {
                    out.push(self.push(w, p));
                }
                let mut n = w.clone();
                let wake_consumer = n.q.producer_hang_up();
                n.producers[p].phase =
                    if wake_consumer { Phase::Notifying { done: true } } else { Phase::Done };
                out.push((n, Event::Other));
            }
            Phase::Stepping => out.push(self.push(w, p)),
            Phase::Parked => {
                if me.spurious {
                    let mut n = w.clone();
                    n.producers[p].phase = Phase::Stepping;
                    n.producers[p].spurious = false;
                    out.push((n, Event::Other));
                }
            }
            Phase::Notifying { done } => {
                // notify_one on `not_empty`: its only possible waiter.
                let mut n = w.clone();
                if n.consumer.phase == Phase::Parked {
                    n.consumer.phase = Phase::Stepping;
                }
                n.producers[p].phase = if done { Phase::Done } else { Phase::Idle };
                out.push((n, Event::Other));
            }
            Phase::Done => {}
        }
    }

    /// Producer `p` takes the lock and runs the push step on its next item
    /// — or, pushing a block, on each of its remaining items in turn — until
    /// one parks, is refused, or the last is queued: the one loop behind
    /// `Producer::push` (a block of one) and `Producer::push_block`. Before
    /// it parks it notifies a consumer it owes a wake — under the lock, so
    /// the consumer is woken in the same step — and after its last item it
    /// owes that wake once the lock is released.
    fn push(&self, w: &World, p: usize) -> (World, Event) {
        let mut n = w.clone();
        let me = &mut n.producers[p];
        let end = if me.block { me.total } else { me.next + 1 };
        let mut wake_consumer = false;
        loop {
            match n.q.push((p as u8, me.next)) {
                Push::Queued(wake) => {
                    wake_consumer |= wake;
                    me.next += 1;
                    if me.next == end {
                        break;
                    }
                }
                Push::Park(_) => {
                    let pays = wake_consumer && self.plant != Plant::BlockParksOwingWake;
                    if pays && n.consumer.phase == Phase::Parked {
                        n.consumer.phase = Phase::Stepping;
                    }
                    me.phase = Phase::Parked;
                    return (n, Event::PushParked);
                }
                Push::Refused(_) => {
                    me.total = me.next;
                    break;
                }
            }
        }
        me.phase = if wake_consumer { Phase::Notifying { done: false } } else { Phase::Idle };
        (n, Event::Other)
    }

    fn consumer_moves(&self, w: &World, out: &mut Vec<(World, Event)>) {
        let c = w.consumer;
        match c.phase {
            Phase::Idle => {
                for max in MAXES {
                    for block in [true, false] {
                        out.push(self.pop(w, max, block));
                    }
                }
                let mut n = w.clone();
                let (stranded, wake_producers) = n.q.consumer_hang_up();
                n.consumer.dropped += stranded.len() as u8;
                n.consumer.phase =
                    if wake_producers { Phase::Notifying { done: true } } else { Phase::Done };
                out.push((n, Event::Other));
            }
            Phase::Stepping => out.push(self.pop(w, c.max, c.block)),
            Phase::Parked => {
                if c.spurious {
                    let mut n = w.clone();
                    n.consumer.phase = Phase::Stepping;
                    n.consumer.spurious = false;
                    out.push((n, Event::Other));
                }
            }
            Phase::Notifying { done } => {
                // notify_all on `not_full`.
                let mut n = w.clone();
                for p in &mut n.producers {
                    if p.phase == Phase::Parked {
                        p.phase = Phase::Stepping;
                    }
                }
                n.consumer.phase = if done { Phase::Done } else { Phase::Idle };
                out.push((n, Event::Other));
            }
            Phase::Done => {}
        }
    }

    /// The consumer takes the lock and runs the pop step. Items arriving
    /// out of order are recorded as a received count that can never match,
    /// which the FIFO check below reports.
    fn pop(&self, w: &World, max: usize, block: bool) -> (World, Event) {
        let mut n = w.clone();
        let mut batch = Vec::new();
        let step = n.q.pop(&mut batch, max, block);
        let c = &mut n.consumer;
        // Only a parked pop remembers how it was called, for its retry.
        (c.max, c.block) = (1, true);
        for (p, seq) in batch {
            let got = &mut c.received[usize::from(p)];
            *got = if seq == *got { *got + 1 } else { u8::MAX };
        }
        match step {
            Pop::Popped(wake_producers) => {
                let notify = wake_producers && self.plant != Plant::IgnorePopWake;
                c.phase = if notify { Phase::Notifying { done: false } } else { Phase::Idle };
                (n, Event::Other)
            }
            Pop::Park => {
                c.phase = Phase::Parked;
                (c.max, c.block) = (max, block);
                (n, Event::ConsumerFoundEmpty)
            }
            Pop::Empty => {
                c.phase = Phase::Idle;
                (n, Event::ConsumerFoundEmpty)
            }
        }
    }
}

fn check_transition(before: &World, after: &World, event: Event) -> Option<String> {
    if after.consumer.received.contains(&u8::MAX) {
        return Some(format!("order: an item arrived out of push order: {before:?}"));
    }
    match (before.q.backpressure(), after.q.backpressure()) {
        (false, true) if event != Event::PushParked => {
            Some(format!("backpressure rose without a parked push: {before:?}"))
        }
        (true, false) if event != Event::ConsumerFoundEmpty => {
            Some(format!("backpressure fell with work queued: {before:?}"))
        }
        _ => None,
    }
}

/// Every split at every bound; returns the states explored.
fn explore_all(block: bool) -> usize {
    let mut total = 0;
    for cap in CAPS {
        let model = Model { cap, block, plant: Plant::None };
        for split in SPLITS {
            let run = model.explore(split);
            println!(
                "cap {cap}, items per producer {split:?}, block {block}: {} states",
                run.states
            );
            assert!(run.violations.is_empty(), "cap {cap} {split:?}: {}", run.violations[0]);
            total += run.states;
        }
    }
    total
}

#[test]
fn every_interleaving_keeps_the_bound_the_order_and_every_wake_up() {
    println!("intake model: {} states explored", explore_all(false));
}

/// The first producer pushes its items as one block; with one producer
/// that is the serve client's four-item block onto a queue of one to three.
#[test]
fn every_interleaving_with_a_block_push_keeps_every_wake_up() {
    println!("intake model, one block producer: {} states explored", explore_all(true));
}

#[test]
fn a_planted_lost_wake_up_is_reported() {
    for (plant, block) in [(Plant::IgnorePopWake, false), (Plant::BlockParksOwingWake, true)] {
        for cap in CAPS {
            let model = Model { cap, block, plant };
            let run = model.explore(&[4]);
            let lost = run.violations.iter().filter(|v| v.starts_with("lost wake-up")).count();
            assert!(lost > 0, "cap {cap} block {block}: a planted lost wake-up went unnoticed");
            assert_eq!(lost, run.violations.len(), "cap {cap}: only liveness breaks");
        }
    }
}
