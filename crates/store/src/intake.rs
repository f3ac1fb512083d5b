//! Producer-side command intake: a mutex-staged batch queue between
//! store callers and the single writer thread, plus the two things that
//! ride its lock — the pool of spent record buffers and the backpressure
//! flag that decides which side frames a put.
//!
//! The per-record channel this replaced paid one cross-thread message
//! per command — on a single hardware thread that handoff (enqueue,
//! futex wake, reschedule) dominated the append path. Here callers push
//! commands under one short mutex hold and the writer steals the entire
//! staged vector in one lock acquisition, so the cross-thread machinery
//! is paid once per *batch*. A bounded(1) token channel carries only
//! wakeups: the writer marks itself idle under the staging lock just
//! before it blocks, and the first producer to push into an idle intake
//! clears the flag and owns sending the single token. Because the flag
//! only ever flips writer→set, producer→clear, at most one token is in
//! flight and `bounded(1)` can never block a producer.
//!
//! Ordering: the staging mutex gives commands a total order (push order
//! is lock-acquisition order) and the writer consumes strictly in that
//! order — no producer can reorder around another, which the fault-seam
//! clock and per-key index correctness both rely on.
//!
//! Backpressure: `cap` bounds the staged-and-unstolen commands; a
//! producer blocks on the `space` condvar while the intake is full and
//! is released by the writer's next steal (or drain, on the crash and
//! shutdown paths). That wait is also the intake's one observation about
//! where the slack is: from the first push that had to wait until the
//! writer next finds the intake empty, `backpressure` is set — the writer
//! is the bottleneck and its callers are about to idle — and a caller
//! that checks a buffer out while it is set frames its own record
//! (header + both CRCs) before pushing it. Otherwise the caller is the
//! critical path and the writer, which parks between batches, frames.
//! Same function, same bytes either way; see `store.rs` for the two call
//! sites and the two workloads that sit on either side of the flag.
//!
//! Record buffers: a put's record travels caller → intake → write group
//! in one `Vec<u8>` and is copied exactly once, into the segment. The
//! writer hands the spent buffers of a landed group back through
//! [`Intake::recycle`] and the next caller's [`Intake::checkout`] reuses
//! one — under the lock both sides already take, so the pool adds no lock
//! class. Pooled buffers keep their full initialised length (a record is
//! a prefix of its buffer), so reuse neither zero-fills nor reallocates;
//! one that is too small for the record at hand is left for a smaller
//! record and a fresh one allocated — never `resize`d, which would copy
//! its stale bytes to a new allocation and then zero the rest. The pool
//! is bounded in bytes and in count; the excess is freed.

use parking_lot::{Condvar, Mutex};

pub(crate) struct Intake<T> {
    state: Mutex<IntakeState<T>>,
    /// Signalled on every steal/drain: producers blocked on a full
    /// intake re-check capacity.
    space: Condvar,
    cap: usize,
    /// Most bytes (by capacity) the buffer pool may hold.
    pool_bytes_cap: usize,
    /// Most buffers the pool may hold; also bounds `checkout`'s scan.
    pool_len_cap: usize,
}

struct IntakeState<T> {
    cmds: Vec<T>,
    /// Set by the writer (under the lock, with `cmds` empty) just before
    /// it blocks on the wake channel; cleared by the producer that takes
    /// responsibility for waking it.
    writer_idle: bool,
    /// A push has had to wait for space since the writer last found the
    /// intake empty.
    backpressure: bool,
    /// Spent record buffers awaiting reuse, and their summed capacity.
    pool: Vec<Vec<u8>>,
    pool_bytes: usize,
}

impl<T> Intake<T> {
    /// `cap` commands may sit staged; the pool keeps at most
    /// `pool_bytes_cap` bytes in at most `pool_len_cap` buffers.
    pub(crate) fn new(cap: usize, pool_bytes_cap: usize, pool_len_cap: usize) -> Self {
        Self {
            state: Mutex::new(IntakeState {
                cmds: Vec::new(),
                writer_idle: false,
                backpressure: false,
                pool: Vec::new(),
                pool_bytes: 0,
            }),
            space: Condvar::new(),
            cap: cap.max(1),
            pool_bytes_cap,
            pool_len_cap,
        }
    }

    /// Stage one command, blocking while the intake is at capacity.
    /// Returns whether the caller must send the wake token (the writer
    /// declared itself idle and is blocking — or about to block — on the
    /// wake channel).
    #[must_use]
    pub(crate) fn push(&self, cmd: T) -> bool {
        let mut st = self.state.lock();
        while st.cmds.len() >= self.cap {
            st.backpressure = true;
            // A condvar wait atomically releases the guard for its whole
            // sleep; the textual rule cannot see that, so this is the
            // pattern's one sanctioned blocking point.
            // otae-lint: allow(no-blocking-under-lock)
            self.space.wait(&mut st);
        }
        st.cmds.push(cmd);
        std::mem::take(&mut st.writer_idle)
    }

    /// Writer side: swap the whole staged batch into `into` (which must
    /// be empty) and return true, or — when nothing is staged — set the
    /// idle flag, telling the next producer to wake us, and return
    /// false. Setting the flag and observing emptiness under one guard
    /// is what makes the sleep race-free: any push after this call sees
    /// the flag and sends the token. Finding the intake empty is also
    /// what ends a backpressure episode.
    pub(crate) fn steal_or_idle(&self, into: &mut Vec<T>) -> bool {
        debug_assert!(into.is_empty(), "steal target must be drained first");
        let mut st = self.state.lock();
        if st.cmds.is_empty() {
            st.writer_idle = true;
            st.backpressure = false;
            return false;
        }
        std::mem::swap(&mut st.cmds, into);
        self.space.notify_all();
        true
    }

    /// Writer side: unconditionally take whatever is staged (crash and
    /// shutdown drains), releasing any producer blocked on capacity.
    pub(crate) fn drain(&self) -> Vec<T> {
        let mut st = self.state.lock();
        self.space.notify_all();
        std::mem::take(&mut st.cmds)
    }

    /// Producer side: a buffer of at least `len` initialised bytes — the
    /// smallest pooled one that is long enough, else a fresh one — and
    /// whether the intake is under backpressure (the caller frames its own
    /// record when it is).
    pub(crate) fn checkout(&self, len: usize) -> (Vec<u8>, bool) {
        let (pooled, backpressure) = {
            let mut st = self.state.lock();
            let fit = st
                .pool
                .iter()
                .enumerate()
                .filter(|(_, buf)| buf.len() >= len)
                .min_by_key(|(_, buf)| buf.len())
                .map(|(i, _)| i);
            let pooled = fit.map(|i| {
                let buf = st.pool.swap_remove(i);
                st.pool_bytes -= buf.capacity();
                buf
            });
            (pooled, st.backpressure)
        };
        (pooled.unwrap_or_else(|| vec![0; len]), backpressure)
    }

    /// Writer side: hand spent record buffers back, leaving `spent` empty.
    /// What does not fit the pool's bounds is freed after the lock is
    /// released.
    pub(crate) fn recycle(&self, spent: &mut Vec<Vec<u8>>) {
        if spent.is_empty() {
            return;
        }
        let mut st = self.state.lock();
        for buf in spent.iter_mut() {
            if st.pool.len() >= self.pool_len_cap {
                break;
            }
            if st.pool_bytes + buf.capacity() <= self.pool_bytes_cap {
                st.pool_bytes += buf.capacity();
                st.pool.push(std::mem::take(buf));
            }
        }
        drop(st);
        spent.clear();
    }

    /// Whether a backpressure episode is open (see the module docs).
    #[cfg(test)]
    pub(crate) fn backpressure(&self) -> bool {
        self.state.lock().backpressure
    }

    /// Bytes the pool currently holds.
    #[cfg(test)]
    pub(crate) fn pool_bytes(&self) -> usize {
        self.state.lock().pool_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_reports_the_idle_transition_exactly_once() {
        let intake = Intake::new(8, 0, 0);
        let mut batch = Vec::new();
        assert!(!intake.steal_or_idle(&mut batch), "empty intake idles the writer");
        assert!(intake.push(1), "first push after idle owns the wake");
        assert!(!intake.push(2), "second push sees the flag already cleared");
        assert!(intake.steal_or_idle(&mut batch));
        assert_eq!(batch, [1, 2]);
    }

    #[test]
    fn steal_preserves_push_order_and_recycles_the_buffer() {
        let intake = Intake::new(16, 0, 0);
        for i in 0..10 {
            let _ = intake.push(i);
        }
        let mut batch = Vec::with_capacity(16);
        assert!(intake.steal_or_idle(&mut batch));
        assert_eq!(batch, (0..10).collect::<Vec<_>>());
        batch.clear();
        assert!(!intake.steal_or_idle(&mut batch), "stolen-empty intake idles");
    }

    #[test]
    fn full_intake_blocks_until_the_writer_steals() {
        let intake = Arc::new(Intake::new(2, 0, 0));
        let _ = intake.push(1);
        let _ = intake.push(2);
        let producer = {
            let intake = Arc::clone(&intake);
            std::thread::spawn(move || {
                let _ = intake.push(3); // blocks until a steal frees space
            })
        };
        let mut seen = Vec::new();
        let mut batch = Vec::new();
        while seen.len() < 3 {
            if intake.steal_or_idle(&mut batch) {
                seen.append(&mut batch);
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(seen, [1, 2, 3]);
    }

    #[test]
    fn backpressure_opens_on_a_waiting_push_and_closes_when_the_writer_runs_dry() {
        let intake = Arc::new(Intake::new(1, 0, 0));
        let _ = intake.push(1);
        assert!(!intake.backpressure(), "a push that found space is not backpressure");
        std::thread::scope(|scope| {
            // Nobody steals until the flag is up, so this push must wait.
            scope.spawn(|| {
                let _ = intake.push(2);
            });
            while !intake.backpressure() {
                std::thread::yield_now();
            }
            let mut batch = Vec::new();
            assert!(intake.steal_or_idle(&mut batch));
            assert_eq!(batch, [1]);
        });
        // The episode outlives steals that find work...
        let mut batch = Vec::new();
        assert!(intake.steal_or_idle(&mut batch));
        assert_eq!(batch, [2]);
        assert!(intake.checkout(0).1);
        // ... and ends when the writer finds nothing staged.
        batch.clear();
        assert!(!intake.steal_or_idle(&mut batch));
        assert!(!intake.checkout(0).1);
    }

    #[test]
    fn checkout_reuses_the_smallest_buffer_that_is_long_enough() {
        let intake = Intake::<()>::new(1, 1_000, 8);
        let mut spent = vec![vec![1u8; 100], vec![2u8; 300], vec![3u8; 200]];
        intake.recycle(&mut spent);
        assert!(spent.is_empty());
        assert_eq!(intake.pool_bytes(), 600);
        // Stale contents and full length come back: no zero-fill, no realloc.
        assert_eq!(intake.checkout(150).0, vec![3u8; 200]);
        // Nothing pooled is long enough: a fresh buffer of exactly the
        // asked length, and the short ones stay for shorter records.
        assert_eq!(intake.checkout(301).0, vec![0u8; 301]);
        assert_eq!(intake.pool_bytes(), 400);
        assert_eq!(intake.checkout(0).0, vec![1u8; 100]);
        assert_eq!(intake.checkout(0).0, vec![2u8; 300]);
        assert_eq!(intake.pool_bytes(), 0);
    }

    #[test]
    fn recycle_frees_what_exceeds_the_byte_or_count_bound() {
        let intake = Intake::<()>::new(1, 1_000, 3);
        let mut spent = vec![vec![0u8; 600], vec![0u8; 600], vec![0u8; 300]];
        intake.recycle(&mut spent);
        assert!(spent.is_empty(), "recycle always empties its input");
        assert_eq!(intake.pool_bytes(), 900, "the second 600 would pass 1000 bytes");
        let mut spent = vec![vec![0u8; 10], vec![0u8; 10]];
        intake.recycle(&mut spent);
        assert_eq!(intake.pool_bytes(), 910, "the count bound of 3 stops the fourth buffer");
    }

    #[test]
    fn drain_takes_everything_and_never_idles() {
        let intake = Intake::new(4, 0, 0);
        let _ = intake.push("a");
        assert_eq!(intake.drain(), ["a"]);
        assert!(intake.drain().is_empty());
        // A drain on an empty intake must not set the idle flag: the
        // next push owes no token.
        assert!(!intake.push("b"));
    }
}
