//! Trace-replay load generation: M client threads submitting prepared
//! requests at a target aggregate QPS, each request routed to the bounded
//! queue of the worker that owns its shard.

use crate::clock::ClockHandle;
use crate::fault::{FaultPlan, SampleFault};
use crate::request::PreparedRequest;
use crate::retrainer::{SampleRef, TrainBatch};
use crate::shard::shard_of;
use otae_store::intake::{self, Consumer, Producer};
use std::time::Duration;

/// Samples buffered per client before a flush onto the retrainer's sample
/// queue. One push (a lock acquisition, plus a wake when the retrainer is
/// parked) per `SAMPLE_FLUSH` submitted requests instead of per request; at
/// the measured serve throughput that wake is the dominant per-request cost
/// of background training, not the sample itself.
pub const SAMPLE_FLUSH: usize = 64;

/// Bound of the retrainer's sample queue when `clients` replay `requests`
/// requests: every batch they can flush — a full one per [`SAMPLE_FLUSH`]
/// forwarded samples plus one partial tail per client — so a client never
/// waits on a fit.
pub(crate) fn sample_queue_bound(requests: usize, clients: usize) -> usize {
    requests.div_ceil(SAMPLE_FLUSH) + clients
}

/// Load-generator settings.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Number of client threads replaying the trace.
    pub clients: usize,
    /// Aggregate target request rate; `0` replays as fast as possible.
    pub target_qps: f64,
    /// Stop submitting after this much clock time (`None` = replay the
    /// whole trace). Measured against the run's [`ClockHandle`], so virtual
    /// clocks only trip the cap when paced sleeps advance them.
    pub duration: Option<Duration>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self { clients: 1, target_qps: 0.0, duration: None }
    }
}

/// A client's view of the workers' queues: the submitting half of every
/// queue plus, per shard, the queue of the worker that owns it. Cloned once
/// per client thread; the last clone to drop hangs up every queue.
#[derive(Clone)]
pub(crate) struct Router<'a> {
    queues: Vec<Producer<&'a PreparedRequest>>,
    /// `owner[s]` indexes `queues`: the worker shard `s` belongs to.
    owner: Vec<usize>,
}

impl<'a> Router<'a> {
    /// One queue of `queue_depth` per run of `chunk` shards, and the router
    /// over them: worker `w` — the consumer at index `w` — owns the shards
    /// starting at `w * chunk`, the split `chunks_mut(chunk)` hands the
    /// workers themselves.
    pub(crate) fn bounded(
        n_shards: usize,
        chunk: usize,
        queue_depth: usize,
    ) -> (Self, Vec<Consumer<&'a PreparedRequest>>) {
        let (queues, consumers) =
            (0..n_shards.div_ceil(chunk)).map(|_| intake::bounded(queue_depth, ())).unzip();
        (Self { queues, owner: (0..n_shards).map(|s| s / chunk).collect() }, consumers)
    }

    /// Queue `req` with the worker that owns its shard, blocking while that
    /// queue is full. With a single queue nothing is hashed. Fails once the
    /// owning worker is gone.
    #[inline]
    pub(crate) fn push(&self, req: &'a PreparedRequest) -> Result<(), &'a PreparedRequest> {
        match self.queues.as_slice() {
            [only] => only.push(req),
            queues => queues[self.owner[shard_of(req.object, self.owner.len())]].push(req),
        }
    }
}

/// What one client thread did.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ClientReport {
    /// Requests submitted into the queue.
    pub submitted: u64,
    /// Training samples dropped by the fault plan.
    pub dropped_samples: u64,
    /// Training samples forwarded corrupted by the fault plan.
    pub corrupted_samples: u64,
}

/// Replay `client`'s stride of the prepared trace (requests `client`,
/// `client + n_clients`, …) into the workers' queues, pacing to its share of
/// the aggregate QPS target. Requests are queued by reference: the prepared
/// trace outlives every client and worker thread of the run, so nothing is
/// copied per request.
///
/// When `samples` is set (background-trainer Proposal runs), each submitted
/// request is also forwarded to the retrainer — by position, with the fault
/// plan's verdict; the retrainer reads the sample itself from the prepared
/// trace — tying training progress to replay progress the way a production
/// log tailer tails live traffic. Drops and corruptions are tallied here.
/// Forwarding is buffered: surviving samples accumulate client-side and
/// flush as one [`TrainBatch`] every [`SAMPLE_FLUSH`] requests (and at
/// replay end), so per-client message order is preserved while the queue
/// — and the retrainer wake-up behind it — is paid once per flush. The
/// queue holds every batch the replay can flush ([`sample_queue_bound`]), so
/// a flush never blocks. The retrainer hanging up (its consumer dropped,
/// its thread dead) only stops the forwarding — replay itself continues,
/// which is exactly the graceful degradation the harness asserts.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replay_client<'a>(
    client: usize,
    n_clients: usize,
    prepared: &'a [PreparedRequest],
    load: &LoadConfig,
    clock: &ClockHandle,
    requests: &Router<'a>,
    samples: Option<&Producer<TrainBatch>>,
    plan: &dyn FaultPlan,
) -> ClientReport {
    let per_client_qps =
        if load.target_qps > 0.0 { load.target_qps / n_clients as f64 } else { 0.0 };
    let mut report = ClientReport::default();
    let mut sample_buf =
        TrainBatch::with_capacity(if samples.is_some() { SAMPLE_FLUSH } else { 0 });
    for req in prepared.iter().skip(client).step_by(n_clients) {
        if let Some(deadline) = load.duration {
            if clock.elapsed() >= deadline {
                break;
            }
        }
        if per_client_qps > 0.0 {
            // Open-loop pacing against the schedule, never sleeping past a
            // missed slot (so a stalled queue doesn't compound lag).
            clock.sleep_until(Duration::from_secs_f64(report.submitted as f64 / per_client_qps));
        }
        if let Some(samples) = samples {
            match plan.sample_fault(u64::from(req.idx)) {
                SampleFault::Deliver => sample_buf.push(SampleRef { idx: req.idx, corrupt: false }),
                SampleFault::Drop => report.dropped_samples += 1,
                SampleFault::Corrupt => {
                    report.corrupted_samples += 1;
                    sample_buf.push(SampleRef { idx: req.idx, corrupt: true });
                }
            }
            if sample_buf.len() >= SAMPLE_FLUSH {
                let _ = samples.push(std::mem::replace(
                    &mut sample_buf,
                    TrainBatch::with_capacity(SAMPLE_FLUSH),
                ));
            }
        }
        if requests.push(req).is_err() {
            break; // the owning worker is gone; nothing left to do
        }
        report.submitted += 1;
    }
    if let (Some(samples), false) = (samples, sample_buf.is_empty()) {
        let _ = samples.push(sample_buf);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ServiceClock;
    use crate::fault::NoFaults;
    use crate::request::{ModelSource, PreparedTrace};
    use crate::service::shards_per_worker;
    use otae_core::N_FEATURES;
    use otae_store::intake::IntakeStats;
    use std::sync::Arc;
    use std::time::Instant;

    fn prepared(n: u32) -> Vec<PreparedRequest> {
        (0..n).map(|i| crate::shard::tests::prepared(i, i, 1, i % 2 == 0)).collect()
    }

    /// One worker's queue, deep enough to hold all of `reqs`, so a test
    /// can run the client to completion before draining on the same thread.
    fn queue(reqs: &[PreparedRequest]) -> (Router<'_>, Consumer<&PreparedRequest>) {
        let (router, mut rxs) = Router::bounded(1, 1, reqs.len());
        (router, rxs.pop().expect("one queue"))
    }

    /// A sample queue as the service sizes it for one client replaying `reqs`.
    fn sample_queue(reqs: &[PreparedRequest]) -> (Producer<TrainBatch>, Consumer<TrainBatch>) {
        intake::bounded(sample_queue_bound(reqs.len(), 1), ())
    }

    /// Everything queued, in order (call after the last producer dropped).
    fn drain<T>(rx: &Consumer<T>) -> Vec<T> {
        let (mut all, mut batch) = (Vec::new(), Vec::new());
        while rx.pop_batch(&mut batch, 64) {
            all.append(&mut batch);
        }
        all
    }

    /// Three clients' strides cover the trace exactly once, and every
    /// request lands in the queue of the worker that owns its shard — one
    /// queue per run of `chunk` shards, never more queues than shards — with
    /// each client's requests in trace order inside each queue.
    #[test]
    fn strides_partition_the_trace() {
        let reqs = prepared(1000);
        let load = LoadConfig::default();
        let clock = ServiceClock::Wall.start();
        for (shards, workers) in [(1usize, 1usize), (4, 4), (5, 3), (2, 4), (8, 2)] {
            let chunk = shards_per_worker(shards, workers);
            let (router, rxs) = Router::bounded(shards, chunk, reqs.len());
            assert!(rxs.len() <= workers.min(shards));
            let mut total = 0;
            for c in 0..3 {
                total +=
                    replay_client(c, 3, &reqs, &load, &clock, &router, None, &NoFaults).submitted;
            }
            drop(router);
            assert_eq!(total, 1000);
            let mut seen = Vec::new();
            for (w, rx) in rxs.iter().enumerate() {
                let queued = drain(rx);
                assert!(!queued.is_empty(), "{shards}x{workers}: queue {w} never used");
                let mut last = [None::<u32>; 3];
                for r in &queued {
                    let topology = format!("{shards}x{workers}");
                    assert_eq!(shard_of(r.object, shards) / chunk, w, "{topology}: wrong owner");
                    let client = (r.idx % 3) as usize;
                    assert!(last[client] < Some(r.idx), "{topology}: client {client} reordered");
                    last[client] = Some(r.idx);
                }
                seen.extend(queued.iter().map(|r| r.idx));
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..1000).collect::<Vec<_>>(), "{shards}x{workers}");
        }
    }

    #[test]
    fn qps_pacing_slows_submission() {
        let reqs = prepared(8);
        let (tx, rx) = queue(&reqs);
        // 100 QPS over 8 requests ≈ 70ms minimum (first slot fires at t=0).
        let load = LoadConfig { clients: 1, target_qps: 100.0, duration: None };
        let clock = ServiceClock::Wall.start();
        let start = Instant::now();
        let sent = replay_client(0, 1, &reqs, &load, &clock, &tx, None, &NoFaults).submitted;
        let took = start.elapsed();
        assert_eq!(sent, 8);
        assert!(took >= Duration::from_millis(60), "paced replay took {took:?}");
        drop(tx);
        assert_eq!(drain(&rx).len(), 8);
    }

    #[test]
    fn virtual_clock_pacing_is_instant() {
        let reqs = prepared(1000);
        let (tx, rx) = queue(&reqs);
        // 10 QPS over 1000 requests would take ~100 wall seconds.
        let load = LoadConfig { clients: 1, target_qps: 10.0, duration: None };
        let clock = ServiceClock::Virtual(crate::clock::VirtualClock::new()).start();
        let start = Instant::now();
        let sent = replay_client(0, 1, &reqs, &load, &clock, &tx, None, &NoFaults).submitted;
        assert_eq!(sent, 1000);
        assert!(start.elapsed() < Duration::from_secs(10), "virtual pacing must not sleep");
        // Virtual time advanced along the pacing schedule.
        assert!(clock.elapsed() >= Duration::from_secs(99));
        drop(tx);
        assert_eq!(drain(&rx).len(), 1000);
    }

    #[test]
    fn deadline_stops_replay_early() {
        let reqs = prepared(100_000);
        let (tx, rx) = queue(&reqs);
        let load =
            LoadConfig { clients: 1, target_qps: 50.0, duration: Some(Duration::from_millis(50)) };
        let clock = ServiceClock::Wall.start();
        let sent = replay_client(0, 1, &reqs, &load, &clock, &tx, None, &NoFaults).submitted;
        assert!(sent < 100_000, "deadline must cut the replay short");
        drop(tx);
        assert_eq!(drain(&rx).len() as u64, sent);
    }

    #[test]
    fn sample_forwarding_mirrors_submissions() {
        let reqs = prepared(20);
        let (tx, rx) = queue(&reqs);
        let (stx, srx) = sample_queue(&reqs);
        let clock = ServiceClock::Wall.start();
        let report =
            replay_client(0, 1, &reqs, &LoadConfig::default(), &clock, &tx, Some(&stx), &NoFaults);
        drop(tx);
        drop(stx);
        assert_eq!(report.submitted, 20);
        assert_eq!(drain(&rx).len(), 20);
        assert_eq!(drain(&srx).iter().flatten().count(), 20);
    }

    /// Flush batching is a transport detail: full flushes carry exactly
    /// `SAMPLE_FLUSH` messages, the tail flush carries the remainder, and
    /// the flattened stream preserves the client's submission order.
    #[test]
    fn sample_flushes_are_bounded_and_ordered() {
        let n = 2 * SAMPLE_FLUSH + 17;
        let reqs = prepared(n as u32);
        let (tx, rx) = queue(&reqs);
        let (stx, srx) = sample_queue(&reqs);
        let clock = ServiceClock::Wall.start();
        let report =
            replay_client(0, 1, &reqs, &LoadConfig::default(), &clock, &tx, Some(&stx), &NoFaults);
        drop(tx);
        drop(stx);
        assert_eq!(report.submitted, n as u64);
        assert_eq!(drain(&rx).len(), n);
        let batches = drain(&srx);
        assert_eq!(batches.len(), 3, "two full flushes plus the tail");
        assert_eq!(batches[0].len(), SAMPLE_FLUSH);
        assert_eq!(batches[1].len(), SAMPLE_FLUSH);
        assert_eq!(batches[2].len(), 17);
        let idx: Vec<u32> = batches.iter().flatten().map(|m| m.idx).collect();
        assert_eq!(idx, (0..n as u32).collect::<Vec<_>>(), "order survives batching");
    }

    /// `clients` clients replaying `n` requests one after another, with
    /// samples, into a sample queue of `bound` batches that nothing drains:
    /// the requests submitted and the sample queue's counters.
    fn replay_undrained(n: u32, clients: usize, bound: usize) -> (u64, IntakeStats) {
        let reqs = prepared(n);
        let (tx, _rx) = queue(&reqs);
        let (stx, srx) = intake::bounded(bound, ());
        let clock = ServiceClock::Wall.start();
        let load = LoadConfig { clients, ..LoadConfig::default() };
        let mut submitted = 0;
        for c in 0..clients {
            let r = replay_client(c, clients, &reqs, &load, &clock, &tx, Some(&stx), &NoFaults);
            submitted += r.submitted;
        }
        (submitted, srx.stats())
    }

    /// The sample queue's bound holds every batch a replay flushes: one to
    /// three clients, run one after another into a queue sized as the
    /// service sizes it, never park a push, and the queue never holds more
    /// than the bound. The replay runs on a detached thread, so a push that
    /// parks fails the deadline instead of hanging the test.
    #[test]
    fn the_sample_queue_holds_every_flush_of_a_replay() {
        for clients in 1..=3usize {
            for n in [0u32, 1, 63, 64, 65, 1000] {
                let bound = sample_queue_bound(n as usize, clients);
                let (done_tx, done_rx) = std::sync::mpsc::sync_channel(1);
                std::thread::spawn(move || done_tx.send(replay_undrained(n, clients, bound)));
                let (submitted, stats) = done_rx
                    .recv_timeout(Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("{clients} clients, {n} requests: a push parked"));
                assert_eq!(submitted, u64::from(n));
                // Client `c`'s stride is requests c, c + clients, …
                let flushes: u64 = (0..clients as u32)
                    .map(|c| u64::from(n.saturating_sub(c).div_ceil(clients as u32)))
                    .map(|stride| stride.div_ceil(SAMPLE_FLUSH as u64))
                    .sum();
                let at = format!("{clients} clients, {n} requests, bound {bound}");
                assert_eq!(stats.producer_parks, 0, "{at}");
                assert_eq!((stats.pushes, stats.high_water), (flushes, flushes), "{at}");
                assert!(stats.high_water <= bound as u64, "{at}");
            }
        }
    }

    /// The satellite invariant: a hung-up retrainer (its receiver gone) must
    /// not panic or stall the client — replay completes and every request is
    /// still submitted.
    #[test]
    fn hung_up_retrainer_does_not_stop_replay() {
        let reqs = prepared(50);
        let (tx, rx) = queue(&reqs);
        let (stx, srx) = sample_queue(&reqs);
        drop(srx); // retrainer is gone before the replay starts
        let clock = ServiceClock::Wall.start();
        let report =
            replay_client(0, 1, &reqs, &LoadConfig::default(), &clock, &tx, Some(&stx), &NoFaults);
        assert_eq!(report.submitted, 50);
        drop(tx);
        assert_eq!(drain(&rx).len(), 50);
    }

    /// Scripted sample faults: drops and corruptions are tallied, only
    /// surviving samples reach the retrainer queue, and the corrupted ones
    /// reach the sampler as finite garbage with flipped labels.
    #[test]
    fn sample_faults_are_applied_and_tallied() {
        #[derive(Debug)]
        struct EveryOther;
        impl FaultPlan for EveryOther {
            fn sample_fault(&self, idx: u64) -> SampleFault {
                match idx % 3 {
                    0 => SampleFault::Drop,
                    1 => SampleFault::Corrupt,
                    _ => SampleFault::Deliver,
                }
            }
        }
        let reqs = prepared(30);
        let (tx, rx) = queue(&reqs);
        let (stx, srx) = sample_queue(&reqs);
        let clock = ServiceClock::Wall.start();
        let report = replay_client(
            0,
            1,
            &reqs,
            &LoadConfig::default(),
            &clock,
            &tx,
            Some(&stx),
            &EveryOther,
        );
        drop(tx);
        drop(stx);
        assert_eq!(report.submitted, 30, "request path is unaffected by sample faults");
        assert_eq!(report.dropped_samples, 10);
        assert_eq!(report.corrupted_samples, 10);
        assert_eq!(drain(&rx).len(), 30);
        let delivered: Vec<SampleRef> = drain(&srx).into_iter().flatten().collect();
        assert_eq!(delivered.len(), 20, "dropped samples never reach the queue");
        assert!(delivered.iter().all(|m| m.idx % 3 != 0));
        let corrupted: Vec<u32> = delivered.iter().filter(|m| m.corrupt).map(|m| m.idx).collect();
        assert_eq!(corrupted, (0..10).map(|i| 3 * i + 1).collect::<Vec<_>>());
        // What the retrainer then offers its sampler.
        let trace = PreparedTrace {
            requests: reqs.clone(),
            features: Arc::new((0..30).map(|i| [i as f32; N_FEATURES]).collect()),
            models: ModelSource::Gate,
            trainings: 0,
            dropped_installs: 0,
        };
        for m in delivered {
            let r = reqs[m.idx as usize];
            let (ts, features, one_time) = m.read(&trace);
            assert_eq!(ts, r.ts);
            if m.corrupt {
                assert_eq!((features, one_time), ([f32::MAX; N_FEATURES], !r.truth));
            } else {
                assert_eq!((features, one_time), ([m.idx as f32; N_FEATURES], r.truth));
            }
        }
    }
}
