//! Trace-replay load generation: M client threads submitting prepared
//! requests into the service's bounded queue at a target aggregate QPS.

use crate::clock::ClockHandle;
use crate::fault::{FaultPlan, SampleFault};
use crate::intake::Producer;
use crate::request::PreparedRequest;
use crate::retrainer::{TrainBatch, TrainMsg};
use crossbeam::channel::Sender;
use otae_core::N_FEATURES;
use std::time::Duration;

/// Samples buffered per client before a flush onto the retrainer channel.
/// One channel send (a mutex acquisition plus a condvar wake of the
/// retrainer thread) per `SAMPLE_FLUSH` submitted requests instead of per
/// request; at the measured serve throughput that wake is the dominant
/// per-request cost of background training, not the sample itself.
pub const SAMPLE_FLUSH: usize = 64;

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
/// `client + n_clients`, …) into the request queue, pacing to its share of
/// the aggregate QPS target. Requests are queued by reference: the prepared
/// trace outlives every client and worker thread of the run, so nothing is
/// copied per request.
///
/// When `samples` is set (background-trainer Proposal runs), each submitted
/// request is also forwarded to the retrainer, tying training progress to
/// replay progress the way a production log tailer tails live traffic.
/// Forwarding is buffered: surviving samples accumulate client-side and
/// flush as one [`TrainBatch`] every [`SAMPLE_FLUSH`] requests (and at
/// replay end), so per-client message order is preserved while the channel
/// — and the retrainer wake-up behind it — is paid once per flush. The
/// retrainer hanging up (its receiver dropped, its thread dead) only stops
/// the forwarding — replay itself continues, which is exactly the graceful
/// degradation the harness asserts.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replay_client<'a>(
    client: usize,
    n_clients: usize,
    prepared: &'a [PreparedRequest],
    load: &LoadConfig,
    clock: &ClockHandle,
    requests: &Producer<&'a PreparedRequest>,
    samples: Option<&Sender<TrainBatch>>,
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
            let mut msg = TrainMsg { ts: req.ts, features: req.features, one_time: req.truth };
            match plan.sample_fault(req.idx) {
                SampleFault::Deliver => sample_buf.push(msg),
                SampleFault::Drop => report.dropped_samples += 1,
                SampleFault::Corrupt => {
                    // Finite garbage (the ML layer rejects NaN by contract)
                    // with a flipped label: a corrupt record that parsed.
                    msg.features = [f32::MAX; N_FEATURES];
                    msg.one_time = !msg.one_time;
                    report.corrupted_samples += 1;
                    sample_buf.push(msg);
                }
            }
            if sample_buf.len() >= SAMPLE_FLUSH {
                let _ = samples.send(std::mem::replace(
                    &mut sample_buf,
                    TrainBatch::with_capacity(SAMPLE_FLUSH),
                ));
            }
        }
        if requests.push(req).is_err() {
            break; // all workers gone; nothing left to do
        }
        report.submitted += 1;
    }
    if let (Some(samples), false) = (samples, sample_buf.is_empty()) {
        let _ = samples.send(sample_buf);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ServiceClock;
    use crate::fault::NoFaults;
    use crate::intake::{bounded, Consumer};
    use crate::request::ModelSource;
    use crossbeam::channel::unbounded;
    use otae_trace::ObjectId;
    use std::time::Instant;

    fn prepared(n: usize) -> Vec<PreparedRequest> {
        (0..n)
            .map(|i| PreparedRequest {
                idx: i as u64,
                ts: i as u64,
                object: ObjectId(i as u32),
                size: 1,
                features: [0.0; otae_core::N_FEATURES],
                truth: false,
                model: ModelSource::Stamped { model: None },
            })
            .collect()
    }

    /// A request queue deep enough to hold all of `reqs`, so a test can run
    /// the client to completion before draining on the same thread.
    fn queue(reqs: &[PreparedRequest]) -> (Producer<&PreparedRequest>, Consumer<&PreparedRequest>) {
        bounded(reqs.len())
    }

    /// Everything queued, in order (call after the last producer dropped).
    fn drain<'a>(rx: &Consumer<&'a PreparedRequest>) -> Vec<&'a PreparedRequest> {
        let (mut all, mut batch) = (Vec::new(), Vec::new());
        while rx.pop_batch(&mut batch, 64) {
            all.append(&mut batch);
        }
        all
    }

    #[test]
    fn strides_partition_the_trace() {
        let reqs = prepared(10);
        let (tx, rx) = queue(&reqs);
        let load = LoadConfig::default();
        let clock = ServiceClock::Wall.start();
        let mut total = 0;
        for c in 0..3 {
            total += replay_client(c, 3, &reqs, &load, &clock, &tx, None, &NoFaults).submitted;
        }
        drop(tx);
        assert_eq!(total, 10);
        let mut seen: Vec<u64> = drain(&rx).iter().map(|r| r.idx).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
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
        let (stx, srx) = unbounded();
        let clock = ServiceClock::Wall.start();
        let report =
            replay_client(0, 1, &reqs, &LoadConfig::default(), &clock, &tx, Some(&stx), &NoFaults);
        drop(tx);
        drop(stx);
        assert_eq!(report.submitted, 20);
        assert_eq!(drain(&rx).len(), 20);
        assert_eq!(srx.iter().flatten().count(), 20);
    }

    /// Flush batching is a transport detail: full flushes carry exactly
    /// `SAMPLE_FLUSH` messages, the tail flush carries the remainder, and
    /// the flattened stream preserves the client's submission order.
    #[test]
    fn sample_flushes_are_bounded_and_ordered() {
        let n = 2 * SAMPLE_FLUSH + 17;
        let reqs = prepared(n);
        let (tx, rx) = queue(&reqs);
        let (stx, srx) = unbounded();
        let clock = ServiceClock::Wall.start();
        let report =
            replay_client(0, 1, &reqs, &LoadConfig::default(), &clock, &tx, Some(&stx), &NoFaults);
        drop(tx);
        drop(stx);
        assert_eq!(report.submitted, n as u64);
        assert_eq!(drain(&rx).len(), n);
        let batches: Vec<TrainBatch> = srx.iter().collect();
        assert_eq!(batches.len(), 3, "two full flushes plus the tail");
        assert_eq!(batches[0].len(), SAMPLE_FLUSH);
        assert_eq!(batches[1].len(), SAMPLE_FLUSH);
        assert_eq!(batches[2].len(), 17);
        let ts: Vec<u64> = batches.iter().flatten().map(|m| m.ts).collect();
        assert_eq!(ts, (0..n as u64).collect::<Vec<_>>(), "order survives batching");
    }

    /// The satellite invariant: a hung-up retrainer (its receiver gone) must
    /// not panic or stall the client — replay completes and every request is
    /// still submitted.
    #[test]
    fn hung_up_retrainer_does_not_stop_replay() {
        let reqs = prepared(50);
        let (tx, rx) = queue(&reqs);
        let (stx, srx) = unbounded();
        drop(srx); // retrainer is gone before the replay starts
        let clock = ServiceClock::Wall.start();
        let report =
            replay_client(0, 1, &reqs, &LoadConfig::default(), &clock, &tx, Some(&stx), &NoFaults);
        assert_eq!(report.submitted, 50);
        drop(tx);
        assert_eq!(drain(&rx).len(), 50);
    }

    /// Scripted sample faults: drops and corruptions are tallied and only
    /// surviving samples reach the retrainer channel.
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
        let (stx, srx) = unbounded();
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
        let delivered: Vec<TrainMsg> = srx.iter().flatten().collect();
        assert_eq!(delivered.len(), 20, "dropped samples never reach the channel");
        let corrupted = delivered.iter().filter(|m| m.features == [f32::MAX; N_FEATURES]).count();
        assert_eq!(corrupted, 10);
    }
}
