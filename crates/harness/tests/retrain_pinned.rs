//! The background retrainer under the harness's fault plans, pinned: one
//! client's sample stream (the plan's drops and corruptions applied, in
//! trace order, queued in full before the retrainer starts) drives
//! `run_retrainer`, and the whole `RetrainerReport` plus a digest of every
//! tree the gate held is compared against values recorded when a failed
//! training was still fitted before it was thrown away. Asking the plan
//! before fitting must change neither.

use otae_core::pipeline::{Mode, PolicyKind};
use otae_core::{resolve_criteria, ReaccessIndex};
use otae_harness::{case_trace, FaultSchedule, ScriptedPlan};
use otae_serve::{
    prepare, run_retrainer, AdmissionGate, FaultPlan, RetrainFault, RetrainerReport, SampleFault,
    SampleRef, ServeConfig, SwapFault, TrainerMode, SAMPLE_FLUSH,
};
use otae_store::intake;
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV-1a step over `bytes`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A scripted plan that also folds the gate's model into a running digest
/// each time an install is attempted: the sequence of models the gate held.
#[derive(Debug)]
struct Recording<'a> {
    plan: ScriptedPlan,
    gate: &'a AdmissionGate,
    digest: AtomicU64,
}

impl Recording<'_> {
    fn fold_gate(&self) {
        let bytes = self.gate.current().map_or_else(Vec::new, |m| m.tree().to_bytes());
        let h = fnv(self.digest.load(Ordering::Relaxed), &bytes);
        self.digest.store(fnv(h, &[0xFF]), Ordering::Relaxed);
    }
}

impl FaultPlan for Recording<'_> {
    fn sample_fault(&self, idx: u64) -> SampleFault {
        self.plan.sample_fault(idx)
    }
    fn retrain_fault(&self, attempt: u32) -> RetrainFault {
        self.plan.retrain_fault(attempt)
    }
    fn swap_fault(&self, attempt: u64) -> SwapFault {
        self.fold_gate();
        self.plan.swap_fault(attempt)
    }
}

/// The retrainer's report and the digest of the models its gate held, for
/// one plan over the seed-17 trace of 4 000 objects.
fn retrain_under(schedule: &FaultSchedule) -> (RetrainerReport, u64) {
    let trace = case_trace(17, 4_000);
    let index = ReaccessIndex::build(&trace);
    let capacity = (trace.unique_bytes() as f64 * 0.02) as u64;
    let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::Proposal, capacity);
    cfg.trainer = TrainerMode::Background;
    let (_, m) = resolve_criteria(&trace, &index, cfg.policy, capacity, None);
    let v = cfg.training.cost.resolve(capacity, trace.unique_bytes());
    let gate = AdmissionGate::new();
    let prepared = prepare(&trace, &index, &cfg, &gate, m, v);
    let plan = Recording {
        plan: schedule.compile(),
        gate: &gate,
        digest: AtomicU64::new(0xcbf2_9ce4_8422_2325),
    };

    let samples: Vec<SampleRef> = prepared
        .requests
        .iter()
        .filter_map(|r| match plan.sample_fault(u64::from(r.idx)) {
            SampleFault::Drop => None,
            SampleFault::Corrupt => Some(SampleRef { idx: r.idx, corrupt: true }),
            SampleFault::Deliver => Some(SampleRef { idx: r.idx, corrupt: false }),
        })
        .collect();
    let (tx, rx) = intake::bounded(samples.len().div_ceil(SAMPLE_FLUSH), ());
    for batch in samples.chunks(SAMPLE_FLUSH) {
        tx.push(batch.to_vec()).expect("consumer alive");
    }
    drop(tx);
    let report = run_retrainer(rx, &prepared, &gate, cfg.training.clone(), v, &plan);
    plan.fold_gate();
    (report, plan.digest.load(Ordering::Relaxed))
}

/// `(plan, [trainings, installs, failed, deferred, dropped_installs],
/// [install_backlog_max, install_backlog_total], digest)`.
type Pinned = (&'static str, [u32; 5], [u64; 2], u64);

const PINNED: [Pinned; 10] = [
    ("clean", [8, 8, 0, 0, 0], [18_112, 82_176], 0xD4E1_3578_BD56_FD5B),
    ("training-outage", [8, 0, 8, 0, 0], [0, 0], 0xAF64_724C_8602_EB6E),
    ("lossy-samples", [8, 7, 0, 0, 1], [12_096, 44_032], 0x84AE_22F0_7AB9_09BD),
    ("stalled-swaps", [8, 7, 1, 2, 0], [14_080, 59_968], 0xB405_2CB1_1335_586C),
    ("shard-chaos", [8, 7, 0, 0, 1], [16_192, 64_064], 0x7E4D_4E0F_9AEE_714C),
    ("seeded:5", [8, 5, 3, 0, 0], [16_192, 38_592], 0x566A_F2FE_676A_3DA4),
    ("seeded:11", [8, 5, 1, 0, 2], [10_816, 25_920], 0x49DE_457B_3589_933A),
    ("seeded:20", [8, 7, 1, 1, 0], [18_112, 63_936], 0xB7EF_BE42_0941_2C12),
    ("seeded:21", [8, 7, 0, 1, 1], [16_576, 61_632], 0xA4B5_D949_174A_F24B),
    ("seeded:28", [8, 6, 1, 1, 1], [16_192, 52_480], 0x2FCB_9222_85FD_ADBF),
];

#[test]
fn retrainer_reports_and_installed_trees_are_pinned() {
    let got: Vec<Pinned> = PINNED
        .iter()
        .map(|&(name, ..)| {
            let schedule = FaultSchedule::parse(name).expect("known plan");
            let (report, digest) = retrain_under(&schedule);
            let RetrainerReport {
                trainings,
                installs,
                failed,
                deferred,
                dropped_installs,
                install_backlog_max,
                install_backlog_total,
            } = report;
            assert_eq!(installs + failed + dropped_installs, trainings, "{name}: {report:?}");
            let counts = [trainings, installs, failed, deferred, dropped_installs];
            (name, counts, [install_backlog_max, install_backlog_total], digest)
        })
        .collect();
    assert_eq!(got, PINNED);
}
