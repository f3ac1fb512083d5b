//! Scripted fault schedules: a declarative list of [`Fault`]s compiled into
//! a [`ScriptedPlan`] that the service consults at its injection seams.
//!
//! Everything here is a pure function of the schedule (and, for generated
//! schedules, of the seed), keyed on stable identifiers — trace position,
//! training attempt, install attempt — never on wall time or thread
//! interleaving. A failing case therefore replays exactly from its printed
//! seed and schedule.

use otae_serve::{FaultPlan, RetrainFault, SampleFault, SwapFault};

/// One scripted fault. Positions are trace indices (`idx`), training
/// attempts are 0-based per completed daily training, install attempts are
/// 0-based per model reaching the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Drop training samples at `idx ∈ [from, to)` with `idx ≡ from (mod
    /// every)` — a lossy sample channel / dropped sample batch.
    DropSamples {
        /// First affected trace position.
        from: u64,
        /// One past the last affected position.
        to: u64,
        /// Stride between dropped samples (1 = a contiguous outage).
        every: u64,
    },
    /// Corrupt training samples on the same `[from, to)`/`every` pattern —
    /// a codec bit-flip surviving into the training path (finite garbage
    /// features, flipped label).
    CorruptSamples {
        /// First affected trace position.
        from: u64,
        /// One past the last affected position.
        to: u64,
        /// Stride between corrupted samples.
        every: u64,
    },
    /// Daily training `attempt` dies before it fits: no model that day.
    FailRetrain {
        /// 0-based training attempt.
        attempt: u32,
    },
    /// Daily training `attempt` stalls: its install lands only after the
    /// retrainer sees `messages` further samples (or the stream ends).
    StallRetrain {
        /// 0-based training attempt.
        attempt: u32,
        /// Samples to hold the install for.
        messages: u64,
    },
    /// Install `attempt` is lost at the gate: the previous model keeps
    /// serving.
    DropSwap {
        /// 0-based install attempt.
        attempt: u64,
    },
    /// Panic whichever shard handles request `idx` for the first `times`
    /// positions with `idx ≡ 0 (mod every)`; the worker recovers each time.
    ShardPanic {
        /// Stride between panicking positions.
        every: u64,
        /// Number of panics to inject.
        times: u64,
    },
}

/// A named, replayable schedule of faults for one harness case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Replay handle: either a plan name (`"training-outage"`) or
    /// `"seeded:<n>"` for generated schedules.
    pub name: String,
    /// The scripted faults, consulted in order (first match wins).
    pub faults: Vec<Fault>,
}

impl std::fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {:?}", self.name, self.faults)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultSchedule {
    /// The no-fault schedule (control case).
    pub fn clean() -> Self {
        Self { name: "clean".into(), faults: Vec::new() }
    }

    /// All named plans, the fault taxonomy's canonical scenarios.
    pub fn named() -> Vec<Self> {
        vec![
            Self::clean(),
            Self {
                // Every training job dies and half the samples are lost:
                // the gate stays cold, the service must behave as admit-all.
                name: "training-outage".into(),
                faults: (0..32)
                    .map(|a| Fault::FailRetrain { attempt: a })
                    .chain([Fault::DropSamples { from: 0, to: u64::MAX, every: 2 }])
                    .collect(),
            },
            Self {
                // A lossy, corrupting sample channel plus one lost install.
                name: "lossy-samples".into(),
                faults: vec![
                    Fault::DropSamples { from: 1_000, to: 30_000, every: 3 },
                    Fault::CorruptSamples { from: 500, to: 60_000, every: 7 },
                    Fault::DropSwap { attempt: 1 },
                ],
            },
            Self {
                // Slow training jobs: every early install stalls, one fails.
                name: "stalled-swaps".into(),
                faults: vec![
                    Fault::StallRetrain { attempt: 0, messages: 4_000 },
                    Fault::StallRetrain { attempt: 2, messages: 2_000 },
                    Fault::FailRetrain { attempt: 1 },
                ],
            },
            Self {
                // Repeated shard panics under load, with training faults on
                // the side.
                name: "shard-chaos".into(),
                faults: vec![
                    Fault::ShardPanic { every: 997, times: 25 },
                    Fault::CorruptSamples { from: 0, to: u64::MAX, every: 11 },
                    Fault::DropSwap { attempt: 0 },
                ],
            },
        ]
    }

    /// Look a named plan up.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::named().into_iter().find(|p| p.name == name)
    }

    /// Generate a schedule from a seed: 2–5 faults with seed-chosen
    /// parameters. The same seed always yields the same schedule.
    pub fn seeded(seed: u64) -> Self {
        let mut state = seed ^ 0x6661_756c_7470_6c61; // "faultpla"
        let n = 2 + (splitmix64(&mut state) % 4) as usize;
        let faults = (0..n)
            .map(|_| {
                let r = splitmix64(&mut state);
                let p = splitmix64(&mut state);
                match r % 6 {
                    0 => {
                        let from = p % 20_000;
                        Fault::DropSamples {
                            from,
                            to: from + 1 + splitmix64(&mut state) % 40_000,
                            every: 1 + splitmix64(&mut state) % 5,
                        }
                    }
                    1 => {
                        let from = p % 20_000;
                        Fault::CorruptSamples {
                            from,
                            to: from + 1 + splitmix64(&mut state) % 40_000,
                            every: 1 + splitmix64(&mut state) % 9,
                        }
                    }
                    2 => Fault::FailRetrain { attempt: (p % 4) as u32 },
                    3 => Fault::StallRetrain {
                        attempt: (p % 4) as u32,
                        messages: 100 + splitmix64(&mut state) % 8_000,
                    },
                    4 => Fault::DropSwap { attempt: p % 4 },
                    _ => Fault::ShardPanic {
                        every: 401 + p % 2_000,
                        times: 1 + splitmix64(&mut state) % 12,
                    },
                }
            })
            .collect();
        Self { name: format!("seeded:{seed}"), faults }
    }

    /// Parse a replay handle: a plan name or `seeded:<n>`.
    pub fn parse(s: &str) -> Option<Self> {
        if let Some(seed) = s.strip_prefix("seeded:") {
            return seed.parse().ok().map(Self::seeded);
        }
        Self::by_name(s)
    }

    /// Compile into the trait object the service consults.
    pub fn compile(&self) -> ScriptedPlan {
        ScriptedPlan { schedule: self.clone() }
    }
}

fn in_stride(idx: u64, from: u64, to: u64, every: u64) -> bool {
    idx >= from && idx < to && (idx - from).is_multiple_of(every.max(1))
}

/// A [`FaultSchedule`] compiled into the service's [`FaultPlan`] seams.
/// Stateless and deterministic: every answer is a pure function of the
/// schedule and the hook's arguments.
#[derive(Debug, Clone)]
pub struct ScriptedPlan {
    schedule: FaultSchedule,
}

impl FaultPlan for ScriptedPlan {
    fn sample_fault(&self, idx: u64) -> SampleFault {
        for f in &self.schedule.faults {
            match *f {
                Fault::DropSamples { from, to, every } if in_stride(idx, from, to, every) => {
                    return SampleFault::Drop
                }
                Fault::CorruptSamples { from, to, every } if in_stride(idx, from, to, every) => {
                    return SampleFault::Corrupt
                }
                _ => {}
            }
        }
        SampleFault::Deliver
    }

    fn retrain_fault(&self, attempt: u32) -> RetrainFault {
        for f in &self.schedule.faults {
            match *f {
                Fault::FailRetrain { attempt: a } if a == attempt => return RetrainFault::Fail,
                Fault::StallRetrain { attempt: a, messages } if a == attempt => {
                    return RetrainFault::Stall { messages }
                }
                _ => {}
            }
        }
        RetrainFault::Proceed
    }

    fn swap_fault(&self, attempt: u64) -> SwapFault {
        for f in &self.schedule.faults {
            if let Fault::DropSwap { attempt: a } = *f {
                if a == attempt {
                    return SwapFault::Drop;
                }
            }
        }
        SwapFault::Install
    }

    fn shard_panic(&self, _shard: usize, idx: u64) -> bool {
        self.schedule.faults.iter().any(|f| {
            matches!(*f, Fault::ShardPanic { every, times }
                if idx.is_multiple_of(every.max(1)) && idx / every.max(1) < times)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_schedules_are_reproducible_and_vary() {
        assert_eq!(FaultSchedule::seeded(7), FaultSchedule::seeded(7));
        assert_ne!(FaultSchedule::seeded(7).faults, FaultSchedule::seeded(8).faults);
        let s = FaultSchedule::seeded(7);
        assert!((2..=5).contains(&s.faults.len()));
    }

    #[test]
    fn parse_round_trips_names_and_seeds() {
        for p in FaultSchedule::named() {
            assert_eq!(FaultSchedule::parse(&p.name), Some(p));
        }
        assert_eq!(FaultSchedule::parse("seeded:42"), Some(FaultSchedule::seeded(42)));
        assert_eq!(FaultSchedule::parse("no-such-plan"), None);
    }

    #[test]
    fn scripted_plan_matches_its_schedule() {
        let plan = FaultSchedule {
            name: "t".into(),
            faults: vec![
                Fault::DropSamples { from: 10, to: 20, every: 2 },
                Fault::CorruptSamples { from: 100, to: 110, every: 1 },
                Fault::FailRetrain { attempt: 1 },
                Fault::StallRetrain { attempt: 2, messages: 9 },
                Fault::DropSwap { attempt: 3 },
                Fault::ShardPanic { every: 50, times: 2 },
            ],
        }
        .compile();
        assert_eq!(plan.sample_fault(10), SampleFault::Drop);
        assert_eq!(plan.sample_fault(11), SampleFault::Deliver);
        assert_eq!(plan.sample_fault(12), SampleFault::Drop);
        assert_eq!(plan.sample_fault(20), SampleFault::Deliver);
        assert_eq!(plan.sample_fault(105), SampleFault::Corrupt);
        assert_eq!(plan.retrain_fault(0), RetrainFault::Proceed);
        assert_eq!(plan.retrain_fault(1), RetrainFault::Fail);
        assert_eq!(plan.retrain_fault(2), RetrainFault::Stall { messages: 9 });
        assert_eq!(plan.swap_fault(3), SwapFault::Drop);
        assert_eq!(plan.swap_fault(2), SwapFault::Install);
        assert!(plan.shard_panic(0, 0));
        assert!(plan.shard_panic(3, 50));
        assert!(!plan.shard_panic(3, 100), "times cap reached");
        assert!(!plan.shard_panic(3, 51));
    }

    #[test]
    fn clean_plan_injects_nothing() {
        let plan = FaultSchedule::clean().compile();
        for idx in 0..1_000 {
            assert_eq!(plan.sample_fault(idx), SampleFault::Deliver);
            assert!(!plan.shard_panic(0, idx));
        }
        assert_eq!(plan.retrain_fault(0), RetrainFault::Proceed);
        assert_eq!(plan.swap_fault(0), SwapFault::Install);
    }
}
