//! Time sources for the service: real wall-clock for production runs and a
//! virtual clock for the deterministic fault-injection harness.
//!
//! The replay path touches time in two places — client pacing sleeps and the
//! duration cap — and both go through a [`ClockHandle`] so a harness run can
//! substitute virtual time: sleeps become instantaneous jumps of a shared
//! atomic counter and the whole replay is schedule-independent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Monotonic virtual time in nanoseconds, shared by every thread of a run.
///
/// Time only moves when someone sleeps against a schedule ([`ClockHandle::
/// sleep_until`]) or advances it explicitly, so a virtual-clock replay is as
/// fast as the hardware allows regardless of the configured pacing.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// Clock starting at `t = 0`.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Current virtual time.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Acquire))
    }

    /// Advance to `t` if `t` is in the future (monotonic: never moves back).
    pub fn advance_to(&self, t: Duration) {
        self.nanos.fetch_max(t.as_nanos() as u64, Ordering::AcqRel);
    }

    /// Advance by `delta`.
    pub fn advance(&self, delta: Duration) {
        self.nanos.fetch_add(delta.as_nanos() as u64, Ordering::AcqRel);
    }
}

/// Which time source a serve run uses.
#[derive(Debug, Clone, Default)]
pub enum ServiceClock {
    /// Real wall-clock time (production and benchmarks).
    #[default]
    Wall,
    /// Shared virtual time (deterministic harness runs).
    Virtual(Arc<VirtualClock>),
}

impl ServiceClock {
    /// Start the clock for one run, capturing the wall-clock epoch.
    pub(crate) fn start(&self) -> ClockHandle {
        ClockHandle {
            epoch: Instant::now(),
            vclock: match self {
                ServiceClock::Wall => None,
                ServiceClock::Virtual(c) => Some(Arc::clone(c)),
            },
        }
    }
}

/// A started clock: answers "how long has this run been going" and sleeps
/// against an absolute schedule point.
#[derive(Debug, Clone)]
pub struct ClockHandle {
    epoch: Instant,
    vclock: Option<Arc<VirtualClock>>,
}

impl ClockHandle {
    /// Time elapsed since the run started (virtual clocks report their
    /// absolute reading).
    pub fn elapsed(&self) -> Duration {
        match &self.vclock {
            Some(v) => v.now(),
            None => self.epoch.elapsed(),
        }
    }

    /// Real wall time since the run started, regardless of clock kind.
    /// Throughput reporting wants honest wall time even on a virtual-clock
    /// run (where `elapsed()` reads simulated time).
    pub fn wall_elapsed(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Block until `elapsed() >= t`. On a virtual clock this jumps time
    /// forward instead of sleeping, so paced replays stay deterministic.
    pub fn sleep_until(&self, t: Duration) {
        match &self.vclock {
            Some(v) => v.advance_to(t),
            None => {
                let now = self.epoch.elapsed();
                if t > now {
                    std::thread::sleep(t - now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_time_is_monotone_and_jump_based() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance_to(Duration::from_secs(1));
        assert_eq!(clock.now(), Duration::from_secs(1));
        clock.advance_to(Duration::from_secs(5));
        assert_eq!(clock.now(), Duration::from_secs(5));
        // Moving backwards is a no-op.
        clock.advance_to(Duration::from_secs(2));
        assert_eq!(clock.now(), Duration::from_secs(5));
        clock.advance(Duration::from_secs(1));
        assert_eq!(clock.now(), Duration::from_secs(6));
    }

    #[test]
    fn virtual_handle_sleeps_instantly() {
        let vclock = VirtualClock::new();
        let handle = ServiceClock::Virtual(Arc::clone(&vclock)).start();
        let wall = Instant::now();
        handle.sleep_until(Duration::from_secs(3600));
        assert!(wall.elapsed() < Duration::from_secs(5), "virtual sleep must not block");
        assert_eq!(handle.elapsed(), Duration::from_secs(3600));
    }

    #[test]
    fn wall_handle_tracks_real_time() {
        let handle = ServiceClock::Wall.start();
        std::thread::sleep(Duration::from_millis(5));
        assert!(handle.elapsed() >= Duration::from_millis(5));
        // Sleeping until a past point returns immediately.
        handle.sleep_until(Duration::from_nanos(1));
    }

    #[test]
    fn concurrent_advances_keep_the_maximum() {
        let clock = VirtualClock::new();
        std::thread::scope(|s| {
            for i in 1..=8u64 {
                let clock = &clock;
                s.spawn(move || clock.advance_to(Duration::from_secs(i)));
            }
        });
        assert_eq!(clock.now(), Duration::from_secs(8));
    }
}
