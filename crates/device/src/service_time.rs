//! Backend disk-head-time (service-time) model.
//!
//! Baleen (FAST'24, see PAPERS.md) argues that flash-cache admission should
//! be judged by the *backend disk time* it saves, not by hit rate alone: the
//! scarce resource behind a flash cache is HDD head time, and provisioning
//! is driven by the **peak** utilisation window, not the average. This
//! module charges every backend miss a seek + rotation + transfer cost from
//! a configurable HDD profile and accumulates both the total and the
//! busiest fixed window of the trace.
//!
//! All arithmetic is integer microseconds so that totals are exact,
//! order-independent and safe to compare bit-for-bit across the simulator
//! and the sharded service (the harness differential oracle does exactly
//! that). Flash writes are deliberately *not* charged here: per §5.3.5 of
//! the source paper they happen off the critical path, and admission
//! policies are compared by the HDD work they fail to avoid.

/// Mechanical profile of the backing HDD tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HddProfile {
    /// Average seek time per backend read (µs). Default 8 ms.
    pub seek_us: u64,
    /// Average rotational delay per backend read (µs): half a revolution at
    /// 7200 rpm. Default 4.17 ms.
    pub rotation_us: u64,
    /// Sequential transfer bandwidth (bytes per µs). Default 150 MB/s.
    pub bandwidth_bytes_per_us: u64,
    /// Width of the peak-utilisation window (seconds of trace time).
    pub window_secs: u64,
}

impl Default for HddProfile {
    fn default() -> Self {
        Self { seek_us: 8_000, rotation_us: 4_170, bandwidth_bytes_per_us: 150, window_secs: 60 }
    }
}

impl HddProfile {
    /// Disk-head time one backend read of `size` bytes occupies (µs):
    /// seek + rotation + ceil-divided transfer.
    pub fn read_cost_us(&self, size: u64) -> u64 {
        let bw = self.bandwidth_bytes_per_us.max(1);
        self.seek_us + self.rotation_us + size.div_ceil(bw)
    }
}

/// Accumulates backend disk-head time over a run: exact total plus the
/// busiest `window_secs` window (the provisioning-relevant peak).
///
/// Fed from every backend miss — admitted and bypassed alike both read the
/// object from the HDD exactly once; the policies differ only in what they
/// subsequently write to flash.
// lint: merge-exhaustive(fingerprint)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceTimeModel {
    profile: HddProfile,
    total_us: u64,
    misses: u64,
    /// Disk-head µs per `window_secs` window, indexed by `ts / window_secs`.
    windows: Vec<u64>,
}

impl ServiceTimeModel {
    /// Empty accumulator for the given HDD profile.
    pub fn new(profile: HddProfile) -> Self {
        Self { profile, total_us: 0, misses: 0, windows: Vec::new() }
    }

    /// The profile this model charges costs from.
    pub fn profile(&self) -> HddProfile {
        self.profile
    }

    /// Charge one backend miss at trace time `ts` (seconds) for `size` bytes.
    pub fn record_miss(&mut self, ts: u64, size: u64) {
        let cost = self.profile.read_cost_us(size);
        self.total_us += cost;
        self.misses += 1;
        let w = (ts / self.profile.window_secs.max(1)) as usize;
        if self.windows.len() <= w {
            self.windows.resize(w + 1, 0);
        }
        self.windows[w] += cost;
    }

    /// Total disk-head time across the run (µs).
    pub fn total_us(&self) -> u64 {
        self.total_us
    }

    /// Disk-head time of the busiest window (µs); 0 before any miss.
    pub fn peak_window_us(&self) -> u64 {
        self.windows.iter().copied().max().unwrap_or(0)
    }

    /// Number of backend misses charged.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fold another shard's accumulator into this one. Window counts add
    /// element-wise, so the merged peak is exactly the peak of the combined
    /// request stream (trace time is global across shards).
    pub fn merge(&mut self, other: &ServiceTimeModel) {
        // Full destructuring: adding a field without deciding how it merges
        // is a compile error, not a silently dropped counter.
        let ServiceTimeModel { profile, total_us, misses, windows } = other;
        assert_eq!(self.profile, *profile, "merging service-time models with different profiles");
        self.total_us += total_us;
        self.misses += misses;
        if self.windows.len() < windows.len() {
            self.windows.resize(windows.len(), 0);
        }
        for (a, b) in self.windows.iter_mut().zip(windows) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_matches_a_7200rpm_disk() {
        let p = HddProfile::default();
        assert_eq!(p.seek_us, 8_000);
        assert_eq!(p.rotation_us, 4_170);
        assert_eq!(p.bandwidth_bytes_per_us, 150);
        assert_eq!(p.window_secs, 60);
    }

    #[test]
    fn read_cost_is_seek_plus_rotation_plus_ceil_transfer() {
        let p = HddProfile {
            seek_us: 100,
            rotation_us: 50,
            bandwidth_bytes_per_us: 10,
            window_secs: 60,
        };
        assert_eq!(p.read_cost_us(0), 150);
        assert_eq!(p.read_cost_us(1), 151, "partial transfer rounds up");
        assert_eq!(p.read_cost_us(100), 160);
        assert_eq!(p.read_cost_us(101), 161);
    }

    #[test]
    fn hand_computed_fixture_total_and_peak() {
        // Profile: 100 µs seek, 50 µs rotation, 10 bytes/µs, 60 s windows.
        let p = HddProfile {
            seek_us: 100,
            rotation_us: 50,
            bandwidth_bytes_per_us: 10,
            window_secs: 60,
        };
        let mut m = ServiceTimeModel::new(p);
        // Window 0 (ts 0..60): two misses of 100 B → 2 × 160 = 320 µs.
        m.record_miss(0, 100);
        m.record_miss(59, 100);
        // Window 1 (ts 60..120): one miss of 1000 B → 150 + 100 = 250 µs.
        m.record_miss(60, 1_000);
        // Window 3 (ts 180..240): three misses of 10 B → 3 × 151 = 453 µs.
        m.record_miss(180, 10);
        m.record_miss(181, 10);
        m.record_miss(239, 10);
        assert_eq!(m.misses(), 6);
        assert_eq!(m.total_us(), 320 + 250 + 453);
        assert_eq!(m.peak_window_us(), 453, "window 3 is the busiest");
    }

    #[test]
    fn empty_model_reports_zero() {
        let m = ServiceTimeModel::new(HddProfile::default());
        assert_eq!(m.total_us(), 0);
        assert_eq!(m.peak_window_us(), 0);
        assert_eq!(m.misses(), 0);
    }

    #[test]
    fn superset_of_misses_never_costs_less() {
        // Metamorphic: serving strictly more backend misses can only add
        // head time — the model is monotone in the miss stream.
        let p = HddProfile::default();
        let misses: Vec<(u64, u64)> =
            (0..200).map(|i| (i * 7 % 500, (i * 37 % 9000) + 1)).collect();
        let mut small = ServiceTimeModel::new(p);
        let mut big = ServiceTimeModel::new(p);
        for (i, &(ts, size)) in misses.iter().enumerate() {
            if i % 3 != 0 {
                small.record_miss(ts, size);
            }
            big.record_miss(ts, size);
        }
        assert!(big.total_us() > small.total_us());
        assert!(big.peak_window_us() >= small.peak_window_us());
        assert!(big.misses() > small.misses());
    }

    #[test]
    fn merge_equals_single_stream() {
        // Splitting a stream across shards and merging must reproduce the
        // unsharded accumulator exactly — including the peak window.
        let p = HddProfile::default();
        let mut whole = ServiceTimeModel::new(p);
        let mut a = ServiceTimeModel::new(p);
        let mut b = ServiceTimeModel::new(p);
        for i in 0..500u64 {
            let (ts, size) = (i * 3 % 700, (i * 13 % 40_000) + 1);
            whole.record_miss(ts, size);
            if i % 2 == 0 {
                a.record_miss(ts, size)
            } else {
                b.record_miss(ts, size)
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    #[should_panic(expected = "different profiles")]
    fn merge_rejects_mismatched_profiles() {
        let mut a = ServiceTimeModel::new(HddProfile::default());
        let b = ServiceTimeModel::new(HddProfile { seek_us: 1, ..HddProfile::default() });
        a.merge(&b);
    }

    #[test]
    fn degenerate_profile_values_do_not_divide_by_zero() {
        let p =
            HddProfile { seek_us: 0, rotation_us: 0, bandwidth_bytes_per_us: 0, window_secs: 0 };
        let mut m = ServiceTimeModel::new(p);
        m.record_miss(123, 456);
        assert_eq!(m.total_us(), 456, "bandwidth clamps to 1 byte/µs");
        assert_eq!(m.peak_window_us(), 456, "window clamps to 1 s");
    }
}
