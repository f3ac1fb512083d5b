//! Diurnal intensity model.
//!
//! §4.4.3 of the paper observes that QQPhoto load "changes at daily
//! periodicity, reaching the highest and the lowest at 5:00 am and 20:00 pm"
//! (i.e. the *one-time fraction p* peaks at 05:00 when load is lowest, and
//! the request rate peaks at 20:00). We model the request intensity over the
//! day as a smooth positive curve with mean 1, peak at 20:00 and trough at
//! 05:00, and provide a time-warp so that events generated in "uniform time"
//! can be mapped to wall-clock time concentrated around the peak hours.

/// Seconds per day.
pub const DAY: u64 = 86_400;

/// Peak hour of the request rate (20:00).
pub const PEAK_HOUR: f64 = 20.0;

/// Trough hour of the request rate (05:00).
pub const TROUGH_HOUR: f64 = 5.0;

/// Relative intensity at second-of-day `s` (mean = 1 over a full day).
///
/// Peak at 20:00 and trough at 05:00 are 15 h apart, so a single cosine
/// cannot place both; we use two half-cosines — rising over the 15 h from
/// trough to peak, falling over the 9 h from peak back to trough — glued
/// continuously. Each half-cosine integrates to zero, so the daily mean is
/// exactly 1. Amplitude 0.6: trough 0.4×, peak 1.6×.
pub fn intensity(second_of_day: u64) -> f64 {
    const A: f64 = 0.6;
    let h = (second_of_day % DAY) as f64 / 3600.0;
    let s = if (TROUGH_HOUR..PEAK_HOUR).contains(&h) {
        // Rising half: trough (05:00) -> peak (20:00), 15 h.
        -(std::f64::consts::PI * (h - TROUGH_HOUR) / (PEAK_HOUR - TROUGH_HOUR)).cos()
    } else {
        // Falling half: peak (20:00) -> trough (05:00 next day), 9 h.
        let u = if h >= PEAK_HOUR { h - PEAK_HOUR } else { h + 24.0 - PEAK_HOUR };
        (std::f64::consts::PI * u / (24.0 - (PEAK_HOUR - TROUGH_HOUR))).cos()
    };
    1.0 + A * s
}

/// Piecewise-linear cumulative intensity over one day, enabling inverse
/// time-warping. Resolution: one bucket per minute.
#[derive(Debug, Clone)]
pub struct DiurnalWarp {
    /// `cum[i]` = integral of intensity over the first `i` minutes, normalised
    /// so `cum[1440] == DAY` (the warp is measure-preserving over a day).
    cum: Vec<f64>,
}

impl Default for DiurnalWarp {
    fn default() -> Self {
        Self::new()
    }
}

impl DiurnalWarp {
    /// Build the warp table.
    pub fn new() -> Self {
        let n = 1440usize;
        let mut cum = Vec::with_capacity(n + 1);
        cum.push(0.0);
        let mut acc = 0.0;
        for i in 0..n {
            // Midpoint rule per minute.
            acc += intensity(i as u64 * 60 + 30) * 60.0;
            cum.push(acc);
        }
        let total = acc;
        // Normalise so a full day of warped time maps onto a full day.
        let scale = DAY as f64 / total;
        for v in cum.iter_mut() {
            *v *= scale;
        }
        Self { cum }
    }

    /// Map a *uniform* time (seconds since trace start) to warped wall-clock
    /// time so that uniform event streams become diurnally modulated: more
    /// uniform seconds map into peak hours.
    ///
    /// Within a day, this is the inverse of the cumulative intensity: uniform
    /// time `u` lands at the wall-clock instant `t` with `Λ(t) = u`, so the
    /// event *density* at `t` is proportional to `λ(t)`.
    pub fn warp(&self, uniform_ts: f64) -> f64 {
        let day = (uniform_ts / DAY as f64).floor();
        let u = uniform_ts - day * DAY as f64; // in [0, DAY)
        let t = self.invert_within_day(u);
        day * DAY as f64 + t
    }

    /// Find `t` in `[0, DAY)` with cumulative intensity `u`.
    fn invert_within_day(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, DAY as f64 - 1e-9);
        // Binary search over cumulative buckets.
        let idx = self.cum.partition_point(|&c| c <= u);
        let hi = idx.min(self.cum.len() - 1).max(1);
        let lo = hi - 1;
        let (c0, c1) = (self.cum[lo], self.cum[hi]);
        let frac = if c1 > c0 { (u - c0) / (c1 - c0) } else { 0.0 };
        (lo as f64 + frac) * 60.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_peak_and_trough() {
        let peak = intensity(20 * 3600);
        let trough = intensity(5 * 3600);
        assert!(peak > 1.5, "peak {peak}");
        assert!(trough < 0.5, "trough {trough}");
        // Mean close to 1.
        let mean: f64 = (0..1440).map(|m| intensity(m * 60)).sum::<f64>() / 1440.0;
        assert!((mean - 1.0).abs() < 1e-3, "mean {mean}");
    }

    #[test]
    fn warp_is_monotone_and_measure_preserving() {
        let w = DiurnalWarp::new();
        let mut prev = -1.0;
        for i in 0..2000 {
            let t = w.warp(i as f64 * 100.0);
            assert!(t > prev, "warp must be strictly increasing");
            prev = t;
        }
        // A full day maps onto a full day.
        let t0 = w.warp(0.0);
        let t1 = w.warp(DAY as f64 - 1.0);
        assert!(t0 < 60.0 * 10.0);
        assert!(t1 > DAY as f64 - 60.0 * 10.0);
    }

    #[test]
    fn warp_concentrates_mass_at_peak() {
        let w = DiurnalWarp::new();
        // Uniform events through one day.
        let n = 100_000;
        let mut per_hour = [0u32; 24];
        for i in 0..n {
            let t = w.warp(i as f64 / n as f64 * DAY as f64);
            per_hour[(t as u64 % DAY / 3600) as usize] += 1;
        }
        let peak = per_hour[20] as f64;
        let trough = per_hour[5] as f64;
        assert!(peak > 2.5 * trough, "peak {peak} trough {trough}");
    }

    #[test]
    fn warp_across_days_preserves_day_index() {
        let w = DiurnalWarp::new();
        for d in 0..5u64 {
            let t = w.warp((d * DAY) as f64 + 1000.0);
            assert_eq!(t as u64 / DAY, d);
        }
    }
}
