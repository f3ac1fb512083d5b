//! Facts about the host and the run, stamped into every record and span
//! file so a number is never read without the machine it came from.

use crate::json::Json;

/// Hardware threads available to this process (0 if unknown).
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// Peak resident set of this process in MB (`VmHWM`); `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Everything that identifies one benchmark run.
#[derive(Debug, Clone)]
pub struct RunFacts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Requested measuring time.
    pub seconds: f64,
    /// Whether spans are recorded (`--trace 1`).
    pub traced: bool,
    /// Tiny-input sanity run; its numbers are never recorded.
    pub smoke: bool,
    /// Git commit of the checkout, or `unknown`.
    pub commit: String,
    /// `rustc -V` of the toolchain that built the benchmark, or `unknown`.
    pub rustc: String,
}

impl RunFacts {
    /// The facts as JSON members, host facts included. `threads_needed`
    /// is the workload's busiest thread count; fewer hardware threads
    /// than that stamps the run `oversubscribed`.
    pub fn to_members(&self, threads_needed: usize) -> Vec<(String, Json)> {
        let hw = hw_threads();
        vec![
            ("workload".into(), Json::str(&self.workload)),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("seconds".into(), Json::Num(self.seconds)),
            ("trace".into(), Json::Num(f64::from(u8::from(self.traced)))),
            ("smoke".into(), Json::Bool(self.smoke)),
            ("hw_threads".into(), Json::Num(hw as f64)),
            ("threads_needed".into(), Json::Num(threads_needed as f64)),
            ("oversubscribed".into(), Json::Bool(hw < threads_needed)),
            ("commit".into(), Json::str(&self.commit)),
            ("rustc".into(), Json::str(&self.rustc)),
        ]
    }
}
