//! SSD wear / endurance model.
//!
//! §1 motivates the paper with write density: a caching SSD absorbs ~20× the
//! write density of backend storage and wears out correspondingly faster.
//! This model converts the byte-write streams measured by the cache
//! simulator into program/erase-cycle consumption and lifetime projections,
//! so the write-rate reductions of Figures 8–9 can be restated as lifetime
//! multipliers.

/// A measured byte-write stream, split into host writes and the extra
/// (garbage-collection / compaction) writes the storage layer generated on
/// their behalf. This is the **only** ingestion format the wear model
/// accepts: callers that used to pass object counts or ad-hoc byte rates
/// now build a ledger, so every lifetime projection is traceable to actual
/// bytes. The segment store (`otae-store`) and the FTL simulator both
/// export their streams as ledgers.
// lint: merge-exhaustive
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WearLedger {
    host_bytes: u64,
    gc_bytes: u64,
}

impl WearLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account bytes written on behalf of the host (cache insertions,
    /// tombstones).
    pub fn record_host_write(&mut self, bytes: u64) {
        self.host_bytes += bytes;
    }

    /// Account bytes the storage layer rewrote internally (GC relocation,
    /// segment compaction).
    pub fn record_gc_write(&mut self, bytes: u64) {
        self.gc_bytes += bytes;
    }

    /// Host bytes recorded so far.
    pub fn host_bytes(&self) -> u64 {
        self.host_bytes
    }

    /// Internal rewrite bytes recorded so far.
    pub fn gc_bytes(&self) -> u64 {
        self.gc_bytes
    }

    /// Total bytes the flash actually programmed.
    pub fn physical_bytes(&self) -> u64 {
        self.host_bytes + self.gc_bytes
    }

    /// Measured write amplification: physical per host byte (1.0 while
    /// nothing was written).
    pub fn write_amplification(&self) -> f64 {
        if self.host_bytes == 0 {
            1.0
        } else {
            self.physical_bytes() as f64 / self.host_bytes as f64
        }
    }

    /// Fold another ledger into this one (per-shard or per-device merge).
    /// The full destructure means a new stream cannot be added without this
    /// merge accounting for it.
    pub fn merge(&mut self, other: &WearLedger) {
        let WearLedger { host_bytes, gc_bytes } = *other;
        self.host_bytes += host_bytes;
        self.gc_bytes += gc_bytes;
    }
}

/// Flash endurance model for one cache SSD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdWearModel {
    /// Usable capacity in bytes.
    pub capacity: u64,
    /// Rated program/erase cycles per cell (e.g. 3000 for MLC, 1000 for TLC).
    pub pe_cycles: u32,
    /// Write amplification factor of the FTL (>= 1).
    pub write_amplification: f64,
}

impl Default for SsdWearModel {
    fn default() -> Self {
        Self { capacity: 1 << 40, pe_cycles: 3000, write_amplification: 1.5 }
    }
}

impl SsdWearModel {
    /// The write-amplification factor to judge `ledger` under: the
    /// ledger's own measured factor when it carries a GC stream, else this
    /// model's assumed factor (the ledger's storage layer did not model
    /// internal rewrites).
    pub fn effective_write_amplification(&self, ledger: &WearLedger) -> f64 {
        if ledger.gc_bytes() > 0 {
            ledger.write_amplification()
        } else {
            self.write_amplification
        }
    }

    /// Fraction of device life consumed by a measured write stream (may
    /// exceed 1). This is the model's only byte-ingestion entry point:
    /// physical bytes — host bytes times the effective WA — against the
    /// raw capacity × P/E budget.
    pub fn life_consumed(&self, ledger: &WearLedger) -> f64 {
        let physical = ledger.host_bytes() as f64 * self.effective_write_amplification(ledger);
        physical / (self.capacity as f64 * self.pe_cycles as f64)
    }

    /// Lifetime extension factor when writes shrink from `before` to `after`
    /// bytes per day.
    pub fn lifetime_extension(&self, before_bytes_per_day: f64, after_bytes_per_day: f64) -> f64 {
        if after_bytes_per_day <= 0.0 {
            return f64::INFINITY;
        }
        before_bytes_per_day / after_bytes_per_day
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SsdWearModel {
        SsdWearModel { capacity: 1000, pe_cycles: 100, write_amplification: 2.0 }
    }

    fn host_only(bytes: u64) -> WearLedger {
        let mut l = WearLedger::new();
        l.record_host_write(bytes);
        l
    }

    #[test]
    fn life_consumed_scales_linearly() {
        let m = small();
        assert!((m.life_consumed(&host_only(25_000)) - 0.5).abs() < 1e-12);
        assert!((m.life_consumed(&host_only(50_000)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measured_wa_overrides_assumed_wa() {
        let m = small();
        let mut l = host_only(10_000);
        // No GC stream: the model's assumed WA (2.0) applies.
        assert_eq!(m.effective_write_amplification(&l), 2.0);
        assert!((m.life_consumed(&l) - 0.2).abs() < 1e-12);
        // A measured GC stream replaces the assumption: WA = 15k/10k = 1.5.
        l.record_gc_write(5_000);
        assert!((m.effective_write_amplification(&l) - 1.5).abs() < 1e-12);
        assert!((m.life_consumed(&l) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn ledger_accounting() {
        let mut a = host_only(100);
        a.record_gc_write(50);
        assert_eq!(a.physical_bytes(), 150);
        assert!((a.write_amplification() - 1.5).abs() < 1e-12);
        let mut b = WearLedger::new();
        assert_eq!(b.write_amplification(), 1.0);
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.host_bytes(), 200);
        assert_eq!(b.gc_bytes(), 100);
    }

    #[test]
    fn paper_write_reduction_translates_to_lifetime() {
        // Abstract: cache writes decreased by 79% for LRU -> ~4.8x lifetime.
        let m = SsdWearModel::default();
        let ext = m.lifetime_extension(100.0, 21.0);
        assert!((ext - 100.0 / 21.0).abs() < 1e-9);
        assert!(ext > 4.0);
        assert_eq!(m.lifetime_extension(100.0, 0.0), f64::INFINITY);
    }
}
