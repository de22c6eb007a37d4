//! Operation metrics for the RMW-count experiment (E5).
//!
//! The ARC paper's central performance argument is that ARC executes *fewer
//! RMW instructions per read* than RF: a read whose snapshot is still
//! current costs zero RMWs, while RF pays a `fetch_or` on every read. The
//! `rmw_counts` bench regenerates that claim by counting, per operation
//! class, how many RMW instructions each algorithm actually issued.
//!
//! Counting is always on and costs no shared-memory traffic: every handle
//! tallies its own operations in a plain [`MetricsSnapshot`] and folds it
//! into its instance's [`OpMetrics`] once, when the handle drops (one
//! `Relaxed` `fetch_add` per counter). An instance's totals are therefore
//! exact once its handles are gone — e.g. after the threads that owned
//! them were joined — and exclude handles that are still live.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::pad::CachePadded;

/// A handle's local tally, on cache lines of its own: handles driven by
/// different threads never false-share, however they are laid out.
pub type Tally = CachePadded<MetricsSnapshot>;

/// Relaxed counters describing the work performed by a register instance.
#[derive(Debug, Default)]
pub struct OpMetrics {
    /// Total read operations.
    pub reads: AtomicU64,
    /// Reads satisfied by the no-RMW fast path (ARC only).
    pub fast_reads: AtomicU64,
    /// RMW instructions executed inside read operations.
    pub read_rmws: AtomicU64,
    /// Total write operations.
    pub writes: AtomicU64,
    /// RMW instructions executed inside write operations.
    pub write_rmws: AtomicU64,
    /// Free-slot probes performed by the writer (slot-search cost, E6).
    pub slot_probes: AtomicU64,
    /// Writes whose free slot came from the reader-posted hint (§3.4).
    pub hint_hits: AtomicU64,
    /// Writes whose free slot was served by the writer-local candidate
    /// ring (lazy reclamation + drained hints) without a fallback scan.
    pub ring_hits: AtomicU64,
    /// Zero-copy guard reads started (`read_ref` acquisitions).
    pub guard_reads: AtomicU64,
    /// Zero-copy guards dropped.
    pub guard_drops: AtomicU64,
}

impl OpMetrics {
    /// Fresh zeroed metrics.
    pub const fn new() -> Self {
        Self {
            reads: AtomicU64::new(0),
            fast_reads: AtomicU64::new(0),
            read_rmws: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_rmws: AtomicU64::new(0),
            slot_probes: AtomicU64::new(0),
            hint_hits: AtomicU64::new(0),
            ring_hits: AtomicU64::new(0),
            guard_reads: AtomicU64::new(0),
            guard_drops: AtomicU64::new(0),
        }
    }

    /// Add `n` to a counter. `Relaxed`: metrics never synchronize data.
    fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Fold a dropping handle's local tally into these totals (a tally's
    /// `reads` excludes its `fast_reads`; see [`MetricsSnapshot`]).
    pub fn fold(&self, t: &MetricsSnapshot) {
        Self::bump(&self.reads, t.reads + t.fast_reads);
        Self::bump(&self.fast_reads, t.fast_reads);
        Self::bump(&self.read_rmws, t.read_rmws);
        Self::bump(&self.writes, t.writes);
        Self::bump(&self.write_rmws, t.write_rmws);
        Self::bump(&self.slot_probes, t.slot_probes);
        Self::bump(&self.hint_hits, t.hint_hits);
        Self::bump(&self.ring_hits, t.ring_hits);
        Self::bump(&self.guard_reads, t.guard_reads);
        Self::bump(&self.guard_drops, t.guard_drops);
    }

    /// Snapshot all counters (relaxed loads; exact once threads are joined).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            fast_reads: self.fast_reads.load(Ordering::Relaxed),
            read_rmws: self.read_rmws.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_rmws: self.write_rmws.load(Ordering::Relaxed),
            slot_probes: self.slot_probes.load(Ordering::Relaxed),
            hint_hits: self.hint_hits.load(Ordering::Relaxed),
            ring_hits: self.ring_hits.load(Ordering::Relaxed),
            guard_reads: self.guard_reads.load(Ordering::Relaxed),
            guard_drops: self.guard_drops.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`OpMetrics`] — and, in a live handle, the
/// plain local tally that handle folds into its instance when it drops.
/// In a tally, `reads` counts only the reads that left the R2 fast path,
/// so a fast read costs one add; [`OpMetrics::fold`] adds `fast_reads`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Total read operations.
    pub reads: u64,
    /// Reads satisfied by the no-RMW fast path.
    pub fast_reads: u64,
    /// RMWs executed inside reads.
    pub read_rmws: u64,
    /// Total write operations.
    pub writes: u64,
    /// RMWs executed inside writes.
    pub write_rmws: u64,
    /// Writer free-slot probes.
    pub slot_probes: u64,
    /// Writes served by the §3.4 hint.
    pub hint_hits: u64,
    /// Writes served by the writer-local free-slot ring.
    pub ring_hits: u64,
    /// Zero-copy guard reads started.
    pub guard_reads: u64,
    /// Zero-copy guards dropped.
    pub guard_drops: u64,
}

impl MetricsSnapshot {
    /// Average RMW instructions per read operation.
    pub fn rmws_per_read(&self) -> f64 {
        ratio(self.read_rmws, self.reads)
    }

    /// Average RMW instructions per write operation.
    pub fn rmws_per_write(&self) -> f64 {
        ratio(self.write_rmws, self.writes)
    }

    /// Average free-slot probes per write (E6: amortized O(1) claim).
    pub fn probes_per_write(&self) -> f64 {
        ratio(self.slot_probes, self.writes)
    }

    /// Fraction of writes whose free slot came from the writer-local ring
    /// (no fallback scan needed).
    pub fn ring_hit_fraction(&self) -> f64 {
        ratio(self.ring_hits, self.writes)
    }

    /// Fraction of reads that took the no-RMW fast path.
    pub fn fast_read_fraction(&self) -> f64 {
        ratio(self.fast_reads, self.reads)
    }
}

/// `n / d`, or 0 when nothing was counted.
fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_fold_into_exact_totals() {
        // 7 fast reads and 3 slow ones paying 4 RMWs (a tally's `reads`
        // excludes its fast reads), plus 4 writes; folded twice.
        let t = MetricsSnapshot {
            reads: 3,
            fast_reads: 7,
            read_rmws: 4,
            writes: 4,
            write_rmws: 8,
            slot_probes: 6,
            ring_hits: 2,
            ..Default::default()
        };
        let m = OpMetrics::new();
        m.fold(&t);
        m.fold(&t);
        let s = m.snapshot();
        assert_eq!((s.reads, s.fast_reads, s.read_rmws, s.writes), (20, 14, 8, 8));
        assert!((s.rmws_per_read() - 0.4).abs() < 1e-12);
        assert!((s.fast_read_fraction() - 0.7).abs() < 1e-12);
        assert_eq!(
            (s.rmws_per_write(), s.probes_per_write(), s.ring_hit_fraction()),
            (2.0, 1.5, 0.5)
        );
    }

    #[test]
    fn ratios_handle_zero_ops() {
        let s = MetricsSnapshot::default();
        assert_eq!(s.rmws_per_read(), 0.0);
        assert_eq!(s.rmws_per_write(), 0.0);
        assert_eq!(s.probes_per_write(), 0.0);
        assert_eq!(s.fast_read_fraction(), 0.0);
    }
}
