//! A seqlock register — an *extra* baseline beyond the paper's four.
//!
//! The seqlock is the folklore alternative for single-writer data sharing:
//! readers copy optimistically and retry if the version moved. Reads are
//! **lock-free but not wait-free** — a fast writer can starve readers
//! indefinitely. We include it as an ablation: in the steal-injection
//! experiment (Figure 2's regime) the seqlock's retry loops show exactly
//! the degradation wait-freedom avoids, from an algorithm that otherwise
//! performs close to ARC on quiet reads.
//!
//! Structure: one [`WordBuf`] + one [`SeqCounter`]. Writes bump the version
//! odd, store the words, bump even. Reads sample, copy, validate, retry.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use register_common::traits::{
    validate_spec, BuildError, ReadHandle, RefReadHandle, RegisterFamily, RegisterSpec, WriteHandle,
};
use sync_primitives::{Backoff, SeqCounter};

use crate::wordbuf::WordBuf;

/// The shared seqlock-register state.
pub struct SeqlockRegister {
    seq: SeqCounter,
    buf: WordBuf,
    capacity: usize,
    writer_claimed: AtomicBool,
    /// Reads that sampled an odd (write-in-progress) counter and had to
    /// spin before even copying (diagnostic for the starvation ablation).
    spins: AtomicU64,
    /// Reads whose copy completed but failed validation (the counter moved
    /// during the copy) and had to redo the copy.
    validation_failures: AtomicU64,
}

impl SeqlockRegister {
    /// Build a register with values up to `capacity` bytes, initialized to
    /// `initial`.
    pub fn new(capacity: usize, initial: &[u8]) -> Result<Arc<Self>, BuildError> {
        validate_spec(RegisterSpec::new(1, capacity), initial, None)?;
        let buf = WordBuf::new(capacity);
        buf.store_bytes(initial);
        Ok(Arc::new(Self {
            seq: SeqCounter::new(),
            buf,
            capacity,
            writer_claimed: AtomicBool::new(false),
            spins: AtomicU64::new(0),
            validation_failures: AtomicU64::new(0),
        }))
    }

    /// Claim the unique writer handle.
    pub fn writer(self: &Arc<Self>) -> Option<SeqlockWriter> {
        if self.writer_claimed.swap(true, Ordering::SeqCst) {
            return None;
        }
        Some(SeqlockWriter { reg: Arc::clone(self), scratch: Vec::new() })
    }

    /// Register a reader handle (unbounded).
    pub fn reader(self: &Arc<Self>) -> SeqlockReader {
        SeqlockReader { reg: Arc::clone(self), scratch: Vec::with_capacity(self.capacity) }
    }

    /// Payload capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total read retries (spins + validation failures) across all readers.
    ///
    /// The seed lumped both causes into one counter, overstating the
    /// validation-failure rate in the starvation ablation (an odd-counter
    /// spin never copied anything; a validation failure wasted a full
    /// copy). Use [`SeqlockRegister::spins`] /
    /// [`SeqlockRegister::validation_failures`] for the split.
    pub fn total_retries(&self) -> u64 {
        self.spins() + self.validation_failures()
    }

    /// Reads that observed an odd (in-progress) counter before copying.
    pub fn spins(&self) -> u64 {
        self.spins.load(Ordering::Relaxed)
    }

    /// Completed copies discarded because the counter moved mid-copy.
    pub fn validation_failures(&self) -> u64 {
        self.validation_failures.load(Ordering::Relaxed)
    }

    /// Whether a writer died mid-write and no complete write has happened
    /// since: the data is unvalidatable (readers spin) until the next
    /// writer's first complete write resynchronizes the counter parity.
    pub fn poisoned(&self) -> bool {
        self.seq.write_in_progress() && !self.writer_claimed.load(Ordering::SeqCst)
    }
}

impl fmt::Debug for SeqlockRegister {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeqlockRegister")
            .field("version", &self.seq.version())
            .field("spins", &self.spins())
            .field("validation_failures", &self.validation_failures())
            .finish()
    }
}

/// The unique seqlock writer handle.
pub struct SeqlockWriter {
    reg: Arc<SeqlockRegister>,
    /// Reusable staging buffer for [`SeqlockWriter::write_with`] — the
    /// fill target, kept across writes so the path stays allocation-free
    /// in steady state (parity with `ArcWriter::write_with`).
    scratch: Vec<u8>,
}

impl SeqlockWriter {
    /// Store a new value (wait-free for the writer; one copy).
    ///
    /// # Panics
    ///
    /// Panics if `value.len()` exceeds the capacity.
    pub fn write(&mut self, value: &[u8]) {
        assert!(
            value.len() <= self.reg.capacity,
            "value of {} bytes exceeds register capacity {}",
            value.len(),
            self.reg.capacity
        );
        self.reg.seq.write_begin();
        self.reg.buf.store_bytes(value);
        self.reg.seq.write_end();
    }

    /// Store a new value by filling a staging buffer in place (API parity
    /// with `ArcWriter::write_with`): `fill` receives exactly `len` bytes
    /// of the handle's reusable scratch (no per-write allocation in
    /// steady state).
    ///
    /// `fill` runs **inside the seqlock critical section** — if it panics,
    /// the writer handle drops mid-write with the counter odd (the shared
    /// words are untouched, but the interrupted generation is marked
    /// in-progress). That is the reclaim hazard of the module docs: the
    /// counter stays odd — readers spin rather than validate — until the
    /// next writer's first complete write resynchronizes it.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the capacity, and propagates panics from
    /// `fill`.
    pub fn write_with(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) {
        assert!(
            len <= self.reg.capacity,
            "value of {len} bytes exceeds register capacity {}",
            self.reg.capacity
        );
        self.scratch.clear();
        self.scratch.resize(len, 0);
        self.reg.seq.write_begin();
        fill(&mut self.scratch);
        self.reg.buf.store_bytes(&self.scratch);
        self.reg.seq.write_end();
    }
}

impl Drop for SeqlockWriter {
    fn drop(&mut self) {
        // Releasing the claim is correct even when the drop happens
        // mid-write (counter odd — e.g. unwinding out of `write_with`):
        // `SeqCounter::write_begin` *adopts* an odd counter instead of
        // re-bumping it, so the next claimed writer's first write
        // completes the interrupted generation with fully-rewritten data.
        // The pre-fix behaviour (blind bump) flipped the parity even while
        // that writer was still mutating, making `read_validate` accept
        // torn reads — the regression test `panic_mid_write_never_tears`
        // pins this down.
        self.reg.writer_claimed.store(false, Ordering::SeqCst);
    }
}

/// A seqlock reader handle (owns a scratch buffer).
pub struct SeqlockReader {
    reg: Arc<SeqlockRegister>,
    scratch: Vec<u8>,
}

impl SeqlockReader {
    /// Read the current value. Lock-free: retries while the writer is
    /// active, so an adversarial writer starves this (the ablation point).
    ///
    /// Retry causes are counted separately — `spins` (odd counter sampled,
    /// nothing copied yet) vs `validation_failures` (a full copy wasted) —
    /// because they cost very differently and the steal-resilience
    /// reporting distinguishes them.
    pub fn read(&mut self) -> &[u8] {
        let mut backoff = Backoff::new();
        loop {
            let begin = self.reg.seq.read_begin();
            if !begin.is_multiple_of(2) {
                self.reg.spins.fetch_add(1, Ordering::Relaxed);
                backoff.snooze();
                continue;
            }
            self.reg.buf.load_bytes(&mut self.scratch);
            if self.reg.seq.read_validate(begin) {
                return &self.scratch;
            }
            self.reg.validation_failures.fetch_add(1, Ordering::Relaxed);
            backoff.snooze();
        }
    }

    /// One optimistic read attempt: `None` if a write was in progress or
    /// the copy failed validation (counted like a [`SeqlockReader::read`]
    /// retry). Lets callers bound their own retry policy — and lets the
    /// panic-mid-write regression test probe an in-progress write without
    /// deadlocking on the (correctly) unvalidatable state.
    pub fn try_read(&mut self) -> Option<&[u8]> {
        let begin = self.reg.seq.read_begin();
        if !begin.is_multiple_of(2) {
            self.reg.spins.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.reg.buf.load_bytes(&mut self.scratch);
        if self.reg.seq.read_validate(begin) {
            return Some(&self.scratch);
        }
        self.reg.validation_failures.fetch_add(1, Ordering::Relaxed);
        None
    }
}

impl fmt::Debug for SeqlockReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeqlockReader").finish()
    }
}

/// Type-level handle for the seqlock algorithm.
pub struct SeqlockFamily;

impl RegisterFamily for SeqlockFamily {
    type Writer = SeqlockWriter;
    type Reader = SeqlockReader;

    const NAME: &'static str = "seqlock";

    fn wait_free_reads() -> bool {
        false // lock-free only
    }

    fn build(
        spec: RegisterSpec,
        initial: &[u8],
    ) -> Result<(Self::Writer, Vec<Self::Reader>), BuildError> {
        // The register itself admits unboundedly many readers; the family
        // contract still rejects degenerate specs for uniformity.
        validate_spec(spec, initial, None)?;
        let reg = SeqlockRegister::new(spec.capacity, initial)?;
        let writer = reg.writer().expect("fresh register has no writer");
        let readers = (0..spec.readers).map(|_| reg.reader()).collect();
        Ok((writer, readers))
    }
}

impl WriteHandle for SeqlockWriter {
    #[inline]
    fn write(&mut self, value: &[u8]) {
        SeqlockWriter::write(self, value);
    }
}

impl ReadHandle for SeqlockReader {
    #[inline]
    fn read_with<R, F: FnOnce(&[u8]) -> R>(&mut self, f: F) -> R {
        f(self.read())
    }
}

impl RefReadHandle for SeqlockReader {
    /// A seqlock read is only known consistent after the trailing counter
    /// validation, so the "guard" is a borrow of the handle's private
    /// copy-validated scratch — the **honest fallback**: the copy still
    /// happens on every read, and [`RefReadHandle::zero_copy`] says so.
    type Guard<'a> = &'a [u8];

    #[inline]
    fn read_ref(&mut self) -> &[u8] {
        self.read()
    }

    fn zero_copy() -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let reg = SeqlockRegister::new(64, b"init").unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader();
        assert_eq!(r.read(), b"init");
        w.write(b"updated");
        assert_eq!(r.read(), b"updated");
    }

    #[test]
    fn variable_sizes() {
        let reg = SeqlockRegister::new(64, b"").unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader();
        for len in [0usize, 1, 8, 63, 64] {
            let v = vec![3u8; len];
            w.write(&v);
            assert_eq!(r.read(), &v[..]);
        }
    }

    #[test]
    fn writer_unique_and_reclaimable() {
        let reg = SeqlockRegister::new(16, b"").unwrap();
        let w = reg.writer().unwrap();
        assert!(reg.writer().is_none());
        drop(w);
        assert!(reg.writer().is_some());
    }

    #[test]
    fn family_metadata() {
        assert_eq!(SeqlockFamily::NAME, "seqlock");
        assert!(!SeqlockFamily::wait_free_reads());
    }

    #[test]
    fn panic_mid_write_never_tears() {
        // The reclaim parity bug: a writer dropped mid-write (unwinding out
        // of a fill closure) used to let the NEXT writer's write_begin flip
        // the counter even while it was still mutating the words, so
        // read_validate accepted torn reads. Pinned by replaying the exact
        // interleaving against the recovered register.
        let reg = SeqlockRegister::new(64, &[0xAA; 64]).unwrap();
        let mut w = reg.writer().unwrap();
        w.write(&[0xBB; 64]);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.write_with(64, |_| panic!("writer dies mid-write"));
        }));
        assert!(died.is_err());
        drop(w); // the unwinding drop releases the claim, counter still odd
        assert!(reg.poisoned(), "mid-write death must leave the register poisoned");

        // A reader in the poisoned window must refuse, not validate.
        let mut r = reg.reader();
        assert!(r.try_read().is_none(), "poisoned state validated a read");

        // Recovery: the next writer adopts the odd counter. Drive its
        // critical section by hand so a reader can probe mid-mutation —
        // under the pre-fix write_begin the counter here would be even and
        // the half-written state below would validate as a torn read.
        let w2 = reg.writer().expect("claim must succeed after mid-write death");
        let begin = reg.seq.write_begin();
        assert_eq!(begin % 2, 1, "recovery write_begin must keep the counter odd");
        reg.buf.store_bytes(&[0xCC; 32]); // half-finished mutation
        assert!(r.try_read().is_none(), "torn mid-write state validated");
        reg.buf.store_bytes(&[0xCC; 64]);
        reg.seq.write_end();
        drop(w2);

        assert!(!reg.poisoned(), "a complete write resynchronizes the parity");
        assert_eq!(r.read(), &[0xCC; 64][..], "post-recovery reads see the full new value");
    }

    #[test]
    fn spins_and_validation_failures_are_counted_separately() {
        let reg = SeqlockRegister::new(64, &[1u8; 16]).unwrap();
        let w = reg.writer().unwrap();
        let mut r = reg.reader();
        assert_eq!((reg.spins(), reg.validation_failures()), (0, 0));
        // Odd counter sampled before the copy: a spin, not a validation
        // failure.
        reg.seq.write_begin();
        assert!(r.try_read().is_none());
        assert_eq!((reg.spins(), reg.validation_failures()), (1, 0));
        reg.seq.write_end();
        // Copy completes, then the counter moves before validation: a
        // validation failure. Stage it by hand: sample, interleave a full
        // write, validate.
        let begin = reg.seq.read_begin();
        assert!(begin.is_multiple_of(2));
        reg.seq.write_begin();
        reg.buf.store_bytes(&[2u8; 16]);
        reg.seq.write_end();
        reg.buf.load_bytes(&mut r.scratch);
        assert!(!reg.seq.read_validate(begin));
        reg.validation_failures.fetch_add(1, Ordering::Relaxed);
        assert_eq!((reg.spins(), reg.validation_failures()), (1, 1));
        assert_eq!(reg.total_retries(), 2, "total is the sum of both causes");
        drop(w);
    }

    #[test]
    fn write_with_fills_in_place() {
        let reg = SeqlockRegister::new(32, b"").unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader();
        w.write_with(8, |buf| buf.copy_from_slice(b"in-place"));
        assert_eq!(r.read(), b"in-place");
    }

    #[test]
    fn concurrent_smoke_no_tearing() {
        let reg = SeqlockRegister::new(128, &[0u8; 64]).unwrap();
        let mut w = reg.writer().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mut r = reg.reader();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                // One unconditional read before honoring `stop`: on a
                // single-core box the writer can finish and set `stop`
                // before this thread is first scheduled.
                let mut reads = 0u64;
                loop {
                    let v = r.read();
                    let first = v.first().copied().unwrap_or(0);
                    assert!(v.iter().all(|&b| b == first), "torn seqlock read");
                    reads += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                reads
            }));
        }
        for i in 0..30_000u32 {
            w.write(&[(i % 251) as u8; 64]);
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        // Retries are expected under this contention (diagnostic sanity).
        let _ = reg.total_retries();
    }
}
