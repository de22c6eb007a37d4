//! The lock-based register baseline: a spin reader-writer lock around one
//! buffer.
//!
//! This is the paper's "classical lock-based approach (using read/write
//! spin-locks still implemented using RMW instructions)" (§5). It is the
//! only non-wait-free comparator: a preempted lock holder stalls everyone —
//! which is precisely what the virtualized (Figure 2) and oversubscribed
//! (Figure 3) experiments expose.
//!
//! Costs per operation: read = 2 RMWs (acquire + release the read lock),
//! in-place access, no copy; write = lock acquisition + reader drain + one
//! copy. One buffer total (no snapshots: readers always see the newest
//! value, because they block while it changes).

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use register_common::traits::{
    validate_spec, BuildError, ReadHandle, RegisterFamily, RegisterSpec, WriteHandle,
};
use sync_primitives::SpinRwLock;

/// The guarded buffer: current length + storage.
struct Inner {
    len: usize,
    data: Box<[u8]>,
}

/// The shared lock-register state.
pub struct LockRegister {
    lock: SpinRwLock<Inner>,
    capacity: usize,
    writer_claimed: AtomicBool,
}

impl LockRegister {
    /// Build a register with values up to `capacity` bytes, initialized to
    /// `initial`.
    pub fn new(capacity: usize, initial: &[u8]) -> Result<Arc<Self>, BuildError> {
        // The lock register has no structural reader limit; validate with
        // a nominal reader count of 1.
        validate_spec(RegisterSpec::new(1, capacity), initial, None)?;
        let mut data = vec![0u8; capacity].into_boxed_slice();
        data[..initial.len()].copy_from_slice(initial);
        Ok(Arc::new(Self {
            lock: SpinRwLock::new(Inner { len: initial.len(), data }),
            capacity,
            writer_claimed: AtomicBool::new(false),
        }))
    }

    /// Claim the unique writer handle (the (1,N) discipline, kept for
    /// symmetry with the wait-free algorithms).
    pub fn writer(self: &Arc<Self>) -> Option<LockWriter> {
        if self.writer_claimed.swap(true, Ordering::SeqCst) {
            return None;
        }
        Some(LockWriter { reg: Arc::clone(self) })
    }

    /// Register a reader handle (unbounded).
    pub fn reader(self: &Arc<Self>) -> LockReader {
        LockReader { reg: Arc::clone(self) }
    }

    /// Payload capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl fmt::Debug for LockRegister {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockRegister").field("capacity", &self.capacity).finish()
    }
}

/// The unique lock-register writer handle.
pub struct LockWriter {
    reg: Arc<LockRegister>,
}

impl LockWriter {
    /// Store a new value under the write lock (blocks while readers drain).
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
        let mut g = self.reg.lock.write();
        g.data[..value.len()].copy_from_slice(value);
        g.len = value.len();
    }
}

impl Drop for LockWriter {
    fn drop(&mut self) {
        // Reclaim-mid-write audit (the seqlock parity-bug battery):
        // unconditional release is safe. The buffer is only mutated under
        // the write guard, whose own Drop releases the lock on unwind, and
        // no user code runs inside the critical section (the capacity
        // assert fires before locking; the memcpy cannot panic) — a
        // dropped handle can never leave the lock held or the buffer
        // half-published.
        self.reg.writer_claimed.store(false, Ordering::SeqCst);
    }
}

/// A lock-register reader handle.
pub struct LockReader {
    reg: Arc<LockRegister>,
}

impl LockReader {
    /// Run `f` over the current value under the read lock (in place, no
    /// copy — but blocking: a writer stalls all readers and vice versa).
    pub fn read_with_lock<R>(&mut self, f: impl FnOnce(&[u8]) -> R) -> R {
        let g = self.reg.lock.read();
        f(&g.data[..g.len])
    }
}

impl fmt::Debug for LockReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockReader").finish()
    }
}

/// Type-level handle for the lock-based algorithm.
pub struct LockFamily;

impl RegisterFamily for LockFamily {
    type Writer = LockWriter;
    type Reader = LockReader;

    const NAME: &'static str = "lock";

    fn wait_free_reads() -> bool {
        false
    }

    fn build(
        spec: RegisterSpec,
        initial: &[u8],
    ) -> Result<(Self::Writer, Vec<Self::Reader>), BuildError> {
        // The register itself admits unboundedly many readers; the family
        // contract still rejects degenerate specs for uniformity.
        validate_spec(spec, initial, None)?;
        let reg = LockRegister::new(spec.capacity, initial)?;
        let writer = reg.writer().expect("fresh register has no writer");
        let readers = (0..spec.readers).map(|_| reg.reader()).collect();
        Ok((writer, readers))
    }
}

impl WriteHandle for LockWriter {
    #[inline]
    fn write(&mut self, value: &[u8]) {
        LockWriter::write(self, value);
    }
}

impl ReadHandle for LockReader {
    #[inline]
    fn read_with<R, F: FnOnce(&[u8]) -> R>(&mut self, f: F) -> R {
        self.read_with_lock(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let reg = LockRegister::new(64, b"init").unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader();
        r.read_with_lock(|v| assert_eq!(v, b"init"));
        w.write(b"updated");
        r.read_with_lock(|v| assert_eq!(v, b"updated"));
    }

    #[test]
    fn unbounded_readers() {
        let reg = LockRegister::new(16, b"").unwrap();
        let _readers: Vec<_> = (0..100).map(|_| reg.reader()).collect();
    }

    #[test]
    fn writer_unique_and_reclaimable() {
        let reg = LockRegister::new(16, b"").unwrap();
        let w = reg.writer().unwrap();
        assert!(reg.writer().is_none());
        drop(w);
        assert!(reg.writer().is_some());
    }

    #[test]
    #[should_panic(expected = "exceeds register capacity")]
    fn oversized_write_panics() {
        let reg = LockRegister::new(8, b"").unwrap();
        reg.writer().unwrap().write(&[0; 9]);
    }

    #[test]
    fn family_metadata() {
        assert_eq!(LockFamily::NAME, "lock");
        assert!(!LockFamily::wait_free_reads());
        assert_eq!(LockFamily::reader_limit(), None);
    }

    #[test]
    fn concurrent_smoke_no_tearing() {
        let reg = LockRegister::new(128, &[0u8; 64]).unwrap();
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
                    r.read_with_lock(|v| {
                        let first = v.first().copied().unwrap_or(0);
                        assert!(v.iter().all(|&b| b == first), "torn lock read");
                    });
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
    }
}
