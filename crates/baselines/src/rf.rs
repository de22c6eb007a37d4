//! The Readers-Field (RF) register — Larsson, Gidenstam, Ha,
//! Papatriantafilou, Tsigas, *Multiword atomic read/write registers on
//! multiprocessor systems*, JEA 2009 (the ARC paper's reference \[2\]).
//!
//! RF is the closest prior RMW-based wait-free (1,N) register and the
//! algorithm ARC is primarily measured against. Its coordination word is a
//! single `AtomicU64` split into:
//!
//! ```text
//! bits 63..58 : index of the buffer holding the newest value (6 bits)
//! bits 57..0  : one presence bit per reader (58 bits)
//! ```
//!
//! * **Read**: `fetch_or(my_bit)` — **one RMW on every read**, even when
//!   the value hasn't changed. The returned word names the newest buffer,
//!   which the reader then dereferences in place (no copy).
//! * **Write**: pick a buffer that is neither the current one nor *traced*
//!   to any reader, copy the value in, `swap` the word with the new index
//!   and a cleared mask, and fold the swapped-out mask into a writer-local
//!   `trace[]`: `trace[r] = old_index` for every reader bit that was set.
//!   `trace[r]` conservatively pins the last buffer reader `r` was seen
//!   on, until a later swap observes `r`'s bit again. O(N) per write.
//!
//! Because every reader needs a dedicated bit, at most **58 readers** fit —
//! the scalability wall that motivates ARC's anonymous counting.
//!
//! The buffer count is `N + 2`: at most `N` traced + 1 current, so a free
//! buffer always exists — writes are wait-free too.
//!
//! # Reconstruction note
//!
//! The original paper's pseudocode is not reproduced in the ARC paper; this
//! implementation follows the description above (ARC §2/§5), which pins
//! down the algorithm up to inessential details. The per-read `fetch_or`
//! and the 58-reader cap — the two properties the ARC evaluation turns on —
//! are structural.

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use register_common::pad::CachePadded;
use register_common::traits::{
    validate_spec, BuildError, ReadHandle, RegisterFamily, RegisterSpec, WriteHandle,
};
use register_common::{metrics::MetricsSnapshot, OpMetrics};

/// Maximum readers RF admits: 64 word bits − 6 index bits.
pub const RF_MAX_READERS: usize = 58;

const INDEX_SHIFT: u32 = 58;
const MASK_BITS: u64 = (1u64 << INDEX_SHIFT) - 1;

/// One payload buffer (protocol-protected, like ARC's slots).
struct Buffer {
    len: UnsafeCell<usize>,
    data: UnsafeCell<Box<[u8]>>,
}

// SAFETY: the writer mutates a buffer only while it is unreferenced (not
// current, not traced to any reader); readers dereference only buffers
// protected by their presence bit / trace entry. Happens-before edges run
// through the SeqCst RMWs on `word` (see module docs).
unsafe impl Sync for Buffer {}
// SAFETY: buffer contents are plain `u64` words; ownership moves between
// threads only through the protocol serialization described above.
unsafe impl Send for Buffer {}

/// The shared RF register state.
pub struct RfRegister {
    /// Packed (index, reader mask) word.
    word: CachePadded<AtomicU64>,
    buffers: Box<[Buffer]>,
    capacity: usize,
    max_readers: usize,
    /// Reader-id allocator (registration is cold; a Mutex is fine).
    free_ids: Mutex<Vec<u8>>,
    /// `trace[r]` = last buffer reader `r` was observed on. Logically
    /// writer-local (only the claimed writer touches it), but stored here so
    /// it survives writer drop/re-claim; atomics make the handoff sound
    /// (ordered by the SeqCst claim flag).
    trace: Box<[AtomicU8]>,
    /// Writer-handle claim flag.
    writer_claimed: AtomicU64,
    /// Totals folded in by dropped handles (experiment E5).
    metrics: OpMetrics,
}

impl RfRegister {
    /// Build a register for `max_readers` (≤ 58) readers holding values up
    /// to `capacity` bytes, initialized to `initial` (buffer 0).
    pub fn new(
        max_readers: usize,
        capacity: usize,
        initial: &[u8],
    ) -> Result<Arc<Self>, BuildError> {
        let spec = RegisterSpec::new(max_readers, capacity);
        validate_spec(spec, initial, Some(RF_MAX_READERS))?;
        let n_buffers = max_readers + 2;
        let buffers: Box<[Buffer]> = (0..n_buffers)
            .map(|_| Buffer {
                len: UnsafeCell::new(0),
                data: UnsafeCell::new(vec![0u8; capacity].into_boxed_slice()),
            })
            .collect();
        // Not shared yet: plain initialization of buffer 0.
        // SAFETY: exclusive access during construction.
        unsafe {
            let buf: &mut Box<[u8]> = &mut *buffers[0].data.get();
            buf[..initial.len()].copy_from_slice(initial);
            *buffers[0].len.get() = initial.len();
        }
        Ok(Arc::new(Self {
            word: CachePadded::new(AtomicU64::new(0)), // index 0, empty mask
            buffers,
            capacity,
            max_readers,
            free_ids: Mutex::new((0..max_readers as u8).rev().collect()),
            // Conservative initial traces: every reader might be looking at
            // buffer 0 (they start there before their first fetch_or).
            trace: (0..max_readers).map(|_| AtomicU8::new(0)).collect(),
            writer_claimed: AtomicU64::new(0),
            metrics: OpMetrics::new(),
        }))
    }

    /// Claim the unique writer handle.
    pub fn writer(self: &Arc<Self>) -> Option<RfWriter> {
        if self.writer_claimed.swap(1, Ordering::SeqCst) != 0 {
            return None;
        }
        Some(RfWriter {
            reg: Arc::clone(self),
            last_written: (self.word.load(Ordering::SeqCst) >> INDEX_SHIFT) as usize,
            writes: CachePadded::default(),
        })
    }

    /// Register a reader (≤ `max_readers` live at once).
    pub fn reader(self: &Arc<Self>) -> Option<RfReader> {
        let id = self.free_ids.lock().expect("id allocator poisoned").pop()?;
        Some(RfReader { reg: Arc::clone(self), id, reads: CachePadded::default() })
    }

    /// Payload capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Configured reader cap (≤ 58).
    pub fn max_readers(&self) -> usize {
        self.max_readers
    }

    /// Buffer count (`N + 2`).
    pub fn n_buffers(&self) -> usize {
        self.buffers.len()
    }

    /// Operation metrics (E5) of every handle dropped so far: each RF
    /// read and write is exactly one RMW.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// # Safety
    ///
    /// Caller must hold read rights on `buffer` per the RF protocol.
    #[inline]
    unsafe fn buffer_bytes(&self, buffer: usize) -> &[u8] {
        // SAFETY: per the contract, the buffer is stable for the caller.
        unsafe {
            let len = *self.buffers[buffer].len.get();
            let buf: &[u8] = &*self.buffers[buffer].data.get();
            &buf[..len]
        }
    }
}

impl fmt::Debug for RfRegister {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.word.load(Ordering::SeqCst);
        f.debug_struct("RfRegister")
            .field("current", &(w >> INDEX_SHIFT))
            .field("mask", &format_args!("{:#x}", w & MASK_BITS))
            .field("n_buffers", &self.n_buffers())
            .finish()
    }
}

/// The unique RF writer handle.
pub struct RfWriter {
    reg: Arc<RfRegister>,
    last_written: usize,
    /// Writes by this handle (own cache line), folded into `metrics` on drop.
    writes: CachePadded<u64>,
}

impl RfWriter {
    /// Store a new value (wait-free, one copy, O(N) trace scan).
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
        *self.writes += 1;

        // Select a buffer that is neither current nor traced (always exists:
        // ≤ N traced + 1 current among N + 2 buffers).
        let n = self.reg.buffers.len();
        let mut used = vec![false; n];
        used[self.last_written] = true;
        for t in self.reg.trace.iter() {
            used[t.load(Ordering::Relaxed) as usize] = true;
        }
        let target = (0..n).find(|&b| !used[b]).expect("N+2 buffers guarantee a free one");

        // Exclusive access: nobody references `target`.
        // SAFETY: see Buffer's Sync rationale.
        unsafe {
            let buf = &mut *self.reg.buffers[target].data.get();
            buf[..value.len()].copy_from_slice(value);
            *self.reg.buffers[target].len.get() = value.len();
        }

        // Publish: new index, cleared mask. SeqCst swap = release for the
        // payload stores, acquire for the mask we fold into the traces.
        let old = self.reg.word.swap((target as u64) << INDEX_SHIFT, Ordering::SeqCst);

        let old_index = (old >> INDEX_SHIFT) as u8;
        let mut mask = old & MASK_BITS;
        while mask != 0 {
            let r = mask.trailing_zeros() as usize;
            self.reg.trace[r].store(old_index, Ordering::Relaxed);
            mask &= mask - 1;
        }
        self.last_written = target;
    }

    /// The buffer holding the current publication.
    pub fn last_written(&self) -> usize {
        self.last_written
    }
}

impl fmt::Debug for RfWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RfWriter").field("last_written", &self.last_written).finish()
    }
}

impl Drop for RfWriter {
    fn drop(&mut self) {
        let n = *self.writes;
        self.reg.metrics.fold(&MetricsSnapshot { writes: n, write_rmws: n, ..Default::default() });
        self.reg.writer_claimed.store(0, Ordering::SeqCst);
    }
}

/// An RF reader handle (owns one of the 58 presence bits).
pub struct RfReader {
    reg: Arc<RfRegister>,
    id: u8,
    /// Reads by this handle (own cache line), folded into `metrics` on drop.
    reads: CachePadded<u64>,
}

impl RfReader {
    /// Read the newest value in place. Wait-free; **always one RMW**.
    ///
    /// The returned slice stays valid until this handle's next read (the
    /// writer cannot reuse the buffer while `trace[id]` or the presence bit
    /// pins it), mirroring ARC's guard semantics.
    #[inline]
    pub fn read(&mut self) -> &[u8] {
        *self.reads += 1;
        let raw = self.reg.word.fetch_or(1u64 << self.id, Ordering::SeqCst);
        let index = (raw >> INDEX_SHIFT) as usize;
        // SAFETY: our bit is set on the word naming `index`: either the
        // writer's next swap observes it (trace[id] = index pins the
        // buffer), or no swap happens and `index` stays current. Either way
        // the buffer cannot be selected for writing until our next
        // fetch_or hands the pin over.
        unsafe { self.reg.buffer_bytes(index) }
    }

    /// This reader's bit position.
    pub fn id(&self) -> u8 {
        self.id
    }
}

impl fmt::Debug for RfReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RfReader").field("id", &self.id).finish()
    }
}

impl Drop for RfReader {
    fn drop(&mut self) {
        let n = *self.reads;
        self.reg.metrics.fold(&MetricsSnapshot { reads: n, read_rmws: n, ..Default::default() });
        // Return the id. The writer's trace keeps conservatively pinning the
        // last buffer this id was seen on until a new holder's fetch_or
        // refreshes it — safe either way.
        self.reg.free_ids.lock().expect("id allocator poisoned").push(self.id);
    }
}

/// Type-level handle for the RF algorithm.
pub struct RfFamily;

impl RegisterFamily for RfFamily {
    type Writer = RfWriter;
    type Reader = RfReader;

    const NAME: &'static str = "rf";

    fn reader_limit() -> Option<usize> {
        Some(RF_MAX_READERS)
    }

    fn build(
        spec: RegisterSpec,
        initial: &[u8],
    ) -> Result<(Self::Writer, Vec<Self::Reader>), BuildError> {
        let reg = RfRegister::new(spec.readers, spec.capacity, initial)?;
        let writer = reg.writer().expect("fresh register has no writer");
        let readers =
            (0..spec.readers).map(|_| reg.reader().expect("within the reader cap")).collect();
        Ok((writer, readers))
    }
}

impl WriteHandle for RfWriter {
    #[inline]
    fn write(&mut self, value: &[u8]) {
        RfWriter::write(self, value);
    }
}

impl ReadHandle for RfReader {
    #[inline]
    fn read_with<R, F: FnOnce(&[u8]) -> R>(&mut self, f: F) -> R {
        f(self.read())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_value_readable() {
        let reg = RfRegister::new(4, 64, b"init").unwrap();
        let mut r = reg.reader().unwrap();
        assert_eq!(r.read(), b"init");
    }

    #[test]
    fn write_then_read() {
        let reg = RfRegister::new(4, 64, b"").unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(b"value");
        assert_eq!(r.read(), b"value");
    }

    #[test]
    fn reader_cap_is_58() {
        assert!(RfRegister::new(59, 16, b"").is_err());
        let reg = RfRegister::new(58, 16, b"").unwrap();
        assert_eq!(reg.n_buffers(), 60);
    }

    #[test]
    fn ids_are_unique_and_recycled() {
        let reg = RfRegister::new(2, 16, b"").unwrap();
        let a = reg.reader().unwrap();
        let b = reg.reader().unwrap();
        assert_ne!(a.id(), b.id());
        assert!(reg.reader().is_none(), "cap enforced");
        let id = a.id();
        drop(a);
        assert_eq!(reg.reader().unwrap().id(), id, "id recycled");
    }

    #[test]
    fn writer_unique_and_reclaimable() {
        let reg = RfRegister::new(1, 16, b"").unwrap();
        let w = reg.writer().unwrap();
        assert!(reg.writer().is_none());
        drop(w);
        assert!(reg.writer().is_some());
    }

    #[test]
    fn pinned_buffer_not_overwritten() {
        let reg = RfRegister::new(2, 32, b"pinned").unwrap();
        let mut w = reg.writer().unwrap();
        let mut camper = reg.reader().unwrap();
        let view = camper.read();
        for i in 0..100u8 {
            w.write(&[i; 16]);
        }
        assert_eq!(view, b"pinned", "traced buffer must survive 100 writes");
        assert_eq!(camper.read(), &[99u8; 16]);
    }

    #[test]
    fn never_reading_readers_pin_only_buffer_zero() {
        // Readers that never read keep trace[r] = 0; the writer must still
        // cycle freely through the remaining buffers.
        let reg = RfRegister::new(4, 16, b"seed").unwrap();
        let _idle: Vec<_> = (0..4).map(|_| reg.reader().unwrap()).collect();
        let mut w = reg.writer().unwrap();
        for i in 0..50u8 {
            w.write(&[i; 8]);
        }
    }

    #[test]
    fn variable_sizes() {
        let reg = RfRegister::new(1, 64, b"").unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        for len in [0usize, 1, 33, 64] {
            let v = vec![7u8; len];
            w.write(&v);
            assert_eq!(r.read(), &v[..]);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds register capacity")]
    fn oversized_write_panics() {
        let reg = RfRegister::new(1, 8, b"").unwrap();
        reg.writer().unwrap().write(&[0; 9]);
    }

    #[test]
    fn family_interface() {
        let (mut w, mut rs) = RfFamily::build(RegisterSpec::new(3, 64), b"x").unwrap();
        WriteHandle::write(&mut w, b"family");
        for r in rs.iter_mut() {
            r.read_with(|v| assert_eq!(v, b"family"));
        }
        assert_eq!(RfFamily::NAME, "rf");
        assert_eq!(RfFamily::reader_limit(), Some(58));
    }

    #[test]
    fn concurrent_smoke_no_tearing() {
        let reg = RfRegister::new(4, 128, &[0u8; 64]).unwrap();
        let mut w = reg.writer().unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mut r = reg.reader().unwrap();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                // One unconditional read before honoring `stop`: on a
                // single-core box the writer can finish and set `stop`
                // before this thread is first scheduled.
                let mut reads = 0u64;
                loop {
                    let v = r.read();
                    let first = v.first().copied().unwrap_or(0);
                    assert!(v.iter().all(|&b| b == first), "torn RF read");
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
