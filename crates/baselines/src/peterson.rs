//! A Peterson-style wait-free (1,N) register — after G. L. Peterson,
//! *Concurrent Reading While Writing*, TOPLAS 1983 (the ARC paper's
//! reference \[11\]).
//!
//! Peterson's construction predates hardware RMW exploitation: it uses
//! **only single-word atomic reads and writes plus fences**, paying for it
//! with data copies — the reader always copies the value out (possibly
//! twice), and the writer, besides its own copy, performs O(N) *helping*
//! copies into per-reader fallback buffers. Those copies are exactly why
//! Peterson degrades with register size and thread count in the paper's
//! Figures 1–3.
//!
//! # Reconstruction note (DESIGN.md §3.3)
//!
//! The original pseudocode is not reproduced in the ARC paper, so this
//! module implements a Peterson-*style* algorithm with the same mechanism
//! inventory (double buffer + switch bit, per-reader handshake bits,
//! per-reader helping buffers) and the same cost profile, restructured so
//! that its correctness is provable and mechanically checked (the
//! `interleave` crate model-checks it exhaustively):
//!
//! * **Writer**: writes the *inactive* main buffer, flips `SW`, then scans
//!   the handshake bits; for every reader announced since its last help, it
//!   copies the value into that reader's **double-buffered** fallback
//!   (`copybuff[i][1 − sel]`, then flips `sel[i]`, then equalizes the
//!   handshake `writing[i] := reading[i]`).
//! * **Reader**: announces (`reading[i] := !writing[i]`), samples `SW`,
//!   copies the selected main buffer, then checks the handshake **after**
//!   the copy: if any writer helped since the announce, the main copy may
//!   be torn — discard it and take the private fallback copy, which is
//!   provably stable (at most one help can land per announce) and fresh
//!   (the helping write overlapped this read).
//!
//! Compared to the original: same O(N) helping writer and copy-out reads;
//! `2 + 2N` buffers instead of `N + 2` (the doubled fallback buys the
//! mechanically-checkable stability argument). Buffer words are relaxed
//! atomics ([`WordBuf`]) because the main-path copy is deliberately racy —
//! word-atomicity is precisely the 1983 hardware model.
//!
//! # Why a discarded-but-racy copy is fine
//!
//! Torn main copy ⇒ some write W wrote the buffer the reader selected ⇒
//! `SW` flipped between the reader's sample and W's buffer write ⇒ the
//! flipping write W₀ *completed* (writer is sequential) before W began ⇒
//! W₀'s help scan ran after the reader's announce ⇒ the scan either saw the
//! announce (helped → handshake equal) or saw an equality established by an
//! even earlier post-announce help; either way the reader's post-copy
//! handshake check observes equality and discards the torn copy. ∎

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use register_common::pad::CachePadded;
use register_common::traits::{
    validate_spec, BuildError, ReadHandle, RegisterFamily, RegisterSpec, WriteHandle,
};

use crate::wordbuf::WordBuf;

/// Per-reader coordination state (one cache line each — handshake bits are
/// contended between that reader and the writer only).
struct ReaderState {
    /// Written by the reader at announce.
    reading: AtomicBool,
    /// Written by the writer when helping (equalize).
    writing: AtomicBool,
    /// Which fallback copy is current (writer-owned).
    sel: AtomicUsize,
    /// Double-buffered fallback copies (writer fills `1 - sel`, then flips).
    copybuff: [WordBuf; 2],
}

/// The shared Peterson register state.
pub struct PetersonRegister {
    /// Which main buffer is active (readers read `buff[sw]`).
    sw: CachePadded<AtomicUsize>,
    /// Double main buffer; the writer fills `1 - sw` then flips.
    buff: [WordBuf; 2],
    readers: Box<[CachePadded<ReaderState>]>,
    capacity: usize,
    free_ids: Mutex<Vec<usize>>,
    writer_claimed: AtomicBool,
}

impl PetersonRegister {
    /// Build a register for `max_readers` readers and values up to
    /// `capacity` bytes, initialized to `initial`.
    pub fn new(
        max_readers: usize,
        capacity: usize,
        initial: &[u8],
    ) -> Result<Arc<Self>, BuildError> {
        let spec = RegisterSpec::new(max_readers, capacity);
        validate_spec(spec, initial, None)?;
        let buff = [WordBuf::new(capacity), WordBuf::new(capacity)];
        buff[0].store_bytes(initial);
        let readers = (0..max_readers)
            .map(|_| {
                let st = ReaderState {
                    reading: AtomicBool::new(false),
                    writing: AtomicBool::new(false),
                    sel: AtomicUsize::new(0),
                    copybuff: [WordBuf::new(capacity), WordBuf::new(capacity)],
                };
                // A reader that takes the fallback before any help must
                // still find a valid (initial) value there.
                st.copybuff[0].store_bytes(initial);
                CachePadded::new(st)
            })
            .collect();
        Ok(Arc::new(Self {
            sw: CachePadded::new(AtomicUsize::new(0)),
            buff,
            readers,
            capacity,
            free_ids: Mutex::new((0..max_readers).rev().collect()),
            writer_claimed: AtomicBool::new(false),
        }))
    }

    /// Claim the unique writer handle.
    pub fn writer(self: &Arc<Self>) -> Option<PetersonWriter> {
        if self.writer_claimed.swap(true, Ordering::SeqCst) {
            return None;
        }
        Some(PetersonWriter { reg: Arc::clone(self) })
    }

    /// Register a reader handle.
    pub fn reader(self: &Arc<Self>) -> Option<PetersonReader> {
        let id = self.free_ids.lock().expect("id allocator poisoned").pop()?;
        Some(PetersonReader {
            reg: Arc::clone(self),
            id,
            scratch: Vec::with_capacity(self.capacity),
        })
    }

    /// Payload capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total buffers held (2 main + 2 per reader) — space accounting for
    /// DESIGN.md §3.3.
    pub fn n_buffers(&self) -> usize {
        2 + 2 * self.readers.len()
    }
}

impl fmt::Debug for PetersonRegister {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PetersonRegister")
            .field("sw", &self.sw.load(Ordering::SeqCst))
            .field("readers", &self.readers.len())
            .finish()
    }
}

/// The unique Peterson writer handle.
pub struct PetersonWriter {
    reg: Arc<PetersonRegister>,
}

impl PetersonWriter {
    /// Store a new value: one main-buffer copy + O(N) helping copies.
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
        let reg = &*self.reg;
        // Fill the inactive main buffer, then flip the switch (the write's
        // linearization point). SeqCst store orders the relaxed word stores
        // before the flip for readers sampling `sw`.
        let target = 1 - reg.sw.load(Ordering::Relaxed);
        reg.buff[target].store_bytes(value);
        reg.sw.store(target, Ordering::SeqCst);
        // Helping scan: any reader announced since our last help gets a
        // private, stable copy. Order within a help is load-bearing:
        // copybuff → sel → handshake-equalize (the reader trusts the
        // fallback only after observing the equalized handshake).
        for st in reg.readers.iter() {
            let reading = st.reading.load(Ordering::SeqCst);
            if reading != st.writing.load(Ordering::Relaxed) {
                let c = 1 - st.sel.load(Ordering::Relaxed);
                st.copybuff[c].store_bytes(value);
                st.sel.store(c, Ordering::SeqCst);
                // Equalize with the *sampled* value: the reader can only
                // flip `reading` again at its next announce, which is the
                // event that re-arms helping.
                st.writing.store(reading, Ordering::SeqCst);
            }
        }
    }
}

impl Drop for PetersonWriter {
    fn drop(&mut self) {
        // Reclaim-mid-write audit (the seqlock parity-bug battery): unlike
        // the seqlock, releasing the claim unconditionally is safe here.
        // No user code runs inside the write (no fill-closure API), the
        // relaxed word copies cannot unwind, and the capacity assert fires
        // before any shared state is touched — so a dropped handle always
        // leaves the register in one of its normal states: either `sw`
        // never flipped (readers keep using the old main buffer) or the
        // write fully published and only some helping copies are missing,
        // which the handshake discipline treats exactly like a slow
        // writer (an announced reader's fallback holds the last value it
        // was helped with, and its main-path copy of the *published*
        // buffer is only discarded when a help landed — both consistent).
        self.reg.writer_claimed.store(false, Ordering::SeqCst);
    }
}

/// A Peterson reader handle (owns a handshake slot and a scratch buffer).
pub struct PetersonReader {
    reg: Arc<PetersonRegister>,
    id: usize,
    scratch: Vec<u8>,
}

impl PetersonReader {
    /// Read the current value into the handle's scratch buffer and return
    /// it. Wait-free, **zero RMW**, but always ≥ 1 copy (that is the cost
    /// the paper measures).
    pub fn read(&mut self) -> &[u8] {
        let reg = &*self.reg;
        let st = &*reg.readers[self.id];
        // Announce: reading := !writing (forces inequality; only a writer
        // help can re-equalize).
        let w = st.writing.load(Ordering::SeqCst);
        st.reading.store(!w, Ordering::SeqCst);
        // Optimistic main-path copy of the active buffer.
        let s1 = reg.sw.load(Ordering::SeqCst);
        reg.buff[s1].load_bytes(&mut self.scratch);
        // Handshake check AFTER the copy (module docs: any interleaving
        // that can tear the main copy forces equality here first).
        if st.writing.load(Ordering::SeqCst) != w {
            // A help landed since the announce: the main copy is suspect;
            // take the private fallback (stable: ≤ 1 help per announce;
            // visible: sel/copybuff writes happen-before the equalize).
            let sel = st.sel.load(Ordering::SeqCst);
            st.copybuff[sel].load_bytes(&mut self.scratch);
        }
        &self.scratch
    }

    /// This reader's handshake slot.
    pub fn id(&self) -> usize {
        self.id
    }
}

impl fmt::Debug for PetersonReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PetersonReader").field("id", &self.id).finish()
    }
}

impl Drop for PetersonReader {
    fn drop(&mut self) {
        self.reg.free_ids.lock().expect("id allocator poisoned").push(self.id);
    }
}

/// Type-level handle for the Peterson algorithm.
pub struct PetersonFamily;

impl RegisterFamily for PetersonFamily {
    type Writer = PetersonWriter;
    type Reader = PetersonReader;

    const NAME: &'static str = "peterson";

    fn build(
        spec: RegisterSpec,
        initial: &[u8],
    ) -> Result<(Self::Writer, Vec<Self::Reader>), BuildError> {
        let reg = PetersonRegister::new(spec.readers, spec.capacity, initial)?;
        let writer = reg.writer().expect("fresh register has no writer");
        let readers =
            (0..spec.readers).map(|_| reg.reader().expect("within the reader cap")).collect();
        Ok((writer, readers))
    }
}

impl WriteHandle for PetersonWriter {
    #[inline]
    fn write(&mut self, value: &[u8]) {
        PetersonWriter::write(self, value);
    }
}

impl ReadHandle for PetersonReader {
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
        let reg = PetersonRegister::new(2, 64, b"init").unwrap();
        let mut r = reg.reader().unwrap();
        assert_eq!(r.read(), b"init");
    }

    #[test]
    fn initial_value_readable_via_fallback() {
        // Force the fallback on a fresh register: announce, then have the
        // writer help before the reader checks. Simulated by a write that
        // sees the announced state.
        let reg = PetersonRegister::new(1, 64, b"init").unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        let _ = r.read(); // plain read
        w.write(b"v1");
        assert_eq!(r.read(), b"v1");
    }

    #[test]
    fn write_then_read() {
        let reg = PetersonRegister::new(2, 64, b"").unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(b"value");
        assert_eq!(r.read(), b"value");
    }

    #[test]
    fn alternating_reads_and_writes() {
        let reg = PetersonRegister::new(1, 64, b"").unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        for i in 0..100u64 {
            let v = i.to_le_bytes();
            w.write(&v);
            assert_eq!(r.read(), &v, "iteration {i}");
        }
    }

    #[test]
    fn repeated_reads_without_writes() {
        let reg = PetersonRegister::new(1, 32, b"stable").unwrap();
        let mut r = reg.reader().unwrap();
        for _ in 0..10 {
            assert_eq!(r.read(), b"stable");
        }
    }

    #[test]
    fn variable_sizes() {
        let reg = PetersonRegister::new(1, 64, b"").unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        for len in [0usize, 1, 8, 33, 64] {
            let v = vec![9u8; len];
            w.write(&v);
            assert_eq!(r.read(), &v[..], "len {len}");
        }
    }

    #[test]
    fn ids_recycled() {
        let reg = PetersonRegister::new(1, 16, b"").unwrap();
        let a = reg.reader().unwrap();
        assert!(reg.reader().is_none());
        drop(a);
        assert!(reg.reader().is_some());
    }

    #[test]
    fn writer_unique_and_reclaimable() {
        let reg = PetersonRegister::new(1, 16, b"").unwrap();
        let w = reg.writer().unwrap();
        assert!(reg.writer().is_none());
        drop(w);
        assert!(reg.writer().is_some());
    }

    #[test]
    fn space_accounting() {
        let reg = PetersonRegister::new(5, 16, b"").unwrap();
        assert_eq!(reg.n_buffers(), 12, "2 main + 2 per reader");
    }

    #[test]
    #[should_panic(expected = "exceeds register capacity")]
    fn oversized_write_panics() {
        let reg = PetersonRegister::new(1, 8, b"").unwrap();
        reg.writer().unwrap().write(&[0; 9]);
    }

    #[test]
    fn family_interface() {
        let (mut w, mut rs) = PetersonFamily::build(RegisterSpec::new(2, 64), b"x").unwrap();
        WriteHandle::write(&mut w, b"family");
        for r in rs.iter_mut() {
            r.read_with(|v| assert_eq!(v, b"family"));
        }
        assert_eq!(PetersonFamily::NAME, "peterson");
        assert!(PetersonFamily::wait_free_reads());
    }

    #[test]
    fn concurrent_smoke_no_tearing() {
        let reg = PetersonRegister::new(4, 128, &[0u8; 64]).unwrap();
        let mut w = reg.writer().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
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
                    assert!(v.iter().all(|&b| b == first), "torn Peterson read: {v:?}");
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
