//! The byte-payload ARC register: `ArcRegister`, `ArcWriter`, `ArcReader`.
//!
//! This is the user-facing form of the paper's register: values are byte
//! strings of varying length (up to a fixed capacity), writes copy the new
//! value into a free slot exactly once, and reads return a **zero-copy**
//! view into the slot that stays valid until the same handle's next read —
//! the paper's "a read concludes when the reader reads again" semantics,
//! enforced at compile time by the borrow checker (`read` takes
//! `&mut self`, so the returned [`Snapshot`] must be dropped before the
//! next read).
//!
//! # Safety architecture
//!
//! Slot payloads live in `UnsafeCell`s; all synchronization is carried by
//! the [`RawArc`] protocol:
//!
//! * the writer mutates a slot only between `select_slot` (which proved
//!   `r_start == r_end` with an `Acquire` load ordering all previous
//!   readers' loads before the writer's stores) and `publish`;
//! * a reader dereferences a slot only while holding an unreleased presence
//!   unit on it, and its loads happen-after the writer's stores via the
//!   `SeqCst` swap/fetch_add pair on `current`.
//!
//! # Payload placement: inline vs arena
//!
//! Values of at most [`INLINE_CAP`] bytes are stored **inside the slot
//! header's own cache line** (the `SlotBuf` below: 8 bytes of length +
//! 48 inline bytes = 56 ≤ 64), so the R2 fast path touches exactly one
//! payload line with no pointer chase. Larger values go to a single shared
//! **byte arena** (`n_slots × capacity`, one region per slot). Placement
//! is a pure function of the value length — `len <= INLINE_CAP` means
//! inline — so readers never need a separately-synchronized tag: the `len`
//! word they already load *is* the tag, written under the same protocol
//! exclusivity as the bytes themselves.

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use register_common::metrics::{MetricsSnapshot, OpMetrics, Tally};
use register_common::pad::CachePadded;
use register_common::traits::{validate_spec, BuildError, RegisterSpec};

use crate::current::MAX_READERS;
use crate::errors::{HandleError, WriteError};
use crate::group::ArcGroup;
use crate::raw::{
    guard_drop_on, read_acquire_on, PublishGuard, RawArc, RawOptions, RawReader, RawWriter,
    ReadOutcome,
};
use crate::typed::Versioned;

/// Largest payload (bytes) stored inline in the slot header cache line.
///
/// 48 = 64-byte line − 8-byte length word − 8 bytes of alignment headroom;
/// together with the length the whole record stays within one line.
pub const INLINE_CAP: usize = 48;

/// One payload slot: the current value length plus the inline small-value
/// buffer. Large values live in the register's byte arena instead.
///
/// All fields are protocol-protected (see module docs); they carry no
/// synchronization of their own. Each `SlotBuf` is `CachePadded` by the
/// register so slots never false-share.
struct SlotBuf {
    /// Value length; doubles as the placement tag (`<= INLINE_CAP` ⇒ the
    /// bytes are in `inline`, otherwise in the arena region of this slot).
    len: UnsafeCell<usize>,
    inline: UnsafeCell<[u8; INLINE_CAP]>,
}

// SAFETY: SlotBuf is shared across threads, but every access is serialized
// by the RawArc protocol: the writer has exclusive access between
// select_slot and publish; readers have shared access while pinned, with
// happens-before edges through `current` / `r_end` (module docs).
unsafe impl Sync for SlotBuf {}
// SAFETY: a slot buffer is plain bytes plus atomics; it has no
// thread-affine state, so moving it between threads is sound.
unsafe impl Send for SlotBuf {}

/// The large-payload byte arena: one `capacity`-sized region per slot
/// (per register × slot for slab groups).
///
/// Empty when every representable value fits inline.
pub(crate) struct Arena(Box<[UnsafeCell<u8>]>);

impl Arena {
    /// A zero-filled arena of `len` bytes (one allocation).
    pub(crate) fn zeroed(len: usize) -> Self {
        Arena((0..len).map(|_| UnsafeCell::new(0u8)).collect())
    }

    /// Base pointer of the byte region.
    #[inline]
    pub(crate) fn base(&self) -> *const UnsafeCell<u8> {
        self.0.as_ptr()
    }

    /// Arena length in bytes.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

// SAFETY: same protocol-serialization argument as SlotBuf — a region is
// written only by the writer between select_slot and publish, and read only
// under a standing presence unit.
unsafe impl Sync for Arena {}
// SAFETY: the arena owns a plain byte allocation with no thread-affine
// state; transferring ownership between threads is sound.
unsafe impl Send for Arena {}

/// Builder for [`ArcRegister`].
#[derive(Debug, Clone)]
pub struct ArcBuilder {
    max_readers: u32,
    capacity: usize,
    n_slots: Option<usize>,
    opts: RawOptions,
    inline: bool,
    initial: Vec<u8>,
}

impl ArcBuilder {
    /// Start building a register for up to `max_readers` concurrent readers
    /// holding values of up to `capacity` bytes.
    pub fn new(max_readers: u32, capacity: usize) -> Self {
        Self {
            max_readers,
            capacity,
            n_slots: None,
            opts: RawOptions::default(),
            inline: true,
            initial: Vec::new(),
        }
    }

    /// Initial register value (Algorithm 1); empty by default.
    pub fn initial(mut self, value: &[u8]) -> Self {
        self.initial = value.to_vec();
        self
    }

    /// Override the slot count (default `max_readers + 2`, the classical
    /// lower bound). Fewer slots forfeit writer wait-freedom — ablation use
    /// only.
    pub fn slots(mut self, n_slots: usize) -> Self {
        self.n_slots = Some(n_slots);
        self
    }

    /// Enable/disable the §3.4 free-slot hint (default on).
    pub fn hint(mut self, on: bool) -> Self {
        self.opts.hint = on;
        self
    }

    /// Enable/disable the R2 no-RMW read fast path (default on).
    pub fn fast_path(mut self, on: bool) -> Self {
        self.opts.fast_path = on;
        self
    }

    /// Enable/disable inline storage of small payloads (default on).
    ///
    /// With inlining off every value — however small — lives in the byte
    /// arena; this exists so the benches can isolate the cost of the extra
    /// cache line (EXPERIMENTS.md, `inline_vs_arena`).
    pub fn inline(mut self, on: bool) -> Self {
        self.inline = on;
        self
    }

    /// Build the register.
    pub fn build(self) -> Result<Arc<ArcRegister>, BuildError> {
        let spec = RegisterSpec::new(self.max_readers as usize, self.capacity);
        validate_spec(spec, &self.initial, Some(MAX_READERS as usize))?;
        let n_slots = self.n_slots.unwrap_or(self.max_readers as usize + 2);
        let raw = RawArc::new(self.max_readers, n_slots, self.opts);
        let slots: Box<[CachePadded<SlotBuf>]> = (0..n_slots)
            .map(|_| {
                CachePadded::new(SlotBuf {
                    len: UnsafeCell::new(0),
                    inline: UnsafeCell::new([0u8; INLINE_CAP]),
                })
            })
            .collect();
        // The arena only exists if some representable value needs it.
        let arena_bytes =
            if self.inline && self.capacity <= INLINE_CAP { 0 } else { n_slots * self.capacity };
        let arena = Arena::zeroed(arena_bytes);
        let reg = ArcRegister {
            raw,
            slots,
            arena,
            capacity: self.capacity,
            inline: self.inline,
            metrics: OpMetrics::new(),
        };
        // Algorithm 1: the initial value goes to slot 0, which RawArc::new
        // already published. No reader or writer exists yet, so plain
        // writes are race-free; the Arc construction below publishes them
        // to other threads.
        // SAFETY: exclusive access — the register is not shared yet.
        unsafe {
            reg.fill_slot(0, self.initial.len(), |buf| buf.copy_from_slice(&self.initial));
        }
        Ok(Arc::new(reg))
    }
}

/// A wait-free multi-word atomic (1,N) register over byte payloads.
///
/// Create with [`ArcRegister::builder`], then split into one [`ArcWriter`]
/// (via [`ArcRegister::writer`]) and up to N [`ArcReader`]s (via
/// [`ArcRegister::reader`]).
pub struct ArcRegister {
    raw: RawArc,
    slots: Box<[CachePadded<SlotBuf>]>,
    /// Large-payload storage: region `slot * capacity ..` per slot.
    arena: Arena,
    capacity: usize,
    /// Whether payloads ≤ [`INLINE_CAP`] are stored in the slot header.
    inline: bool,
    /// Totals folded in by dropped handles (E5/E6).
    metrics: OpMetrics,
}

impl ArcRegister {
    /// Start building a register.
    pub fn builder(max_readers: u32, capacity: usize) -> ArcBuilder {
        ArcBuilder::new(max_readers, capacity)
    }

    /// Convenience: build with defaults and an initial value.
    pub fn with_initial(
        max_readers: u32,
        capacity: usize,
        initial: &[u8],
    ) -> Result<Arc<ArcRegister>, BuildError> {
        Self::builder(max_readers, capacity).initial(initial).build()
    }

    /// Maximum payload size in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether payloads of at most [`INLINE_CAP`] bytes are stored inline
    /// in the slot header line (default true; see [`ArcBuilder::inline`]).
    pub fn inline_enabled(&self) -> bool {
        self.inline
    }

    /// Number of buffer slots (normally `N + 2`).
    pub fn n_slots(&self) -> usize {
        self.raw.n_slots()
    }

    /// Configured reader cap `N`.
    pub fn max_readers(&self) -> u32 {
        self.raw.max_readers()
    }

    /// Live reader handles.
    pub fn live_readers(&self) -> u32 {
        self.raw.live_readers()
    }

    /// The published version: number of completed writes (0 = only the
    /// initial value). Monotone; safe to poll from any thread.
    #[inline]
    pub fn published_version(&self) -> u64 {
        self.raw.published_version()
    }

    /// The protocol core (for the watch layer in [`crate::watch`]).
    #[inline]
    pub(crate) fn raw_arc(&self) -> &RawArc {
        &self.raw
    }

    /// Claim the unique writer handle.
    pub fn writer(self: &Arc<Self>) -> Result<ArcWriter, HandleError> {
        let wr = self.raw.writer_claim()?;
        Ok(ArcWriter { reg: Arc::clone(self), wr: Some(wr), tally: Tally::default() })
    }

    /// Register a reader handle (up to `max_readers` concurrently).
    pub fn reader(self: &Arc<Self>) -> Result<ArcReader, HandleError> {
        let rd = self.raw.reader_join()?;
        Ok(ArcReader { reg: Arc::clone(self), rd: Some(rd), tally: Tally::default() })
    }

    /// Operation metrics (E5/E6) of every handle dropped so far; exact
    /// once all handles are gone.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Bytes of heap this register owns (struct + slot headers + slot
    /// metadata + arena), the footprint the `group_scaling` bench compares
    /// against the slab layout. Excludes allocator bookkeeping overhead,
    /// so the real resident cost is strictly higher.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.raw.meta_heap_bytes()
            + self.slots.len() * std::mem::size_of::<CachePadded<SlotBuf>>()
            + self.arena.len()
    }

    /// Whether values of `len` bytes are stored inline in the slot header.
    #[inline]
    fn stored_inline(&self, len: usize) -> bool {
        self.inline && len <= INLINE_CAP
    }

    /// Slice view of a slot's current value.
    ///
    /// # Safety
    ///
    /// Caller must hold read rights on `slot` per the protocol (a standing
    /// presence unit, or writer exclusivity).
    #[inline]
    unsafe fn slot_bytes(&self, slot: usize) -> &[u8] {
        // SAFETY: per the function contract the slot is stable; `len` was
        // written before the publication that the caller's unit pins, and
        // deterministically selects the same placement the writer used.
        unsafe {
            let len = *self.slots[slot].len.get();
            if self.stored_inline(len) {
                let inline: &[u8; INLINE_CAP] = &*self.slots[slot].inline.get();
                &inline[..len]
            } else {
                let base = self.arena.base().add(slot * self.capacity);
                std::slice::from_raw_parts(base.cast::<u8>(), len)
            }
        }
    }

    /// Write `len` bytes into `slot` via `fill`, then record the length.
    ///
    /// # Safety
    ///
    /// Caller must hold *exclusive* write rights on `slot` per the protocol
    /// (between `select_slot` and `publish`, or sole access at build time).
    #[inline]
    unsafe fn fill_slot(&self, slot: usize, len: usize, fill: impl FnOnce(&mut [u8])) {
        // SAFETY: exclusivity per the function contract; placement is the
        // same pure function of `len` that readers use.
        unsafe {
            let dst: &mut [u8] = if self.stored_inline(len) {
                let inline: &mut [u8; INLINE_CAP] = &mut *self.slots[slot].inline.get();
                &mut inline[..len]
            } else {
                let base = self.arena.base().add(slot * self.capacity);
                std::slice::from_raw_parts_mut(base.cast::<u8>().cast_mut(), len)
            };
            fill(dst);
            *self.slots[slot].len.get() = len;
        }
    }
}

impl fmt::Debug for ArcRegister {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArcRegister")
            .field("capacity", &self.capacity)
            .field("n_slots", &self.n_slots())
            .field("max_readers", &self.max_readers())
            .field("live_readers", &self.live_readers())
            .finish()
    }
}

/// The register's unique writer handle.
pub struct ArcWriter {
    reg: Arc<ArcRegister>,
    wr: Option<RawWriter>,
    tally: Tally,
}

impl ArcWriter {
    /// Store a new value (wait-free; one memcpy — Algorithm 3).
    ///
    /// # Panics
    ///
    /// Panics if `value.len()` exceeds the register capacity (the
    /// [`ArcWriter::try_write`] error message).
    pub fn write(&mut self, value: &[u8]) {
        if let Err(e) = self.try_write(value) {
            panic!("{e}");
        }
    }

    /// Store a new value by filling the slot buffer in place (avoids the
    /// caller-side staging copy): `fill` receives exactly `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the register capacity.
    pub fn write_with(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) {
        if let Err(e) = self.try_write_with(len, fill) {
            panic!("{e}");
        }
    }

    /// Fallible [`ArcWriter::write`]: an oversize payload is rejected
    /// with [`WriteError::PayloadTooLarge`] instead of a panic, and the
    /// register is untouched (no slot consumed, no version bumped).
    pub fn try_write(&mut self, value: &[u8]) -> Result<(), WriteError> {
        self.try_write_with(value.len(), |buf| buf.copy_from_slice(value))
    }

    /// Fallible [`ArcWriter::write_with`]; see [`ArcWriter::try_write`].
    ///
    /// A `fill` that panics unwinds through the panic-safe publication
    /// guard (DESIGN.md §3.13): the selected slot is discarded, the
    /// journal retired, and this handle stays valid — the next write
    /// proceeds normally.
    pub fn try_write_with(
        &mut self,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<(), WriteError> {
        if len > self.reg.capacity {
            return Err(WriteError::PayloadTooLarge { len, capacity: self.reg.capacity });
        }
        let wr = self.wr.as_mut().expect("writer state present until drop");
        // W1: select a free slot; the guard repairs any unwind from here
        // until publish returns.
        let guard = PublishGuard::select(&self.reg.raw, wr, &mut self.tally);
        let slot = guard.slot();
        // SAFETY: select granted exclusive access to `slot` until publish;
        // the Acquire edge on r_end ordered all prior readers' loads
        // before these stores.
        unsafe {
            self.reg.fill_slot(slot, len, fill);
        }
        guard.publish(); // W2 + W3
        Ok(())
    }

    /// The register this writer belongs to.
    pub fn register(&self) -> &Arc<ArcRegister> {
        &self.reg
    }

    /// Slot index of the current publication.
    pub fn last_slot(&self) -> usize {
        self.wr.as_ref().expect("writer state present until drop").last_slot()
    }
}

impl fmt::Debug for ArcWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArcWriter").field("last_slot", &self.last_slot()).finish()
    }
}

impl Drop for ArcWriter {
    fn drop(&mut self) {
        if let Some(wr) = self.wr.take() {
            self.reg.raw.writer_release(wr);
        }
        self.reg.metrics.fold(&self.tally);
    }
}

/// A reader handle (one per reading thread).
pub struct ArcReader {
    reg: Arc<ArcRegister>,
    rd: Option<RawReader>,
    tally: Tally,
}

impl ArcReader {
    /// Read the most recent value (Algorithm 2). Wait-free, zero-copy,
    /// constant time.
    ///
    /// The returned [`Snapshot`] borrows this handle: the slot it views is
    /// pinned until this handle's **next** `read` (or drop), exactly the
    /// paper's read-completion semantics.
    #[inline]
    pub fn read(&mut self) -> Snapshot<'_> {
        let rd = self.rd.as_mut().expect("reader state present until drop");
        let out = read_acquire_on(&self.reg.raw, rd, &mut self.tally);
        // SAFETY: read_acquire pinned `out.slot` for this handle; the pin
        // lasts until the next read_acquire/leave, which require &mut self
        // and are therefore excluded while the Snapshot's borrow is live.
        let bytes = unsafe { self.reg.slot_bytes(out.slot) };
        let inline = self.reg.stored_inline(bytes.len());
        Snapshot { bytes, slot: out.slot, fast: out.fast, inline, version: out.version }
    }

    /// Read the most recent value as an **RAII guard** (Algorithm 2).
    /// Wait-free, zero-copy at every payload size: the guard dereferences
    /// straight into the inline slot line or the arena — no memcpy.
    ///
    /// Unlike [`ArcReader::read`] (whose pin always lasts until the
    /// handle's next read), the guard's drop is the read's end: if the
    /// register has moved on by then, the presence unit is released
    /// immediately and the slot re-enters the writer's rotation without
    /// waiting for this handle's next read. While held, the guard is a
    /// **standing pin** — one slot stays out of rotation per held guard,
    /// which the `N + 2` slot budget already accounts for (at most one
    /// guard per handle; DESIGN.md §3.8).
    #[inline]
    pub fn read_ref(&mut self) -> ReadGuard<'_> {
        let rd = self.rd.as_mut().expect("reader state present until drop");
        let reg: &ArcRegister = &self.reg;
        let out = read_acquire_on(&reg.raw, rd, &mut self.tally);
        self.tally.guard_reads += 1;
        // SAFETY: read_acquire pinned `out.slot` for this handle; the pin
        // is held at least for the guard's lifetime (the drop probe only
        // releases it, never re-acquires), and the handle is mutably
        // borrowed for that lifetime, so no other acquire can intervene.
        let bytes = unsafe { reg.slot_bytes(out.slot) };
        let inline = reg.stored_inline(bytes.len());
        ReadGuard {
            bytes,
            slot: out.slot,
            fast: out.fast,
            inline,
            version: out.version,
            rd,
            tally: &mut self.tally,
            backend: GuardBackend::Single(&reg.raw),
        }
    }

    /// Read the most recent value together with its publication version —
    /// [`ArcReader::read`] re-packaged for version-driven callers.
    #[inline]
    pub fn read_versioned(&mut self) -> Versioned<Snapshot<'_>> {
        let snap = self.read();
        Versioned { version: snap.version(), value: snap }
    }

    /// Copy the current value into `out`, returning its length. Built on
    /// [`ArcReader::read_ref`] + the shared tuned copy routine
    /// ([`register_common::copy::copy_to_vec`]): `out`'s capacity is
    /// reused (`clear` + `reserve`, never shrink), so a caller that keeps
    /// one `Vec` across reads performs zero steady-state allocations.
    ///
    /// Named distinctly from [`ReadHandle::read_into`] (the trait method
    /// copies into a caller-sized `&mut [u8]`); an inherent method with the
    /// trait's name would shadow it on every `ArcReader` call site.
    ///
    /// [`ReadHandle::read_into`]: register_common::traits::ReadHandle::read_into
    pub fn read_to_vec(&mut self, out: &mut Vec<u8>) -> usize {
        let guard = self.read_ref();
        register_common::copy::copy_to_vec(&guard, out)
    }

    /// The register this reader belongs to.
    pub fn register(&self) -> &Arc<ArcRegister> {
        &self.reg
    }

    /// Slot currently pinned by this handle, if it has read at least once.
    pub fn pinned_slot(&self) -> Option<usize> {
        self.rd.as_ref().and_then(|r| r.pinned_slot())
    }
}

impl fmt::Debug for ArcReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArcReader").field("pinned_slot", &self.pinned_slot()).finish()
    }
}

impl Drop for ArcReader {
    fn drop(&mut self) {
        if let Some(rd) = self.rd.take() {
            self.reg.raw.reader_leave(rd);
        }
        self.reg.metrics.fold(&self.tally);
    }
}

/// A zero-copy view of the register value returned by [`ArcReader::read`].
///
/// Dereferences to `&[u8]`. Also reports the publication version, which
/// slot served the read and whether the no-RMW fast path was taken.
pub struct Snapshot<'a> {
    bytes: &'a [u8],
    slot: usize,
    fast: bool,
    inline: bool,
    version: u64,
}

impl<'a> Snapshot<'a> {
    /// Assemble a snapshot (shared with the `group` handles, which pin
    /// slots through the same protocol).
    pub(crate) fn assemble(
        bytes: &'a [u8],
        slot: usize,
        fast: bool,
        inline: bool,
        version: u64,
    ) -> Self {
        Self { bytes, slot, fast, inline, version }
    }

    /// Publication version of this value: the number of writes completed
    /// up to (and including) the one this read observes, 0 for the initial
    /// value. Per reader handle, versions never decrease and strictly
    /// increase whenever the observed value changes; feed it to
    /// [`WatchReader::wait_for_update`](crate::watch::WatchReader::wait_for_update)
    /// or [`crate::ArcGroup::poll_changed`] to learn of the next write
    /// without re-reading.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The snapshot bytes with the full lifetime of the reader borrow.
    ///
    /// The slice outlives the `Snapshot` struct itself (the pin is held by
    /// the *handle* until its next read, not by this value).
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Slot index that served this read.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Whether the read took the no-RMW fast path (R2).
    pub fn fast(&self) -> bool {
        self.fast
    }

    /// Whether the value was served from the slot-header inline storage
    /// (single cache line) rather than the byte arena.
    pub fn inline(&self) -> bool {
        self.inline
    }
}

impl Deref for Snapshot<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.bytes
    }
}

impl fmt::Debug for Snapshot<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("len", &self.bytes.len())
            .field("slot", &self.slot)
            .field("fast", &self.fast)
            .finish()
    }
}

/// Which layout's protocol words a [`ReadGuard`]'s drop must talk to.
pub(crate) enum GuardBackend<'a> {
    /// A standalone [`ArcRegister`].
    Single(&'a RawArc),
    /// Register `k` of a slab group.
    Group { group: &'a ArcGroup, k: usize },
}

/// An RAII **zero-copy pinned view** of the register value, returned by
/// [`ArcReader::read_ref`] (and the group `read_ref` methods).
///
/// Dereferences to `&[u8]` — the actual protocol-pinned bytes in the slot
/// line or the arena, never a copy. While the guard lives, its slot holds
/// a standing presence unit and cannot be recycled or re-stamped by the
/// writer (the writer stays wait-free regardless — the `N + 2` slot
/// budget covers one pinned slot per reader handle, and a handle can hold
/// at most one guard because the guard borrows it mutably). On drop, the
/// presence unit is released immediately if the register has moved past
/// the pinned publication; otherwise the pin is kept cached in the handle
/// so the next read hits the R2 fast path.
///
/// The borrow rules *are* the safety argument, enforced at compile time:
///
/// The guard cannot outlive its handle —
///
/// ```compile_fail
/// use arc_register::ArcRegister;
/// let reg = ArcRegister::builder(1, 64).initial(b"pinned").build().unwrap();
/// let mut r = reg.reader().unwrap();
/// let guard = r.read_ref();
/// drop(r); // ERROR: `r` is mutably borrowed by `guard`
/// assert_eq!(&*guard, b"pinned");
/// ```
///
/// — the handle cannot read again while a guard is held —
///
/// ```compile_fail
/// use arc_register::ArcRegister;
/// let reg = ArcRegister::builder(1, 64).build().unwrap();
/// let mut r = reg.reader().unwrap();
/// let guard = r.read_ref();
/// let _ = r.read(); // ERROR: second mutable borrow of `r`
/// assert!(guard.is_empty());
/// ```
///
/// — and the bytes cannot escape the guard (unlike [`Snapshot::bytes`],
/// whose pin is *handle*-held, [`ReadGuard::bytes`] ties the slice to the
/// guard itself, because the drop may release the pin):
///
/// ```compile_fail
/// use arc_register::ArcRegister;
/// let reg = ArcRegister::builder(1, 64).initial(b"gone").build().unwrap();
/// let mut r = reg.reader().unwrap();
/// let bytes = {
///     let guard = r.read_ref();
///     guard.bytes() // ERROR: borrowed value does not live long enough
/// };
/// assert_eq!(bytes, b"gone");
/// ```
pub struct ReadGuard<'a> {
    /// The pinned payload view (valid while the guard holds the unit).
    bytes: &'a [u8],
    slot: usize,
    fast: bool,
    inline: bool,
    version: u64,
    /// The owning handle's protocol state, mutably borrowed so the drop
    /// probe can release/keep the pin — and so no concurrent read of the
    /// same handle can exist while the guard is alive.
    rd: &'a mut RawReader,
    /// The owning handle's tally, which counts the drop.
    tally: &'a mut MetricsSnapshot,
    backend: GuardBackend<'a>,
}

impl ReadGuard<'_> {
    /// Assemble a guard (shared with the group read paths).
    pub(crate) fn assemble<'a>(
        bytes: &'a [u8],
        out: ReadOutcome,
        inline: bool,
        rd: &'a mut RawReader,
        tally: &'a mut MetricsSnapshot,
        backend: GuardBackend<'a>,
    ) -> ReadGuard<'a> {
        let (slot, fast, version) = (out.slot, out.fast, out.version);
        ReadGuard { bytes, slot, fast, inline, version, rd, tally, backend }
    }

    /// The pinned bytes, tied to the guard's own borrow (they must not
    /// outlive the guard: dropping it may release the slot to the writer).
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        self.bytes
    }

    /// Publication version of this value (same contract as
    /// [`Snapshot::version`]: 0 for the initial value, monotone per
    /// handle, strictly increasing whenever the observed value changes).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Slot index the guard pins.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Whether the read took the no-RMW fast path (R2).
    pub fn fast(&self) -> bool {
        self.fast
    }

    /// Whether the value was served from the slot-header inline storage.
    pub fn inline(&self) -> bool {
        self.inline
    }
}

impl Deref for ReadGuard<'_> {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.bytes
    }
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        match self.backend {
            GuardBackend::Single(raw) => guard_drop_on(raw, self.rd, self.tally),
            GuardBackend::Group { group, k } => group.guard_drop(k, self.rd, self.tally),
        }
    }
}

impl fmt::Debug for ReadGuard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReadGuard")
            .field("len", &self.bytes.len())
            .field("slot", &self.slot)
            .field("fast", &self.fast)
            .field("version", &self.version)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Arc<ArcRegister> {
        ArcRegister::builder(4, 64).initial(b"init").build().unwrap()
    }

    #[test]
    fn initial_value_is_readable() {
        let reg = small();
        let mut r = reg.reader().unwrap();
        assert_eq!(&*r.read(), b"init");
    }

    #[test]
    fn empty_initial_value() {
        let reg = ArcRegister::builder(1, 16).build().unwrap();
        let mut r = reg.reader().unwrap();
        assert_eq!(r.read().len(), 0);
    }

    #[test]
    fn write_then_read() {
        let reg = small();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(b"hello");
        assert_eq!(&*r.read(), b"hello");
    }

    #[test]
    fn variable_sizes_roundtrip() {
        let reg = small();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        for len in [0usize, 1, 7, 8, 63, 64] {
            let v: Vec<u8> = (0..len).map(|i| i as u8).collect();
            w.write(&v);
            assert_eq!(&*r.read(), &v[..], "len {len}");
        }
    }

    #[test]
    fn snapshot_survives_concurrent_overwrites() {
        // The paper's pinning guarantee: a standing read keeps its slot
        // stable across arbitrarily many writes.
        let reg = small();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(b"stable");
        let snap = r.read();
        let bytes = snap.bytes();
        for i in 0..100u8 {
            w.write(&[i; 32]);
        }
        assert_eq!(bytes, b"stable", "pinned snapshot must not be overwritten");
        // The next read observes the latest value.
        assert_eq!(&*r.read(), &[99u8; 32][..]);
    }

    #[test]
    fn fast_path_reported() {
        let reg = small();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        assert!(!r.read().fast(), "first read acquires");
        assert!(r.read().fast(), "second read with no write is fast");
        w.write(b"x");
        assert!(!r.read().fast(), "read after write must switch");
        assert!(r.read().fast());
    }

    #[test]
    fn read_to_vec_copies() {
        let reg = small();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(b"copy me");
        let mut out = Vec::new();
        assert_eq!(r.read_to_vec(&mut out), 7);
        assert_eq!(out, b"copy me");
    }

    #[test]
    fn write_with_fills_in_place() {
        let reg = small();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write_with(8, |buf| buf.copy_from_slice(b"in-place"));
        assert_eq!(&*r.read(), b"in-place");
    }

    #[test]
    #[should_panic(expected = "exceeds register capacity")]
    fn oversized_write_panics() {
        let reg = small();
        let mut w = reg.writer().unwrap();
        w.write(&[0u8; 65]);
    }

    #[test]
    fn writer_is_unique_and_reclaimable() {
        let reg = small();
        let w = reg.writer().unwrap();
        assert!(matches!(reg.writer(), Err(HandleError::WriterAlreadyClaimed)));
        drop(w);
        let mut w2 = reg.writer().unwrap();
        w2.write(b"after reclaim");
        let mut r = reg.reader().unwrap();
        assert_eq!(&*r.read(), b"after reclaim");
    }

    #[test]
    fn reader_cap_and_reuse() {
        let reg = ArcRegister::builder(2, 16).build().unwrap();
        let r1 = reg.reader().unwrap();
        let _r2 = reg.reader().unwrap();
        assert!(matches!(reg.reader(), Err(HandleError::ReadersExhausted { max_readers: 2 })));
        drop(r1);
        assert!(reg.reader().is_ok());
    }

    #[test]
    fn builder_validates() {
        assert!(ArcRegister::builder(0, 16).build().is_err());
        assert!(ArcRegister::builder(1, 0).build().is_err());
        assert!(ArcRegister::builder(1, 4).initial(&[0; 8]).build().is_err());
    }

    #[test]
    fn builder_options_apply() {
        let reg =
            ArcRegister::builder(2, 16).slots(8).hint(false).fast_path(false).build().unwrap();
        assert_eq!(reg.n_slots(), 8);
        let mut r = reg.reader().unwrap();
        let _ = r.read();
        assert!(!r.read().fast(), "fast path disabled");
    }

    #[test]
    fn debug_impls() {
        let reg = small();
        let w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        let snap = r.read();
        let s = format!("{reg:?} {w:?} {snap:?}");
        assert!(s.contains("ArcRegister") && s.contains("Snapshot"));
    }

    #[test]
    fn dropping_reader_mid_pin_frees_slot_eventually() {
        let reg = ArcRegister::builder(1, 16).build().unwrap(); // 3 slots
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        let _ = r.read(); // pin slot 0
                          // Dropping the reader releases its unit; the writer must then be
                          // able to cycle through all slots indefinitely.
        drop(r);
        for i in 0..10u8 {
            w.write(&[i; 4]);
        }
    }

    #[test]
    fn inline_boundary_roundtrips_exactly() {
        // Placement flips at INLINE_CAP; bytes must round-trip on both
        // sides of the boundary, and the Snapshot must report where the
        // value lived.
        let reg = ArcRegister::builder(2, 256).build().unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        for len in [0, 1, INLINE_CAP - 1, INLINE_CAP, INLINE_CAP + 1, 255, 256] {
            let v: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            w.write(&v);
            let snap = r.read();
            assert_eq!(&*snap, &v[..], "len {len}");
            assert_eq!(snap.inline(), len <= INLINE_CAP, "placement at len {len}");
        }
    }

    #[test]
    fn inline_disabled_forces_arena() {
        let reg = ArcRegister::builder(2, 64).inline(false).build().unwrap();
        assert!(!reg.inline_enabled());
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(b"tiny");
        let snap = r.read();
        assert_eq!(&*snap, b"tiny");
        assert!(!snap.inline(), "inline(false) must route through the arena");
    }

    #[test]
    fn small_capacity_register_never_allocates_arena() {
        // capacity <= INLINE_CAP: every value is inline; large writes are
        // rejected by the capacity check before placement matters.
        let reg = ArcRegister::builder(4, INLINE_CAP).build().unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(&[9u8; INLINE_CAP]);
        let snap = r.read();
        assert_eq!(snap.len(), INLINE_CAP);
        assert!(snap.inline());
    }

    #[test]
    fn inline_values_survive_concurrent_overwrites() {
        // The pinning guarantee must hold for header-inlined values too:
        // the writer recycles *other* slots' header lines while this
        // snapshot stays pinned.
        let reg = ArcRegister::builder(2, 64).build().unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(b"pinned-inline");
        let snap = r.read();
        assert!(snap.inline());
        let bytes = snap.bytes();
        for i in 0..100u8 {
            w.write(&[i; 48]);
        }
        assert_eq!(bytes, b"pinned-inline");
    }

    #[test]
    fn mixed_inline_and_arena_interleaving() {
        // Alternate sizes across the boundary so the same slots carry
        // inline and arena values in successive generations.
        let reg = ArcRegister::builder(1, 512).build().unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        for round in 0..50usize {
            let len = if round % 2 == 0 { 8 + round % 40 } else { 64 + round };
            let v: Vec<u8> = (0..len).map(|i| (i ^ round) as u8).collect();
            w.write(&v);
            let snap = r.read();
            assert_eq!(&*snap, &v[..], "round {round}");
            assert_eq!(snap.inline(), len <= INLINE_CAP);
        }
    }

    #[test]
    fn guard_reads_are_zero_copy_views() {
        let reg = ArcRegister::builder(2, 256).build().unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        for len in [0, 1, INLINE_CAP - 1, INLINE_CAP, INLINE_CAP + 1, 255, 256] {
            let v: Vec<u8> = (0..len).map(|i| (i * 11 + len) as u8).collect();
            w.write(&v);
            let g = r.read_ref();
            assert_eq!(&*g, &v[..], "len {len}");
            assert_eq!(g.inline(), len <= INLINE_CAP, "placement at len {len}");
            let version = g.version();
            drop(g);
            assert_eq!(version, r.read_ref().version(), "re-read of an unchanged publication");
        }
    }

    #[test]
    fn guard_drop_releases_stale_pin_immediately() {
        let reg = small();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(b"old");
        {
            let g = r.read_ref(); // pins the "old" slot
            w.write(b"new"); // supersedes it while the guard is held
            assert_eq!(&*g, b"old", "guard must keep its publication");
            assert_eq!(reg.raw_arc().outstanding_units(), 1);
        }
        // Drop probe saw the register had moved on: unit released without
        // waiting for the handle's next read.
        assert_eq!(reg.raw_arc().outstanding_units(), 0);
        assert_eq!(r.pinned_slot(), None);
        assert_eq!(&*r.read_ref(), b"new");
    }

    #[test]
    fn guard_drop_keeps_fresh_pin_for_the_fast_path() {
        let reg = small();
        let mut r = reg.reader().unwrap();
        drop(r.read_ref()); // nothing written since: pin kept
        assert!(r.pinned_slot().is_some());
        let g = r.read_ref();
        assert!(g.fast(), "unchanged publication must hit R2 through guards too");
    }

    #[test]
    fn held_guard_pins_across_more_writes_than_slots() {
        // A guard held across >= n_slots writes: the writer must stay
        // wait-free (every write completes) and the pinned bytes must
        // never be re-stamped — the model-checked held-guard scenario
        // (interleave::arc_model), exercised on the real code.
        let reg = ArcRegister::builder(1, 64).build().unwrap(); // 3 slots
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(b"hold-me");
        let g = r.read_ref();
        for i in 0..100u8 {
            w.write(&[i; 32]); // cycles the remaining 2 slots only
        }
        assert_eq!(&*g, b"hold-me", "held guard's slot was recycled");
        drop(g);
        assert_eq!(&*r.read_ref(), &[99u8; 32][..]);
    }

    #[test]
    fn read_to_vec_reuses_capacity() {
        let reg = ArcRegister::builder(1, 4096).build().unwrap();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(&[7u8; 4096]);
        let mut out = Vec::new();
        assert_eq!(r.read_to_vec(&mut out), 4096);
        let cap = out.capacity();
        let ptr = out.as_ptr();
        w.write(b"tiny");
        assert_eq!(r.read_to_vec(&mut out), 4);
        assert_eq!(out, b"tiny");
        assert_eq!(out.capacity(), cap, "read_to_vec must never shrink the buffer");
        assert_eq!(out.as_ptr(), ptr, "steady-state read_to_vec must not reallocate");
    }

    #[test]
    fn guard_metrics_total_after_handle_drop() {
        let reg = small();
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        drop(r.read_ref()); // pins the initial value; kept for R2
        let g = r.read_ref(); // fast path
        w.write(b"moved on");
        drop(g); // the register moved: eager R3 release
        assert_eq!(reg.metrics(), MetricsSnapshot::default(), "live handles fold nothing");
        drop(r);
        let m = reg.metrics();
        assert_eq!((m.guard_reads, m.guard_drops), (2, 2));
        assert_eq!((m.reads, m.fast_reads, m.read_rmws), (2, 1, 2));
        drop(w);
        assert_eq!(reg.metrics().writes, 1);
    }

    #[test]
    fn concurrent_smoke() {
        let reg = ArcRegister::builder(8, 256).initial(&[0; 64]).build().unwrap();
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
                    let snap = r.read();
                    // All bytes of a snapshot must agree (writer writes
                    // constant-fill payloads).
                    let first = snap.first().copied().unwrap_or(0);
                    assert!(snap.iter().all(|&b| b == first), "torn read");
                    reads += 1;
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                }
                reads
            }));
        }
        for i in 0..20_000u32 {
            w.write(&[(i % 251) as u8; 64]);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
    }
}
