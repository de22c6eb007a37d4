//! A typed ARC register: share any `T: Send + Sync` instead of bytes.
//!
//! The paper presents the register over raw buffers; in Rust the same
//! protocol carries typed values for free — the writer moves a `T` into a
//! free slot, readers get `&T` views pinned until their next read. This is
//! the form most applications want (configuration snapshots, routing
//! tables, market-data books), and it demonstrates that ARC's "no
//! intermediate copies" property extends to arbitrary data structures.

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use register_common::metrics::{MetricsSnapshot, OpMetrics, Tally};

use crate::errors::HandleError;
use crate::raw::{
    guard_drop_on, read_acquire_on, PublishGuard, RawArc, RawOptions, RawReader, RawWriter,
};

/// A value paired with the publication version it was read at.
///
/// Returned by the `read_versioned` family of methods; the version is the
/// number of writes completed up to the one the value belongs to (0 for
/// the initial value). Per reader handle, versions never decrease, and
/// strictly increase whenever the observed value changes — hand the
/// version to a watch API (`wait_for_update`, `poll_changed`) to learn of
/// the *next* change without polling the value itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Versioned<V> {
    /// Publication version of `value`.
    pub version: u64,
    /// The value read.
    pub value: V,
}

/// A wait-free atomic (1,N) register holding values of type `T`.
pub struct TypedArc<T> {
    raw: RawArc,
    slots: Box<[UnsafeCell<Option<T>>]>,
    /// Totals folded in by dropped handles.
    metrics: OpMetrics,
}

// SAFETY: slot access is serialized by the RawArc protocol (exclusive for
// the writer between select_slot/publish, shared for pinned readers, with
// happens-before edges through `current`/`r_end`). `T: Send` because values
// move from the writer thread and drop on it later; `T: Sync` because
// readers share `&T` across threads.
unsafe impl<T: Send + Sync> Sync for TypedArc<T> {}
// SAFETY: moving the register between threads moves the stored `T`s with
// it, which `T: Send` permits; no other thread-affine state exists.
unsafe impl<T: Send + Sync> Send for TypedArc<T> {}

impl<T: Send + Sync> TypedArc<T> {
    /// Create a register for up to `max_readers` readers, initialized to
    /// `initial`.
    pub fn new(max_readers: u32, initial: T) -> Arc<Self> {
        let n_slots = max_readers as usize + 2;
        let raw = RawArc::new(max_readers, n_slots, RawOptions::default());
        let mut slots: Vec<UnsafeCell<Option<T>>> =
            (0..n_slots).map(|_| UnsafeCell::new(None)).collect();
        // Algorithm 1: publish the initial value in slot 0 (not shared yet).
        *slots[0].get_mut() = Some(initial);
        Arc::new(Self { raw, slots: slots.into_boxed_slice(), metrics: OpMetrics::new() })
    }

    /// Claim the unique writer handle.
    pub fn writer(self: &Arc<Self>) -> Result<TypedWriter<T>, HandleError> {
        let wr = self.raw.writer_claim()?;
        Ok(TypedWriter { reg: Arc::clone(self), wr: Some(wr), tally: Tally::default() })
    }

    /// Register a reader handle.
    pub fn reader(self: &Arc<Self>) -> Result<TypedReader<T>, HandleError> {
        let rd = self.raw.reader_join()?;
        Ok(TypedReader { reg: Arc::clone(self), rd: Some(rd), tally: Tally::default() })
    }

    /// Reader cap `N`.
    pub fn max_readers(&self) -> u32 {
        self.raw.max_readers()
    }

    /// The published version: number of completed writes (0 = only the
    /// initial value). Monotone; safe to poll from any thread.
    #[inline]
    pub fn published_version(&self) -> u64 {
        self.raw.published_version()
    }

    /// Operation metrics of every handle dropped so far (same contract
    /// as [`crate::ArcRegister::metrics`]).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The protocol core (for the watch layer in [`crate::watch`]).
    #[inline]
    pub(crate) fn raw_arc(&self) -> &RawArc {
        &self.raw
    }
}

impl<T> fmt::Debug for TypedArc<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TypedArc").field("n_slots", &self.slots.len()).finish()
    }
}

/// The unique writer for a [`TypedArc`].
pub struct TypedWriter<T: Send + Sync> {
    reg: Arc<TypedArc<T>>,
    wr: Option<RawWriter>,
    tally: Tally,
}

impl<T: Send + Sync> TypedWriter<T> {
    /// Publish a new value (wait-free; no copy beyond the move of `T`).
    ///
    /// Returns the value the new one displaced *from the reused slot* (an
    /// old, already-superseded snapshot) if one was stored there — callers
    /// can recycle expensive allocations this way.
    pub fn write(&mut self, value: T) -> Option<T> {
        let wr = self.wr.as_mut().expect("writer state present until drop");
        // The publication guard repairs any unwind between W1 and the end
        // of publish (injected protocol-point panics; DESIGN.md §3.13).
        let guard = PublishGuard::select(&self.reg.raw, wr, &mut self.tally);
        let slot = guard.slot();
        // SAFETY: exclusive slot access between select and publish.
        let displaced = unsafe { (*self.reg.slots[slot].get()).replace(value) };
        guard.publish();
        displaced
    }
}

impl<T: Send + Sync> Drop for TypedWriter<T> {
    fn drop(&mut self) {
        if let Some(wr) = self.wr.take() {
            self.reg.raw.writer_release(wr);
        }
        self.reg.metrics.fold(&self.tally);
    }
}

/// A reader handle for a [`TypedArc`].
pub struct TypedReader<T: Send + Sync> {
    reg: Arc<TypedArc<T>>,
    rd: Option<RawReader>,
    tally: Tally,
}

impl<T: Send + Sync> TypedReader<T> {
    /// Read the most recent value; the reference is pinned until this
    /// handle's next `read` (or drop).
    #[inline]
    pub fn read(&mut self) -> &T {
        self.read_versioned().value
    }

    /// Read the most recent value together with its publication version.
    /// Same pinning rules as [`TypedReader::read`].
    #[inline]
    pub fn read_versioned(&mut self) -> Versioned<&T> {
        let rd = self.rd.as_mut().expect("reader state present until drop");
        let out = read_acquire_on(&self.reg.raw, rd, &mut self.tally);
        // SAFETY: the slot is pinned for this handle until the next
        // read_acquire/leave, both requiring &mut self; the slot holds Some
        // because every published slot was filled by the writer (or by
        // construction for slot 0).
        let value = unsafe {
            (*self.reg.slots[out.slot].get()).as_ref().expect("published slot always holds a value")
        };
        Versioned { version: out.version, value }
    }

    /// Read the most recent value as an **RAII guard** — the typed form of
    /// [`crate::ArcReader::read_ref`]: dereferences to `&T` straight from
    /// the pinned slot (no clone, no copy) and carries the publication
    /// version. Dropping the guard ends the read: if the register has
    /// already moved past the pinned publication, the presence unit is
    /// released immediately (the slot — and the old `T` in it — becomes
    /// reclaimable without waiting for this handle's next read); otherwise
    /// the pin stays cached for the R2 fast path.
    #[inline]
    pub fn read_ref(&mut self) -> TypedReadGuard<'_, T> {
        let rd = self.rd.as_mut().expect("reader state present until drop");
        let reg: &TypedArc<T> = &self.reg;
        let out = read_acquire_on(&reg.raw, rd, &mut self.tally);
        self.tally.guard_reads += 1;
        // SAFETY: as in `read_versioned` — the slot is pinned at least for the
        // guard's lifetime (the drop probe only releases, never
        // re-acquires), and `rd` stays mutably borrowed throughout.
        let value = unsafe {
            (*reg.slots[out.slot].get()).as_ref().expect("published slot always holds a value")
        };
        let tally = &mut self.tally;
        TypedReadGuard { value, version: out.version, fast: out.fast, rd, tally, raw: &reg.raw }
    }

    /// Clone the current value out.
    pub fn read_cloned(&mut self) -> T
    where
        T: Clone,
    {
        self.read().clone()
    }

    /// The register this reader belongs to.
    pub fn register(&self) -> &Arc<TypedArc<T>> {
        &self.reg
    }
}

impl<T: Send + Sync> Drop for TypedReader<T> {
    fn drop(&mut self) {
        if let Some(rd) = self.rd.take() {
            self.reg.raw.reader_leave(rd);
        }
        self.reg.metrics.fold(&self.tally);
    }
}

/// An RAII zero-copy view of a [`TypedArc`] value, returned by
/// [`TypedReader::read_ref`]. Dereferences to `&T`; while held, the value
/// is pinned against reclamation (a standing presence unit — one slot per
/// held guard, within the `N + 2` budget). See
/// [`ReadGuard`](crate::register::ReadGuard) for the byte-register form
/// and the borrow rules both enforce at compile time.
pub struct TypedReadGuard<'a, T: Send + Sync> {
    value: &'a T,
    version: u64,
    fast: bool,
    /// Mutably borrowed so drop can release/keep the pin and no other
    /// read of the same handle can start while the guard lives.
    rd: &'a mut RawReader,
    /// The owning handle's tally, which counts the drop.
    tally: &'a mut MetricsSnapshot,
    raw: &'a RawArc,
}

impl<T: Send + Sync> TypedReadGuard<'_, T> {
    /// Publication version of the pinned value (0 = the initial value;
    /// monotone per handle, strictly increasing when the value changes).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether the read took the no-RMW fast path (R2).
    pub fn fast(&self) -> bool {
        self.fast
    }
}

impl<T: Send + Sync> Deref for TypedReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        self.value
    }
}

impl<T: Send + Sync> Drop for TypedReadGuard<'_, T> {
    fn drop(&mut self) {
        guard_drop_on(self.raw, self.rd, self.tally);
    }
}

impl<T: Send + Sync + fmt::Debug> fmt::Debug for TypedReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TypedReadGuard")
            .field("value", &self.value)
            .field("version", &self.version)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Config {
        version: u64,
        routes: Vec<String>,
    }

    #[test]
    fn initial_value_readable() {
        let reg = TypedArc::new(2, Config { version: 0, routes: vec![] });
        let mut r = reg.reader().unwrap();
        assert_eq!(r.read().version, 0);
    }

    #[test]
    fn write_and_read_structs() {
        let reg = TypedArc::new(2, Config { version: 0, routes: vec![] });
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(Config { version: 1, routes: vec!["a".into(), "b".into()] });
        let c = r.read();
        assert_eq!(c.version, 1);
        assert_eq!(c.routes.len(), 2);
    }

    #[test]
    fn pinned_reference_survives_writes() {
        let reg = TypedArc::new(2, 0u64);
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(7);
        let v: &u64 = r.read();
        for i in 8..200 {
            w.write(i);
        }
        assert_eq!(*v, 7, "pinned value must be stable");
        assert_eq!(*r.read(), 199);
    }

    #[test]
    fn displaced_values_are_returned_for_reuse() {
        let reg = TypedArc::new(1, vec![0u8; 1024]);
        let mut w = reg.writer().unwrap();
        let mut displaced = 0;
        for i in 0..10 {
            if w.write(vec![i as u8; 1024]).is_some() {
                displaced += 1;
            }
        }
        // With 3 slots and no readers, reuse must kick in after the first
        // two writes land in virgin slots.
        assert!(displaced >= 8, "only {displaced} writes displaced old values");
    }

    #[test]
    fn read_cloned() {
        let reg = TypedArc::new(1, String::from("x"));
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        w.write(String::from("owned"));
        let s: String = r.read_cloned();
        assert_eq!(s, "owned");
    }

    #[test]
    fn values_are_dropped_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        // SAFETY-net test: N writes + initial = N+1 values created; all must
        // drop exactly once when the register drops.
        {
            let reg = TypedArc::new(1, Counted);
            let mut w = reg.writer().unwrap();
            for _ in 0..10 {
                drop(w.write(Counted)); // displaced values drop here
            }
            drop(w);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn typed_guard_derefs_and_releases_stale_pin() {
        let reg = TypedArc::new(2, String::from("old"));
        let mut w = reg.writer().unwrap();
        let mut r = reg.reader().unwrap();
        {
            let g = r.read_ref();
            assert_eq!(&*g, "old");
            assert_eq!(g.version(), 0);
            w.write(String::from("new"));
            assert_eq!(&*g, "old", "guard must keep its publication");
        }
        // The stale pin was released at drop; the displaced "old" slot is
        // reclaimable without another read from this handle.
        assert_eq!(reg.raw.outstanding_units(), 0);
        let g = r.read_ref();
        assert_eq!(&*g, "new");
        assert_eq!(g.version(), 1);
    }

    #[test]
    fn typed_guard_keeps_fresh_pin_fast() {
        let reg = TypedArc::new(1, 7u64);
        let mut r = reg.reader().unwrap();
        drop(r.read_ref());
        assert!(r.read_ref().fast(), "unchanged publication must hit R2");
    }

    #[test]
    fn concurrent_typed_smoke() {
        let reg = TypedArc::new(4, (0u64, 0u64));
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
                    let (a, b) = *r.read();
                    assert_eq!(a, b, "typed snapshot must be consistent");
                    reads += 1;
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                }
                reads
            }));
        }
        for i in 0..50_000u64 {
            w.write((i, i));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
    }
}
