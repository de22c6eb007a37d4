//! # Anonymous Readers Counting (ARC)
//!
//! A **wait-free multi-word atomic (1,N) register** for large-scale data
//! sharing on multi-core machines — a from-scratch Rust implementation of:
//!
//! > M. Ianni, A. Pellegrini, F. Quaglia. *A Wait-free Multi-word Atomic
//! > (1,N) Register for Large-scale Data Sharing on Multi-core Machines.*
//! > IEEE CLUSTER 2017 (arXiv:1707.07478).
//!
//! One writer and up to **2³² − 2** concurrent readers share a value of
//! arbitrary (bounded) size with *linearizable* semantics and *wait-free*
//! progress for every operation:
//!
//! * **reads are O(1), zero-copy, and RMW-free** when the value hasn't
//!   changed since the reader's last read (the R2 fast path);
//! * **writes are amortized O(1)** with exactly one copy of the new value
//!   (no intermediate copies), using the classical minimum of `N + 2`
//!   buffers;
//! * no operation ever blocks, retries, or fails — resilience that matters
//!   on oversubscribed and virtualized hosts where a preempted lock holder
//!   would otherwise stall everyone (the paper's Figures 2–3).
//!
//! ## Quick start
//!
//! ```
//! use arc_register::ArcRegister;
//!
//! let reg = ArcRegister::builder(8, 4096).initial(b"v0").build().unwrap();
//! let mut writer = reg.writer().unwrap();
//! let mut reader = reg.reader().unwrap();
//!
//! writer.write(b"fresh value");
//! let snap = reader.read();            // zero-copy, wait-free
//! assert_eq!(&*snap, b"fresh value");
//!
//! let guard = reader.read_ref();       // RAII form: the guard IS the read
//! assert_eq!(&*guard, b"fresh value"); // derefs into the slot — no memcpy
//! drop(guard);                         // drop releases the pin eagerly
//! ```
//!
//! For sharing typed values instead of bytes, see [`TypedArc`].
//!
//! ## How it works
//!
//! The whole coordination state is a single 64-bit word
//! `current = (slot index << 32) | standing-reader counter`. A reader's
//! `fetch_add(current, 1)` atomically learns the freshest slot *and*
//! registers an anonymous presence unit on exactly that slot; the writer's
//! `swap` publishes a new slot and *freezes* the displaced counter into the
//! old slot's bookkeeping. A slot is reused only when every frozen unit has
//! been matched by a reader release — so readers are never torn, and nobody
//! ever waits. See [`raw`] for the protocol and the paper's Algorithms 1–3.
//!
//! ## Crate layout
//!
//! * [`register`] — [`ArcRegister`]: byte-payload register (the paper's).
//! * [`group`] — [`ArcGroup`]: K registers (up to ~1M) from one slab,
//!   with batched write/read paths for multi-register workloads. A slab
//!   has one protocol configuration; the paper's ablation switches live
//!   on [`ArcBuilder`] only.
//! * [`typed`] — [`TypedArc`]: the same protocol carrying any `T`.
//! * [`watch`] — versioned reads + change notification: park until the
//!   register publishes past a version watermark ([`WatchReader`]),
//!   batch-poll a group's header lines ([`ArcGroup::poll_changed`]), or
//!   (feature `async`) stream versions to any `std::task` executor. The
//!   read/write paths stay wait-free — waiting is opt-in and outside the
//!   protocol.
//! * [`raw`] — the slot/counter protocol, payload-agnostic and
//!   storage-generic (both layouts above run it unchanged).
//! * [`shm`] — the relocatable slab: [`ArcGroup`] stores all K registers
//!   in one offset-addressed mapping, on heap memory or (Linux) on a
//!   shareable `memfd` ([`SlabBackend::Shm`]) that other processes attach
//!   with [`ArcGroup::attach_fd`] after superblock validation. Slab pages
//!   can be placed deliberately ([`SlabPlacement`]): huge pages with a
//!   transparent THP fallback, and per-NUMA-node binding or interleaving.
//! * [`topology`] — NUMA discovery (`/sys/devices/system/node`) with a
//!   single-node fallback, feeding placement and sharding decisions.
//! * [`sharded`] — [`ShardedTable`]: K registers hash-partitioned across
//!   per-node [`ArcGroup`] shards with per-shard writers and
//!   locality-aware readers (§3.11).
//! * [`recovery`] — writer-death recovery and reader-pin reclamation:
//!   classify an interrupted publication from its journal, adopt or
//!   discard the in-flight slot, and sweep dead readers' pins
//!   ([`ArcGroup::recover`]).
//! * [`supervise`] — the §3.10 self-healing layer: a stall watchdog
//!   (lease + birth token + heartbeat ⇒ `Live`/`Stalled`/`Dead`),
//!   arbitrated auto-recovery with backoff, and a runtime scrubber that
//!   quarantines scribbled registers instead of poisoning the plane
//!   ([`PlaneSupervisor`]).
//! * [`crash`] — seeded abort points for the process-kill fault-injection
//!   harness.
//! * [`faults`] — deterministic resource-fault injection (fail any
//!   syscall/allocation on the slab setup/attach/placement paths) and
//!   the unified transient-error [`RetryPolicy`].
//! * [`current`] — the packed synchronization word.
//! * [`family`] — adapter to the cross-algorithm bench/test interface.
//!
//! ## Memory-model note
//!
//! The paper assumes TSO. This implementation is expressed in C11 atomics:
//! all `current` operations are `SeqCst`, slot releases/acquires pair
//! `Release`/`Acquire`. The R1 fast-path load additionally relies on
//! per-location coherence delivering the latest store — guaranteed by every
//! ISA the paper targets (x86-TSO, ARMv8 OMCA); see DESIGN.md §3.1.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod crash;
pub mod current;
pub mod errors;
pub mod family;
pub mod faults;
pub mod group;
pub mod raw;
pub mod recovery;
pub mod register;
pub mod sharded;
pub mod shm;
pub mod supervise;
pub mod topology;
pub mod typed;
pub mod watch;

pub use crash::CrashPoint;
pub use errors::{HandleError, WriteError};
pub use family::{
    ArcFamily, GroupTableFamily, IndependentTableFamily, LocalPlan, ShardPlan, ShardedTableFamily,
    SplitPlan,
};
pub use faults::{FaultSite, RetryPolicy};
pub use group::{
    ArcGroup, GroupBuilder, GroupReader, GroupReaderSet, GroupWriter, GroupWriterSet, HealthReport,
    QuarantineReason, QuarantinedRegister, RegisterHealth, ScrubReport, WriterProbe,
};
pub use raw::{RawArc, RawOptions, ReadOutcome};
pub use recovery::RecoveryReport;
pub use register::{
    ArcBuilder, ArcReader, ArcRegister, ArcWriter, ReadGuard, Snapshot, INLINE_CAP,
};
pub use register_common::errors::ConfigError;
pub use register_common::traits::BuildError;
pub use sharded::{
    shard_of, ShardNodes, ShardRoute, ShardedReaderSet, ShardedTable, ShardedTableBuilder,
    ShardedWriterSet,
};
pub use shm::{
    NodePolicy, PageMode, PagePolicy, PlacementInfo, SlabBackend, SlabError, SlabPlacement,
};
pub use supervise::{PlaneSupervisor, SupervisorConfig, SupervisorEvent, WriterHealth};
pub use topology::{NumaNode, Topology};
pub use typed::{TypedArc, TypedReadGuard, TypedReader, TypedWriter, Versioned};
#[cfg(feature = "async")]
pub use watch::VersionStream;
pub use watch::{TypedWatchReader, WatchReader};

/// The maximum number of concurrent readers: 2³² − 2 (the paper's headline).
pub const MAX_READERS: u32 = current::MAX_READERS;
