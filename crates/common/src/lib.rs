//! Shared substrate for the ARC-paper reproduction.
//!
//! This crate holds everything that more than one register implementation (or
//! the test/bench harnesses) needs:
//!
//! * [`traits`] — the generic single-writer / multi-reader register interface
//!   ([`RegisterFamily`], [`WriteHandle`], [`ReadHandle`]) that the ARC core
//!   and every baseline implement, so that the conformance tests and the
//!   figure-regeneration benches are written once.
//! * [`payload`] — *stamped payloads*: self-describing, checksummed byte
//!   patterns that embed a write sequence number, so that any torn read
//!   (bytes from two different writes) or stale-length read is detected with
//!   certainty and the returned sequence number can be fed to the
//!   linearizability checker.
//! * [`clock`] — a global logical clock used to timestamp operation
//!   invocations/responses when recording histories.
//! * [`pad`] — cache-line padding re-exports.
//! * [`metrics`] — always-on operation counters, tallied per handle and
//!   folded on drop, used by the RMW-count experiment (E5 in DESIGN.md).
//! * [`copy`] — the single tuned payload-copy routine behind every
//!   copying read (the zero-copy guards of DESIGN.md §3.8 made copying a
//!   convenience layer; this is that layer's one implementation).
//! * [`errors`] — typed validation errors for shared-memory slabs
//!   ([`SlabError`]), so a corrupted or incompatible mapping is refused
//!   with a reason instead of UB.
//!
//! Nothing in this crate implements a register; it is pure substrate.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod clock;
pub mod copy;
pub mod errors;
pub mod metrics;
pub mod pad;
pub mod payload;
pub mod traits;

pub use clock::HistoryClock;
pub use copy::{copy_payload, copy_to_vec};
pub use errors::SlabError;
pub use metrics::OpMetrics;
pub use payload::{stamp, verify, PayloadError, MIN_PAYLOAD_LEN};
pub use traits::{
    MwTableFamily, ReadHandle, RefReadHandle, RegisterFamily, RegisterSpec, TableFamily,
    TableReadHandle, TableWriteHandle, VersionedReadHandle, WatchFamily, WatchHandle, WriteHandle,
};
