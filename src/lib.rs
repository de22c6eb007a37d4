//! # arc-suite — the ARC paper, reproduced in Rust
//!
//! A from-scratch reproduction of *A Wait-free Multi-word Atomic (1,N)
//! Register for Large-scale Data Sharing on Multi-core Machines* (Ianni,
//! Pellegrini, Quaglia — IEEE CLUSTER 2017), as a workspace of focused
//! crates re-exported here:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`register`] | `arc-register` | the ARC algorithm: [`ArcRegister`], [`TypedArc`] |
//! | [`baselines`] | `baseline-registers` | RF, Peterson-style, spin-rwlock, seqlock comparators |
//! | [`common`] | `register-common` | the shared register traits + stamped payloads |
//! | [`sync`] | `sync-primitives` | spin rwlock / seqlock / wait-set substrate |
//! | [`lincheck`] | `linearizer` | atomicity checker for recorded histories |
//! | [`modelcheck`] | `interleave` | exhaustive interleaving model checker |
//! | [`bench_support`] | `workload-harness` | hold/processing workloads, steal injection |
//! | [`mn`] | `mn-register` | the (M,N) register built from ARC sub-registers |
//!
//! ## Quick start
//!
//! ```
//! use arc_suite::ArcRegister;
//!
//! let reg = ArcRegister::builder(4, 1024).initial(b"hello").build().unwrap();
//! let mut writer = reg.writer().unwrap();
//! let mut reader = reg.reader().unwrap();
//! writer.write(b"world");
//! assert_eq!(&*reader.read(), b"world");
//! ```
//!
//! Runnable walkthroughs live in `examples/` (`cargo run --release
//! --example quickstart`), the figure-regeneration harness in
//! `crates/bench` (see EXPERIMENTS.md), and the paper↔code map in
//! DESIGN.md.

pub use arc_register as register;
pub use baseline_registers as baselines;
pub use interleave as modelcheck;
pub use linearizer as lincheck;
pub use mn_register as mn;
pub use register_common as common;
pub use sync_primitives as sync;
pub use workload_harness as bench_support;

pub use arc_register::{
    ArcReader, ArcRegister, ArcWriter, Snapshot, TypedArc, TypedWatchReader, Versioned,
    WatchReader, INLINE_CAP, MAX_READERS,
};
pub use baseline_registers::{LockRegister, PetersonRegister, RfRegister, SeqlockRegister};
pub use mn_register::{MnGroup, MnLayout, MnRegister, MnTableFamily};
pub use register_common::{
    MwTableFamily, ReadHandle, RegisterFamily, RegisterSpec, TableFamily, WriteHandle,
};
