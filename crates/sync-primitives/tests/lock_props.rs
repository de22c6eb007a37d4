//! Property tests for the spin synchronization primitives: arbitrary
//! single-threaded acquire/release sequences against reference state
//! machines (the concurrent behaviour is covered by the in-module stress
//! tests; these pin the sequential contracts exhaustively).

use proptest::prelude::*;
use sync_primitives::{SeqCounter, SpinRwLock};

#[derive(Debug, Clone, Copy)]
enum RwOp {
    TryRead,
    TryWrite,
    DropOneReader,
    DropWriter,
}

fn rw_op() -> impl Strategy<Value = RwOp> {
    prop_oneof![
        Just(RwOp::TryRead),
        Just(RwOp::TryWrite),
        Just(RwOp::DropOneReader),
        Just(RwOp::DropWriter),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rwlock_try_ops_match_reference(ops in proptest::collection::vec(rw_op(), 1..100)) {
        let lock = SpinRwLock::new(0u32);
        let mut read_guards = Vec::new();
        let mut write_guard = None;
        for op in ops {
            // Reference state: (readers, writer) of the model.
            let readers = read_guards.len();
            let writer = write_guard.is_some();
            match op {
                RwOp::TryRead => {
                    let got = lock.try_read();
                    prop_assert_eq!(got.is_some(), !writer, "try_read vs model");
                    if let Some(g) = got {
                        read_guards.push(g);
                    }
                }
                RwOp::TryWrite => {
                    let got = lock.try_write();
                    prop_assert_eq!(
                        got.is_some(),
                        !writer && readers == 0,
                        "try_write vs model"
                    );
                    if let Some(g) = got {
                        write_guard = Some(g);
                    }
                }
                RwOp::DropOneReader => {
                    read_guards.pop();
                }
                RwOp::DropWriter => {
                    write_guard = None;
                }
            }
            prop_assert_eq!(lock.reader_count() as usize, read_guards.len());
        }
    }

    #[test]
    fn seqlock_versions_reflect_write_count(writes in 0..200u64) {
        let c = SeqCounter::new();
        for _ in 0..writes {
            c.write_begin();
            c.write_end();
        }
        prop_assert_eq!(c.version(), writes * 2);
        let b = c.read_begin();
        prop_assert!(c.read_validate(b), "quiescent read must validate");
    }
}
