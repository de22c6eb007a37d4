//! E5 — the RMW-avoidance claim (§1, §5), checked in the default build.
//!
//! ARC pays an RMW on a read only when a newer write was published since
//! the handle's previous read; RF pays a `fetch_or` on every read. Every
//! handle tallies its own operations and folds them into its register's
//! counters when it drops, so the totals below are exact once the handles
//! are gone.

use arc_register::{ArcGroup, ArcRegister, TypedArc};
use baseline_registers::RfRegister;
use register_common::metrics::MetricsSnapshot;

#[test]
fn quiescent_arc_reads_after_the_first_cost_no_rmw() {
    let reg = ArcRegister::builder(2, 64).initial(b"v0").build().unwrap();
    let mut r = reg.reader().unwrap();
    for _ in 0..100 {
        assert_eq!(&*r.read(), b"v0");
    }
    assert_eq!(reg.metrics(), MetricsSnapshot::default(), "a live handle has folded nothing");
    drop(r);
    let m = reg.metrics();
    assert_eq!(m.reads, 100);
    assert_eq!(m.fast_reads, m.reads - 1, "only the first read leaves the R2 fast path");
    assert_eq!(m.read_rmws, 1, "the first read's R4 fetch_add is the only RMW");
}

#[test]
fn arc_pays_rmws_only_for_reads_that_follow_a_write() {
    let reg = ArcRegister::builder(2, 64).initial(b"v0").build().unwrap();
    let mut w = reg.writer().unwrap();
    let mut r = reg.reader().unwrap();
    let _ = r.read(); // R4: 1 RMW
    w.write(b"v1");
    for _ in 0..10 {
        assert_eq!(&*r.read(), b"v1"); // R3 + R4 once, then 9 fast reads
    }
    drop((r, w));
    let m = reg.metrics();
    assert_eq!((m.reads, m.fast_reads, m.read_rmws), (11, 9, 3));
    assert_eq!(m.writes, 1);
}

#[test]
fn rf_reader_pays_exactly_one_rmw_per_read() {
    let reg = RfRegister::new(2, 64, b"v0").unwrap();
    let mut w = reg.writer().unwrap();
    let mut r = reg.reader().unwrap();
    for i in 0..100u8 {
        if i % 10 == 0 {
            w.write(&[i; 8]);
        }
        let _ = r.read();
    }
    drop((r, w));
    let m = reg.metrics();
    assert_eq!(m.reads, 100);
    assert_eq!(m.read_rmws, m.reads);
    assert_eq!(m.rmws_per_read(), 1.0);
    assert_eq!((m.writes, m.write_rmws), (10, 10));
}

#[test]
fn group_reader_set_folds_its_read_many_on_drop() {
    let group = ArcGroup::builder(8, 2, 64).initial(b"init").build().unwrap();
    let mut one = group.reader(3).unwrap();
    let _ = one.read();
    drop(one);
    let before = group.metrics();
    assert_eq!(before.reads, 1);

    let keys = [0, 2, 2, 5, 7, 7, 7];
    let mut set = group.reader_set().unwrap();
    let mut seen = 0;
    set.read_many(&keys, |_, v| {
        assert_eq!(v, b"init");
        seen += 1;
    });
    assert_eq!(seen, keys.len());
    assert_eq!(group.metrics(), before, "a live set has folded nothing");
    drop(set);
    let after = group.metrics();
    let n = keys.len() as u64;
    assert_eq!(after.reads - before.reads, n);
    assert_eq!(after.guard_reads - before.guard_reads, n);
    assert_eq!(after.guard_drops - before.guard_drops, n);
    // Four distinct keys pay their first-read RMW; the repeats hit R2.
    assert_eq!(after.fast_reads - before.fast_reads, n - 4);
}

#[test]
fn typed_handles_count_like_byte_handles() {
    let reg = TypedArc::new(1, 0u64);
    let mut w = reg.writer().unwrap();
    let mut r = reg.reader().unwrap();
    let _ = r.read();
    w.write(1);
    drop(r.read_ref());
    drop((r, w));
    let m = reg.metrics();
    assert_eq!((m.reads, m.fast_reads, m.read_rmws), (2, 0, 3));
    assert_eq!((m.writes, m.guard_reads, m.guard_drops), (1, 1, 1));
}
