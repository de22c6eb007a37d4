//! `watch_wake`: the publish → watcher wake → read path.
//!
//! One `ArcRegister` holds a 64 B value (the `notify_latency` shape: one
//! watcher). The writer publishes on an open-loop schedule of
//! [`RATE`] publications/s; publication `i` is due at `base + i·PERIOD`
//! whether or not earlier ones ran late. One `WatchReader` parks in
//! `wait_for_update_timeout`, checks the value the wake returned, then
//! reads with `read_ref` (the read after the wake). Freshness runs from
//! each publication's due time to the end of the first read after a
//! wake that returns it or a newer value.
//!
//! A run is [`ROUNDS`] rounds, each on a freshly built register; every
//! metric is the median over rounds of that round's value. A traced round
//! adds a second segment with spans around each call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use arc_register::{ArcRegister, ArcWriter, WatchReader};

use crate::harness::{drive, timed_setup, Clock, Phase, Pinning, MEASURE, STOP};
use crate::payload::{self, Fails};
use crate::report::Report;
use crate::stats::Dist;
use crate::trace::{clock_ns, Layer, Tracer, ROOT};
use crate::Config;

const READERS: u32 = 1;
const CAPACITY: usize = 64;
const KEY: u64 = 0;
/// Publications per second.
const RATE: u64 = 5_000;
const PERIOD_NS: u64 = 1_000_000_000 / RATE;
/// A wait this long with publications due every `PERIOD_NS` is a failure.
const TIMEOUT: Duration = Duration::from_millis(100);
/// Each round measures a freshly built register; a run reports the median
/// over rounds, so no single plane or host stall sets its value.
const ROUNDS: u32 = 20;
const TRACED_ROUNDS: u32 = 10;
/// Warm-up before each measured segment.
const WARM: Duration = Duration::from_millis(100);

#[derive(Debug, Default)]
struct WriterOut {
    ns: Vec<f64>,
    late_us: Vec<f64>,
    /// Publications in the measured window, and in all phases.
    writes: u64,
    ops: u64,
    tracer: Option<Tracer>,
}

#[derive(Debug, Default)]
struct WatcherOut {
    read_ns: Vec<f64>,
    wait_us: Vec<f64>,
    fresh_us: Vec<f64>,
    /// Reads after a wake in the measured window.
    reads: u64,
    /// Waits and reads in all phases.
    ops: u64,
    fast: u64,
    /// Publications in the measured window, and how many of them no
    /// wake returned (slept through).
    updates: u64,
    coalesced: u64,
    fails: Fails,
    tracer: Option<Tracer>,
}

/// The schedule shared by both sides of one segment: publication `i`
/// (counted from `first`) is due at `base + (i - first)·PERIOD`; `done`
/// is the stamp of the segment's unscheduled closing publication.
struct Schedule {
    base: u64,
    first: u64,
    done: AtomicU64,
}

impl Schedule {
    fn due(&self, i: u64) -> u64 {
        self.base + (i - self.first) * PERIOD_NS
    }
}

fn writer(
    w: &mut ArcWriter,
    buf: &mut [u8],
    seq: &mut u64,
    sched: &Schedule,
    clock: Clock,
    phase: &Phase,
    mut tracer: Option<Tracer>,
) -> WriterOut {
    let mut out = WriterOut::default();
    let mut req = 0u32;
    loop {
        let p = phase.get();
        if p == STOP {
            break;
        }
        *seq += 1;
        let due = sched.due(*seq);
        payload::stamp(buf, *seq);
        clock.wait_until(due);
        let a = clock.now();
        w.write(buf);
        let b = clock.now();
        out.ops += 1;
        if p == MEASURE {
            out.ns.push((b - a) as f64);
            out.late_us.push((a - due) as f64 / 1e3);
            out.writes += 1;
            if let Some(tr) = tracer.as_mut() {
                tr.child(Layer::RegisterWrite, req, ROOT, a, b, 1);
            }
        }
        req = req.wrapping_add(1);
    }
    // Close the segment: announce the last stamp, then publish it, so the
    // watcher's wake on it finds `done` set (the publication releases it).
    *seq += 1;
    sched.done.store(*seq, Ordering::Release);
    payload::stamp(buf, *seq);
    w.write(buf);
    out.ops += 1;
    out.tracer = tracer;
    out
}

fn watcher(
    wr: &mut WatchReader,
    last: &mut u64,
    sched: &Schedule,
    clock: Clock,
    phase: &Phase,
    mut tracer: Option<Tracer>,
) -> WatcherOut {
    let mut out = WatcherOut::default();
    let mut req = 0u32;
    loop {
        let p = phase.get();
        let t0 = clock.now();
        let woke =
            wr.wait_for_update_timeout(*last, TIMEOUT).map(|s| payload::check(&s, KEY, *last));
        let t1 = clock.now();
        out.ops += 1;
        let v = match woke {
            None => {
                out.fails.timeouts += 1;
                if phase.get() == STOP {
                    break;
                }
                continue;
            }
            Some(Err(f)) => {
                out.fails.record(f);
                continue;
            }
            Some(Ok(v)) if v <= *last => {
                out.fails.empty_wakes += 1;
                continue;
            }
            Some(Ok(v)) => v,
        };
        let a = clock.now();
        let g = wr.read_ref();
        let b = clock.now();
        let fast = g.fast();
        out.ops += 1;
        let s = match payload::check(&g, KEY, v) {
            Ok(s) => s,
            Err(f) => {
                out.fails.record(f);
                v
            }
        };
        drop(g);
        let done = sched.done.load(Ordering::Acquire);
        if p == MEASURE {
            out.reads += 1;
            out.fast += u64::from(fast);
            out.wait_us.push((t1 - t0) as f64 / 1e3);
            out.read_ns.push((b - a) as f64);
            let end = if done != 0 { s.min(done - 1) } else { s };
            for i in *last + 1..=end {
                out.fresh_us.push((b - sched.due(i)) as f64 / 1e3);
            }
            let seen = end.saturating_sub(*last);
            out.updates += seen;
            out.coalesced += seen.saturating_sub(1);
            if let Some(tr) = tracer.as_mut() {
                let root = tr.next_id();
                tr.child(Layer::WatchWait, req, root, t0, t1, 1);
                tr.child(Layer::RegisterRead, req, root, a, b, 1);
                tr.record(root, Layer::Iteration, req, ROOT, t0, b, 1);
            }
        }
        *last = s;
        req = req.wrapping_add(1);
        if done != 0 && s >= done {
            break;
        }
    }
    out.tracer = tracer;
    out
}

type Plane = (Arc<ArcRegister>, ArcWriter, WatchReader);

pub fn run(cfg: &Config, rep: &mut Report) {
    let init = payload::make(CAPACITY, payload::UNSET, 0, cfg.seed);
    let body = payload::make(CAPACITY, KEY, 0, cfg.seed);
    let rounds = if cfg.trace { TRACED_ROUNDS } else { ROUNDS };
    let segments = if cfg.trace { 2 } else { 1 };
    let seg = cfg.measure / (rounds * segments);
    rep.params.push(("registers", "1".into()));
    rep.params.push(("max_readers", READERS.to_string()));
    rep.params.push(("value_bytes", CAPACITY.to_string()));
    rep.params.push(("writer", format!("open loop, {RATE} publications/s")));
    rep.params.push(("wait_timeout_ms", TIMEOUT.as_millis().to_string()));
    rep.params.push(("rounds", rounds.to_string()));
    rep.params.push(("round_segment_s", seg.as_secs_f64().to_string()));

    let plan = Pinning::plan();
    let clock = Clock::new();
    let phase = Phase::default();
    let (mut wtr, mut rtr) = (Some(Tracer::new("writer")), Some(Tracer::new("watcher")));
    let (mut pinned, mut final_ok) = (true, true);
    let (mut empty_wakes, mut timeouts) = (0u64, 0u64);
    for _ in 0..rounds {
        let (setup_s, (reg, mut w, mut wr)): (f64, Plane) = timed_setup(plan, || {
            let reg = ArcRegister::builder(READERS, CAPACITY)
                .initial(&init)
                .build()
                .expect("build register");
            let w = reg.writer().expect("claim writer");
            let wr = reg.watch_reader().expect("join watcher");
            (reg, w, wr)
        });
        let mut buf = body.clone();
        let (mut seq, mut last) = (0u64, 0u64);
        let mut segment = |wt: Option<Tracer>, rt: Option<Tracer>| {
            // The schedule starts just after the threads do; late starts
            // fall in the warm-up.
            let sched =
                Schedule { base: clock.now() + 2_000_000, first: seq + 1, done: AtomicU64::new(0) };
            drive(
                &phase,
                plan,
                WARM,
                seg,
                || writer(&mut w, &mut buf, &mut seq, &sched, clock, &phase, wt),
                || watcher(&mut wr, &mut last, &sched, clock, &phase, rt),
            )
        };

        let (wo, ro, secs, pin) = segment(None, None);
        pinned &= pin.pinned;
        rep.attempted += wo.ops + ro.ops;
        rep.fails.merge(&ro.fails);
        (empty_wakes, timeouts) =
            (empty_wakes + ro.fails.empty_wakes, timeouts + ro.fails.timeouts);
        let (wd, rd) = (Dist::of(wo.ns, 1.0), Dist::of(ro.read_ns, 1.0));
        let fresh = Dist::of(ro.fresh_us, 1e-3);
        rep.round("setup_s", setup_s);
        rep.round("plane_bytes", reg.heap_bytes() as f64);
        rep.round("read_mops", ro.reads as f64 / secs / 1e6);
        rep.round("read_ns_p50", rd.p50);
        rep.round("read_ns_p99", rd.p99);
        rep.round("write_mops", wo.writes as f64 / secs / 1e6);
        rep.round("write_ns_p50", wd.p50);
        rep.round("write_ns_p99", wd.p99);
        rep.round("fresh_us_p50", fresh.p50);
        rep.round("fresh_us_p99", fresh.p99);
        rep.round("gen.late_us_p99", Dist::of(wo.late_us, 1e-3).p99);
        rep.round("watch.coalesced_share", ro.coalesced as f64 / ro.updates.max(1) as f64);
        rep.round("register.fast_share", ro.fast as f64 / ro.reads.max(1) as f64);

        if cfg.trace {
            let (two, tro, _, _) = segment(wtr.take(), rtr.take());
            rep.attempted += two.ops + tro.ops;
            rep.fails.merge(&tro.fails);
            (empty_wakes, timeouts) =
                (empty_wakes + tro.fails.empty_wakes, timeouts + tro.fails.timeouts);
            rep.round("trace.overhead_share", Dist::of(tro.fresh_us, 1e-3).p50 / fresh.p50 - 1.0);
            (wtr, rtr) = (two.tracer, tro.tracer);
        }

        // Final state: the register holds the writer's closing publication.
        let g = wr.read_ref();
        final_ok &= payload::check(&g, KEY, last) == Ok(seq) && reg.published_version() == seq;
    }
    rep.close_rounds();
    rep.final_ok = final_ok;
    rep.context.push(("writer_cpu", plan.writer_cpu.to_string()));
    rep.context.push(("reader_cpu", plan.reader_cpu.to_string()));
    rep.context.push(("pinned", pinned.to_string()));
    rep.context.push(("slab", "none (heap register)".into()));
    if cfg.trace {
        let (tw, tr) = (wtr.expect("writer tracer"), rtr.expect("watcher tracer"));
        let read = tr.dist(Layer::RegisterRead, 1).p50;
        rep.set("register.write_ns", tw.dist(Layer::RegisterWrite, 1).p50);
        rep.set("register.read_ns", read);
        rep.set("watch.wait_us", tr.dist(Layer::WatchWait, 1).p50 / 1e3);
        rep.set("watch.read_ns", read);
        rep.set("watch.empty_wakes", empty_wakes as f64);
        rep.set("watch.timeouts", timeouts as f64);
        rep.set("trace.clock_ns", clock_ns(&clock));
        rep.set("spans", (tw.recorded() + tr.recorded()) as f64);
        tw.dump(&mut rep.spans);
        tr.dump(&mut rep.spans);
    }
}
