//! `register_rw`: the in-process publish → read path.
//!
//! One `ArcRegister::builder(8, 4096)` holds a 4 KiB value. The writer
//! publishes back to back (closed loop), timed in batches of [`BATCH`]
//! writes so the clock does not dominate a write. The reader loops
//! `read_ref`, checks the stamps at both ends of the value and holds it
//! for [`HOLD_NS`] before it releases it and reads again (closed loop
//! with a hold). The writer publishes several values per hold, so the
//! loop is write-heavy and nearly every read takes the R3/R4 switch
//! path; the hold also keeps the reader from hammering the writer's
//! lines back to back, whose cross-core cost on a shared host drifts run
//! to run by more than any usable bound. Each `read_ref` is timed on its
//! own (it costs a cross-core transfer, well above the clock's cost).
//!
//! Freshness: the first write of every batch is a sample. The writer
//! posts the batch's start time in a ring before publishing; the first
//! read that returns that write or a newer one takes the difference from
//! the time that read returned.
//!
//! A run is [`ROUNDS`] rounds, each on a freshly built register; every
//! metric is the median over rounds of that round's value. A traced
//! round measures three equal segments on the same shapes: the plain
//! loops (the tracing-overhead base), the loops with a span around every
//! `write` / `read_ref`, and the plain loops on
//! `baseline_registers::RfRegister` (the machine normaliser).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use arc_register::{ArcReader, ArcRegister, ArcWriter};
use baseline_registers::{RfReader, RfRegister, RfWriter};

use crate::harness::{drive, timed_setup, Clock, Phase, Pinning, MEASURE, STOP};
use crate::payload::{self, Fails};
use crate::report::Report;
use crate::stats::Dist;
use crate::trace::{clock_ns, Layer, Tracer, ROOT};
use crate::Config;

const READERS: u32 = 8;
const CAPACITY: usize = 4096;
/// Calls per timed batch.
const BATCH: u64 = 32;
/// Resolution of a batch-timed per-call sample.
const RES: f64 = 1.0 / BATCH as f64;
/// How long the reader holds each value it read (guard alive, slot
/// pinned) before it releases it and reads again.
const HOLD_NS: u64 = 1_000;
/// Identity stamp of the one register.
const KEY: u64 = 0;
/// Freshness ring slots (batch starts the reader may still look up).
const RING: usize = 1 << 16;
/// Each round measures a freshly built register; a run reports the median
/// over rounds, so no single plane or host stall sets its value.
const ROUNDS: u32 = 20;
const TRACED_ROUNDS: u32 = 10;
/// Warm-up before each measured segment.
const WARM: Duration = Duration::from_millis(100);

/// The ring word of batch `j` that started at `t`: 24 tag bits of `j`
/// over 40 bits of nanoseconds (18 minutes of run clock).
fn pack(j: u64, t: u64) -> u64 {
    (j & 0xFF_FFFF) << 40 | (t & 0xFF_FFFF_FFFF)
}

#[derive(Debug, Default)]
struct WriterOut {
    ns: Vec<f64>,
    /// Writes in the measured window, and in all phases.
    writes: u64,
    ops: u64,
    tracer: Option<Tracer>,
}

#[derive(Debug, Default)]
struct ReaderOut {
    ns: Vec<f64>,
    /// Reads in the measured window, and in all phases.
    reads: u64,
    ops: u64,
    fast: u64,
    fresh_us: Vec<f64>,
    lost_samples: u64,
    fails: Fails,
    tracer: Option<Tracer>,
}

/// The writer's state carried across segments.
struct Source {
    buf: Vec<u8>,
    seq: u64,
}

fn arc_writer(
    w: &mut ArcWriter,
    src: &mut Source,
    ring: &[AtomicU64],
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
        let t0 = clock.now();
        let j = src.seq / BATCH;
        // Release: a reader that acquires write j·BATCH+1 sees its start.
        ring[j as usize % RING].store(pack(j, t0), Ordering::Release);
        match tracer.as_mut().filter(|_| p == MEASURE) {
            None => {
                for _ in 0..BATCH {
                    src.seq += 1;
                    payload::stamp(&mut src.buf, src.seq);
                    w.write(&src.buf);
                }
            }
            Some(tr) => {
                let root = tr.next_id();
                for _ in 0..BATCH {
                    src.seq += 1;
                    payload::stamp(&mut src.buf, src.seq);
                    let a = clock.now();
                    w.write(&src.buf);
                    let b = clock.now();
                    tr.child(Layer::RegisterWrite, req, root, a, b, 1);
                }
                tr.record(root, Layer::Iteration, req, ROOT, t0, clock.now(), BATCH as u32);
            }
        }
        let t1 = clock.now();
        out.ops += BATCH;
        if p == MEASURE {
            out.ns.push((t1 - t0) as f64 / BATCH as f64);
            out.writes += BATCH;
        }
        req = req.wrapping_add(1);
    }
    out.tracer = tracer;
    out
}

fn arc_reader(
    r: &mut ArcReader,
    last: &mut u64,
    ring: &[AtomicU64],
    clock: Clock,
    phase: &Phase,
    mut tracer: Option<Tracer>,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut req = 0u32;
    loop {
        let p = phase.get();
        if p == STOP {
            break;
        }
        let traced = p == MEASURE && tracer.is_some();
        let root = tracer.as_mut().map_or(ROOT, |t| t.next_id());
        let t0 = clock.now();
        for _ in 0..BATCH {
            let a = clock.now();
            let g = r.read_ref();
            let b = clock.now();
            if let Some(tr) = tracer.as_mut().filter(|_| traced) {
                tr.child(Layer::RegisterRead, req, root, a, b, 1);
            }
            if p == MEASURE {
                out.ns.push((b - a) as f64);
                out.fast += u64::from(g.fast());
            }
            match payload::check(&g, KEY, *last) {
                Ok(s) if s > *last => {
                    // Sampled writes in (last, s]: batch starts j·BATCH+1.
                    let (lo, hi) = (last.div_ceil(BATCH), (s - 1) / BATCH);
                    if p == MEASURE && lo <= hi {
                        for j in lo..=hi {
                            let word = ring[j as usize % RING].load(Ordering::Acquire);
                            if word >> 40 == j & 0xFF_FFFF {
                                let start = word & 0xFF_FFFF_FFFF;
                                out.fresh_us.push(b.saturating_sub(start) as f64 / 1e3);
                            } else {
                                out.lost_samples += 1;
                            }
                        }
                    }
                    *last = s;
                }
                Ok(_) => {}
                Err(f) => out.fails.record(f),
            }
            hold(clock, b);
            drop(g);
        }
        if let Some(tr) = tracer.as_mut().filter(|_| traced) {
            tr.record(root, Layer::Iteration, req, ROOT, t0, clock.now(), BATCH as u32);
        }
        out.ops += BATCH;
        if p == MEASURE {
            out.reads += BATCH;
        }
        req = req.wrapping_add(1);
    }
    out.tracer = tracer;
    out
}

/// Keep the value read at `since` for [`HOLD_NS`] (the caller still
/// holds it).
#[inline]
fn hold(clock: Clock, since: u64) {
    while clock.now() < since + HOLD_NS {
        std::hint::spin_loop();
    }
}

/// The RF baseline on the same loop shapes (no freshness, no spans).
fn rf_writer(w: &mut RfWriter, src: &mut Source, clock: Clock, phase: &Phase) -> WriterOut {
    let mut out = WriterOut::default();
    loop {
        let p = phase.get();
        if p == STOP {
            break;
        }
        let t0 = clock.now();
        for _ in 0..BATCH {
            src.seq += 1;
            payload::stamp(&mut src.buf, src.seq);
            w.write(&src.buf);
        }
        let t1 = clock.now();
        out.ops += BATCH;
        if p == MEASURE {
            out.ns.push((t1 - t0) as f64 / BATCH as f64);
            out.writes += BATCH;
        }
    }
    out
}

fn rf_reader(r: &mut RfReader, last: &mut u64, clock: Clock, phase: &Phase) -> ReaderOut {
    let mut out = ReaderOut::default();
    loop {
        let p = phase.get();
        if p == STOP {
            break;
        }
        for _ in 0..BATCH {
            let a = clock.now();
            let v = r.read();
            let b = clock.now();
            if p == MEASURE {
                out.ns.push((b - a) as f64);
            }
            match payload::check(v, KEY, *last) {
                Ok(s) => *last = s,
                Err(f) => out.fails.record(f),
            }
            hold(clock, b);
        }
        out.ops += BATCH;
        if p == MEASURE {
            out.reads += BATCH;
        }
    }
    out
}

type Plane = (Arc<ArcRegister>, ArcWriter, ArcReader);

pub fn run(cfg: &Config, rep: &mut Report) {
    let init = payload::make(CAPACITY, payload::UNSET, 0, cfg.seed);
    let body = payload::make(CAPACITY, KEY, 0, cfg.seed);
    let rounds = if cfg.trace { TRACED_ROUNDS } else { ROUNDS };
    let segments = if cfg.trace { 3 } else { 1 };
    let seg = cfg.measure / (rounds * segments);
    rep.params.push(("registers", "1".into()));
    rep.params.push(("max_readers", READERS.to_string()));
    rep.params.push(("value_bytes", CAPACITY.to_string()));
    rep.params.push(("batch", BATCH.to_string()));
    rep.params.push(("writer", "closed loop".into()));
    rep.params.push(("rounds", rounds.to_string()));
    rep.params.push(("round_segment_s", seg.as_secs_f64().to_string()));

    let plan = Pinning::plan();
    let clock = Clock::new();
    let phase = Phase::default();
    let (mut wtr, mut rtr) = (Some(Tracer::new("writer")), Some(Tracer::new("reader")));
    let mut pinned = true;
    let mut final_ok = true;
    for _ in 0..rounds {
        let (setup_s, (reg, mut w, mut r)): (f64, Plane) = timed_setup(plan, || {
            let reg = ArcRegister::builder(READERS, CAPACITY)
                .initial(&init)
                .build()
                .expect("build register");
            let w = reg.writer().expect("claim writer");
            let r = reg.reader().expect("join reader");
            (reg, w, r)
        });
        let ring: Vec<AtomicU64> = (0..RING).map(|_| AtomicU64::new(u64::MAX)).collect();
        let mut src = Source { buf: body.clone(), seq: 0 };
        let mut last = 0u64;
        let (wo, ro, secs, pin) = drive(
            &phase,
            plan,
            WARM,
            seg,
            || arc_writer(&mut w, &mut src, &ring, clock, &phase, None),
            || arc_reader(&mut r, &mut last, &ring, clock, &phase, None),
        );
        pinned &= pin.pinned;
        rep.attempted += wo.ops + ro.ops;
        rep.fails.merge(&ro.fails);
        let (wd, rd, fd) =
            (Dist::of(wo.ns, RES), Dist::of(ro.ns, 1.0), Dist::of(ro.fresh_us, 1e-3));
        let fast_share = ro.fast as f64 / ro.reads.max(1) as f64;
        rep.round("setup_s", setup_s);
        rep.round("plane_bytes", reg.heap_bytes() as f64);
        rep.round("read_mops", ro.reads as f64 / secs / 1e6);
        rep.round("read_ns_p50", rd.p50);
        rep.round("read_ns_p99", rd.p99);
        rep.round("write_mops", wo.writes as f64 / secs / 1e6);
        rep.round("write_ns_p50", wd.p50);
        rep.round("write_ns_p99", wd.p99);
        rep.round("fresh_us_p50", fd.p50);
        rep.round("fresh_us_p99", fd.p99);
        rep.round("register.fast_share", fast_share);
        rep.round("fresh_lost_samples", ro.lost_samples as f64);

        if cfg.trace {
            let (two, tro, _, _) = drive(
                &phase,
                plan,
                WARM,
                seg,
                || arc_writer(&mut w, &mut src, &ring, clock, &phase, wtr.take()),
                || arc_reader(&mut r, &mut last, &ring, clock, &phase, rtr.take()),
            );
            rep.attempted += two.ops + tro.ops;
            rep.fails.merge(&tro.fails);
            let (ttw, ttr) = (Dist::of(two.ns, RES), Dist::of(tro.ns, 1.0));
            rep.round("trace.overhead_share", (ttw.p50 + ttr.p50) / (wd.p50 + rd.p50) - 1.0);
            (wtr, rtr) = (two.tracer, tro.tracer);

            let rf = RfRegister::new(READERS as usize, CAPACITY, &init).expect("build RF register");
            let (mut fw, mut fr) =
                (rf.writer().expect("RF writer"), rf.reader().expect("RF reader"));
            let mut rf_src = Source { buf: body.clone(), seq: 0 };
            let mut rf_last = 0u64;
            let (fwo, fro, _, _) = drive(
                &phase,
                plan,
                WARM,
                seg,
                || rf_writer(&mut fw, &mut rf_src, clock, &phase),
                || rf_reader(&mut fr, &mut rf_last, clock, &phase),
            );
            rep.attempted += fwo.ops + fro.ops;
            rep.fails.merge(&fro.fails);
            let (fwd, frd) = (Dist::of(fwo.ns, RES), Dist::of(fro.ns, 1.0));
            rep.round("register.write_rf_ratio", wd.p50 / fwd.p50);
            rep.round("register.read_rf_ratio", rd.p50 / frd.p50);
            rep.round("rf.write_ns_p50", fwd.p50);
            rep.round("rf.read_ns_p50", frd.p50);
            final_ok &= payload::check(fr.read(), KEY, rf_last) == Ok(rf_src.seq);
        }

        // Final state: the register holds the writer's last value.
        let g = r.read_ref();
        final_ok &=
            payload::check(&g, KEY, last) == Ok(src.seq) && reg.published_version() == src.seq;
    }
    rep.close_rounds();
    rep.final_ok = final_ok;
    rep.context.push(("writer_cpu", plan.writer_cpu.to_string()));
    rep.context.push(("reader_cpu", plan.reader_cpu.to_string()));
    rep.context.push(("pinned", pinned.to_string()));
    rep.context.push(("slab", "none (heap register)".into()));
    if cfg.trace {
        let (tw, tr) = (wtr.expect("writer tracer"), rtr.expect("reader tracer"));
        rep.set("register.write_ns", tw.dist(Layer::RegisterWrite, 1).p50);
        rep.set("register.read_ns", tr.dist(Layer::RegisterRead, 1).p50);
        rep.set("trace.clock_ns", clock_ns(&clock));
        rep.set("spans", (tw.recorded() + tr.recorded()) as f64);
        tw.dump(&mut rep.spans);
        tr.dump(&mut rep.spans);
    }
}
