//! `table_zipf`: keyed operations on a large memfd slab.
//!
//! A `ShardedTable` of [`K`] registers of 48 B (inline) on
//! `SlabBackend::Shm`, split over [`SHARDS`] shards (about 412 MiB of
//! slab, far beyond L2). Set-up also attaches each shard's memfd with
//! `ArcGroup::attach_fd`, the cost a reader process pays to join. A run
//! builds [`PLANES`] planes one after another and measures each for an
//! equal share of the time, in rounds; set-up time is the median over
//! the planes, every rate and latency the median over all rounds.
//!
//! The writer runs an open loop of `write_batch`: [`RATE`] batches/s of
//! [`BATCH`] Zipf(θ = 0.99) keys; batch `b` is due at `base + b·PERIOD`
//! and stamps every value it writes with `b`. The reader loops
//! `read_many` over batches of [`BATCH`] Zipf keys from a separate
//! seed stream and checks every value. Key streams are drawn before
//! timing starts and replayed cyclically.
//!
//! Freshness is taken on key 0, the Zipf rank-0 key, which nearly every
//! write batch and read batch contains: from the due time of each batch
//! that wrote it to the end of the first `read_many` that returns that
//! batch's value or a newer one.
//!
//! The traced run routes every read batch's keys with `ShardRoute::locate`
//! and reads alternate batches through the two paths: even batches with
//! `ShardedReaderSet::read_many`, odd ones, pre-routed, with
//! `GroupReaderSet::read_many_ref` on the attached mappings. Each batch
//! is read once, so both paths meet the slab equally cold.

use std::sync::Arc;
use std::time::{Duration, Instant};

use arc_register::{
    ArcGroup, GroupReaderSet, ShardedReaderSet, ShardedTable, ShardedWriterSet, SlabBackend,
};
use workload_harness::{KeyDist, KeySampler};

use crate::harness::{drive, timed_setup, Clock, Phase, Pinning, MEASURE, STOP};
use crate::payload::{self, Fails};
use crate::report::Report;
use crate::stats::{median, Dist};
use crate::trace::{clock_ns, Layer, Tracer, ROOT};
use crate::Config;

const K: usize = 1 << 20;
const CAPACITY: usize = 48;
const SHARDS: usize = 2;
/// One sharded reader set plus one reader set on the attached mappings.
const READERS: u32 = 2;
const BATCH: usize = 64;
/// Resolution of a batch-timed per-key sample.
const RES: f64 = 1.0 / BATCH as f64;
const THETA: f64 = 0.99;
/// Write batches per second.
const RATE: u64 = 2_000;
const PERIOD_NS: u64 = 1_000_000_000 / RATE;
/// Pre-drawn keys replayed by the reader and the writer.
const READ_KEYS: usize = 1 << 21;
const WRITE_KEYS: usize = 1 << 20;
/// The Zipf rank-0 key (`KeySampler` maps rank 0 to key 0).
const HOT: usize = 0;
/// Planes built per run, one after another: set-up time is the median
/// over them, and the measured time is split evenly between them.
const PLANES: u32 = 3;
/// Rounds per plane; every rate and latency is the median over all
/// rounds of that round's value.
const ROUNDS: u32 = 5;
const TRACED_ROUNDS: u32 = 2;
/// Warm-up before each measured segment.
const WARM: Duration = Duration::from_millis(200);

fn zipf_keys(seed: u64, n: usize) -> Vec<usize> {
    let mut keys = Vec::with_capacity(n);
    KeySampler::new(K, KeyDist::Zipf(THETA), seed).fill(&mut keys, n);
    keys
}

/// The read side's validator: every value's stamps, identity and
/// per-register order, plus the newest stamp seen on the hot key.
struct Checker {
    last_seen: Vec<u32>,
    fails: Fails,
    hot: u64,
}

impl Checker {
    #[inline]
    fn see(&mut self, k: usize, v: &[u8]) {
        match payload::check(v, k as u64, u64::from(self.last_seen[k])) {
            Ok(s) => {
                self.last_seen[k] = s as u32;
                if k == HOT {
                    self.hot = self.hot.max(s);
                }
            }
            Err(f) => self.fails.record(f),
        }
    }
}

/// The plane as the reader sees it; the writer set travels beside it.
struct Plane {
    table: Arc<ShardedTable>,
    attached: Vec<Arc<ArcGroup>>,
    rs: ShardedReaderSet,
    /// Reader sets over the attached mappings (traced runs only).
    gsets: Vec<GroupReaderSet>,
}

/// Open-loop schedule of one segment: batch `b` is due at
/// `base + (b - first)·PERIOD`.
#[derive(Clone, Copy)]
struct Schedule {
    base: u64,
    first: u64,
}

impl Schedule {
    fn due(&self, b: u64) -> u64 {
        self.base + (b - self.first) * PERIOD_NS
    }
}

/// The writer's state carried across segments on one plane.
struct Source<'a> {
    keys: &'a [usize],
    body: &'a [u8],
    batch: u64,
    last_written: Vec<u32>,
}

#[derive(Debug, Default)]
struct WriterOut {
    ns: Vec<f64>,
    late_us: Vec<f64>,
    /// Keys written in the measured window, and in all phases.
    keys: u64,
    ops: u64,
    tracer: Option<Tracer>,
}

#[derive(Debug, Default)]
struct ReaderOut {
    ns: Vec<f64>,
    fresh_us: Vec<f64>,
    /// Keys read in the measured window, and in all phases (both reads
    /// of a traced batch).
    keys: u64,
    ops: u64,
    group_keys: u64,
    group_fast: u64,
    tracer: Option<Tracer>,
}

fn writer(
    ws: &mut ShardedWriterSet,
    src: &mut Source<'_>,
    sched: Schedule,
    clock: Clock,
    phase: &Phase,
    mut tracer: Option<Tracer>,
) -> WriterOut {
    let mut out = WriterOut::default();
    let batches = (src.keys.len() / BATCH) as u64;
    let mut vals = src.body.repeat(BATCH);
    let mut req = 0u32;
    loop {
        let p = phase.get();
        if p == STOP {
            break;
        }
        src.batch += 1;
        let b = src.batch;
        let at = ((b - 1) % batches) as usize * BATCH;
        let keys = &src.keys[at..at + BATCH];
        for (&k, v) in keys.iter().zip(vals.chunks_mut(CAPACITY)) {
            payload::set_key(v, k as u64);
            payload::stamp(v, b);
        }
        let ops: Vec<(usize, &[u8])> = keys.iter().copied().zip(vals.chunks(CAPACITY)).collect();
        let due = sched.due(b);
        clock.wait_until(due);
        let a = clock.now();
        ws.write_batch(&ops);
        let e = clock.now();
        out.ops += BATCH as u64;
        if p == MEASURE {
            out.ns.push((e - a) as f64 / BATCH as f64);
            out.late_us.push((a - due) as f64 / 1e3);
            out.keys += BATCH as u64;
            if let Some(tr) = tracer.as_mut() {
                tr.child(Layer::ShardedWriteBatch, req, ROOT, a, e, BATCH as u32);
            }
        }
        for &k in keys {
            src.last_written[k] = b as u32;
        }
        req = req.wrapping_add(1);
    }
    out.tracer = tracer;
    out
}

#[allow(clippy::too_many_arguments)]
fn reader(
    plane: &mut Plane,
    keys: &[usize],
    hot_batches: &[bool],
    chk: &mut Checker,
    sched: Schedule,
    clock: Clock,
    phase: &Phase,
    mut tracer: Option<Tracer>,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let route = plane.table.route().clone();
    let mut locals: Vec<Vec<usize>> = vec![Vec::with_capacity(BATCH); route.shards()];
    let mut pos = 0usize;
    let mut req = 0u32;
    loop {
        let p = phase.get();
        if p == STOP {
            break;
        }
        let batch = &keys[pos..pos + BATCH];
        pos = (pos + BATCH) % keys.len();
        let hot_before = chk.hot;
        let traced = p == MEASURE && tracer.is_some();
        let root = tracer.as_mut().map_or(ROOT, |t| t.next_id());
        let r0 = clock.now();
        if traced {
            for l in locals.iter_mut() {
                l.clear();
            }
            for &k in batch {
                let (s, l) = route.locate(k);
                locals[s].push(l);
            }
        }
        let group = traced && req % 2 == 1;
        let t0 = clock.now();
        if group {
            let mut fast = 0u64;
            for (s, (set, l)) in plane.gsets.iter_mut().zip(&locals).enumerate() {
                let keys_of = route.keys_of(s);
                set.read_many_ref(l, |l, g| {
                    fast += u64::from(g.fast());
                    chk.see(keys_of[l] as usize, g);
                });
            }
            out.group_fast += fast;
            out.group_keys += BATCH as u64;
        } else {
            plane.rs.read_many(batch, |k, v| chk.see(k, v));
        }
        let t1 = clock.now();
        out.ops += BATCH as u64;
        if let Some(tr) = tracer.as_mut().filter(|_| traced) {
            let layer = if group { Layer::GroupReadManyRef } else { Layer::ShardedReadMany };
            tr.child(Layer::ShardedRoute, req, root, r0, t0, BATCH as u32);
            tr.child(layer, req, root, t0, t1, BATCH as u32);
            tr.record(root, Layer::Iteration, req, ROOT, r0, t1, BATCH as u32);
        }
        if p == MEASURE && !group {
            out.ns.push((t1 - t0) as f64 / BATCH as f64);
            out.keys += BATCH as u64;
            for b in (hot_before + 1).max(sched.first)..=chk.hot {
                if hot_batches[((b - 1) as usize) % hot_batches.len()] {
                    out.fresh_us.push((t1 - sched.due(b)) as f64 / 1e3);
                }
            }
        }
        req = req.wrapping_add(1);
    }
    out.tracer = tracer;
    out
}

pub fn run(cfg: &Config, rep: &mut Report) {
    let t_gen = Instant::now();
    let rkeys = zipf_keys(cfg.seed.wrapping_mul(2).wrapping_add(1), READ_KEYS);
    let wkeys = zipf_keys(cfg.seed.wrapping_mul(2), WRITE_KEYS);
    let hot_batches: Vec<bool> = wkeys.chunks(BATCH).map(|c| c.contains(&HOT)).collect();
    let gen_s = t_gen.elapsed().as_secs_f64();
    rep.params.push(("registers", K.to_string()));
    rep.params.push(("shards", SHARDS.to_string()));
    rep.params.push(("max_readers", READERS.to_string()));
    rep.params.push(("value_bytes", CAPACITY.to_string()));
    rep.params.push(("backend", "shm (memfd)".into()));
    rep.params.push(("zipf_theta", THETA.to_string()));
    rep.params.push(("batch_keys", BATCH.to_string()));
    rep.params.push(("writer", format!("open loop, {RATE} batches/s")));
    rep.params.push(("reader", "closed loop".into()));
    rep.params.push(("read_stream_keys", READ_KEYS.to_string()));
    rep.params.push(("write_stream_keys", WRITE_KEYS.to_string()));

    let init = payload::make(CAPACITY, payload::UNSET, 0, cfg.seed);
    let body = payload::make(CAPACITY, 0, 0, cfg.seed);
    let plan = Pinning::plan();
    let rounds = if cfg.trace { TRACED_ROUNDS } else { ROUNDS };
    let segments = if cfg.trace { 2 } else { 1 };
    let seg = cfg.measure / (PLANES * rounds * segments);
    rep.params.push(("planes", PLANES.to_string()));
    rep.params.push(("rounds_per_plane", rounds.to_string()));
    rep.params.push(("round_segment_s", seg.as_secs_f64().to_string()));
    rep.context.push(("input_gen_s", format!("{gen_s:.3}")));

    let clock = Clock::new();
    let phase = Phase::default();
    let (mut wtr, mut rtr) = (Some(Tracer::new("writer")), Some(Tracer::new("reader")));
    let (mut pinned, mut final_ok) = (true, true);
    let mut fails = Fails::default();
    let (mut setup_s, mut build_ms, mut attach_us, mut handles_ms) =
        (vec![], vec![], vec![], vec![]);
    for p in 0..PLANES {
        let (secs, (mut plane, mut ws)) = timed_setup(plan, || {
            let t0 = Instant::now();
            let table = ShardedTable::builder(K, READERS, CAPACITY)
                .backend(SlabBackend::Shm)
                .shards(SHARDS)
                .initial(&init)
                .build()
                .expect("build sharded table");
            build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let attached: Vec<Arc<ArcGroup>> = table
                .groups()
                .iter()
                .map(|g| {
                    let t = Instant::now();
                    let fd = g.memfd().expect("shm shard has a memfd");
                    let a = ArcGroup::attach_fd(fd).expect("attach shard memfd");
                    attach_us.push(t.elapsed().as_secs_f64() * 1e6);
                    a
                })
                .collect();
            let t = Instant::now();
            let ws = table.writer_set().expect("claim writer set");
            let rs = table.reader_set().expect("join reader set");
            handles_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let gsets = if cfg.trace {
                attached.iter().map(|g| g.reader_set().expect("join attached reader set")).collect()
            } else {
                Vec::new()
            };
            (Plane { table, attached, rs, gsets }, ws)
        });
        setup_s.push(secs);
        if p == 0 {
            rep.context.push(("shards", plane.table.shards().to_string()));
            rep.context.push(("registers", plane.table.registers().to_string()));
            for (s, g) in plane.table.groups().iter().enumerate() {
                let pl = g.placement();
                let name = if s == 0 { "shard0_placement" } else { "shard1_placement" };
                let desc = format!(
                    "pages={} nodes={:?} quantum={}",
                    pl.pages.label(),
                    pl.nodes,
                    pl.quantum
                );
                rep.context.push((name, desc));
            }
            rep.context.push(("attached_mappings", plane.attached.len().to_string()));
            rep.set("plane_bytes", plane.table.heap_bytes() as f64);
        }

        let mut src = Source { keys: &wkeys, body: &body, batch: 0, last_written: vec![0; K] };
        let mut chk = Checker { last_seen: vec![0; K], fails: Fails::default(), hot: 0 };
        for _ in 0..rounds {
            let mut segment = |wt: Option<Tracer>, rt: Option<Tracer>| {
                let sched = Schedule { base: clock.now() + 2_000_000, first: src.batch + 1 };
                drive(
                    &phase,
                    plan,
                    WARM,
                    seg,
                    || writer(&mut ws, &mut src, sched, clock, &phase, wt),
                    || reader(&mut plane, &rkeys, &hot_batches, &mut chk, sched, clock, &phase, rt),
                )
            };
            let (wo, ro, secs, pin) = segment(None, None);
            pinned &= pin.pinned;
            rep.attempted += wo.ops + ro.ops;
            let (wd, rd) = (Dist::of(wo.ns, RES), Dist::of(ro.ns, RES));
            let fresh = Dist::of(ro.fresh_us, 1e-3);
            rep.round("read_mops", ro.keys as f64 / secs / 1e6);
            rep.round("read_ns_p50", rd.p50);
            rep.round("read_ns_p99", rd.p99);
            rep.round("write_mops", wo.keys as f64 / secs / 1e6);
            rep.round("write_ns_p50", wd.p50);
            rep.round("write_ns_p99", wd.p99);
            rep.round("fresh_us_p50", fresh.p50);
            rep.round("fresh_us_p99", fresh.p99);
            rep.round("gen.late_us_p99", Dist::of(wo.late_us, 1e-3).p99);

            if cfg.trace {
                let (two, tro, _, _) = segment(wtr.take(), rtr.take());
                rep.attempted += two.ops + tro.ops;
                rep.round("group.fast_share", tro.group_fast as f64 / tro.group_keys.max(1) as f64);
                rep.round("trace.overhead_share", Dist::of(tro.ns, RES).p50 / rd.p50 - 1.0);
                (wtr, rtr) = (two.tracer, tro.tracer);
            }
        }

        // Final state: every register holds the last batch that wrote it
        // (or the initial value), read back through the sharded reader set.
        let all: Vec<usize> = (0..K).collect();
        for chunk in all.chunks(1 << 14) {
            plane.rs.read_many(chunk, |k, v| {
                let want = u64::from(src.last_written[k]);
                let id = if want == 0 { payload::UNSET } else { k as u64 };
                final_ok &=
                    payload::check(v, k as u64, want) == Ok(want) && v[8..16] == id.to_le_bytes();
            });
        }
        fails.merge(&chk.fails);
    }
    rep.close_rounds();
    rep.final_ok = final_ok;
    rep.fails = fails;
    rep.set("setup_s", median(&setup_s));
    rep.set("shm.build_ms", median(&build_ms));
    rep.set("shm.attach_us", median(&attach_us));
    rep.set("setup.handles_ms", median(&handles_ms));
    rep.context.push(("writer_cpu", plan.writer_cpu.to_string()));
    rep.context.push(("reader_cpu", plan.reader_cpu.to_string()));
    rep.context.push(("pinned", pinned.to_string()));
    if cfg.trace {
        let (tw, tr) = (wtr.expect("writer tracer"), rtr.expect("reader tracer"));
        let per_key = |layer, t: &Tracer| t.dist(layer, BATCH as u32).p50;
        rep.set("sharded.read_ns_per_key", per_key(Layer::ShardedReadMany, &tr));
        rep.set("sharded.route_ns_per_key", per_key(Layer::ShardedRoute, &tr));
        rep.set("sharded.write_ns_per_key", per_key(Layer::ShardedWriteBatch, &tw));
        rep.set("group.read_ns_per_key", per_key(Layer::GroupReadManyRef, &tr));
        rep.set("trace.clock_ns", clock_ns(&clock));
        rep.set("spans", (tw.recorded() + tr.recorded()) as f64);
        tw.dump(&mut rep.spans);
        tr.dump(&mut rep.spans);
    }
}
