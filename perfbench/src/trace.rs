//! Spans around the benchmark's calls into the plane's layers.
//!
//! Each worker thread owns a [`Tracer`]. A span records the layer it
//! times, its start and end on the run clock, how many items the call
//! covered, the request it belongs to (one loop iteration) and the span
//! that caused it (the iteration's root span). Every span feeds its
//! layer's per-item duration samples; the first [`KEEP`] spans of each
//! thread are also kept verbatim and written out when the run ends.

use std::fmt::Write as _;

use crate::stats::Dist;

/// Spans kept verbatim per thread for the dump.
pub const KEEP: usize = 50_000;

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One loop iteration of a worker (the root of a request).
    Iteration,
    /// `ArcWriter::write`.
    RegisterWrite,
    /// `ArcReader::read_ref` / `WatchReader::read_ref`.
    RegisterRead,
    /// `WatchReader::wait_for_update_timeout`.
    WatchWait,
    /// `ShardRoute::locate`, once per key of a batch.
    ShardedRoute,
    /// `ShardedReaderSet::read_many`.
    ShardedReadMany,
    /// `ShardedWriterSet::write_batch`.
    ShardedWriteBatch,
    /// `GroupReaderSet::read_many_ref` on an attached shard mapping.
    GroupReadManyRef,
}

const LAYERS: usize = 8;

impl Layer {
    fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Layer::Iteration => "iteration",
            Layer::RegisterWrite => "register.write",
            Layer::RegisterRead => "register.read_ref",
            Layer::WatchWait => "watch.wait_for_update_timeout",
            Layer::ShardedRoute => "sharded.locate",
            Layer::ShardedReadMany => "sharded.read_many",
            Layer::ShardedWriteBatch => "sharded.write_batch",
            Layer::GroupReadManyRef => "group.read_many_ref",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    req: u32,
    parent: u32,
    layer: Layer,
    start: u64,
    end: u64,
    count: u32,
}

/// No parent: the span is a request's root.
pub const ROOT: u32 = u32::MAX;

/// One thread's spans and per-layer samples.
#[derive(Debug)]
pub struct Tracer {
    thread: &'static str,
    next_id: u32,
    spans: Vec<Span>,
    samples: Vec<Vec<f64>>,
}

impl Tracer {
    pub fn new(thread: &'static str) -> Self {
        Tracer {
            thread,
            next_id: 0,
            spans: Vec::with_capacity(KEEP),
            samples: vec![Vec::new(); LAYERS],
        }
    }

    /// A fresh span id, taken before a root span's children are recorded
    /// so they can name it as their parent.
    #[inline]
    pub fn next_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    /// Record a finished span of `count` items under the id `id`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        id: u32,
        layer: Layer,
        req: u32,
        parent: u32,
        start: u64,
        end: u64,
        count: u32,
    ) {
        self.samples[layer.index()].push((end - start) as f64 / count.max(1) as f64);
        if self.spans.len() < KEEP {
            self.spans.push(Span { id, req, parent, layer, start, end, count });
        }
    }

    /// Record a finished child span of `count` items under `parent`.
    #[inline]
    pub fn child(&mut self, layer: Layer, req: u32, parent: u32, start: u64, end: u64, count: u32) {
        let id = self.next_id();
        self.record(id, layer, req, parent, start, end, count);
    }

    /// Per-item duration distribution of `layer`, whose spans covered
    /// `count` items each.
    pub fn dist(&self, layer: Layer, count: u32) -> Dist {
        Dist::of(self.samples[layer.index()].clone(), 1.0 / f64::from(count))
    }

    /// Spans recorded (kept or not).
    pub fn recorded(&self) -> u64 {
        self.samples.iter().map(|s| s.len() as u64).sum()
    }

    /// Append this thread's kept spans as CSV rows
    /// (`thread,id,req,parent,layer,start_ns,end_ns,count`).
    pub fn dump(&self, out: &mut String) {
        for s in &self.spans {
            let parent = if s.parent == ROOT { String::new() } else { s.parent.to_string() };
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                self.thread,
                s.id,
                s.req,
                parent,
                s.layer.name(),
                s.start,
                s.end,
                s.count
            );
        }
    }
}

/// The duration of an empty span: two back-to-back clock reads, median
/// of many. Every per-call span includes about this much clock cost.
pub fn clock_ns(clock: &crate::harness::Clock) -> f64 {
    let samples: Vec<f64> = (0..10_001)
        .map(|_| {
            let a = clock.now();
            let b = clock.now();
            (b - a) as f64
        })
        .collect();
    Dist::of(samples, 1.0).p50
}
