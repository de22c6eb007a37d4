//! Run control shared by the workloads: one clock, a warm-up → measure →
//! stop phase word, two pinned worker threads, open-loop pacing, and
//! the timed set-up.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const WARM: u8 = 0;
pub const MEASURE: u8 = 1;
pub const STOP: u8 = 2;

/// Nanoseconds since the run's epoch, on the monotonic clock every
/// thread shares.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Self {
        Clock(Instant::now())
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Spin until `due` (ns since epoch). The open-loop generator owns
    /// its CPU: a timer sleep would add the host's wake-up jitter (up to
    /// milliseconds on a shared machine) to every publication it paces.
    pub fn wait_until(&self, due: u64) {
        while self.now() < due {
            std::hint::spin_loop();
        }
    }
}

/// The phase word the main thread drives and the workers poll.
#[derive(Debug, Default)]
pub struct Phase(AtomicU8);

impl Phase {
    #[inline]
    pub fn get(&self) -> u8 {
        self.0.load(Ordering::Acquire)
    }

    fn set(&self, p: u8) {
        self.0.store(p, Ordering::Release);
    }
}

/// Where the two workers ran.
#[derive(Debug, Clone, Copy)]
pub struct Pinning {
    pub writer_cpu: usize,
    pub reader_cpu: usize,
    pub pinned: bool,
}

impl Pinning {
    /// Writer on the first allowed CPU, reader on the second (or the
    /// same one on a 1-CPU machine).
    pub fn plan() -> Self {
        let cpus = workload_harness::available_cpus();
        Pinning { writer_cpu: cpus[0], reader_cpu: cpus[1 % cpus.len()], pinned: false }
    }
}

/// Run `writer` and `reader` on their pinned threads: warm up for
/// `warm`, measure for `measure`, then stop and join. Returns both
/// results, the measured wall seconds, and whether pinning took.
pub fn drive<W: Send, R: Send>(
    phase: &Phase,
    plan: Pinning,
    warm: Duration,
    measure: Duration,
    writer: impl FnOnce() -> W + Send,
    reader: impl FnOnce() -> R + Send,
) -> (W, R, f64, Pinning) {
    phase.set(WARM);
    let start = Barrier::new(3);
    let pinned = [AtomicBool::new(false), AtomicBool::new(false)];
    let (w, r, secs) = std::thread::scope(|s| {
        let w = s.spawn(|| {
            pinned[0]
                .store(workload_harness::pin_to_cpu(plan.writer_cpu).is_ok(), Ordering::Relaxed);
            start.wait();
            writer()
        });
        let r = s.spawn(|| {
            pinned[1]
                .store(workload_harness::pin_to_cpu(plan.reader_cpu).is_ok(), Ordering::Relaxed);
            start.wait();
            reader()
        });
        start.wait();
        std::thread::sleep(warm);
        let t0 = Instant::now();
        phase.set(MEASURE);
        std::thread::sleep(measure);
        phase.set(STOP);
        let secs = t0.elapsed().as_secs_f64();
        let w = w.join().expect("writer thread panicked");
        let r = r.join().expect("reader thread panicked");
        (w, r, secs)
    });
    let pinned = pinned.iter().all(|p| p.load(Ordering::Relaxed));
    (w, r, secs, Pinning { pinned, ..plan })
}

/// Time one set-up: build the plane with `build`, then start two pinned
/// threads and wait until both run. Returns the seconds and the plane.
pub fn timed_setup<P>(plan: Pinning, build: impl FnOnce() -> P) -> (f64, P) {
    let t0 = Instant::now();
    let plane = build();
    let start = Barrier::new(3);
    let secs = std::thread::scope(|s| {
        for cpu in [plan.writer_cpu, plan.reader_cpu] {
            let start = &start;
            s.spawn(move || {
                let _ = workload_harness::pin_to_cpu(cpu);
                start.wait();
            });
        }
        start.wait();
        t0.elapsed().as_secs_f64()
    });
    (secs, plane)
}
