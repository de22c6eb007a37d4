//! Deterministic resource-fault injection and the unified retry policy.
//!
//! The crash harness ([`crate::crash`]) kills *processes* at protocol
//! boundaries; this module fails *resources* — the syscalls and
//! allocations behind slab creation, attach, and placement — so every
//! error branch in `shm.rs`/`topology.rs`/`supervise.rs` can be executed
//! deterministically. Each fallible operation is tagged with a
//! [`FaultSite`]; on its way to the OS it asks `fail_errno` whether an
//! armed schedule wants this particular hit to fail, and if so returns
//! the injected `errno` as if the kernel had.
//!
//! Design rules, inherited from `crash.rs`:
//!
//! - **Always compiled.** The bytes being fault-injected are the bytes
//!   being shipped — no cargo feature gates. Every hook site is on a
//!   *cold* path (slab setup/attach/supervision); the read and publish
//!   hot paths contain zero hooks.
//! - **One relaxed load when disarmed.** `fail_errno` is a single
//!   relaxed load of a process-global `AtomicBool` compared against
//!   `false`; the armed branch lives in a `#[cold]` function behind a
//!   mutex. Process-global, like `crash.rs`: tests that arm schedules
//!   must serialize themselves.
//! - **Deterministic.** A schedule is `(site, skip, run, errno)`: fail
//!   hits `skip .. skip+run` of `site`, then self-disarm. Seeded
//!   schedules ([`arm_seeded`], driven by `ARC_FAULT_SEEDS`) derive all
//!   four from a SplitMix64 stream, so a failing seed replays exactly.
//!
//! [`RetryPolicy`] lives here too: the one bounded-attempt,
//! exponential-backoff, deterministically-jittered loop shared by the
//! supervisor's recovery retries and the transient-`errno`
//! (`EINTR`/`EAGAIN`) attach retries. Jitter comes from a SplitMix64
//! hash of (seed, attempt) — no clocks, no RNG state, replayable.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// `EINTR`: interrupted by a signal — transient.
pub const EINTR: i32 = 4;
/// `EIO`: generic I/O failure — permanent.
pub const EIO: i32 = 5;
/// `EAGAIN`/`EWOULDBLOCK`: temporarily out of a resource — transient.
pub const EAGAIN: i32 = 11;
/// `ENOMEM`: out of memory — permanent for a single attempt.
pub const ENOMEM: i32 = 12;

/// Every injectable resource operation. One variant per *kind* of
/// fallible syscall/allocation on the slab setup, attach, placement,
/// and supervision paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultSite {
    /// `memfd_create` backing a new shared slab.
    MemfdCreate = 1,
    /// `ftruncate` sizing the memfd.
    Ftruncate,
    /// `mmap` of a slab (create or attach).
    Mmap,
    /// `madvise(MADV_HUGEPAGE)` on the THP fallback path. Injection
    /// means the *advice is not applied* (the honest-degradation path),
    /// never an attach failure.
    Madvise,
    /// `mbind` pinning a mapping to a NUMA node. Injection means the
    /// policy is refused and placement degrades to first-touch.
    Mbind,
    /// `dup` (`try_clone_to_owned`) of an attach fd.
    DupFd,
    /// `fstat` sizing an attach fd.
    Fstat,
    /// Zeroed heap allocation backing an in-process slab.
    HeapAlloc,
    /// A `/proc` read (birth tokens, allowed-cpus masks).
    ProcRead,
    /// A `/sys` read (NUMA topology probes).
    SysfsRead,
    /// Spawning the supervisor thread.
    ThreadSpawn,
}

/// All sites, for exhaustive fail-at-every-site sweeps.
pub const ALL_SITES: [FaultSite; 11] = [
    FaultSite::MemfdCreate,
    FaultSite::Ftruncate,
    FaultSite::Mmap,
    FaultSite::Madvise,
    FaultSite::Mbind,
    FaultSite::DupFd,
    FaultSite::Fstat,
    FaultSite::HeapAlloc,
    FaultSite::ProcRead,
    FaultSite::SysfsRead,
    FaultSite::ThreadSpawn,
];

/// An armed injection schedule: fail hits `skip .. skip + run` of
/// `site` with `errno`, then self-disarm.
#[derive(Debug, Clone, Copy)]
struct Plan {
    site: FaultSite,
    skip: u32,
    run: u32,
    errno: i32,
}

/// Fast-path flag: `false` (the default, and the only state production
/// code ever sees) means no schedule is armed and `fail_errno` is a
/// predictable not-taken branch.
static ARMED: AtomicBool = AtomicBool::new(false);

/// The armed schedule. Only touched on the cold path, under the lock.
static PLAN: Mutex<Option<Plan>> = Mutex::new(None);

/// Arm a one-shot schedule: the `(skip + 1)`-th hit of `site` fails
/// with `errno`. Process-global; affects every thread.
pub fn arm(site: FaultSite, skip: u32, errno: i32) {
    arm_run(site, skip, 1, errno);
}

/// Arm a run schedule: hits `skip .. skip + run` of `site` fail with
/// `errno`, then the plan self-disarms. `run == 0` is an immediate
/// no-op. Used to exercise retry loops (e.g. `run` consecutive `EINTR`s
/// that a bounded retry must outlast, or exhaust).
pub fn arm_run(site: FaultSite, skip: u32, run: u32, errno: i32) {
    let mut plan = PLAN.lock().unwrap_or_else(|p| p.into_inner());
    if run == 0 {
        *plan = None;
        ARMED.store(false, Ordering::Relaxed);
        return;
    }
    *plan = Some(Plan { site, skip, run, errno });
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarm any armed schedule.
pub fn disarm() {
    let mut plan = PLAN.lock().unwrap_or_else(|p| p.into_inner());
    *plan = None;
    ARMED.store(false, Ordering::Relaxed);
}

/// Whether a schedule is still armed (its failures not yet fully
/// consumed). Sweep tests use this to detect that a `skip` index walked
/// past the last hook on a path: if the schedule is still armed after
/// the operation, the site was never reached at that index.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Derive and arm a schedule from `seed` (the `ARC_FAULT_SEEDS`
/// contract): site, skip, and errno all come from a SplitMix64 stream,
/// so a failing seed reported by CI replays the identical schedule.
/// Returns what was armed so the test can assert against it.
pub fn arm_seeded(seed: u64) -> (FaultSite, u32, i32) {
    let mut x = seed;
    let site = ALL_SITES[(splitmix64(&mut x) % ALL_SITES.len() as u64) as usize];
    let skip = (splitmix64(&mut x) % 3) as u32;
    let errno = [EIO, ENOMEM, EINTR, EAGAIN][(splitmix64(&mut x) % 4) as usize];
    arm(site, skip, errno);
    (site, skip, errno)
}

/// Ask whether this hit of `site` should fail; `Some(errno)` means the
/// caller must behave exactly as if the OS returned that `errno` —
/// including its own cleanup. Called by every instrumented operation.
#[inline]
pub(crate) fn fail_errno(site: FaultSite) -> Option<i32> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    fail_errno_slow(site)
}

/// The armed branch, kept out of the fast path.
#[cold]
fn fail_errno_slow(site: FaultSite) -> Option<i32> {
    let mut guard = PLAN.lock().unwrap_or_else(|p| p.into_inner());
    let plan = guard.as_mut()?;
    if plan.site != site {
        return None;
    }
    if plan.skip > 0 {
        plan.skip -= 1;
        return None;
    }
    let errno = plan.errno;
    plan.run -= 1;
    if plan.run == 0 {
        *guard = None;
        ARMED.store(false, Ordering::Relaxed);
    }
    Some(errno)
}

/// One step of the SplitMix64 sequence (same generator the sharded
/// router and the torture harness use).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The one retry loop for transient failures: bounded attempts,
/// exponential backoff capped at `max_delay`, deterministic ±25% jitter
/// hashed from `attempt`. Shared by the supervisor's auto-recovery
/// retries and the transient-`errno` attach paths — the plane has
/// exactly one backoff shape, not one per subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`>= 1`; `1` means no retry).
    pub max_attempts: u32,
    /// Delay before the first retry; doubles per subsequent retry.
    pub base_delay: Duration,
    /// Ceiling the doubling saturates at.
    pub max_delay: Duration,
}

/// Seed of the deterministic jitter stream: two policies with equal
/// fields produce identical delay sequences — replayable by design.
const JITTER_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl RetryPolicy {
    /// A policy with the given bounds.
    pub const fn new(max_attempts: u32, base_delay: Duration, max_delay: Duration) -> Self {
        RetryPolicy { max_attempts, base_delay, max_delay }
    }

    /// The policy for transient syscall errnos (`EINTR`/`EAGAIN`) on
    /// attach paths: 3 attempts, 50µs base, 1ms cap. Transients on
    /// these paths clear in one reschedule or not at all.
    pub const fn transient_syscalls() -> Self {
        RetryPolicy::new(3, Duration::from_micros(50), Duration::from_millis(1))
    }

    /// The deterministic delay before attempt `attempt` (2-based: the
    /// first retry is attempt 2). Exponential in the retry index,
    /// capped at `max_delay`, then jittered into `[75%, 100%]` of the
    /// capped value so synchronized retriers de-correlate without a
    /// clock or RNG.
    pub fn delay_before(&self, attempt: u32) -> Duration {
        let retries = attempt.saturating_sub(2).min(20);
        let exp = self.base_delay.saturating_mul(1u32 << retries);
        let capped = exp.min(self.max_delay);
        let mut state = JITTER_SEED ^ u64::from(attempt);
        let frac = splitmix64(&mut state) >> 40; // 24 random bits
        let span = capped / 4;
        let jitter = Duration::from_nanos((span.as_nanos() as u64).saturating_mul(frac) >> 24);
        capped - span + jitter
    }

    /// Run `op` until it succeeds, the error stops being `transient`,
    /// or `max_attempts` is exhausted; sleeps `delay_before` between
    /// attempts. `op` receives the 1-based attempt number.
    pub fn run<T, E>(
        &self,
        mut transient: impl FnMut(&E) -> bool,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut attempt = 1;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if attempt < self.max_attempts && transient(&e) => {
                    std::thread::sleep(self.delay_before(attempt + 1));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The fault registry is process-global; every test that arms it
    // must hold this lock so parallel test threads don't interleave
    // schedules.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_registry_injects_nothing() {
        let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        disarm();
        for site in ALL_SITES {
            assert_eq!(fail_errno(site), None);
        }
    }

    #[test]
    fn one_shot_schedule_fails_the_nth_hit_then_disarms() {
        let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        arm(FaultSite::Mmap, 2, EIO);
        assert!(armed());
        // Other sites pass through without consuming the schedule.
        assert_eq!(fail_errno(FaultSite::MemfdCreate), None);
        assert_eq!(fail_errno(FaultSite::Mmap), None); // skip 1
        assert_eq!(fail_errno(FaultSite::Mmap), None); // skip 2
        assert_eq!(fail_errno(FaultSite::Mmap), Some(EIO));
        assert!(!armed());
        assert_eq!(fail_errno(FaultSite::Mmap), None);
    }

    #[test]
    fn run_schedule_fails_consecutive_hits() {
        let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        arm_run(FaultSite::Ftruncate, 0, 3, EINTR);
        for _ in 0..3 {
            assert_eq!(fail_errno(FaultSite::Ftruncate), Some(EINTR));
        }
        assert_eq!(fail_errno(FaultSite::Ftruncate), None);
        assert!(!armed());
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let a = arm_seeded(42);
        disarm();
        let b = arm_seeded(42);
        disarm();
        assert_eq!(a, b);
        // Distinct seeds must be able to reach distinct sites.
        let mut sites: Vec<FaultSite> = (0..64)
            .map(|s| {
                let (site, _, _) = arm_seeded(s);
                disarm();
                site
            })
            .collect();
        sites.dedup();
        assert!(sites.len() > 1, "64 seeds all mapped to one site");
    }

    #[test]
    fn retry_delays_are_bounded_capped_and_deterministic() {
        let p = RetryPolicy::new(8, Duration::from_micros(100), Duration::from_millis(1));
        for attempt in 2..=8 {
            let d = p.delay_before(attempt);
            assert!(d <= Duration::from_millis(1), "attempt {attempt}: {d:?} over cap");
            assert!(d >= Duration::from_micros(75) * (1 << (attempt - 2).min(3)));
            assert_eq!(d, p.delay_before(attempt), "jitter must be deterministic");
        }
        // Doubling: attempt 3's floor exceeds attempt 2's ceiling at 2x base.
        assert!(p.delay_before(3) > Duration::from_micros(100));
    }

    #[test]
    fn retry_run_retries_transients_and_stops_on_permanent() {
        let p = RetryPolicy::new(3, Duration::from_micros(1), Duration::from_micros(4));
        // Transient then success.
        let mut calls = 0;
        let out: Result<u32, i32> = p.run(
            |e| *e == EINTR,
            |attempt| {
                calls += 1;
                if attempt < 3 {
                    Err(EINTR)
                } else {
                    Ok(attempt)
                }
            },
        );
        assert_eq!(out, Ok(3));
        assert_eq!(calls, 3);
        // Permanent error stops immediately.
        let mut calls = 0;
        let out: Result<u32, i32> = p.run(
            |e| *e == EINTR,
            |_| {
                calls += 1;
                Err(EIO)
            },
        );
        assert_eq!(out, Err(EIO));
        assert_eq!(calls, 1);
        // Attempt budget is a hard bound.
        let mut calls = 0;
        let out: Result<u32, i32> = p.run(
            |e| *e == EINTR,
            |_| {
                calls += 1;
                Err(EINTR)
            },
        );
        assert_eq!(out, Err(EINTR));
        assert_eq!(calls, 3);
    }
}
