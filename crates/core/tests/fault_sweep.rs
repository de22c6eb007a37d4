//! Exhaustive resource-fault sweeps over the slab setup/attach/placement
//! paths (ISSUE: deterministic resource-fault injection plane).
//!
//! Every fallible syscall/allocation behind `ArcGroup` creation and
//! attach is tagged with a [`FaultSite`]; these tests fail **every site
//! at every hit index** and assert the containment contract:
//!
//! * the failure surfaces as a *typed* error (`SlabError`/`BuildError`),
//!   never a panic or abort;
//! * no file descriptor or mapping leaks (`/proc/self/fd` delta is zero
//!   across the failing operation);
//! * the plane is never half-initialized — after any injected failure, a
//!   clean build/attach of the same geometry succeeds;
//! * transient errnos (`EINTR`) are absorbed by the unified
//!   [`RetryPolicy`] while permanent ones surface immediately.
//!
//! The seeded gauntlet replays the `ARC_FAULT_SEEDS` contract: each seed
//! deterministically derives `(site, skip, errno)` and the whole
//! create→use→attach→use pipeline must either succeed or fail typed,
//! with zero leaked fds either way.

use std::sync::Mutex;

use arc_register::faults::{self, FaultSite, ALL_SITES, EINTR, EIO};
use arc_register::{ArcGroup, BuildError, SlabError};

/// The fault registry is process-global: every test that arms it holds
/// this lock (mirrors the discipline of the crash-point harness).
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// Open fds of this process. The iterator's own dirfd shows up in every
/// sample identically, so deltas are exact.
#[cfg(target_os = "linux")]
fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("/proc/self/fd").count()
}

/// One clean shm build of the reference geometry, as the "plane is not
/// poisoned" probe after every injected failure.
#[cfg(target_os = "linux")]
fn clean_shm_build() -> std::sync::Arc<ArcGroup> {
    ArcGroup::builder(4, 2, 64)
        .backend(arc_register::SlabBackend::Shm)
        .initial(b"seed")
        .build()
        .expect("clean build after an injected failure must succeed")
}

/// Sweep the shm *create* path: fail `memfd_create`, `ftruncate`, and
/// `mmap` at every hit index the path has. Each injected failure must be
/// the matching typed `SlabError::Os`, leak nothing, and leave the next
/// clean build working.
#[cfg(target_os = "linux")]
#[test]
fn create_path_fails_typed_at_every_site_and_leaks_nothing() {
    let _g = lock();
    let sites = [
        (FaultSite::MemfdCreate, "memfd_create"),
        (FaultSite::Ftruncate, "ftruncate"),
        (FaultSite::Mmap, "mmap"),
    ];
    for (site, call) in sites {
        for skip in 0..4u32 {
            faults::arm(site, skip, EIO);
            let before = fd_count();
            let result =
                ArcGroup::builder(4, 2, 64).backend(arc_register::SlabBackend::Shm).build();
            let fired = !faults::armed();
            faults::disarm();
            if !fired {
                // This skip index walked past the last hit of the site on
                // this path — the sweep of this site is complete.
                assert!(result.is_ok(), "{site:?} skip {skip}: unfired schedule broke the build");
                drop(result);
                assert_eq!(fd_count(), before, "{site:?} skip {skip}: successful build leaked");
                break;
            }
            assert_eq!(fd_count(), before, "{site:?} skip {skip}: leaked fds");
            match result {
                Err(BuildError::Slab(SlabError::Os { call: c, errno })) => {
                    assert_eq!(c, call, "{site:?} skip {skip}: wrong call attribution");
                    assert_eq!(errno, EIO, "{site:?} skip {skip}: wrong errno");
                }
                other => panic!("{site:?} skip {skip}: expected typed Os error, got {other:?}"),
            }
            // Never half-initialized: the same geometry builds cleanly.
            drop(clean_shm_build());
        }
    }
}

/// Sweep the *attach* path: fail `dup`, `fstat`, and `mmap` at every hit
/// index. The originator plane must stay fully usable after every
/// injected attach failure.
#[cfg(target_os = "linux")]
#[test]
fn attach_path_fails_typed_at_every_site_and_leaks_nothing() {
    let _g = lock();
    let group = clean_shm_build();
    let fd = group.memfd().expect("shm group has a memfd");
    let sites = [(FaultSite::DupFd, "dup"), (FaultSite::Fstat, "fstat"), (FaultSite::Mmap, "mmap")];
    for (site, call) in sites {
        for skip in 0..4u32 {
            faults::arm(site, skip, EIO);
            let before = fd_count();
            let result = ArcGroup::attach_fd(fd);
            let fired = !faults::armed();
            faults::disarm();
            if fired {
                match result {
                    Err(SlabError::Os { call: c, errno }) => {
                        assert_eq!(c, call, "{site:?} skip {skip}");
                        assert_eq!(errno, EIO, "{site:?} skip {skip}");
                    }
                    other => {
                        panic!("{site:?} skip {skip}: expected typed Os error, got {other:?}")
                    }
                }
                assert_eq!(fd_count(), before, "{site:?} skip {skip}: leaked fds");
            } else {
                drop(result);
                assert_eq!(fd_count(), before, "{site:?} skip {skip}: successful attach leaked");
                break;
            }
            // The plane is untouched by a failed attach: a clean attach
            // works and reads the initial value.
            let attached = ArcGroup::attach_fd(fd).expect("clean attach after injected failure");
            let mut r = attached.reader(0).unwrap();
            assert_eq!(&*r.read(), b"seed");
        }
    }
}

/// Placement sites degrade honestly instead of erroring: an injected
/// `mbind` refusal records first-touch, an injected `madvise` refusal
/// skips the advice, and an injected *hugetlb* `memfd_create` failure
/// deterministically exercises the THP fallback chain.
#[cfg(target_os = "linux")]
#[test]
fn placement_sites_degrade_honestly_never_error() {
    use arc_register::{NodePolicy, PageMode, PagePolicy, SlabPlacement};
    let _g = lock();

    // Injected mbind refusal → effective policy is FirstTouch, build Ok.
    faults::arm(FaultSite::Mbind, 0, EIO);
    let group = ArcGroup::builder(2, 1, 64)
        .backend(arc_register::SlabBackend::Shm)
        .placement(SlabPlacement { pages: PagePolicy::Base, nodes: NodePolicy::Bind(0) })
        .build()
        .expect("mbind refusal must not fail the build");
    faults::disarm();
    assert_eq!(group.placement().nodes, NodePolicy::FirstTouch);
    drop(group);

    // Injected hugetlb memfd failure → the THP fallback path runs (the
    // second, base-page memfd succeeds once the one-shot plan consumed).
    faults::arm(FaultSite::MemfdCreate, 0, EIO);
    let group = ArcGroup::builder(2, 1, 64)
        .backend(arc_register::SlabBackend::Shm)
        .placement(SlabPlacement { pages: PagePolicy::Huge, nodes: NodePolicy::FirstTouch })
        .build()
        .expect("hugetlb refusal must fall back, not fail");
    assert!(!faults::armed(), "the hugetlb attempt must have consumed the schedule");
    faults::disarm();
    assert_eq!(group.placement().pages, PageMode::ThpAdvised);
    assert_eq!(group.placement().quantum, 2 << 20, "huge quantum survives the fallback");
    drop(group);

    // Injected madvise refusal on that same fallback → still Ok.
    faults::arm(FaultSite::Madvise, 0, EIO);
    let group = ArcGroup::builder(2, 1, 64)
        .backend(arc_register::SlabBackend::Shm)
        .placement(SlabPlacement { pages: PagePolicy::Huge, nodes: NodePolicy::FirstTouch })
        .build()
        .expect("madvise refusal must not fail the build");
    faults::disarm();
    drop(group);
}

/// A refused heap allocation is a typed error, not an abort, and the
/// next build succeeds.
#[test]
fn heap_alloc_refusal_is_typed_and_recoverable() {
    let _g = lock();
    faults::arm(FaultSite::HeapAlloc, 0, faults::ENOMEM);
    let result = ArcGroup::builder(4, 2, 64).build();
    faults::disarm();
    match result {
        Err(BuildError::Slab(SlabError::Os { call, errno })) => {
            assert_eq!(call, "alloc_zeroed");
            assert_eq!(errno, faults::ENOMEM);
        }
        other => panic!("expected typed alloc failure, got {other:?}"),
    }
    drop(ArcGroup::builder(4, 2, 64).build().expect("clean heap build"));
}

/// The unified retry policy absorbs short transient runs on the attach
/// path and surfaces exhaustion (or permanent errnos) typed.
#[cfg(target_os = "linux")]
#[test]
fn attach_retries_transients_and_stops_on_permanent() {
    let _g = lock();
    let group = clean_shm_build();
    let fd = group.memfd().unwrap();

    // Two consecutive EINTRs: the 3-attempt policy outlasts them.
    faults::arm_run(FaultSite::DupFd, 0, 2, EINTR);
    let attached = ArcGroup::attach_fd(fd);
    faults::disarm();
    assert!(attached.is_ok(), "two EINTRs must be retried away: {attached:?}");

    // Three consecutive EINTRs exhaust the attempt budget.
    faults::arm_run(FaultSite::DupFd, 0, 3, EINTR);
    let attached = ArcGroup::attach_fd(fd);
    faults::disarm();
    assert!(
        matches!(attached, Err(SlabError::Os { call: "dup", errno }) if errno == EINTR),
        "exhausted transients must surface typed: {attached:?}"
    );

    // A permanent errno is not retried: exactly one hit consumed.
    faults::arm_run(FaultSite::Fstat, 0, 3, EIO);
    let attached = ArcGroup::attach_fd(fd);
    assert!(matches!(attached, Err(SlabError::Os { call: "fstat", errno }) if errno == EIO));
    assert!(faults::armed(), "permanent errors must not burn retry hits");
    faults::disarm();
}

/// Degradation sites outside the slab: an injected `/proc` or `/sys`
/// read failure falls back (never errors), and a refused supervisor
/// thread spawn is a typed `io::Error` with the plane untouched.
#[test]
fn probe_and_spawn_sites_degrade_or_fail_typed() {
    use arc_register::supervise::{PlaneSupervisor, SupervisorConfig};
    let _g = lock();

    faults::arm(FaultSite::ProcRead, 0, EIO);
    let cpus = arc_register::topology::allowed_cpus();
    faults::disarm();
    assert!(!cpus.is_empty(), "ProcRead injection must degrade, not empty the CPU set");

    faults::arm(FaultSite::SysfsRead, 0, EIO);
    let topo = arc_register::Topology::probe();
    faults::disarm();
    assert!(topo.node_count() >= 1, "SysfsRead injection must fall back to one node");

    let group = ArcGroup::builder(2, 1, 64).build().unwrap();
    faults::arm(FaultSite::ThreadSpawn, 0, faults::EAGAIN);
    let sup = PlaneSupervisor::try_spawn(
        std::sync::Arc::clone(&group),
        SupervisorConfig::default(),
        |_| {},
    );
    faults::disarm();
    assert_eq!(
        sup.err().and_then(|e| e.raw_os_error()),
        Some(faults::EAGAIN),
        "refused spawn must carry the injected errno"
    );
    // The plane is untouched: a real supervisor then runs fine.
    let sup = PlaneSupervisor::try_spawn(group, SupervisorConfig::default(), |_| {})
        .expect("clean spawn after injected refusal");
    sup.stop();
}

/// The `ARC_FAULT_SEEDS` replay contract: each seed derives one schedule
/// deterministically; the full create→use→attach→use gauntlet under it
/// must end in success or a typed error — never a panic, never a leaked
/// fd, never a half-initialized plane.
#[cfg(target_os = "linux")]
#[test]
fn seeded_gauntlet_never_panics_or_leaks() {
    use arc_register::{NodePolicy, PagePolicy, SlabPlacement};
    let _g = lock();
    let seeds: Vec<u64> = match std::env::var("ARC_FAULT_SEEDS") {
        Ok(s) => s
            .split(',')
            .filter(|p| !p.trim().is_empty())
            .map(|p| p.trim().parse().expect("ARC_FAULT_SEEDS: comma-separated u64s"))
            .collect(),
        Err(_) => (0..48).collect(),
    };
    for seed in seeds {
        let armed = faults::arm_seeded(seed);
        let before = fd_count();
        let outcome = std::panic::catch_unwind(|| {
            let built = ArcGroup::builder(3, 2, 64)
                .backend(arc_register::SlabBackend::Shm)
                .placement(SlabPlacement { pages: PagePolicy::Huge, nodes: NodePolicy::Bind(0) })
                .initial(b"g0")
                .build();
            let group = match built {
                Ok(g) => g,
                Err(e) => {
                    // Typed refusal; the message must render.
                    let _ = e.to_string();
                    return;
                }
            };
            // A successful build is never half-initialized: it works.
            let mut w = group.writer(0).unwrap();
            w.write(b"value");
            let mut r = group.reader(0).unwrap();
            assert_eq!(&*r.read(), b"value");
            match ArcGroup::attach_fd(group.memfd().unwrap()) {
                Ok(attached) => {
                    let mut r2 = attached.reader(0).unwrap();
                    assert_eq!(&*r2.read(), b"value");
                }
                Err(e) => {
                    let _ = e.to_string();
                }
            }
        });
        faults::disarm();
        assert!(outcome.is_ok(), "seed {seed} (schedule {armed:?}) panicked");
        assert_eq!(fd_count(), before, "seed {seed} (schedule {armed:?}) leaked fds");
    }
    // Sanity on the contract itself: every site is reachable by *some*
    // seed (the derivation covers the whole registry).
    let mut covered: Vec<FaultSite> = (0..256)
        .map(|s| {
            let (site, _, _) = faults::arm_seeded(s);
            faults::disarm();
            site
        })
        .collect();
    covered.sort_by_key(|s| *s as u8);
    covered.dedup();
    assert_eq!(covered.len(), ALL_SITES.len(), "256 seeds must cover every fault site");
}

/// A 4,096-register shm plane, the size the `/proc` count tests use.
#[cfg(target_os = "linux")]
fn count_plane() -> std::sync::Arc<ArcGroup> {
    ArcGroup::builder(4096, 2, 64)
        .backend(arc_register::SlabBackend::Shm)
        .initial(b"seed")
        .build()
        .expect("count plane")
}

/// `writer_set` reads the birth token once for the whole set, not once
/// per register. Counted, not timed: the second `/proc` read would fire
/// the armed schedule, so a still-armed schedule means at most one read.
#[cfg(target_os = "linux")]
#[test]
fn writer_set_reads_proc_once_per_set() {
    let _g = lock();
    let group = count_plane();
    faults::arm(FaultSite::ProcRead, 1, EIO);
    let ws = group.writer_set().expect("writer_set on a clean plane");
    let reads_at_most_one = faults::armed();
    faults::disarm();
    assert!(reads_at_most_one, "writer_set must read /proc once, not once per register");
    let me = std::process::id() as u64;
    for k in 0..group.registers() {
        let probe = group.writer_probe(k);
        assert_eq!(probe.lease, me, "register {k} must be leased to this process");
        assert!(!probe.lease_dead, "register {k}: a live claimant's lease must not read as dead");
    }
    drop(ws);
}

/// `needs_recovery` on a held plane probes each distinct pid once per
/// pass: every lease and pin names this process, so one `/proc` read.
#[cfg(target_os = "linux")]
#[test]
fn needs_recovery_reads_proc_once_per_pid() {
    let _g = lock();
    let group = count_plane();
    let ws = group.writer_set().expect("writer_set on a clean plane");
    // Joining claims a pin-registry entry naming this pid on every register.
    let rs = group.reader_set().expect("reader_set on a clean plane");
    faults::arm(FaultSite::ProcRead, 1, EIO);
    let damaged = group.needs_recovery();
    let reads_at_most_one = faults::armed();
    faults::disarm();
    assert!(!damaged, "a plane held by a live process needs no recovery");
    assert!(reads_at_most_one, "needs_recovery must read /proc once per pid, not per register");
    drop((ws, rs));
}
