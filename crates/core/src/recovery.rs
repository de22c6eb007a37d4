//! Writer-death recovery and reader-pin reclamation (DESIGN.md §3.9).
//!
//! A slab shared across processes can outlive the processes using it. Two
//! kinds of corpses are possible:
//!
//! * a **writer** that died mid-publication — it holds the register's
//!   writer claim and may have left a half-published slot;
//! * a **reader** that died while pinning a slot — its presence unit will
//!   never be released, so the slot can never be reused.
//!
//! The write path journals its progress in three spare header words (a
//! `wip` stage word, a `wip_old` payload word, and a `lease` word holding
//! the writer's pid), ordered so that at *every* instant the journal
//! either describes the interrupted step exactly or errs toward a repair
//! that is still safe. [`ArcGroup::recover`](crate::ArcGroup::recover)
//! walks the registers, classifies each dead writer's journal —
//! **pre-W2** (swap not reached: discard the filled slot), **at-W2**
//! (swap reached but the displaced value was lost: adopt the published
//! slot and rebuild the previous slot's ledger by census), **post-W2**
//! (displaced value captured: roll the publication forward exactly) —
//! then sweeps dead readers' pin-registry entries, releasing their
//! orphaned presence units.
//!
//! Surviving readers never notice: recovery only writes words the dead
//! writer itself would have written (or ledger words readers don't spin
//! on), so reads stay wait-free throughout. The caller contract is that
//! *recovery itself* runs while no live writer holds the register —
//! guaranteed structurally, because the writer claim of a dead writer is
//! still held and blocks new claims until recovery clears it.
//!
//! # Limitations (DESIGN.md §3.9)
//!
//! * **Quiescent recovery window.** Live handles may exist during a
//!   [`recover`](crate::ArcGroup::recover) pass, but must be between
//!   operations; recovery rewrites ledger words the protocol otherwise
//!   owns.
//! * **The R4→pin gap.** A reader dying between its R4 `fetch_add` and
//!   the registry store of its new pin leaks exactly one uncounted unit
//!   on one slot (that slot is never reused; everything else proceeds).
//!   Closing the gap would put an RMW on the read fast path — the wrong
//!   trade for a crash window of two instructions.
//! * **Pid reuse** (closed for writer leases in §3.10). Liveness is
//!   `kill(pid, 0)`; for *reader pins* a recycled pid still makes a
//!   corpse look alive (delaying the sweep), never the reverse race that
//!   would corrupt state — unknown counts as alive. Writer leases carry
//!   a birth token (the claimant's `/proc` start time): a live pid whose
//!   incarnation no longer matches the recorded token is a corpse wearing
//!   a recycled pid and counts as **dead**, so recovery is no longer
//!   deferred indefinitely by reuse.
//! * **Liveness is per pass.** A pass asks the kernel about each
//!   distinct pid at most once (a pass-scoped memo), so a pid that dies
//!   mid-pass reads as alive until the next pass.

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use crate::raw::{
    classify_and_complete_on, pin_owner, pin_pinned_slot, release_unit_on, ArcCells,
    JournalVerdict, STAGE_IDLE,
};
use crate::shm::process_birth;

/// What a [`recover`](crate::ArcGroup::recover) pass found and repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Registers whose writer claim was held by a dead process.
    pub writers_recovered: usize,
    /// Dead writers classified pre-W2 (filled slot discarded).
    pub pre_w2: usize,
    /// Dead writers classified at-W2 (published slot adopted, previous
    /// slot's ledger rebuilt by census).
    pub at_w2: usize,
    /// Dead writers classified post-W2 (publication rolled forward).
    pub post_w2: usize,
    /// Pin-registry entries owned by dead readers that were cleared.
    pub pins_swept: usize,
    /// Orphaned presence units released while sweeping those pins.
    pub units_released: usize,
    /// Whether this pass lost the cross-process recovery arbitration
    /// (§3.10): another attacher held the superblock recovery token, so
    /// this pass repaired nothing itself and instead waited for the
    /// winner to finish. All repair counters are zero when set.
    pub lost_arbitration: bool,
}

impl RecoveryReport {
    /// Whether the pass found anything to repair at all.
    pub fn repaired_anything(&self) -> bool {
        self.writers_recovered != 0 || self.pins_swept != 0
    }
}

/// Process-identity facts for **one pass** over a plane (DESIGN.md §3.10,
/// "Liveness is per pass"). Wraps the caller's `alive` oracle and
/// [`process_birth`] and asks each at most once per distinct pid, so a
/// pass over a million registers held by two processes costs a handful
/// of syscalls, not two per register.
///
/// It caches each pid's *actual birth*, never a per-register verdict:
/// every register still compares that birth against its own recorded
/// token. Build one per pass and drop it with the pass — never keep one
/// across passes or share one process-wide, because a forked child and a
/// recycled pid must get fresh answers. Death is permanent, so a cached
/// "dead" stays true; a pid dying mid-pass reads as alive until the next
/// pass, as if the pass had started a moment earlier.
pub(crate) struct PassLiveness<F> {
    alive: F,
    /// One entry per distinct pid met so far, in order of first sight.
    facts: Vec<PidFacts>,
    /// Pid → index into `facts`.
    index: HashMap<u64, usize>,
    /// Index of the last pid looked up: consecutive registers are mostly
    /// held by the same process, so this skips the hash.
    last: usize,
}

/// What one pass learned about one pid.
struct PidFacts {
    pid: u64,
    alive: bool,
    /// `None` until a lease first needs it (a `/proc` read).
    birth: Option<u64>,
}

impl<F: FnMut(u64) -> bool> PassLiveness<F> {
    pub(crate) fn new(alive: F) -> Self {
        PassLiveness { alive, facts: Vec::new(), index: HashMap::new(), last: 0 }
    }

    fn facts(&mut self, pid: u64) -> &mut PidFacts {
        if self.facts.get(self.last).is_none_or(|f| f.pid != pid) {
            self.last = match self.index.get(&pid) {
                Some(&i) => i,
                None => {
                    self.index.insert(pid, self.facts.len());
                    self.facts.push(PidFacts { pid, alive: (self.alive)(pid), birth: None });
                    self.facts.len() - 1
                }
            };
        }
        &mut self.facts[self.last]
    }

    /// The caller's oracle on `pid`, asked once per pass.
    pub(crate) fn alive(&mut self, pid: u64) -> bool {
        self.facts(pid).alive
    }

    /// [`process_birth`] of `pid`, read once per pass.
    fn birth(&mut self, pid: u64) -> u64 {
        *self.facts(pid).birth.get_or_insert_with(|| process_birth(pid))
    }
}

/// Whether the writer lease of this register belongs to a corpse: the
/// pid is dead, or the pid is alive but the recorded birth token names a
/// *different incarnation* (pid reuse — lease v2, §3.10). Either side of
/// the birth comparison reading 0 means "no evidence" and falls back to
/// pid-only semantics, so the check can delay but never falsify.
pub(crate) fn lease_dead<C: ArcCells>(
    c: &C,
    lease: u64,
    live: &mut PassLiveness<impl FnMut(u64) -> bool>,
) -> bool {
    if lease == 0 {
        return false;
    }
    if !live.alive(lease) {
        return true;
    }
    let recorded = c.birth_word().load(Ordering::Acquire);
    if recorded == 0 {
        return false;
    }
    let actual = live.birth(lease);
    actual != 0 && actual != recorded
}

/// Whether this register holds state only recovery may clear: a writer
/// lease or a pin-registry entry owned by a process `live` reports dead.
pub(crate) fn register_needs_recovery<C: ArcCells>(
    c: &C,
    live: &mut PassLiveness<impl FnMut(u64) -> bool>,
) -> bool {
    let lease = c.lease_word().load(Ordering::Acquire);
    if lease_dead(c, lease, live) {
        return true;
    }
    for i in 0..c.pin_entries() {
        let e = c.pin_entry(i).load(Ordering::Acquire);
        if e != 0 && !live.alive(pin_owner(e)) {
            return true;
        }
    }
    false
}

/// Repair one register: classify and finish (or discard) a dead writer's
/// interrupted publication, then sweep dead readers' pins.
///
/// # Caller contract
///
/// Quiescent-recovery window: no *live* process is running an operation on
/// this register while recovery rewrites its ledger (live handles may
/// exist; they must merely be between operations). Within one process the
/// `&mut` on handles gives this for free; across processes it is the
/// supervisor's job — exactly the regime the crash harness exercises.
pub(crate) fn recover_register<C: ArcCells>(
    c: &C,
    live: &mut PassLiveness<impl FnMut(u64) -> bool>,
    report: &mut RecoveryReport,
) {
    let lease = c.lease_word().load(Ordering::Acquire);
    if lease_dead(c, lease, live) {
        recover_dead_writer(c, report);
    }
    // Sweep AFTER any at-W2 census: the census counts every registry pin
    // on the previous slot — dead or alive — and the sweep then releases
    // the dead ones, advancing `r_end` toward the census total. (The two
    // commute arithmetically, but census-then-sweep keeps "frozen count =
    // releases + standing pins" literally true at every instant between
    // them.)
    sweep_dead_pins(c, live, report);
}

/// Classify a dead writer's journal and repair the register. The
/// classification itself ([`classify_and_complete_on`] — the full
/// crash-point table is DESIGN.md §3.9) is shared with the in-process
/// panic-safe publication guard; this wrapper adds what is specific to a
/// *dead* writer: the displaced word is gone (`None` — at-W2 repairs by
/// census), and the journal retirement also frees the lease and the
/// claim, because no handle survives to hold the role.
fn recover_dead_writer<C: ArcCells>(c: &C, report: &mut RecoveryReport) {
    report.writers_recovered += 1;
    match classify_and_complete_on(c, None) {
        JournalVerdict::PreW2 => report.pre_w2 += 1,
        JournalVerdict::AtW2 { .. } => report.at_w2 += 1,
        JournalVerdict::PostW2 { .. } => report.post_w2 += 1,
        JournalVerdict::Idle | JournalVerdict::BadJournal => {}
    }
    // Retire the journal, the lease (both words), and the claim, in that
    // order; the Release on the claim publishes the repairs to the next
    // claimant.
    c.wip_word().store(STAGE_IDLE, Ordering::Relaxed);
    c.wip_old_word().store(0, Ordering::Relaxed);
    c.lease_word().store(0, Ordering::Relaxed);
    c.birth_word().store(0, Ordering::Relaxed);
    c.writer_claimed_word().store(false, Ordering::Release);
}

/// Release the presence units of dead readers: each registry entry owned
/// by a dead pid is a standing pin that would forever block its slot's
/// reuse. Clears the entry and retires the dead reader's join.
fn sweep_dead_pins<C: ArcCells>(
    c: &C,
    live: &mut PassLiveness<impl FnMut(u64) -> bool>,
    report: &mut RecoveryReport,
) {
    for i in 0..c.pin_entries() {
        let e = c.pin_entry(i).load(Ordering::Acquire);
        if e == 0 || live.alive(pin_owner(e)) {
            continue;
        }
        match pin_pinned_slot(e) {
            Some(slot) if slot < c.n_slots() => {
                release_unit_on(c, slot);
                report.units_released += 1;
            }
            _ => {}
        }
        // Entry first, then the join count: an interrupted sweep leaves a
        // join leaked (re-swept next time), never double-released.
        c.pin_entry(i).store(0, Ordering::Release);
        c.live_readers_word().fetch_sub(1, Ordering::AcqRel);
        report.pins_swept += 1;
    }
}
