//! Per-path instrumentation contexts of the base protocol (Fig. 1) — Part-HTM-O
//! wraps them with encounter-time lock checks (`crate::opaque`) — plus the contexts
//! shared by every executor (direct accesses, software segments).
//!
//! Each context implements [`TxCtx`], so the same workload code runs on any path:
//!
//! * [`FastCtx`] — fast path (Fig. 1 lines 3–6): record the address in the local
//!   read/write signature *before* touching memory, then do a plain HTM access.
//! * [`SubCtx`] — sub-HTM transactions (Fig. 1 lines 21–25): like the fast path,
//!   plus value logging into the undo-log before every write.
//! * [`SlowCtx`] — uninstrumented direct accesses, strongly atomic in the
//!   simulator, for code that runs beside live hardware transactions under its
//!   own exclusion (preloads, NOrec's inevitable runs). The global-lock holder
//!   of Fig. 1 lines 63–64 needs no strong atomicity and uses a cheaper private
//!   context (`commit_under_glock`).
//! * [`SoftwareCtx`] — a partitioned-path segment that the static profiler marked as
//!   touching no shared state: pure computation outside any hardware transaction.
//!
//! Local signatures are maintained twice, by design: the **heap** copy is written
//! inside the hardware transaction so the signature's footprint costs HTM capacity,
//! as in the paper, while the **software mirror** is the authoritative value used by
//! every protocol decision (commit validations, in-flight validation, lock release).
//! Since nothing ever reads the heap copy back, its stores use
//! [`htm_sim::HtmTx::write_private`] — capacity accounting without write buffering —
//! and failed attempts simply restore the mirror.

use crate::api::{spin_work, TxCtx, VALUE_MASK};
use crate::undo::UndoLog;
use htm_sim::abort::TxResult;
use htm_sim::{line_of, vclock, Addr, HtmThread, HtmTx, Line};
use tm_sig::{kernels, HeapSig, Sig, SigJournal, SigSlot};

/// Spend `units` outside any hardware transaction: burn them on the host and
/// charge them to the virtual clock. Inside a hardware transaction
/// [`HtmTx::work`] does the charging; out here nothing else would, and
/// computation under the global lock or in a software segment — or a backoff
/// wait — would be free in virtual time.
#[inline]
pub(crate) fn software_work(units: u64) {
    spin_work(units);
    vclock::charge(units);
}

/// A heap-resident signature paired with its software mirror; both are updated on
/// every add.
///
/// The pair remembers the line of its last add. Signatures are keyed on the
/// cache line and the pair borrows its mirror exclusively for its whole life,
/// so that line's bit is still set: a repeat returns before hashing anything.
pub struct SigPair<'a> {
    /// Heap copy (transactional updates).
    heap: HeapSig,
    /// Software mirror.
    mirror: &'a mut Sig,
    /// The line of the last add that returned `Ok`; [`Line::MAX`], which no
    /// address maps to, before the first.
    last_line: Line,
}

impl<'a> SigPair<'a> {
    /// Pair the heap copy `heap` with its software mirror.
    #[inline]
    pub fn new(heap: HeapSig, mirror: &'a mut Sig) -> Self {
        Self {
            heap,
            mirror,
            last_line: Line::MAX,
        }
    }

    /// The software mirror, read-only: only [`SigPair::add`] and
    /// [`SigPair::add_journaled`] may change it while the pair lives.
    #[inline]
    pub fn mirror(&self) -> &Sig {
        self.mirror
    }

    /// Record `addr` in both copies: the mirror authoritatively, the heap copy as a
    /// private store whose only purpose is charging the signature's cache footprint
    /// against HTM capacity. New bits only — repeated accesses are free, as on real
    /// hardware where the line is already dirty in L1.
    #[inline(always)]
    pub fn add(&mut self, tx: &mut HtmTx<'_, '_>, addr: Addr) -> TxResult<()> {
        let line = line_of(addr);
        if line == self.last_line {
            return Ok(());
        }
        self.add_line(tx, addr, line)
    }

    /// [`SigPair::add`] of a line other than the last one.
    #[inline(never)]
    fn add_line(&mut self, tx: &mut HtmTx<'_, '_>, addr: Addr, line: Line) -> TxResult<()> {
        let (w, m) = self.mirror.spec().slot_of(addr);
        if self.mirror.add_slot(w, m) {
            tx.write_private(self.heap.word_addr(w), self.mirror.word(w))?;
        }
        self.last_line = line;
        Ok(())
    }

    /// [`SigPair::add`] with undo journalling: the word's pre-add value is recorded
    /// in `journal` (first dirty only) so a failed segment can roll the mirror back
    /// without ever having cloned it. Only the mirror is journalled — the heap copy
    /// is capacity ballast that nothing reads back, so stale bits there after an
    /// abort are as harmless as they were under the clone scheme.
    #[inline(always)]
    pub fn add_journaled(
        &mut self,
        tx: &mut HtmTx<'_, '_>,
        addr: Addr,
        journal: &mut SigJournal,
        slot: SigSlot,
    ) -> TxResult<()> {
        let line = line_of(addr);
        if line == self.last_line {
            return Ok(());
        }
        self.add_line_journaled(tx, addr, line, journal, slot)
    }

    /// [`SigPair::add_journaled`] of a line other than the last one.
    #[inline(never)]
    fn add_line_journaled(
        &mut self,
        tx: &mut HtmTx<'_, '_>,
        addr: Addr,
        line: Line,
        journal: &mut SigJournal,
        slot: SigSlot,
    ) -> TxResult<()> {
        let (w, m) = self.mirror.spec().slot_of(addr);
        let old = self.mirror.word(w);
        if old & m == 0 {
            journal.note(slot, w, old);
            self.mirror.add_slot(w, m);
            tx.write_private(self.heap.word_addr(w), old | m)?;
        }
        self.last_line = line;
        Ok(())
    }
}

/// Fast-path context (Fig. 1 lines 3–6).
pub struct FastCtx<'c, 'a, 's> {
    /// The enclosing hardware transaction.
    pub tx: &'c mut HtmTx<'a, 's>,
    /// Local read-set signature.
    pub rsig: SigPair<'c>,
    /// Local write-set signature.
    pub wsig: SigPair<'c>,
    /// Set when the transaction performs any write (read-only transactions skip the
    /// ring publish, Fig. 1 line 9; writers publish per touched shard of the
    /// sharded ring — `docs/ring-sharding.md` §3).
    pub wrote: &'c mut bool,
}

impl TxCtx for FastCtx<'_, '_, '_> {
    #[inline(always)]
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        self.rsig.add(self.tx, addr)?;
        self.tx.read(addr)
    }

    #[inline]
    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        debug_assert_eq!(
            val & !VALUE_MASK,
            0,
            "application values must fit in 63 bits"
        );
        self.wsig.add(self.tx, addr)?;
        *self.wrote = true;
        self.tx.write(addr, val)
    }

    #[inline]
    fn work(&mut self, units: u64) -> TxResult<()> {
        self.tx.work(units)?;
        spin_work(units);
        Ok(())
    }
}

/// Sub-HTM context (Fig. 1 lines 21–25).
pub struct SubCtx<'c, 'a, 's> {
    /// The enclosing sub-HTM hardware transaction.
    pub tx: &'c mut HtmTx<'a, 's>,
    /// Read-set signature, accumulated across all sub-HTM transactions of the
    /// enclosing global transaction.
    pub rsig: SigPair<'c>,
    /// Write-set signature of the *current* sub-HTM transaction only.
    pub wsig: SigPair<'c>,
    /// The global transaction's value-based undo-log.
    pub undo: &'c mut UndoLog,
    /// The segment's signature undo journal: mirror words are rolled back from it
    /// when the segment fails, instead of restoring pre-segment clones.
    pub journal: &'c mut SigJournal,
    /// Set when any write happens anywhere in the global transaction.
    pub wrote: &'c mut bool,
}

impl TxCtx for SubCtx<'_, '_, '_> {
    #[inline(always)]
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        // Values written by previous sub-HTM transactions of this very global
        // transaction are already in shared memory (eager writing), so a plain read
        // suffices (§5.3.4).
        self.rsig
            .add_journaled(self.tx, addr, self.journal, SigSlot::Read)?;
        self.tx.read(addr)
    }

    #[inline]
    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        debug_assert_eq!(
            val & !VALUE_MASK,
            0,
            "application values must fit in 63 bits"
        );
        // Log the old value first (Fig. 1 line 23), then record and write.
        let old = self.tx.read(addr)?;
        self.undo.append_tx(self.tx, addr, old)?;
        self.wsig
            .add_journaled(self.tx, addr, self.journal, SigSlot::Write)?;
        *self.wrote = true;
        self.tx.write(addr, val)
    }

    #[inline]
    fn work(&mut self, units: u64) -> TxResult<()> {
        self.tx.work(units)?;
        spin_work(units);
        Ok(())
    }
}

/// Uninstrumented hardware-transaction context: plain transactional accesses with
/// no protocol metadata at all. Used by the *quiet* fast path — when the subscribed
/// gate word's count proves no partitioned-path transaction runs concurrently,
/// Part-HTM's signatures, lock validation and ring publish exist for nobody, so the
/// fast path degenerates to pure HTM (its design goal of "comparable performance
/// between Part-HTM and pure HTM" in that regime, §4) — and by every baseline's
/// pure-hardware attempt (HTM-GL, SpHT's fast path, NOrecRH's first path).
pub struct RawCtx<'c, 'a, 's> {
    /// The enclosing hardware transaction.
    pub tx: &'c mut HtmTx<'a, 's>,
}

impl TxCtx for RawCtx<'_, '_, '_> {
    #[inline]
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        self.tx.read(addr)
    }

    #[inline]
    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        debug_assert_eq!(
            val & !VALUE_MASK,
            0,
            "application values must fit in 63 bits"
        );
        self.tx.write(addr, val)
    }

    #[inline]
    fn work(&mut self, units: u64) -> TxResult<()> {
        self.tx.work(units)?;
        spin_work(units);
        Ok(())
    }
}

/// Direct, uninstrumented, strongly atomic accesses: each one dooms a hardware
/// transaction that holds the line in a conflicting mode.
pub struct SlowCtx<'c, 'r> {
    /// The executing thread.
    pub th: &'c HtmThread<'r>,
    /// Part-HTM-O stores values with an embedded lock bit; its slow path masks reads
    /// so workloads see plain values.
    pub mask_values: bool,
}

impl TxCtx for SlowCtx<'_, '_> {
    #[inline]
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        let v = self.th.nt_read(addr);
        Ok(if self.mask_values { v & VALUE_MASK } else { v })
    }

    #[inline]
    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        debug_assert_eq!(
            val & !VALUE_MASK,
            0,
            "application values must fit in 63 bits"
        );
        self.th.nt_write(addr, val);
        Ok(())
    }

    #[inline]
    fn work(&mut self, units: u64) -> TxResult<()> {
        software_work(units);
        Ok(())
    }

    #[inline]
    fn nt_work(&mut self, units: u64) -> TxResult<()> {
        software_work(units);
        Ok(())
    }
}

/// Context for partitioned-path segments marked as *non-transactional code* (§4,
/// §5.3.1): computation executed outside any hardware transaction — this is how
/// Part-HTM rescues transactions that exceed the HTM budgets on such work.
///
/// Reads are permitted but **racy**: they see shared memory without any isolation
/// (including values written by still-uncommitted global transactions), exactly like
/// the unmonitored loads STAMP's labyrinth uses for its planning-phase grid copy.
/// Workloads may only use them for results they re-validate transactionally before
/// acting (the claim phase re-reads every cell). Writes are forbidden: the paper is
/// explicit that non-transactional code may not write globally visible locations —
/// such writes could neither be rolled back nor respect the write locks.
pub struct SoftwareCtx<'c, 'r> {
    /// The executing thread (for raw, unmonitored loads).
    pub th: &'c HtmThread<'r>,
    /// Part-HTM-O embeds lock bits in values; racy reads mask them so planning code
    /// sees "locked" as a plain non-zero value.
    pub mask_values: bool,
}

impl TxCtx for SoftwareCtx<'_, '_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        // Raw load: no conflict detection, no isolation — by design.
        let v = self.th.system().heap().load(addr);
        Ok(if self.mask_values { v & VALUE_MASK } else { v })
    }

    fn write(&mut self, _addr: Addr, _val: u64) -> TxResult<()> {
        unreachable!("software segments must not write shared memory (workload contract, §4)")
    }

    #[inline]
    fn work(&mut self, units: u64) -> TxResult<()> {
        software_work(units);
        Ok(())
    }

    #[inline]
    fn nt_work(&mut self, units: u64) -> TxResult<()> {
        software_work(units);
        Ok(())
    }
}

/// Does `write_locks − own` intersect `read_sig ∪ write_sig`, `own(i)` being word
/// `i` of the caller's own locks?
///
/// Only the shared write-locks words are read transactionally; the transaction's own
/// signatures are supplied as their software mirrors (exactly equal to the heap
/// copies). Words where the transaction has no bits need no read at all — their
/// intersection is empty whatever the lock word holds — which also keeps the
/// transaction's conflict surface on the lock lines minimal. The mirrors'
/// nonzero-word masks drive the scan, so a signature with a handful of set bits
/// costs a popcount loop, not a full-width walk.
fn foreign_lock_hit(
    tx: &mut HtmTx<'_, '_>,
    locks: &HeapSig,
    own: impl Fn(u32) -> u64,
    rmir: &Sig,
    wmir: &Sig,
) -> TxResult<bool> {
    let words = rmir.spec().words();
    let mut groups = rmir.nonzero_mask() | wmir.nonzero_mask();
    while groups != 0 {
        // Each mask bit covers words b, b+64, … (one word exactly for the practical
        // geometries, where words <= 64).
        let mut i = groups.trailing_zeros();
        groups &= groups - 1;
        while i < words {
            let mine = rmir.word(i) | wmir.word(i);
            if mine != 0 {
                let l = tx.read(locks.word_addr(i))?;
                if kernels::conflict_word(l, own(i), mine) {
                    return Ok(true);
                }
            }
            i += 64;
        }
    }
    Ok(false)
}

/// Fast-path pre-commit validation (Fig. 1 line 7): true iff
/// `write_locks ∩ (read_sig ∪ write_sig) != ∅`.
pub fn fast_validation(
    tx: &mut HtmTx<'_, '_>,
    locks: &HeapSig,
    rmir: &Sig,
    wmir: &Sig,
) -> TxResult<bool> {
    foreign_lock_hit(tx, locks, |_| 0, rmir, wmir)
}

/// Sub-HTM pre-commit validation (Fig. 1 lines 26–27): true iff
/// `(write_locks − agg) ∩ (read_sig ∪ write_sig) != ∅` — foreign locks only, thanks
/// to the aggregate-signature mask (§5.3.5).
pub fn sub_validation(
    tx: &mut HtmTx<'_, '_>,
    locks: &HeapSig,
    amir: &Sig,
    rmir: &Sig,
    wmir: &Sig,
) -> TxResult<bool> {
    foreign_lock_hit(tx, locks, |i| amir.word(i), rmir, wmir)
}

/// Acquire write locks inside the sub-HTM commit (Fig. 1 line 29):
/// `write_locks ∪= write_sig`, touching only the lock words where this
/// sub-transaction has bits (from the write mirror) and skipping stores that would
/// not change the word.
pub fn acquire_locks_tx(tx: &mut HtmTx<'_, '_>, locks: &HeapSig, wmir: &Sig) -> TxResult<()> {
    for (i, w) in wmir.nonzero_words() {
        let l = tx.read(locks.word_addr(i))?;
        if l | w != l {
            tx.write(locks.word_addr(i), l | w)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{TmRuntime, TmThread};
    use tm_sig::SigSpec;

    #[test]
    fn fast_ctx_records_sigs_and_accesses() {
        let rt = TmRuntime::with_defaults(1, 64);
        let mut th = TmThread::new(&rt, 0);
        let a = rt.arena(0);
        let mut rmir = Sig::new(SigSpec::PAPER);
        let mut wmir = Sig::new(SigSpec::PAPER);
        let mut wrote = false;
        rt.setup_write(0, 11);

        let mut tx = th.hw.begin();
        {
            let mut ctx = FastCtx {
                tx: &mut tx,
                rsig: SigPair::new(a.read_sig, &mut rmir),
                wsig: SigPair::new(a.write_sig, &mut wmir),
                wrote: &mut wrote,
            };
            assert_eq!(ctx.read(rt.app(0)), Ok(11));
            ctx.write(rt.app(1), 22).unwrap();
        }
        tx.commit().unwrap();
        assert!(wrote);
        assert!(rmir.contains(rt.app(0)));
        assert!(wmir.contains(rt.app(1)));
        // Heap copies were published at commit and match the mirrors.
        assert_eq!(a.read_sig.snapshot_nt(&th.hw), rmir);
        assert_eq!(a.write_sig.snapshot_nt(&th.hw), wmir);
        assert_eq!(rt.verify_read(1), 22);
    }

    #[test]
    fn sub_ctx_logs_old_values() {
        let rt = TmRuntime::with_defaults(1, 64);
        let mut th = TmThread::new(&rt, 0);
        let a = rt.arena(0);
        let mut rmir = Sig::new(SigSpec::PAPER);
        let mut wmir = Sig::new(SigSpec::PAPER);
        let mut undo = UndoLog::new(a.undo_base, a.undo_words);
        let mut journal = SigJournal::new();
        journal.begin();
        let mut wrote = false;
        rt.setup_write(0, 5);

        let mut tx = th.hw.begin();
        {
            let mut ctx = SubCtx {
                tx: &mut tx,
                rsig: SigPair::new(a.read_sig, &mut rmir),
                wsig: SigPair::new(a.write_sig, &mut wmir),
                undo: &mut undo,
                journal: &mut journal,
                wrote: &mut wrote,
            };
            ctx.write(rt.app(0), 6).unwrap();
        }
        tx.commit().unwrap();
        // The journal recorded the write-mirror word's pre-segment value.
        assert_eq!(journal.len(), 1);
        journal.rollback(&mut rmir, &mut wmir);
        assert!(wmir.is_empty(), "rollback forgets the segment's sig bits");
        assert_eq!(undo.len(), 1);
        assert_eq!(undo.entry_nt(&th.hw, 0), (rt.app(0), 5));
        assert_eq!(rt.verify_read(0), 6);
        undo.undo_nt(&th.hw);
        assert_eq!(rt.verify_read(0), 5);
    }

    #[test]
    fn slow_ctx_direct_access() {
        let rt = TmRuntime::with_defaults(1, 64);
        let th = TmThread::new(&rt, 0);
        let mut ctx = SlowCtx {
            th: &th.hw,
            mask_values: false,
        };
        ctx.write(rt.app(2), 9).unwrap();
        assert_eq!(ctx.read(rt.app(2)), Ok(9));
        ctx.work(10).unwrap();
    }

    #[test]
    fn slow_ctx_masks_lock_bit_when_asked() {
        let rt = TmRuntime::with_defaults(1, 64);
        let th = TmThread::new(&rt, 0);
        rt.system()
            .heap()
            .store(rt.app(0), 7 | crate::api::LOCK_BIT);
        let mut ctx = SlowCtx {
            th: &th.hw,
            mask_values: true,
        };
        assert_eq!(ctx.read(rt.app(0)), Ok(7));
    }

    #[test]
    #[should_panic(expected = "software segments")]
    fn software_ctx_rejects_writes() {
        let rt = TmRuntime::with_defaults(1, 64);
        let th = TmThread::new(&rt, 0);
        let mut ctx = SoftwareCtx {
            th: &th.hw,
            mask_values: false,
        };
        let _ = ctx.write(0, 1);
    }

    #[test]
    fn software_ctx_racy_reads_and_masking() {
        let rt = TmRuntime::with_defaults(1, 64);
        let th = TmThread::new(&rt, 0);
        rt.system()
            .heap()
            .store(rt.app(0), 5 | crate::api::LOCK_BIT);
        let mut raw = SoftwareCtx {
            th: &th.hw,
            mask_values: false,
        };
        assert_eq!(raw.read(rt.app(0)).unwrap(), 5 | crate::api::LOCK_BIT);
        let mut masked = SoftwareCtx {
            th: &th.hw,
            mask_values: true,
        };
        assert_eq!(masked.read(rt.app(0)).unwrap(), 5);
        masked.work(3).unwrap();
        masked.nt_work(3).unwrap();
    }

    #[test]
    fn lock_path_and_software_work_cost_virtual_time() {
        use htm_sim::vclock::{SchedSpec, VClock};
        let rt = TmRuntime::with_defaults(1, 64);
        let th = TmThread::new(&rt, 0);
        let clock = VClock::new(1, SchedSpec::default());
        {
            let _core = clock.attach(0);
            let mut slow = SlowCtx {
                th: &th.hw,
                mask_values: false,
            };
            slow.work(600).unwrap();
            slow.nt_work(30).unwrap();
            let mut soft = SoftwareCtx {
                th: &th.hw,
                mask_values: false,
            };
            soft.work(7).unwrap();
            soft.nt_work(10_000).unwrap();
        }
        assert_eq!(clock.report().makespan, 600 + 30 + 7 + 10_000);
    }

    #[test]
    fn validations_detect_foreign_locks_only() {
        let rt = TmRuntime::with_defaults(2, 64);
        let th0 = TmThread::new(&rt, 0);
        let spec = SigSpec::PAPER;
        let locks = rt.write_locks();

        // Locks hold addr 10 (owned by us via the aggregate) and addr 20 (foreign).
        let mut l = Sig::new(spec);
        l.add(10);
        l.add(20);
        locks.write_nt(&th0.hw, &l);
        let mut own = Sig::new(spec);
        own.add(10);
        let mut r = Sig::new(spec);
        r.add(10); // we read our own locked location
        let wempty = Sig::new(spec);

        let mut th = TmThread::new(&rt, 1);
        // Fast validation (no self-lock concept) must flag addr 10.
        let hit_fast = th
            .hw
            .attempt(|tx| fast_validation(tx, locks, &r, &wempty))
            .unwrap();
        assert!(hit_fast);
        // Sub validation masks own locks: no conflict.
        let hit_sub = th
            .hw
            .attempt(|tx| sub_validation(tx, locks, &own, &r, &wempty))
            .unwrap();
        assert!(!hit_sub);
        // Reading the foreign lock's address flags it.
        let mut r2 = Sig::new(spec);
        r2.add(20);
        let hit_sub2 = th
            .hw
            .attempt(|tx| sub_validation(tx, locks, &own, &r2, &wempty))
            .unwrap();
        assert!(hit_sub2);
    }

    #[test]
    fn acquire_locks_sets_only_mirror_words() {
        let rt = TmRuntime::with_defaults(1, 64);
        let mut th = TmThread::new(&rt, 0);
        let locks = rt.write_locks();
        let mut w = Sig::new(SigSpec::PAPER);
        w.add(77);
        w.add(12345);
        th.hw.attempt(|tx| acquire_locks_tx(tx, locks, &w)).unwrap();
        assert_eq!(locks.snapshot_nt(&th.hw), w);
        // Releasing restores emptiness.
        locks.and_not_nt(&th.hw, &w);
        assert!(locks.snapshot_nt(&th.hw).is_empty());
    }
}
