//! Part-HTM-O: the opacity-preserving variant (§5.5, Fig. 2).
//!
//! Two extensions over the base protocol make every memory access consistent, not
//! just every commit:
//!
//! 1. **Address-embedded write locks**: a lock bit co-located with each datum
//!    ([`crate::LOCK_BIT`]), checked at *encounter time* on every read and write.
//!    Observing a foreign lock explicitly aborts the hardware transaction before the
//!    value can be used. Embedding eliminates the false conflicts a shared lock
//!    table would cause.
//! 2. **Timestamp subscription**: every sub-HTM transaction reads the global
//!    timestamp first (Fig. 2 lines 23–24), so any global commit during its
//!    execution dooms it via hardware conflict detection, and a commit *between*
//!    sub-transactions is caught by the explicit `TS_CHANGED` check; both trigger an
//!    in-flight validation before any further memory access.
//!
//! These make the base protocol's sub-HTM pre-commit signature validation
//! unnecessary ("useless in Part-HTM-O", §5.5). One addition over the paper's
//! pseudo-code: writers run a final in-flight validation at global commit. Fig. 2
//! omits it, but without it a transaction whose read set is invalidated *after its
//! last sub-HTM transaction commits and before its global commit* could publish —
//! see DESIGN.md ("soundness fixes") for the interleaving; the base protocol closes
//! the same window with the validation that follows its last sub-transaction.

use crate::api::{
    TxCtx, Workload, LOCK_BIT, VALUE_MASK, XABORT_LOCKED, XABORT_TS_CHANGED, XABORT_UNDO_FULL,
};
use crate::ctx::{FastCtx, SubCtx};
use crate::exec::{run_all, run_segments, PartExec, SubVerdict, Variant};
use crate::runtime::{TmConfig, TmRuntime};
use crate::undo::UndoLog;
use htm_sim::abort::TxResult;
use htm_sim::util::FastSet;
use htm_sim::{AbortCode, Addr, HtmThread};
use std::ops::Range;
use tm_sig::{ShardTimes, ShardedValidation, Sig, SigSlot, SigSpec};

/// The Part-HTM-O protocol (opaque variant, Fig. 2).
pub type PartHtmO<'r> = PartExec<'r, Opaque>;

/// The set of addresses this global transaction holds embedded locks on, with
/// mark/rollback for failed sub-HTM attempts. Stands in for the paper's
/// `not_self_lock` undo-log scan (Fig. 2 lines 18–21) with identical semantics —
/// an address is self-locked iff this transaction logged a write to it — at O(1)
/// per query instead of O(log length).
#[derive(Default)]
struct LockedSet {
    order: Vec<Addr>,
    set: FastSet<Addr>,
}

impl LockedSet {
    /// True if `addr` is locked by the current global transaction.
    #[inline]
    fn contains(&self, addr: Addr) -> bool {
        self.set.contains(&addr)
    }

    /// Record a newly acquired lock.
    #[inline]
    fn insert(&mut self, addr: Addr) {
        debug_assert!(!self.set.contains(&addr));
        self.order.push(addr);
        self.set.insert(addr);
    }

    /// Current length, for [`LockedSet::truncate`].
    fn mark(&self) -> usize {
        self.order.len()
    }

    /// Roll back to a previous mark (failed sub-HTM attempt: its lock-bit writes
    /// were never published).
    fn truncate(&mut self, mark: usize) {
        while self.order.len() > mark {
            let a = self.order.pop().expect("mark below zero");
            self.set.remove(&a);
        }
    }

    /// Forget everything (global transaction finished).
    fn clear(&mut self) {
        self.order.clear();
        self.set.clear();
    }
}

/// Fast-path context with encounter-time lock checks (Fig. 2 lines 3–7): the
/// base context's transaction and write signature, no read signature.
struct OFastCtx<'x, 'c, 'a, 's>(&'x mut FastCtx<'c, 'a, 's>);

impl TxCtx for OFastCtx<'_, '_, '_, '_> {
    #[inline(always)]
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        let v = self.0.tx.read(addr)?;
        if v & LOCK_BIT != 0 {
            return Err(self.0.tx.xabort(XABORT_LOCKED));
        }
        Ok(v)
    }

    #[inline]
    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        let c = &mut *self.0;
        debug_assert_eq!(val & LOCK_BIT, 0, "application values must fit in 63 bits");
        let v = c.tx.read(addr)?;
        if v & LOCK_BIT != 0 {
            return Err(c.tx.xabort(XABORT_LOCKED));
        }
        c.wsig.add(c.tx, addr)?;
        *c.wrote = true;
        c.tx.write(addr, val)
    }

    #[inline]
    fn work(&mut self, units: u64) -> TxResult<()> {
        self.0.work(units)
    }
}

/// Sub-HTM context with encounter-time lock checks and eager lock acquisition
/// (Fig. 2 lines 25–35), over the base context's signatures, undo log and
/// journal.
struct OSubCtx<'x, 'c, 'a, 's> {
    base: &'x mut SubCtx<'c, 'a, 's>,
    locked: &'x mut LockedSet,
}

impl TxCtx for OSubCtx<'_, '_, '_, '_> {
    #[inline(always)]
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        let c = &mut *self.base;
        let v = c.tx.read(addr)?;
        if v & LOCK_BIT != 0 && !self.locked.contains(addr) {
            return Err(c.tx.xabort(XABORT_LOCKED));
        }
        c.rsig.add_journaled(c.tx, addr, c.journal, SigSlot::Read)?;
        Ok(v & VALUE_MASK)
    }

    #[inline]
    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        let c = &mut *self.base;
        debug_assert_eq!(val & LOCK_BIT, 0, "application values must fit in 63 bits");
        let v = c.tx.read(addr)?;
        if v & LOCK_BIT != 0 {
            if !self.locked.contains(addr) {
                return Err(c.tx.xabort(XABORT_LOCKED));
            }
            // Already ours: overwrite in place, keeping the lock.
            return c.tx.write(addr, val | LOCK_BIT);
        }
        c.undo.append_tx(c.tx, addr, v)?;
        c.wsig
            .add_journaled(c.tx, addr, c.journal, SigSlot::Write)?;
        self.locked.insert(addr);
        *c.wrote = true;
        // Acquire the embedded lock together with the value (Fig. 2 lines 34–35).
        c.tx.write(addr, val | LOCK_BIT)
    }

    #[inline]
    fn work(&mut self, units: u64) -> TxResult<()> {
        self.base.work(units)
    }
}

/// Fig. 2's policy and per-transaction lock state: the embedded locks held.
/// There is no aggregate signature in `-O` (locks live with the data), so the
/// executor's write mirror accumulates over the whole global transaction.
#[derive(Default)]
pub struct Opaque {
    locked: LockedSet,
}

impl Variant for Opaque {
    const NAME: &'static str = "Part-HTM-O";
    const MASK_VALUES: bool = true;
    /// The final writer validation this implementation adds (see module docs).
    const VALIDATE_AT_COMMIT: bool = true;

    fn new(_spec: SigSpec) -> Self {
        Self::default()
    }

    fn clear(&mut self) {
        self.locked.clear();
    }

    fn mark(&self) -> usize {
        self.locked.mark()
    }

    fn truncate(&mut self, mark: usize) {
        self.locked.truncate(mark);
    }

    /// No pre-commit signature validation: encounter-time lock checks already
    /// guarantee no non-visible location was touched (Fig. 2 lines 8–11).
    fn fast_body<W: Workload>(
        &mut self,
        w: &mut W,
        _rt: &TmRuntime,
        mut ctx: FastCtx<'_, '_, '_>,
    ) -> TxResult<()> {
        run_all(w, &mut OFastCtx(&mut ctx))
    }

    /// The live shard timestamps: the window doubles as the sub-HTM
    /// subscription vector (every sub-transaction re-checks all shard
    /// timestamps against it).
    fn begin_window(rt: &TmRuntime, hw: &HtmThread<'_>, times: &mut ShardTimes) {
        rt.sharded_ring().timestamps_nt(hw, times);
    }

    fn sub_body<W: Workload>(
        &mut self,
        w: &mut W,
        segs: Range<usize>,
        rt: &TmRuntime,
        times: &ShardTimes,
        mut ctx: SubCtx<'_, '_, '_>,
    ) -> TxResult<()> {
        // Timestamp subscription (Fig. 2 lines 23–24), per shard: reading every
        // shard's timestamp subscribes their lines, so any global commit in any
        // shard during this sub-transaction dooms it; one that already happened
        // is caught here explicitly.
        if !rt.sharded_ring().timestamps_match_tx(ctx.tx, times)? {
            return Err(ctx.tx.xabort(XABORT_TS_CHANGED));
        }
        let mut ctx = OSubCtx {
            base: &mut ctx,
            locked: &mut self.locked,
        };
        // No pre-commit validation and no lock-signature acquisition: the two -O
        // extensions provide both earlier (§5.5).
        run_segments(w, segs, &mut ctx)
    }

    /// Fig. 2 lines 36–39: a timestamp change (explicit, or the hardware
    /// conflict the subscription converts commits into) triggers validation; if
    /// the snapshot is still valid only the sub-transaction restarts, otherwise
    /// the global transaction aborts. Foreign locks and undo overflow abort the
    /// global transaction directly.
    fn sub_verdict(code: AbortCode) -> SubVerdict {
        match code {
            AbortCode::Explicit(XABORT_TS_CHANGED) | AbortCode::Conflict => SubVerdict::Revalidate,
            AbortCode::Explicit(XABORT_LOCKED | XABORT_UNDO_FULL) => SubVerdict::GiveUp,
            _ => SubVerdict::Retry,
        }
    }

    /// In-flight validation against every ring shard (per-shard summary fast
    /// path first); advances the per-shard window on success.
    fn validate(
        rt: &TmRuntime,
        hw: &HtmThread<'_>,
        rmir: &Sig,
        times: &mut ShardTimes,
    ) -> ShardedValidation {
        rt.sharded_ring()
            .validate_summarized_nt(hw, rt.summaries(), rmir, times)
    }

    /// Never: between sub-transactions the timestamp subscription stands in.
    fn validate_after_sub(_cfg: &TmConfig, _last_htm: bool) -> bool {
        false
    }

    fn seal(&mut self, _wmir: &mut Sig) {}

    fn commit_sig<'a>(&'a self, wmir: &'a Sig) -> &'a Sig {
        wmir
    }

    /// Commit clears the lock bit on every logged address (Fig. 2 lines 55–56).
    /// On abort the undo-log restore already put back the old, *unlocked*
    /// values, releasing every embedded lock in the same stores.
    fn release_locks(
        &mut self,
        _rt: &TmRuntime,
        hw: &HtmThread<'_>,
        undo: &UndoLog,
        _wmir: &Sig,
        committed: bool,
    ) {
        if committed {
            undo.unlock_all_nt(hw);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::TmExecutor;
    use rand::rngs::SmallRng;

    #[test]
    fn locked_set_mark_truncate() {
        let mut l = LockedSet::default();
        l.insert(1);
        let m = l.mark();
        l.insert(2);
        l.insert(3);
        assert!(l.contains(3));
        l.truncate(m);
        assert!(l.contains(1));
        assert!(!l.contains(2));
        assert_eq!(l.mark(), 1);
        l.clear();
        assert_eq!(l.mark(), 0);
    }

    #[test]
    fn values_never_observed_locked_by_fast_path() {
        // A partitioned writer keeps locking values; fast-path readers must either
        // see pre-lock or post-unlock values, never the lock bit.
        let rt = TmRuntime::new(
            // Mid-size HTM: 16 sets x 4 ways = 64 written lines — big enough for a
            // segment plus the protocol metadata (signatures, undo log, locks),
            // small enough that the whole transaction overflows it.
            htm_sim::HtmConfig {
                l1_sets: 16,
                l1_ways: 4,
                quantum: 100_000,
                ..htm_sim::HtmConfig::default()
            },
            TmConfig::default(),
            2,
            2048,
        );
        /// Increment 96 counters on distinct lines in 8 segments.
        struct Incr(Addr);
        impl Workload for Incr {
            type Snap = ();
            fn sample(&mut self, _r: &mut SmallRng) {}
            fn segments(&self) -> usize {
                8
            }
            fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
                for i in seg * 12..(seg + 1) * 12 {
                    let a = self.0 + (i * 8) as Addr;
                    let v = ctx.read(a)?;
                    ctx.write(a, v + 1)?;
                }
                Ok(())
            }
        }
        struct ReadAll {
            n: usize,
            base: Addr,
            seen: Vec<u64>,
        }
        impl Workload for ReadAll {
            type Snap = ();
            fn sample(&mut self, _r: &mut SmallRng) {}
            fn reset(&mut self) {
                self.seen.clear();
            }
            fn segment<C: TxCtx>(&mut self, _s: usize, ctx: &mut C) -> TxResult<()> {
                for i in 0..self.n {
                    let v = ctx.read(self.base + (i * 8) as Addr)?;
                    self.seen.push(v);
                }
                Ok(())
            }
        }
        std::thread::scope(|s| {
            let rt = &rt;
            s.spawn(move || {
                let mut e = PartHtmO::new(rt, 0);
                let mut w = Incr(rt.app(0));
                for _ in 0..10 {
                    e.execute(&mut w);
                }
            });
            s.spawn(move || {
                let mut e = PartHtmO::new(rt, 1);
                let mut w = ReadAll {
                    n: 96,
                    base: rt.app(0),
                    seen: Vec::new(),
                };
                for _ in 0..50 {
                    e.execute(&mut w);
                    for &v in &w.seen {
                        assert_eq!(v & LOCK_BIT, 0, "observed a locked value: {v:#x}");
                    }
                }
            });
        });
        // All locks released at the end.
        for i in 0..96 {
            assert_eq!(rt.verify_read(i * 8) & LOCK_BIT, 0);
        }
    }
}
