//! Part-HTM, the serializable variant (Fig. 1 of the paper): software metadata is
//! observed at *commit time*. Hardware transactions record their accesses in
//! Bloom-filter signatures and validate them against the global write-locks
//! signature right before committing; sub-HTM transactions then acquire their
//! write locks in that signature. The three-path driver itself is the shared
//! [`crate::exec::PartExec`]; this module supplies only Fig. 1's hooks.

use crate::api::{Workload, XABORT_LOCKED, XABORT_UNDO_FULL};
use crate::ctx::{acquire_locks_tx, fast_validation, sub_validation, FastCtx, SubCtx};
use crate::exec::{run_all, run_segments, PartExec, SubVerdict, Variant};
use crate::runtime::{TmConfig, TmRuntime};
use crate::undo::UndoLog;
use htm_sim::abort::TxResult;
use htm_sim::{AbortCode, HtmThread};
use std::ops::Range;
use tm_sig::{ShardTimes, ShardedValidation, Sig, SigSpec};

/// The Part-HTM protocol (serializable variant, Fig. 1).
pub type PartHtm<'r> = PartExec<'r, Serializable>;

/// Fig. 1's policy and per-transaction lock state: the software mirror of the
/// *aggregate* write-set signature — every location written by an already
/// committed sub-HTM transaction of the current global transaction, i.e. the
/// bits this transaction holds in the global write-locks signature (kept
/// exact). The executor's write mirror covers the current sub-HTM only.
pub struct Serializable {
    amir: Sig,
}

impl Variant for Serializable {
    const NAME: &'static str = "Part-HTM";
    const MASK_VALUES: bool = false;
    /// The validation after the last sub-HTM commit already covers it.
    const VALIDATE_AT_COMMIT: bool = false;

    fn new(spec: SigSpec) -> Self {
        Self {
            amir: Sig::new(spec),
        }
    }

    fn clear(&mut self) {
        self.amir.clear();
    }

    fn fast_body<W: Workload>(
        &mut self,
        w: &mut W,
        rt: &TmRuntime,
        mut ctx: FastCtx<'_, '_, '_>,
    ) -> TxResult<()> {
        run_all(w, &mut ctx)?;
        // Pre-commit validation against non-visible locations (Fig. 1 lines 7–8).
        let FastCtx { tx, rsig, wsig, .. } = ctx;
        if fast_validation(tx, rt.write_locks(), rsig.mirror(), wsig.mirror())? {
            return Err(tx.xabort(XABORT_LOCKED));
        }
        Ok(())
    }

    /// Begin windows from the fold watermarks: host atomics only, no simulated
    /// timestamp reads. Part-HTM never compares these against the live shard
    /// timestamps (unlike Part-HTM-O's subscription), so a lagging watermark
    /// just means a slightly wider validation window.
    fn begin_window(rt: &TmRuntime, _hw: &HtmThread<'_>, times: &mut ShardTimes) {
        rt.summaries().watermark_times(times);
    }

    fn sub_body<W: Workload>(
        &mut self,
        w: &mut W,
        segs: Range<usize>,
        rt: &TmRuntime,
        _times: &ShardTimes,
        mut ctx: SubCtx<'_, '_, '_>,
    ) -> TxResult<()> {
        run_segments(w, segs, &mut ctx)?;
        // Pre-commit validation, own locks masked out (Fig. 1 lines 26–28).
        let SubCtx { tx, rsig, wsig, .. } = ctx;
        let locks = rt.write_locks();
        if sub_validation(tx, locks, &self.amir, rsig.mirror(), wsig.mirror())? {
            return Err(tx.xabort(XABORT_LOCKED));
        }
        // Acquire write locks for the just-written locations (Fig. 1 line 29).
        acquire_locks_tx(tx, locks, wsig.mirror())
    }

    /// A conflict on the global write-locks (or an overflowing undo log)
    /// propagates to the global transaction (§5.3.5); anything else retries.
    fn sub_verdict(code: AbortCode) -> SubVerdict {
        match code {
            AbortCode::Explicit(XABORT_LOCKED | XABORT_UNDO_FULL) => SubVerdict::GiveUp,
            _ => SubVerdict::Retry,
        }
    }

    /// In-flight validation after a sub-HTM commit (§5.3.6). Part-HTM keeps
    /// begin-time windows and never subscribes shard timestamps, so the cheap
    /// non-advancing validator applies: a clean probe of each touched shard's
    /// summary decides the common no-conflict case without touching simulated
    /// memory, and only a doubtful shard is walked precisely (advancing its
    /// window).
    fn validate(
        rt: &TmRuntime,
        hw: &HtmThread<'_>,
        rmir: &Sig,
        times: &mut ShardTimes,
    ) -> ShardedValidation {
        rt.sharded_ring()
            .validate_touched_nt(hw, rt.summaries(), rmir, times)
    }

    /// After every sub-HTM commit (the paper's choice, §5.3.6) or only after
    /// the last one (the serializability minimum).
    fn validate_after_sub(cfg: &TmConfig, last_htm: bool) -> bool {
        cfg.validate_every_sub || last_htm
    }

    /// Fold the sub-transaction's writes into the aggregate (Fig. 1 lines 32–33).
    fn seal(&mut self, wmir: &mut Sig) {
        self.amir.union_with(wmir);
        wmir.clear();
    }

    fn commit_sig<'a>(&'a self, _wmir: &'a Sig) -> &'a Sig {
        &self.amir
    }

    /// `write_locks −= aggregate` (Fig. 1 lines 50 and 56). An in-flight
    /// validation failure arrives here after the offending sub-transaction
    /// committed (and acquired locks for its writes) but before `seal` folded
    /// its write signature into the aggregate; fold it now so the release also
    /// covers the last sub's locks. Everywhere else `wmir` is empty (sealed, or
    /// rolled back by the journal) and the fold is a no-op.
    fn release_locks(
        &mut self,
        rt: &TmRuntime,
        hw: &HtmThread<'_>,
        _undo: &UndoLog,
        wmir: &Sig,
        _committed: bool,
    ) {
        self.amir.union_with(wmir);
        rt.write_locks().and_not_nt(hw, &self.amir);
    }
}
