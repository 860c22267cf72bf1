//! The one executor core: the three-path driver of Fig. 1 and Fig. 2.
//!
//! The paper's two figures are one algorithm — fast HTM attempt → chain of
//! sub-HTM transactions → global lock — that differ only in *where software
//! metadata is observed*: Part-HTM validates signatures against the write-locks
//! signature at commit time, Part-HTM-O checks address-embedded lock bits at
//! encounter time and subscribes the ring timestamps. [`PartExec`] is that one
//! algorithm; the `Variant` policy (crate-private: [`crate::parthtm::Serializable`]
//! and [`crate::opaque::Opaque`] are its only implementations) supplies exactly the
//! observation points. Everything else — routing, retry budgets, backoff, the
//! quiet attempt, the publish hand-shake, journal/undo/snapshot rollback, the
//! segment plan with its split rule and planner feedback, shedding — exists
//! once, here.
//!
//! The module also holds the two idioms every hardware-assisted executor in the
//! workspace shares: [`hw_attempt`] (one whole-transaction hardware attempt
//! subscribed to the global lock) and [`commit_under_glock`] (the slow path).

use crate::api::{
    spin_work, CommitPath, TmExecutor, TxCtx, Workload, XABORT_GLOCK, XABORT_NOT_QUIET,
    XABORT_UNDO_FULL,
};
use crate::ctx::{software_work, FastCtx, RawCtx, SigPair, SlowCtx, SoftwareCtx, SubCtx};
use crate::planner::{build_plan, FastExit, FastRoute, PlanChange, PlanStep};
use crate::runtime::{ThreadArena, TmConfig, TmRuntime, TmThread};
use crate::undo::UndoLog;
use htm_sim::abort::TxResult;
use htm_sim::vclock::yield_now;
use htm_sim::{AbortCode, Addr, HtmThread, HtmTx};
use rand::Rng;
use std::ops::Range;
use tm_sig::{ShardTimes, ShardedValidation, Sig, SigJournal, SigSpec};

/// Hardware attempts on the fast path before concluding the failure mode
/// (§7: competitors "retry a transaction 5 times as HTM before falling
/// back").
pub const FAST_RETRIES: u32 = 5;
/// Global (partitioned-path) attempts before the slow path (§5.3.7: "the
/// transaction is retried 5 times before falling back to the slow path").
/// Only conflict-, lock- and validation-driven global aborts spend them: a
/// capacity-class abort of a single declared segment goes to the slow path at
/// once, since re-running it cannot fit it.
pub const PART_RETRIES: u32 = 5;
/// Base of the exponential backoff after a global abort (Fig. 1 line 59), in
/// spin-work units.
pub const BACKOFF_UNITS: u64 = 64;

/// Run the declared segments `segs` of `w` under one context.
#[inline]
pub fn run_segments<W: Workload, C: TxCtx>(
    w: &mut W,
    segs: Range<usize>,
    ctx: &mut C,
) -> TxResult<()> {
    for seg in segs {
        w.segment(seg, ctx)?;
    }
    Ok(())
}

/// Run every declared segment of `w` under one context (the whole-transaction
/// paths: hardware attempts and the global lock).
#[inline]
pub fn run_all<W: Workload, C: TxCtx>(w: &mut W, ctx: &mut C) -> TxResult<()> {
    let n = w.segments();
    run_segments(w, 0..n, ctx)
}

/// Read `addr` inside `tx` — subscribing its line, so any later store dooms the
/// transaction — and explicitly abort with `code` unless it holds zero.
#[inline]
fn subscribe_zero(tx: &mut HtmTx<'_, '_>, addr: Addr, code: u8) -> TxResult<()> {
    match tx.read(addr)? {
        0 => Ok(()),
        _ => Err(tx.xabort(code)),
    }
}

/// One whole-transaction hardware attempt: reset the workload, begin, subscribe
/// the global lock (Fig. 1 lines 1–2) — and `active_tx` too when
/// `subscribe_active`, the *quiet* speculation that no partitioned-path
/// transaction runs — then run `body` and commit. A failed attempt counts one
/// [`crate::TmStats::fast_aborts`]. Shared by every executor with a hardware
/// first path (Part-HTM, Part-HTM-O and the HTM-GL/SpHT baselines); `body`
/// builds the path's instrumentation context around the transaction it is
/// handed.
pub fn hw_attempt<W: Workload, R>(
    th: &mut TmThread<'_>,
    w: &mut W,
    subscribe_active: bool,
    body: impl FnOnce(&mut HtmTx<'_, '_>, &mut W) -> TxResult<R>,
) -> Result<R, AbortCode> {
    w.reset();
    let (glock, active_tx) = (th.rt.glock(), th.rt.active_tx());
    let res = th.hw.attempt(|tx| {
        subscribe_zero(tx, glock, XABORT_GLOCK)?;
        if subscribe_active {
            subscribe_zero(tx, active_tx, XABORT_NOT_QUIET)?;
        }
        body(tx, w)
    });
    if res.is_err() {
        th.stats.fast_aborts += 1;
    }
    res
}

/// Commit `w` under the global lock (the slow path, Fig. 1 lines 61–65):
/// acquire `GLock`, wait for every partitioned-path transaction to drain
/// (`active_tx == 0`), execute uninstrumented, release, record the commit.
/// Shared by every executor whose last resort is the lock.
///
/// The lock is held through a drop guard, so a workload segment that panics
/// here releases it while unwinding: the panic fails its own thread instead of
/// wedging every peer in the acquisition loop.
pub fn commit_under_glock<W: Workload>(
    th: &mut TmThread<'_>,
    w: &mut W,
    mask_values: bool,
) -> CommitPath {
    struct Held<'a, 's>(&'a HtmThread<'s>, Addr);
    impl Drop for Held<'_, '_> {
        fn drop(&mut self) {
            self.0.nt_write(self.1, 0);
        }
    }
    let rt = th.rt;
    while th.hw.nt_cas(rt.glock(), 0, 1).is_err() {
        yield_now();
    }
    {
        let _held = Held(&th.hw, rt.glock());
        while th.hw.nt_read(rt.active_tx()) != 0 {
            yield_now();
        }
        w.reset();
        let mut ctx = SlowCtx {
            th: &th.hw,
            mask_values,
        };
        run_all(w, &mut ctx).expect("slow-path operations cannot abort");
    }
    w.after_commit();
    th.stats.record_commit(CommitPath::GlobalLock);
    CommitPath::GlobalLock
}

/// Anti-lemming retry policy (§7, after the paper’s reference \[38\]): never retry in hardware while the
/// global lock is held — wait for its release first.
pub fn wait_glock_released(th: &TmThread<'_>) {
    while th.hw.nt_read(th.rt.glock()) != 0 {
        yield_now();
    }
}

/// Randomised backoff: wait a uniform draw from `0..=window` work units, on
/// the host *and* on the virtual clock. Symmetric transactions that doomed one
/// another retry at different instants instead of re-colliding in lockstep —
/// real cores bring that jitter themselves, a deterministic clock does not.
/// The draw comes from the per-thread RNG (seeded by thread id), so a
/// virtual-time run stays a pure function of its schedule spec.
fn backoff(th: &mut TmThread<'_>, window: u64) {
    software_work(th.rng.gen_range(0..=window));
}

/// Is this abort the class that splitting can cure (HTM resource exhaustion
/// or an overflowing undo log), as opposed to a data or lock conflict?
#[inline]
fn capacity_class(code: AbortCode) -> bool {
    code.is_resource_failure() || matches!(code, AbortCode::Explicit(XABORT_UNDO_FULL))
}

/// Outcome of one planned sub-HTM group on the partitioned path.
enum GroupRun {
    Committed,
    /// A merged (multi-segment) group died of a capacity-class abort: re-run it
    /// as single declared segments (retrying it as-is would be futile).
    Split,
    /// The enclosing global transaction must abort, for this reason.
    Fail(GlobalAbort),
}

/// Why a global transaction on the partitioned path aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GlobalAbort {
    /// Conflict, lock or validation driven: another global attempt may commit.
    Retry,
    /// A single declared segment died of a capacity-class abort: nothing is
    /// left to split, so every further attempt would fail the same way.
    Futile,
}

/// A variant's reaction to a failed sub-HTM attempt (before the retry budget).
pub enum SubVerdict {
    /// Retry the sub-HTM transaction.
    Retry,
    /// The snapshot may be stale: retry only if an in-flight validation passes.
    Revalidate,
    /// Abort the enclosing global transaction.
    GiveUp,
}

/// What Fig. 2 changes relative to Fig. 1 — and nothing else. An implementation
/// is also the per-transaction lock state of its protocol (the aggregate
/// write-set signature, or the set of embedded locks held).
pub trait Variant: Send + Sized {
    /// Display name ([`TmExecutor::NAME`]).
    const NAME: &'static str;
    /// Values carry an embedded lock bit that uninstrumented reads must mask.
    const MASK_VALUES: bool;
    /// Writers run one more in-flight validation at the global commit.
    const VALIDATE_AT_COMMIT: bool;

    /// Fresh (empty) lock state for signatures of geometry `spec`.
    fn new(spec: SigSpec) -> Self;
    /// Forget all lock state (global transaction finished or restarting).
    fn clear(&mut self);
    /// Cursor over the lock state, taken before a sub-HTM attempt.
    fn mark(&self) -> usize {
        0
    }
    /// Roll the lock state back to `mark`: locks a failed sub-HTM attempt took
    /// inside the hardware transaction never published.
    fn truncate(&mut self, _mark: usize) {}

    /// The instrumented fast path: run every segment under `ctx` — Fig. 1's
    /// context, as is or wrapped — then the variant's pre-commit check (Fig. 1
    /// lines 3–8, Fig. 2 lines 3–11).
    fn fast_body<W: Workload>(
        &mut self,
        w: &mut W,
        rt: &TmRuntime,
        ctx: FastCtx<'_, '_, '_>,
    ) -> TxResult<()>;

    /// Source of the partitioned path's begin-time validation window.
    fn begin_window(rt: &TmRuntime, hw: &HtmThread<'_>, times: &mut ShardTimes);

    /// One sub-HTM transaction: prologue, segments `segs` under `ctx` (as is or
    /// wrapped), epilogue (Fig. 1 lines 21–29, Fig. 2 lines 23–35).
    fn sub_body<W: Workload>(
        &mut self,
        w: &mut W,
        segs: Range<usize>,
        rt: &TmRuntime,
        times: &ShardTimes,
        ctx: SubCtx<'_, '_, '_>,
    ) -> TxResult<()>;

    /// Reaction to a sub-HTM attempt that aborted with `code`.
    fn sub_verdict(code: AbortCode) -> SubVerdict;

    /// The variant's in-flight validator over `rmir` and the window `times`.
    fn validate(
        rt: &TmRuntime,
        hw: &HtmThread<'_>,
        rmir: &Sig,
        times: &mut ShardTimes,
    ) -> ShardedValidation;

    /// Is an in-flight validation due right after a sub-HTM commit? `last_htm`
    /// when no later segment of the transaction runs in hardware.
    fn validate_after_sub(cfg: &TmConfig, last_htm: bool) -> bool;

    /// Post-sub-commit seal: account the committed sub-transaction's write set
    /// `wmir` in the lock state (Fig. 1 lines 32–33).
    fn seal(&mut self, wmir: &mut Sig);

    /// The whole global transaction's write signature, published at commit.
    fn commit_sig<'a>(&'a self, wmir: &'a Sig) -> &'a Sig;

    /// Release every lock the global transaction holds, after its commit was
    /// published (`committed`) or its undo log was restored (`!committed`).
    fn release_locks(
        &mut self,
        rt: &TmRuntime,
        hw: &HtmThread<'_>,
        undo: &UndoLog,
        wmir: &Sig,
        committed: bool,
    );
}

/// The Part-HTM executor, generic over the protocol variant:
/// [`crate::PartHtm`] (serializable, Fig. 1) and [`crate::PartHtmO`] (opaque,
/// Fig. 2) are its two instantiations.
pub struct PartExec<'r, V: Variant> {
    th: TmThread<'r>,
    arena: ThreadArena,
    undo: UndoLog,
    /// Software mirror of the read-set signature (kept exactly equal to the heap
    /// copy: signature adds are write-only stores of the mirror word).
    rmir: Sig,
    /// Software mirror of the write-set signature (kept exact).
    wmir: Sig,
    /// Per-attempt signature undo journal: a failed sub-HTM attempt rolls the
    /// mirrors back by replaying the few words it dirtied (zero-clone retries;
    /// storage reused across transactions).
    journal: SigJournal,
    /// Per-shard validation window: slot `s` holds the newest commit of ring
    /// shard `s` this transaction's reads are known consistent against.
    times: ShardTimes,
    /// Reusable segment-plan buffer ([`build_plan`] output).
    plan: Vec<PlanStep>,
    /// The variant's per-transaction lock state.
    v: V,
}

impl<'r, V: Variant> PartExec<'r, V> {
    /// Try the whole transaction as one hardware transaction (§5.2).
    ///
    /// When no partitioned-path transaction was active at begin, the *quiet*
    /// variant runs first: with the subscribed `active_tx` counter at zero, the
    /// signatures, the lock checks and the ring publish — which exist solely
    /// to coordinate with sub-HTM transactions — are unnecessary and the fast
    /// path is pure HTM plus two subscriptions. Sound because locks (signature
    /// or embedded) are only held and the ring is only consulted while
    /// `active_tx > 0` (release precedes the decrement), and any change to
    /// either subscribed word dooms the hardware transaction.
    fn try_fast<W: Workload>(&mut self, w: &mut W) -> Result<(), AbortCode> {
        let rt = self.th.rt;
        if self.th.hw.nt_read(rt.active_tx()) == 0 {
            match hw_attempt(&mut self.th, w, true, |tx, w| {
                run_all(w, &mut RawCtx { tx })
            }) {
                Err(AbortCode::Explicit(XABORT_NOT_QUIET)) => {} // re-run instrumented
                other => return other,
            }
        }
        // Fig. 1 lines 14–15 clear the local signatures after the commit; the
        // mirrors are only read again after the next clear, so clearing at
        // begin covers commits and aborts alike.
        self.rmir.clear();
        self.wmir.clear();
        let a = self.arena;
        let (rmir, wmir, v) = (&mut self.rmir, &mut self.wmir, &mut self.v);
        // The announced publish's shard mask and per-shard commit timestamps
        // (mask 0 = nothing announced).
        let mut announced = (0u32, ShardTimes::new());
        let res = hw_attempt(&mut self.th, w, false, |tx, w| {
            let mut wrote = false;
            let ctx = FastCtx {
                tx: &mut *tx,
                rsig: SigPair::new(a.read_sig, rmir),
                wsig: SigPair::new(a.write_sig, wmir),
                wrote: &mut wrote,
            };
            v.fast_body(w, rt, ctx)?;
            // Writers publish their write signature to the shards it touches
            // (Fig. 1 lines 9–11), announcing the publish to the touched shard
            // summaries as the last body step.
            if wrote {
                announced = rt
                    .sharded_ring()
                    .publish_tx_summarized(tx, wmir, rt.summaries())?;
            }
            Ok(())
        });
        // An announced publish must be completed or cancelled depending on how
        // the hardware commit resolved.
        let (pub_mask, pub_times) = announced;
        if pub_mask != 0 {
            let ring = rt.sharded_ring();
            if res.is_ok() {
                ring.complete_publish(&self.wmir, pub_mask, &pub_times, rt.summaries());
                self.th.stats.record_shard_publish(pub_mask);
            } else {
                ring.cancel_publish(pub_mask, rt.summaries());
            }
        }
        res
    }

    #[inline]
    fn dec_active(&self) {
        let hw = &self.th.hw;
        hw.system()
            .nt_fetch_sub_by(hw.id(), self.th.rt.active_tx(), 1);
    }

    /// Clear the per-transaction metadata (partitioned-path begin and end).
    fn clear_local(&mut self) {
        self.rmir.clear();
        self.wmir.clear();
        self.v.clear();
        self.undo.clear();
    }

    /// Abort the global transaction (Fig. 1 lines 53–58, Fig. 2 lines 60–65):
    /// restore old values from the undo-log (newest first), release the locks,
    /// clear metadata, leave the partitioned path.
    fn global_abort(&mut self) {
        self.th.stats.global_aborts += 1;
        self.undo.undo_nt(&self.th.hw);
        self.v
            .release_locks(self.th.rt, &self.th.hw, &self.undo, &self.wmir, false);
        self.clear_local();
        self.dec_active();
    }

    /// Run the variant's in-flight validation, advancing `times` on success.
    fn validate(&mut self) -> bool {
        let v = V::validate(self.th.rt, &self.th.hw, &self.rmir, &mut self.times);
        self.th.stats.record_sharded_validation(&v);
        v.result.is_ok()
    }

    /// Run the declared segments `start..end` as *one* sub-HTM transaction
    /// with bounded retries (§5.3.3–5.3.5). `start..end` comes from the
    /// segment plan: up to the site's learned merge factor, or the pinned
    /// `plan_group`. A group that dies of a capacity-class abort is never
    /// retried as-is: a multi-segment group reports [`GroupRun::Split`] so the
    /// caller re-runs it as single segments, and a single declared segment
    /// fails the global transaction at once (nothing is left to split).
    fn run_group<W: Workload>(
        &mut self,
        w: &mut W,
        start: usize,
        end: usize,
        wrote: &mut bool,
    ) -> GroupRun {
        let rt = self.th.rt;
        let a = self.arena;
        let snap = w.snapshot();
        let undo_mark = self.undo.len();
        let lock_mark = self.v.mark();
        let mut attempts = 0u32;
        loop {
            // Zero-clone retries: each attempt journals the mirror words it dirties
            // instead of saving full signature clones up front.
            self.journal.begin(self.rmir.spec());
            let work_before = self.th.hw.stats.work_units;
            let res = self.th.hw.attempt(|tx| {
                let ctx = SubCtx {
                    tx,
                    rsig: SigPair::new(a.read_sig, &mut self.rmir),
                    wsig: SigPair::new(a.write_sig, &mut self.wmir),
                    undo: &mut self.undo,
                    journal: &mut self.journal,
                    wrote: &mut *wrote,
                };
                self.v.sub_body(w, start..end, rt, &self.times, ctx)
            });
            let Err(code) = res else {
                self.journal.discard();
                return GroupRun::Committed;
            };
            self.th.stats.sub_aborts += 1;
            // The failed attempt's hardware writes never published; roll the
            // software cursors back to the group entry.
            self.undo.truncate(undo_mark);
            self.v.truncate(lock_mark);
            self.journal.rollback(&mut self.rmir, &mut self.wmir);
            self.th.stats.journal_rollbacks += 1;
            w.restore(snap.clone());
            attempts += 1;
            if capacity_class(code) {
                return if end - start > 1 {
                    GroupRun::Split
                } else {
                    GroupRun::Fail(GlobalAbort::Futile)
                };
            }
            // Lock conflicts and undo overflow propagate to the global
            // transaction (§5.3.5); a possibly stale snapshot is revalidated
            // (Fig. 2 lines 36–39); other causes retry the sub-HTM transaction a
            // limited number of times.
            let verdict = V::sub_verdict(code);
            let give_up = match verdict {
                SubVerdict::GiveUp => true,
                SubVerdict::Revalidate => !self.validate(),
                SubVerdict::Retry => false,
            } || attempts >= rt.config().sub_retries;
            if give_up {
                return GroupRun::Fail(GlobalAbort::Retry);
            }
            // A plain retry after a data conflict backs off first, by up to
            // what the lost attempt itself cost: self-scaling, so a 250-unit
            // segment waits up to 250 units and a 5-unit one up to 5. A
            // revalidated retry (Part-HTM-O's timestamp subscription fired)
            // wants to re-run at once and does not wait.
            if matches!(verdict, SubVerdict::Retry) && code == AbortCode::Conflict {
                let window = self.th.hw.stats.work_units - work_before;
                backoff(&mut self.th, window);
            }
            yield_now();
        }
    }

    /// Execute the transaction on the partitioned path (§5.3). `Err` means the
    /// global transaction aborted; the reason tells the caller whether another
    /// global attempt can help.
    fn try_partitioned<W: Workload>(&mut self, w: &mut W) -> Result<(), GlobalAbort> {
        let rt = self.th.rt;
        // Global begin (Fig. 1 lines 16–19): the active_tx/GLock handshake gives
        // mutual exclusion against the slow path.
        loop {
            wait_glock_released(&self.th);
            self.th.hw.nt_fetch_add(rt.active_tx(), 1);
            if self.th.hw.nt_read(rt.glock()) == 0 {
                break;
            }
            self.dec_active();
        }
        V::begin_window(rt, &self.th.hw, &mut self.times);
        self.clear_local();
        w.reset();
        let mut wrote = false;

        // Build this transaction's segment plan: up to the site's learned
        // merge factor, or the pinned `plan_group` (1 = exactly the declared
        // segments), which feeds nothing back.
        let cfg = rt.config();
        let slot = rt.sites().slot(w.site());
        let (group, learn) = match cfg.plan_group {
            Some(g) => (g.max(1), false),
            None => (slot.plan_group(), true),
        };
        let nseg = w.segments();
        let mut plan = std::mem::take(&mut self.plan);
        let max_run = build_plan(nseg, group, |s| w.software_segment(s), &mut plan);
        self.plan = plan;
        let last_htm_seg = (0..nseg).rev().find(|&s| !w.software_segment(s));
        let mut split_tx = false;

        for i in 0..self.plan.len() {
            let step = self.plan[i];
            if step.software {
                // Non-transactional partition: run outside any hardware
                // transaction (§4, §5.3.1) — this is how time-limited transactions
                // escape the HTM quantum. Software segments are never merged.
                let mut ctx = SoftwareCtx {
                    th: &self.th.hw,
                    mask_values: V::MASK_VALUES,
                };
                w.segment(step.start, &mut ctx)
                    .expect("software segments cannot abort");
                continue;
            }
            // Run `seg..end` as one group; after a split, as single segments.
            let (mut seg, mut end) = (step.start, step.end);
            while seg < step.end {
                match self.run_group(w, seg, end, &mut wrote) {
                    GroupRun::Committed => {
                        let last_htm = Some(end - 1) == last_htm_seg;
                        if V::validate_after_sub(cfg, last_htm) && !self.validate() {
                            self.global_abort();
                            return Err(GlobalAbort::Retry);
                        }
                        self.v.seal(&mut self.wmir);
                        seg = end;
                        end = seg + 1;
                    }
                    GroupRun::Split => {
                        // The merged group exceeds this site's HTM budget: re-run
                        // it as the declared single segments, sealing each exactly
                        // as the declared plan would (a learning site also halves
                        // its plan).
                        self.th.stats.plan_splits += 1;
                        split_tx = true;
                        if learn {
                            slot.record_capacity_split(step.len() as u32);
                        }
                        end = seg + 1;
                    }
                    GroupRun::Fail(why) => {
                        self.global_abort();
                        return Err(why);
                    }
                }
            }
        }

        // Global commit (Fig. 1 lines 42–52, Fig. 2 lines 48–59). Read-only
        // transactions just leave.
        if wrote {
            if V::VALIDATE_AT_COMMIT && !self.validate() {
                self.global_abort();
                return Err(GlobalAbort::Retry);
            }
            let ring = rt.sharded_ring();
            let sig = self.v.commit_sig(&self.wmir);
            let (pub_mask, _) = ring.publish_software_summarized(&self.th.hw, sig, rt.summaries());
            self.th.stats.record_shard_publish(pub_mask);
            self.v
                .release_locks(rt, &self.th.hw, &self.undo, &self.wmir, true);
            // Software commits are the cheap place to police summary density: no
            // hardware transaction is in flight here.
            let resets = ring.maybe_reset_summaries(&self.th.hw, rt.summaries());
            self.th.stats.record_summary_resets(&resets);
        }
        self.clear_local();
        self.dec_active();
        // Feed the controller: a commit with no capacity trouble earns merge
        // credit (up to the longest mergeable run this shape declares).
        if learn && !split_tx && slot.record_clean_commit(max_run) == PlanChange::Merged {
            self.th.stats.plan_merges += 1;
        }
        Ok(())
    }

    /// Record a commit on a speculative path.
    fn committed<W: Workload>(&mut self, w: &mut W, path: CommitPath) -> CommitPath {
        w.after_commit();
        self.th.stats.record_commit(path);
        path
    }

    /// Give up speculating: commit under the global lock.
    fn fall_back<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        self.th.stats.fallbacks_gl += 1;
        commit_under_glock(&mut self.th, w, V::MASK_VALUES)
    }
}

impl<'r, V: Variant> TmExecutor<'r> for PartExec<'r, V> {
    const NAME: &'static str = V::NAME;

    fn new(rt: &'r TmRuntime, thread_id: usize) -> Self {
        let th = TmThread::new(rt, thread_id);
        let arena = rt.arena(thread_id);
        let spec = rt.config().sig_spec;
        Self {
            undo: UndoLog::new(arena.undo_base, arena.undo_words),
            arena,
            rmir: Sig::new(spec),
            wmir: Sig::new(spec),
            journal: SigJournal::default(),
            times: ShardTimes::new(),
            plan: Vec::new(),
            v: V::new(spec),
            th,
        }
    }

    /// The three-path driver: fast → partitioned on resource failure; fast →
    /// slow when conflicts persist; partitioned → slow after bounded global
    /// aborts. A transaction with nothing to split — one hardware segment —
    /// goes from a resource failure straight to the slow path, and so does a
    /// partitioned attempt whose single segment overflows.
    fn execute<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        let rt = self.th.rt;
        let cfg = rt.config();
        if w.is_irrevocable() {
            return self.fall_back(w);
        }
        // The single fast-path routing decision (config override, static hint
        // or learned demotion — see `planner::SiteSlot::route`). The
        // controller's paper anchor: the static profiler routes "likely (or
        // certainly) failing" transactions straight to the partitioned path
        // (§4); here that verdict is learned from observed abort codes.
        let slot = rt.sites().slot(w.site());
        let prior = w.profiled_resource_limited();
        let route = slot.route(cfg.skip_fast, prior, &mut self.th.stats);
        let one_segment = w.segments() == 1 && !w.software_segment(0);
        // A profiler demotion (not the `skip_fast` ablation, which must still
        // reach the sub-HTM path) of a one-segment transaction means its single
        // segment is known not to fit: partitioning cannot change that.
        if route == FastRoute::Demote && one_segment && !cfg.skip_fast {
            return self.fall_back(w);
        }
        if route == FastRoute::Attempt {
            let mut fails = 0;
            loop {
                wait_glock_released(&self.th);
                match self.try_fast(w) {
                    Ok(()) => {
                        slot.record_fast_exit(FastExit::Commit);
                        return self.committed(w, CommitPath::Htm);
                    }
                    Err(code) if code.is_resource_failure() => {
                        // Capacity or quantum: this is the class Part-HTM exists
                        // for — partition it, unless there is nothing to split.
                        slot.record_fast_exit(FastExit::Resource);
                        if one_segment {
                            return self.fall_back(w);
                        }
                        self.th.stats.fallbacks_partitioned += 1;
                        break;
                    }
                    Err(_) => {
                        fails += 1;
                        if fails >= FAST_RETRIES {
                            // Persistent conflicts: the paper routes these to the
                            // exit path, not to partitioning (§4 "Three-paths
                            // Execution").
                            return self.fall_back(w);
                        }
                    }
                }
            }
        }
        let mut gfails = 0;
        loop {
            match self.try_partitioned(w) {
                Ok(()) => return self.committed(w, CommitPath::SubHtm),
                Err(GlobalAbort::Futile) => return self.fall_back(w),
                Err(GlobalAbort::Retry) => {}
            }
            gfails += 1;
            if gfails >= PART_RETRIES {
                return self.fall_back(w);
            }
            // Exponential backoff (Fig. 1 line 59). Host-only on purpose: its
            // 64–1024 units are sized for wall-clock runs, and charged to the
            // virtual clock they dwarf a ≈ 10-unit transaction (`server_hot`
            // drops from 69 936 to 20 268 tx/Mwu; docs/virtual-time.md §1).
            spin_work(BACKOFF_UNITS << gfails.min(6));
            yield_now();
        }
    }

    /// Shed: commit under the global lock with no speculative attempt. Under
    /// overload the fast/partitioned retries (backoff, glock waits) are what
    /// convoy the ring shards; a shed request takes the serialized path once
    /// and leaves.
    fn execute_shed<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        self.th.stats.shed_commits += 1;
        commit_under_glock(&mut self.th, w, V::MASK_VALUES)
    }

    fn thread(&self) -> &TmThread<'r> {
        &self.th
    }

    fn thread_mut(&mut self) -> &mut TmThread<'r> {
        &mut self.th
    }
}

#[cfg(test)]
mod tests {
    //! Every driver test runs for both variants: each `check` function below is
    //! instantiated once per variant by `both_variants!`.

    use super::*;
    use crate::opaque::Opaque;
    use crate::parthtm::Serializable;
    use htm_sim::HtmConfig;
    use rand::rngs::SmallRng;

    /// Increment `n` counters spread over distinct lines, in `segs` segments.
    struct Incr {
        n: usize,
        segs: usize,
        base: Addr,
        work_per_op: u64,
    }

    impl Incr {
        fn new(rt: &TmRuntime, n: usize, segs: usize) -> Self {
            Self {
                n,
                segs,
                base: rt.app(0),
                work_per_op: 0,
            }
        }
    }

    impl Workload for Incr {
        type Snap = ();
        fn sample(&mut self, _rng: &mut SmallRng) {}
        fn segments(&self) -> usize {
            self.segs
        }
        fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
            let per = self.n / self.segs;
            for i in seg * per..(seg + 1) * per {
                let a = self.base + (i * 8) as Addr;
                let v = ctx.read(a)?;
                if self.work_per_op > 0 {
                    ctx.work(self.work_per_op)?;
                }
                ctx.write(a, v + 1)?;
            }
            Ok(())
        }
    }

    /// `Incr` whose segment `seg` aborts with `code` on its first `left` runs,
    /// on whichever path runs it.
    struct Failing {
        inner: Incr,
        seg: usize,
        code: AbortCode,
        left: usize,
    }

    impl Workload for Failing {
        type Snap = ();
        fn sample(&mut self, _rng: &mut SmallRng) {}
        fn segments(&self) -> usize {
            self.inner.segs
        }
        fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
            if seg == self.seg && self.left > 0 {
                self.left -= 1;
                return Err(self.code);
            }
            self.inner.segment(seg, ctx)
        }
    }

    /// Every counter holds exactly `expect` — in particular no lock bit.
    fn check_sum(rt: &TmRuntime, n: usize, expect: u64) {
        for i in 0..n {
            let v = rt.verify_read(i * 8);
            assert_eq!(
                v, expect,
                "counter {i} must be {expect} and unlocked, got {v:#x}"
            );
        }
    }

    /// All metadata released.
    fn check_released(rt: &TmRuntime) {
        let th = TmThread::new(rt, 0);
        assert!(
            rt.write_locks().snapshot_nt(&th.hw).is_empty(),
            "all locks released"
        );
        assert_eq!(rt.system().nt_read(rt.active_tx()), 0);
        assert_eq!(rt.system().nt_read(rt.glock()), 0, "global lock released");
    }

    /// Mid-size HTM: 16 sets x 4 ways = 64 written lines — big enough for a
    /// segment plus the protocol metadata (signatures, undo log, locks), small
    /// enough that the whole transaction overflows it.
    fn mid_rt(tm: TmConfig, threads: usize, app_words: usize) -> TmRuntime {
        let htm = HtmConfig {
            l1_sets: 16,
            l1_ways: 4,
            quantum: 100_000,
            ..HtmConfig::default()
        };
        TmRuntime::new(htm, tm, threads, app_words)
    }

    fn small_tx_commits_on_fast_path<V: Variant>() {
        let rt = TmRuntime::with_defaults(1, 1024);
        let mut e = PartExec::<V>::new(&rt, 0);
        let path = e.execute(&mut Incr::new(&rt, 4, 1));
        assert_eq!(path, CommitPath::Htm);
        check_sum(&rt, 4, 1);
        assert_eq!(e.thread().stats.commits_htm, 1);
    }

    fn capacity_limited_tx_commits_on_partitioned_path<V: Variant>() {
        // The transaction writes 96 app lines; 8 segments of 12 fit (alongside
        // the protocol metadata).
        let rt = mid_rt(TmConfig::default(), 1, 2048);
        let mut e = PartExec::<V>::new(&rt, 0);
        let path = e.execute(&mut Incr::new(&rt, 96, 8));
        assert_eq!(path, CommitPath::SubHtm);
        check_sum(&rt, 96, 1);
        let s = &e.thread().stats;
        assert_eq!(s.commits_subhtm, 1);
        assert_eq!(s.fallbacks_partitioned, 1);
        check_released(&rt);
    }

    fn time_limited_tx_commits_on_partitioned_path<V: Variant>() {
        // Quantum 1500; the transaction burns 100 units per op over 40 ops (4000+),
        // but each 10-op segment fits.
        let htm = HtmConfig {
            quantum: 1500,
            ..HtmConfig::default()
        };
        let rt = TmRuntime::new(htm, TmConfig::default(), 1, 4096);
        let mut e = PartExec::<V>::new(&rt, 0);
        let mut w = Incr {
            work_per_op: 100,
            ..Incr::new(&rt, 40, 4)
        };
        assert_eq!(e.execute(&mut w), CommitPath::SubHtm);
        check_sum(&rt, 40, 1);
    }

    fn oversize_segments_fall_back_to_global_lock<V: Variant>() {
        // Even one segment (48 app lines, 3 per set, plus metadata) overflows 4-way sets:
        // partitioning cannot help, the slow path must rescue the transaction —
        // after exactly one global abort, on the first sub-HTM capacity abort.
        let rt = mid_rt(TmConfig::default(), 1, 2048);
        let mut e = PartExec::<V>::new(&rt, 0);
        let path = e.execute(&mut Incr::new(&rt, 96, 2));
        assert_eq!(path, CommitPath::GlobalLock);
        check_sum(&rt, 96, 1);
        check_released(&rt);
        let s = &e.thread().stats;
        assert_eq!(s.fallbacks_partitioned, 1);
        assert_eq!(s.sub_aborts, 1);
        assert_eq!(s.global_aborts, 1);
    }

    fn one_segment_overrun_commits_under_the_lock<V: Variant>() {
        // One hardware segment that blows the quantum: nothing to split, so the
        // fast path's resource failure goes straight to the lock.
        let htm = HtmConfig {
            quantum: 1500,
            ..HtmConfig::default()
        };
        let rt = TmRuntime::new(htm, TmConfig::default(), 1, 4096);
        let mut e = PartExec::<V>::new(&rt, 0);
        let mut w = Incr {
            work_per_op: 100,
            ..Incr::new(&rt, 40, 1)
        };
        assert_eq!(e.execute(&mut w), CommitPath::GlobalLock);
        check_sum(&rt, 40, 1);
        check_released(&rt);
        let s = &e.thread().stats;
        assert_eq!(s.fast_aborts, 1);
        assert_eq!(s.fallbacks_partitioned, 0);
        assert_eq!(s.sub_aborts, 0);
        assert_eq!(s.global_aborts, 0);
        assert_eq!(s.fallbacks_gl, 1);
    }

    fn demoted_one_segment_site_goes_straight_to_the_lock<V: Variant>() {
        // The site's profile has learned that its fast attempts die of
        // resource failures, and tick 0's unconditional probe is spent: the
        // transaction skips the fast path, and with one segment the
        // partitioned path too.
        let rt = TmRuntime::with_defaults(1, 1024);
        let mut e = PartExec::<V>::new(&rt, 0);
        let mut w = Incr::new(&rt, 4, 1);
        let slot = rt.sites().slot(w.site());
        for _ in 0..8 {
            slot.record_fast_exit(FastExit::Resource);
        }
        slot.tick();
        assert_eq!(e.execute(&mut w), CommitPath::GlobalLock);
        check_sum(&rt, 4, 1);
        let s = &e.thread().stats;
        assert_eq!(s.site_demotions, 1);
        assert_eq!(s.fast_aborts, 0);
        assert_eq!(s.fallbacks_partitioned, 0);
    }

    fn skip_fast_one_segment_commits_sub_htm<V: Variant>() {
        // `skip_fast` is the no-fast ablation, not a demotion: a one-segment
        // transaction that fits still commits on the sub-HTM path.
        let tm = TmConfig {
            skip_fast: true,
            ..TmConfig::default()
        };
        let rt = TmRuntime::new(HtmConfig::default(), tm, 1, 1024);
        let mut e = PartExec::<V>::new(&rt, 0);
        assert_eq!(e.execute(&mut Incr::new(&rt, 4, 1)), CommitPath::SubHtm);
        check_sum(&rt, 4, 1);
        assert_eq!(e.thread().stats.fast_aborts, 0);
    }

    fn conflict_global_aborts_spend_every_part_retry<V: Variant>() {
        // Segment 1 dies of a data conflict on every sub-HTM attempt of every
        // global attempt: conflicts keep the full retry ladder.
        let tm = TmConfig {
            skip_fast: true,
            ..TmConfig::default()
        };
        let budget = tm.sub_retries as usize;
        let rt = TmRuntime::new(HtmConfig::default(), tm, 1, 1024);
        let mut e = PartExec::<V>::new(&rt, 0);
        let mut w = Failing {
            inner: Incr::new(&rt, 8, 2),
            seg: 1,
            code: AbortCode::Conflict,
            left: budget * PART_RETRIES as usize,
        };
        assert_eq!(e.execute(&mut w), CommitPath::GlobalLock);
        check_sum(&rt, 8, 1);
        check_released(&rt);
        let s = &e.thread().stats;
        assert_eq!(s.global_aborts, PART_RETRIES as u64);
        assert_eq!(s.sub_aborts, (budget * PART_RETRIES as usize) as u64);
    }

    fn interrupts_retry_in_place<V: Variant>() {
        // An injected interrupt is transient, not a resource failure: a
        // one-segment transaction retries it on whichever path it is on.
        for (skip_fast, path) in [(false, CommitPath::Htm), (true, CommitPath::SubHtm)] {
            let tm = TmConfig {
                skip_fast,
                ..TmConfig::default()
            };
            let rt = TmRuntime::new(HtmConfig::default(), tm, 1, 1024);
            let mut e = PartExec::<V>::new(&rt, 0);
            let mut w = Failing {
                inner: Incr::new(&rt, 4, 1),
                seg: 0,
                code: AbortCode::Interrupt,
                left: 2,
            };
            assert_eq!(e.execute(&mut w), path);
            check_sum(&rt, 4, 1);
            let s = &e.thread().stats;
            assert_eq!(s.fast_aborts + s.sub_aborts, 2);
            assert_eq!(s.global_aborts, 0);
            assert_eq!(s.fallbacks_gl, 0);
        }
    }

    fn irrevocable_goes_straight_to_global_lock<V: Variant>() {
        struct Irrev(Addr);
        impl Workload for Irrev {
            type Snap = ();
            fn sample(&mut self, _r: &mut SmallRng) {}
            fn is_irrevocable(&self) -> bool {
                true
            }
            fn segment<C: TxCtx>(&mut self, _s: usize, ctx: &mut C) -> TxResult<()> {
                let v = ctx.read(self.0)?;
                ctx.write(self.0, v + 1)
            }
        }
        let rt = TmRuntime::with_defaults(1, 64);
        let mut e = PartExec::<V>::new(&rt, 0);
        assert_eq!(e.execute(&mut Irrev(rt.app(0))), CommitPath::GlobalLock);
        assert_eq!(rt.verify_read(0), 1);
    }

    fn skip_fast_goes_straight_to_partitioned<V: Variant>() {
        let tm = TmConfig {
            skip_fast: true,
            ..TmConfig::default()
        };
        let rt = TmRuntime::new(HtmConfig::default(), tm, 1, 1024);
        let mut e = PartExec::<V>::new(&rt, 0);
        assert_eq!(e.execute(&mut Incr::new(&rt, 4, 2)), CommitPath::SubHtm);
        assert_eq!(e.thread().stats.fast_aborts, 0);
        check_sum(&rt, 4, 1);
    }

    fn software_segments_escape_the_quantum<V: Variant>() {
        // Transaction: tiny memory footprint but a huge computation. As a single HTM
        // transaction it blows the quantum; with the computation in a software
        // segment the partitioned path commits it.
        struct LongCompute {
            a: Addr,
        }
        impl Workload for LongCompute {
            type Snap = ();
            fn sample(&mut self, _r: &mut SmallRng) {}
            fn segments(&self) -> usize {
                3
            }
            fn software_segment(&self, s: usize) -> bool {
                s == 1
            }
            fn segment<C: TxCtx>(&mut self, s: usize, ctx: &mut C) -> TxResult<()> {
                match s {
                    0 => {
                        let v = ctx.read(self.a)?;
                        ctx.write(self.a, v + 1)
                    }
                    1 => ctx.nt_work(10_000),
                    _ => {
                        let v = ctx.read(self.a + 8)?;
                        ctx.write(self.a + 8, v + 1)
                    }
                }
            }
        }
        let htm = HtmConfig {
            quantum: 2000,
            ..HtmConfig::default()
        };
        let rt = TmRuntime::new(htm, TmConfig::default(), 1, 64);
        let mut e = PartExec::<V>::new(&rt, 0);
        let mut w = LongCompute { a: rt.app(0) };
        assert_eq!(e.execute(&mut w), CommitPath::SubHtm);
        assert_eq!(rt.verify_read(0), 1);
        assert_eq!(rt.verify_read(8), 1);
    }

    fn concurrent_partitioned_transactions_are_serializable<V: Variant>() {
        let rt = mid_rt(TmConfig::default(), 4, 4096);
        // Counters at distinct lines; each tx increments all 16 in 4 segments, so
        // every pair of transactions conflicts. The total must still be exact.
        const TXS: usize = 30;
        std::thread::scope(|s| {
            for t in 0..4 {
                let rt = &rt;
                s.spawn(move || {
                    let mut e = PartExec::<V>::new(rt, t);
                    let mut w = Incr::new(rt, 16, 4);
                    for _ in 0..TXS {
                        e.execute(&mut w);
                    }
                });
            }
        });
        check_sum(&rt, 16, (4 * TXS) as u64);
        check_released(&rt);
    }

    macro_rules! both_variants {
        ($($check:ident),* $(,)?) => {
            mod part_htm {
                $(#[test] fn $check() { super::$check::<super::Serializable>(); })*
            }
            mod part_htm_o {
                $(#[test] fn $check() { super::$check::<super::Opaque>(); })*
            }
        };
    }

    both_variants!(
        small_tx_commits_on_fast_path,
        capacity_limited_tx_commits_on_partitioned_path,
        time_limited_tx_commits_on_partitioned_path,
        oversize_segments_fall_back_to_global_lock,
        one_segment_overrun_commits_under_the_lock,
        demoted_one_segment_site_goes_straight_to_the_lock,
        skip_fast_one_segment_commits_sub_htm,
        conflict_global_aborts_spend_every_part_retry,
        interrupts_retry_in_place,
        irrevocable_goes_straight_to_global_lock,
        skip_fast_goes_straight_to_partitioned,
        software_segments_escape_the_quantum,
        concurrent_partitioned_transactions_are_serializable,
    );
}
