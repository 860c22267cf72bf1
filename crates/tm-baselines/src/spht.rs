//! SpHT — Split Hardware Transactions (Lev & Maessen, PPoPP'08): the *lazy*
//! transaction-splitting alternative the paper contrasts Part-HTM against (§3).
//!
//! Like Part-HTM, SpHT executes a transaction as a sequence of sub-HTM
//! transactions. Unlike Part-HTM's eager write-in-place, SpHT keeps writes
//! **invisible between segments**: each sub-HTM transaction starts by *replaying the
//! redo log* (re-applying every write accumulated so far) and ends — except the last
//! one — by *restoring the original values* (hiding the writes again) before
//! committing. Reads are logged by value and revalidated at every sub-transaction
//! begin, which restores isolation across the unprotected gaps.
//!
//! The paper's criticism (§3) falls straight out of this structure: "the last
//! sub-HTM transaction still has a redo-log that is as big as the original
//! transaction" — every sub-transaction's hardware write set contains the *whole*
//! accumulated redo log plus the hide-phase restores, so splitting does not shrink
//! the write footprint the way Part-HTM's eager scheme does. The `ablations` bench
//! compares the two on a space-limited workload.
//!
//! Upsides SpHT keeps: aborting a split transaction needs no undo (memory is
//! pristine between segments), and the slow path need not count it in on the
//! gate (between segments a split transaction holds no visible state).

use htm_sim::abort::TxResult;
use htm_sim::util::FastMap;
use htm_sim::{AbortCode, Addr, HtmTx};
use part_htm_core::api::spin_work;
use part_htm_core::ctx::SoftwareCtx;
use part_htm_core::{
    commit_under_glock, fast_retries, subscribe_gate, wait_glock_released, BACKOFF_UNITS,
    PART_RETRIES,
};
use part_htm_core::{CommitPath, TmExecutor, TmRuntime, TmThread, TxCtx, Workload};

use crate::htm_gl::try_pure_htm;

/// Explicit-abort payload: a logged read changed value between sub-transactions.
const XABORT_INVALID: u8 = 0xB1;

/// SpHT's per-transaction logs.
#[derive(Default)]
struct Logs {
    /// Intended values of every written location (replayed at each sub begin).
    redo: FastMap<Addr, u64>,
    /// Original memory value of every written location, captured at first write
    /// (restored by the hide phase of every non-final sub-transaction).
    orig: FastMap<Addr, u64>,
    /// Value-logged reads (validated at each sub begin). Only reads served from
    /// memory are logged; reads of own written locations come from the redo log.
    reads: Vec<(Addr, u64)>,
}

impl Logs {
    fn clear(&mut self) {
        self.redo.clear();
        self.orig.clear();
        self.reads.clear();
    }
}

struct SpHtCtx<'c, 'a, 's> {
    tx: &'c mut HtmTx<'a, 's>,
    logs: &'c mut Logs,
}

impl TxCtx for SpHtCtx<'_, '_, '_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        if let Some(&v) = self.logs.redo.get(&addr) {
            return Ok(v);
        }
        let v = self.tx.read(addr)?;
        self.logs.reads.push((addr, v));
        Ok(v)
    }

    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        if !self.logs.orig.contains_key(&addr) {
            let old = self.tx.read(addr)?;
            self.logs.orig.insert(addr, old);
        }
        self.logs.redo.insert(addr, val);
        self.tx.write(addr, val)
    }

    fn work(&mut self, units: u64) -> TxResult<()> {
        self.tx.work(units)?;
        spin_work(units);
        Ok(())
    }
}

/// Why a split attempt aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SplitAbort {
    /// Conflict, lock or validation driven: another split attempt may commit.
    Retry,
    /// A sub-transaction died of a resource failure. SpHT cannot split a
    /// segment further, and every retry replays the same redo log before it,
    /// so every further attempt would fail the same way.
    Futile,
}

/// The SpHT executor: fast path (pure HTM) → split path → global lock.
pub struct SpHt<'r> {
    th: TmThread<'r>,
    logs: Logs,
}

impl<'r> SpHt<'r> {
    /// One attempt of the split path. `Err` aborts the whole transaction
    /// (memory is already pristine — writes were hidden).
    fn try_split<W: Workload>(&mut self, w: &mut W) -> Result<(), SplitAbort> {
        let rt = self.th.rt;
        let gate = rt.gate();
        self.logs.clear();
        w.reset();
        let nseg = w.segments();
        let last_htm_seg = match (0..nseg).rev().find(|&s| !w.software_segment(s)) {
            Some(s) => s,
            None => {
                // Pure computation: nothing transactional to do.
                for seg in 0..nseg {
                    let mut ctx = SoftwareCtx { th: &self.th.hw, mask_values: false };
                    w.segment(seg, &mut ctx).expect("software segments cannot abort");
                }
                return Ok(());
            }
        };

        for seg in 0..nseg {
            if w.software_segment(seg) {
                let mut ctx = SoftwareCtx { th: &self.th.hw, mask_values: false };
                w.segment(seg, &mut ctx).expect("software segments cannot abort");
                continue;
            }
            let snap = w.snapshot();
            let reads_mark = self.logs.reads.len();
            let mut attempts = 0u32;
            loop {
                let redo_snapshot: Vec<(Addr, u64)> =
                    self.logs.redo.iter().map(|(&a, &v)| (a, v)).collect();
                let orig_snapshot: Vec<(Addr, u64)> =
                    self.logs.orig.iter().map(|(&a, &v)| (a, v)).collect();
                let logs = &mut self.logs;
                let res = self.th.hw.attempt(|tx| {
                    // Subscribe the gate's lock bit (the split path does not
                    // count itself in: between segments a split transaction
                    // holds no visible state, so the slow path never has to
                    // wait for it).
                    subscribe_gate(tx, gate, false)?;
                    // Revalidate every logged read (isolation across the gap).
                    for &(a, v) in &logs.reads {
                        if tx.read(a)? != v {
                            return Err(tx.xabort(XABORT_INVALID));
                        }
                    }
                    // Replay the redo log: this is the step whose footprint grows
                    // with every segment (the paper's criticism of lazy splitting).
                    for &(a, v) in &redo_snapshot {
                        tx.write(a, v)?;
                    }
                    w.segment(seg, &mut SpHtCtx { tx, logs })?;
                    if seg != last_htm_seg {
                        // Hide phase: restore original values so nothing is visible
                        // when this sub-transaction commits.
                        for (&a, &v) in logs.orig.iter() {
                            tx.write(a, v)?;
                        }
                    }
                    Ok(())
                });
                match res {
                    Ok(()) => break,
                    Err(code) => {
                        self.th.stats.sub_aborts += 1;
                        // Roll the software logs back to the segment entry.
                        self.logs.reads.truncate(reads_mark);
                        self.logs.redo = redo_snapshot.into_iter().collect();
                        self.logs.orig = orig_snapshot.into_iter().collect();
                        w.restore(snap.clone());
                        attempts += 1;
                        let futile = code.is_resource_failure();
                        let give_up = futile
                            || matches!(code, AbortCode::Explicit(x) if x == XABORT_INVALID)
                            || attempts >= rt.config().sub_retries;
                        if give_up {
                            self.th.stats.global_aborts += 1;
                            return Err(if futile { SplitAbort::Futile } else { SplitAbort::Retry });
                        }
                        htm_sim::vclock::yield_now();
                    }
                }
            }
        }
        Ok(())
    }
}

/// Does `w` run as a single hardware segment? Splitting cannot shrink such a
/// transaction, so a resource failure of its fast path sends it to the global
/// lock.
fn one_segment<W: Workload>(w: &W) -> bool {
    w.segments() == 1 && !w.software_segment(0)
}

impl<'r> TmExecutor<'r> for SpHt<'r> {
    const NAME: &'static str = "SpHT";

    fn new(rt: &'r TmRuntime, thread_id: usize) -> Self {
        Self { th: TmThread::new(rt, thread_id), logs: Logs::default() }
    }

    fn execute<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        let cfg = self.th.rt.config().clone();
        if w.is_irrevocable() {
            self.th.stats.fallbacks_gl += 1;
            return commit_under_glock(&mut self.th, w, false);
        }
        if !cfg.skip_fast && w.profiled_resource_limited() != Some(true) {
            match fast_retries(&mut self.th, |th| try_pure_htm(th, w)) {
                Ok(()) => {
                    w.after_commit();
                    self.th.stats.record_commit(CommitPath::Htm);
                    return CommitPath::Htm;
                }
                // No-retry hint: resource failures split immediately, unless
                // there is nothing to split (Part-HTM's rule).
                Err(code) if code.is_resource_failure() && !one_segment(w) => {
                    self.th.stats.fallbacks_partitioned += 1;
                }
                Err(_) => {
                    self.th.stats.fallbacks_gl += 1;
                    return commit_under_glock(&mut self.th, w, false);
                }
            }
        }
        let mut gfails = 0;
        loop {
            wait_glock_released(&self.th);
            let abort = match self.try_split(w) {
                Ok(()) => {
                    w.after_commit();
                    self.th.stats.record_commit(CommitPath::SubHtm);
                    return CommitPath::SubHtm;
                }
                Err(abort) => abort,
            };
            gfails += 1;
            if abort == SplitAbort::Futile || gfails >= PART_RETRIES {
                self.th.stats.fallbacks_gl += 1;
                return commit_under_glock(&mut self.th, w, false);
            }
            spin_work(BACKOFF_UNITS << gfails.min(6));
            htm_sim::vclock::yield_now();
        }
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
    use super::*;
    use htm_sim::HtmConfig;
    use part_htm_core::{TmConfig, TmStats};
    use rand::rngs::SmallRng;

    struct Incr {
        n: usize,
        segs: usize,
        base: Addr,
    }

    impl Workload for Incr {
        type Snap = ();
        fn sample(&mut self, _r: &mut SmallRng) {}
        fn segments(&self) -> usize {
            self.segs
        }
        fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
            let per = self.n / self.segs;
            for i in seg * per..(seg + 1) * per {
                let a = self.base + (i * 8) as Addr;
                let v = ctx.read(a)?;
                ctx.write(a, v + 1)?;
            }
            Ok(())
        }
    }

    #[test]
    fn small_tx_commits_in_hardware() {
        let rt = TmRuntime::with_defaults(1, 512);
        let mut e = SpHt::new(&rt, 0);
        let mut w = Incr { n: 4, segs: 1, base: rt.app(0) };
        assert_eq!(e.execute(&mut w), CommitPath::Htm);
        assert_eq!(rt.verify_read(0), 1);
    }

    /// An oversize one-segment transaction: 96 counters on distinct lines
    /// overflow a 64-line L1, so no hardware attempt can ever commit it.
    fn oversize_one_segment(skip_fast: bool) -> TmStats {
        let htm = HtmConfig { l1_sets: 16, l1_ways: 4, ..HtmConfig::default() };
        let tm = TmConfig { skip_fast, ..TmConfig::default() };
        let rt = TmRuntime::new(htm, tm, 1, 1024);
        let mut e = SpHt::new(&rt, 0);
        let mut w = Incr { n: 96, segs: 1, base: rt.app(0) };
        assert_eq!(e.execute(&mut w), CommitPath::GlobalLock);
        for i in 0..96 {
            assert_eq!(rt.verify_read(i * 8), 1);
        }
        (*e.thread().stats).clone()
    }

    #[test]
    fn oversize_one_segment_goes_straight_to_the_lock() {
        // Nothing to split: the fast path's resource failure skips the split
        // path, and a split attempt's stops retrying (Part-HTM's rule).
        let s = oversize_one_segment(false);
        assert_eq!((s.fast_aborts, s.fallbacks_partitioned, s.sub_aborts), (1, 0, 0));
        assert_eq!((s.global_aborts, s.fallbacks_gl, s.commits_gl), (0, 1, 1));
        let s = oversize_one_segment(true);
        assert_eq!((s.fast_aborts, s.sub_aborts, s.global_aborts), (0, 1, 1));
        assert_eq!((s.fallbacks_gl, s.commits_gl), (1, 1));
    }

    #[test]
    fn time_limited_tx_commits_on_split_path() {
        // Time-limited (not space-limited): SpHT's sweet spot.
        struct Long {
            base: Addr,
        }
        impl Workload for Long {
            type Snap = ();
            fn sample(&mut self, _r: &mut SmallRng) {}
            fn segments(&self) -> usize {
                4
            }
            fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
                let a = self.base + (seg * 8) as Addr;
                let v = ctx.read(a)?;
                ctx.work(500)?;
                ctx.write(a, v + 1)
            }
        }
        let htm = HtmConfig { quantum: 900, ..HtmConfig::default() };
        let rt = TmRuntime::new(htm, TmConfig::default(), 1, 64);
        let mut e = SpHt::new(&rt, 0);
        assert_eq!(e.execute(&mut Long { base: rt.app(0) }), CommitPath::SubHtm);
        for i in 0..4 {
            assert_eq!(rt.verify_read(i * 8), 1);
        }
    }

    #[test]
    fn writes_invisible_between_segments() {
        // Deterministic hiding check: the workload writes word 0 in segment 0,
        // then a *software* segment (outside any sub-transaction) hands control to
        // a checker thread, which samples memory while the split transaction is
        // parked between its sub-transactions. The hidden write must not be
        // visible; after the final segment commits, both words appear atomically.
        use std::sync::atomic::{AtomicU8, Ordering};
        static PHASE: AtomicU8 = AtomicU8::new(0); // 0=idle 1=parked 2=checked

        struct TwoPhase {
            base: Addr,
        }
        impl Workload for TwoPhase {
            type Snap = ();
            fn sample(&mut self, _r: &mut SmallRng) {}
            fn segments(&self) -> usize {
                3
            }
            fn software_segment(&self, seg: usize) -> bool {
                seg == 1
            }
            fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
                match seg {
                    0 => {
                        let v = ctx.read(self.base)?;
                        ctx.write(self.base, v + 1)
                    }
                    1 => {
                        // Park between sub-transactions until the checker sampled.
                        PHASE.store(1, Ordering::SeqCst);
                        while PHASE.load(Ordering::SeqCst) != 2 {
                            htm_sim::vclock::yield_now();
                        }
                        Ok(())
                    }
                    _ => {
                        let v = ctx.read(self.base + 8)?;
                        ctx.write(self.base + 8, v + 1)
                    }
                }
            }
        }

        let rt = TmRuntime::new(
            HtmConfig::default(),
            TmConfig { skip_fast: true, ..TmConfig::default() },
            2,
            64,
        );
        std::thread::scope(|s| {
            let rt = &rt;
            s.spawn(move || {
                let mut e = SpHt::new(rt, 0);
                let mut w = TwoPhase { base: rt.app(0) };
                e.execute(&mut w);
            });
            s.spawn(move || {
                while PHASE.load(std::sync::atomic::Ordering::SeqCst) != 1 {
                    htm_sim::vclock::yield_now();
                }
                // The split transaction is parked between sub-transactions: its
                // segment-0 write must be hidden.
                assert_eq!(rt.verify_read(0), 0, "write leaked between sub-transactions");
                assert_eq!(rt.verify_read(8), 0);
                PHASE.store(2, std::sync::atomic::Ordering::SeqCst);
            });
        });
        // After the final sub-transaction, both writes are visible.
        assert_eq!(rt.verify_read(0), 1);
        assert_eq!(rt.verify_read(8), 1);
    }

    #[test]
    fn space_limited_tx_defeats_lazy_splitting() {
        // The paper's §3 criticism, as an executable fact: a transaction whose
        // *write set* exceeds HTM capacity cannot be rescued by lazy splitting
        // (the last sub-transaction replays the whole redo log), so SpHT ends on
        // the global lock where Part-HTM commits on its partitioned path.
        // The first sub-transaction that overflows ends the split path: a
        // retry would replay the same redo log and overflow again. (It took
        // 25 sub aborts and 5 global aborts while resource failures of a
        // multi-segment split were retried.)
        let htm = HtmConfig { l1_sets: 16, l1_ways: 4, quantum: 100_000, ..HtmConfig::default() };
        let rt = TmRuntime::new(htm.clone(), TmConfig::default(), 1, 2048);
        let mut e = SpHt::new(&rt, 0);
        let mut w = Incr { n: 96, segs: 8, base: rt.app(0) };
        assert_eq!(e.execute(&mut w), CommitPath::GlobalLock);
        let s = &e.thread().stats;
        assert_eq!((s.fast_aborts, s.fallbacks_partitioned), (1, 1));
        assert_eq!((s.sub_aborts, s.global_aborts), (1, 1));
        assert_eq!((s.fallbacks_gl, s.commits_gl), (1, 1));
        for i in 0..96 {
            assert_eq!(rt.verify_read(i * 8), 1);
        }

        let rt2 = TmRuntime::new(htm, TmConfig::default(), 1, 2048);
        let mut e2 = part_htm_core::PartHtm::new(&rt2, 0);
        let mut w2 = Incr { n: 96, segs: 8, base: rt2.app(0) };
        assert_eq!(e2.execute(&mut w2), CommitPath::SubHtm);
    }
}
