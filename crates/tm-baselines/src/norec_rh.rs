//! Reduced-Hardware NOrec (Matveev & Shavit — SPAA'13 / TRANSACT'14 "NOrecRH"):
//! the Hybrid-TM competitor of the paper's evaluation.
//!
//! Transactions first try pure HTM (subscribing NOrec's sequence lock so software
//! commits abort them, and bumping it on hardware commit so software transactions
//! revalidate). Transactions that fail in hardware fall back to NOrec — but the
//! commit procedure (validate + write back + sequence bump) executes as a *small*
//! hardware transaction, the "reduced hardware transaction", which removes the
//! software commit's lock acquisition from the common case. If even the reduced
//! transaction cannot commit in hardware (e.g. the redo log exceeds HTM capacity),
//! the plain software NOrec commit is the final fallback.

use htm_sim::abort::TxResult;
use htm_sim::{AbortCode, Addr};
use part_htm_core::api::spin_work;
use part_htm_core::{CommitPath, TmExecutor, TmRuntime, TmThread, TxCtx, Workload, FAST_RETRIES};

use crate::htm_gl::PureHtmCtx;
use crate::norec::{validate, wait_even};
use crate::redo::RedoLog;

/// Explicit-abort payload: the sequence lock moved under the reduced hardware
/// commit; software revalidation is required.
const XABORT_SEQ_CHANGED: u8 = 0xB0;

struct RhStmCtx<'c, 'r> {
    th: &'c TmThread<'r>,
    seqlock: Addr,
    snapshot: &'c mut u64,
    reads: &'c mut Vec<(Addr, u64)>,
    redo: &'c mut RedoLog,
}

impl TxCtx for RhStmCtx<'_, '_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        spin_work(crate::STM_READ_COST);
        if let Some(v) = self.redo.get(addr) {
            return Ok(v);
        }
        let mut v = self.th.hw.nt_read(addr);
        while *self.snapshot != self.th.hw.nt_read(self.seqlock) {
            match validate(self.th, self.seqlock, self.reads) {
                Ok(ts) => *self.snapshot = ts,
                Err(()) => return Err(AbortCode::Conflict),
            }
            v = self.th.hw.nt_read(addr);
        }
        self.reads.push((addr, v));
        Ok(v)
    }

    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        spin_work(crate::STM_WRITE_COST);
        self.redo.insert(addr, val);
        Ok(())
    }

    fn work(&mut self, units: u64) -> TxResult<()> {
        spin_work(units);
        Ok(())
    }

    fn nt_work(&mut self, units: u64) -> TxResult<()> {
        spin_work(units);
        Ok(())
    }
}

/// The NOrecRH executor.
pub struct NOrecRh<'r> {
    th: TmThread<'r>,
    reads: Vec<(Addr, u64)>,
    redo: RedoLog,
}

impl<'r> NOrecRh<'r> {
    /// Pure-hardware attempt: subscribe the sequence lock; a writer bumps it (by 2,
    /// staying even) inside the transaction so concurrent software transactions
    /// revalidate their value-based read logs.
    fn try_htm<W: Workload>(&mut self, w: &mut W) -> TxResult<()> {
        w.reset();
        let seqlock = self.th.rt.seqlock();
        let mut tx = self.th.hw.begin();
        let body: TxResult<()> = 'b: {
            let snap = match tx.read(seqlock) {
                Ok(s) if s & 1 == 0 => s,
                Ok(_) => break 'b Err(tx.xabort(XABORT_SEQ_CHANGED)),
                Err(e) => break 'b Err(e),
            };
            let wbefore = tx.write_lines();
            {
                let mut ctx = PureHtmCtx { tx: &mut tx };
                for seg in 0..w.segments() {
                    if let Err(e) = w.segment(seg, &mut ctx) {
                        break 'b Err(e);
                    }
                }
            }
            if tx.write_lines() > wbefore {
                if let Err(e) = tx.write(seqlock, snap + 2) {
                    break 'b Err(e);
                }
            }
            Ok(())
        };
        let res = match body {
            Ok(()) => tx.commit(),
            Err(code) => {
                drop(tx);
                Err(code)
            }
        };
        if res.is_err() {
            self.th.stats.fast_aborts += 1;
        }
        res
    }

    /// One STM attempt with the reduced-hardware commit.
    fn try_stm<W: Workload>(&mut self, w: &mut W) -> Result<(), ()> {
        let seqlock = self.th.rt.seqlock();
        w.reset();
        self.reads.clear();
        self.redo.clear();
        let mut snapshot = wait_even(&self.th, seqlock);

        {
            let mut ctx = RhStmCtx {
                th: &self.th,
                seqlock,
                snapshot: &mut snapshot,
                reads: &mut self.reads,
                redo: &mut self.redo,
            };
            for seg in 0..w.segments() {
                if w.software_segment(seg) {
                    let mut sctx = part_htm_core::ctx::SoftwareCtx {
                        th: &ctx.th.hw,
                        mask_values: false,
                    };
                    w.segment(seg, &mut sctx)
                        .expect("software segments cannot abort");
                    continue;
                }
                if w.segment(seg, &mut ctx).is_err() {
                    return Err(());
                }
            }
        }
        if self.redo.is_empty() {
            return Ok(());
        }

        // Reduced hardware commit: {check sequence unchanged, write everything back,
        // bump} as one small hardware transaction.
        let mut hw_attempts = 0u32;
        loop {
            // Software revalidation first, so the hardware part only has to compare
            // the sequence number.
            while snapshot != self.th.hw.nt_read(seqlock) {
                match validate(&self.th, seqlock, &self.reads) {
                    Ok(ts) => snapshot = ts,
                    Err(()) => return Err(()),
                }
            }
            let redo = &self.redo;
            let commit = self.th.hw.attempt(|tx| {
                match tx.read(seqlock) {
                    Ok(s) if s == snapshot => {}
                    Ok(_) => return Err(tx.xabort(XABORT_SEQ_CHANGED)),
                    Err(e) => return Err(e),
                }
                for (a, v) in redo.iter() {
                    tx.write(a, v)?;
                }
                tx.write(seqlock, snapshot + 2)
            });
            match commit {
                Ok(()) => return Ok(()),
                Err(code) => {
                    hw_attempts += 1;
                    let out_of_hw = code.is_resource_failure() || hw_attempts >= FAST_RETRIES;
                    if out_of_hw {
                        // Final fallback: the plain software NOrec commit.
                        while self.th.hw.nt_cas(seqlock, snapshot, snapshot + 1).is_err() {
                            match validate(&self.th, seqlock, &self.reads) {
                                Ok(ts) => snapshot = ts,
                                Err(()) => return Err(()),
                            }
                        }
                        for (a, v) in self.redo.iter() {
                            self.th.hw.nt_write(a, v);
                        }
                        self.th.hw.nt_write(seqlock, snapshot + 2);
                        return Ok(());
                    }
                    htm_sim::vclock::yield_now();
                }
            }
        }
    }
}

impl<'r> TmExecutor<'r> for NOrecRh<'r> {
    const NAME: &'static str = "NOrecRH";

    fn new(rt: &'r TmRuntime, thread_id: usize) -> Self {
        Self {
            th: TmThread::new(rt, thread_id),
            reads: Vec::new(),
            redo: RedoLog::default(),
        }
    }

    fn execute<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        let seqlock = self.th.rt.seqlock();
        if !w.is_irrevocable() {
            for _ in 0..FAST_RETRIES {
                // Anti-lemming: wait for any software committer to drain.
                wait_even(&self.th, seqlock);
                match self.try_htm(w) {
                    Ok(()) => {
                        w.after_commit();
                        self.th.stats.record_commit(CommitPath::Htm);
                        return CommitPath::Htm;
                    }
                    // No-retry hint: capacity/interrupt aborts go straight to the
                    // software path.
                    Err(code) if code.is_resource_failure() => break,
                    Err(_) => {}
                }
            }
        }
        loop {
            if w.is_irrevocable() {
                // Inevitable software execution under the sequence lock.
                let ts = wait_even(&self.th, seqlock);
                if self.th.hw.nt_cas(seqlock, ts, ts + 1).is_err() {
                    continue;
                }
                w.reset();
                let mut ctx = part_htm_core::ctx::SlowCtx {
                    th: &self.th.hw,
                    mask_values: false,
                };
                for seg in 0..w.segments() {
                    w.segment(seg, &mut ctx)
                        .expect("direct execution cannot abort");
                }
                self.th.hw.nt_write(seqlock, ts + 2);
                w.after_commit();
                self.th.stats.record_commit(CommitPath::Stm);
                return CommitPath::Stm;
            }
            if self.try_stm(w).is_ok() {
                w.after_commit();
                self.th.stats.record_commit(CommitPath::Stm);
                return CommitPath::Stm;
            }
            self.th.stats.stm_aborts += 1;
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
    use part_htm_core::TmConfig;
    use rand::rngs::SmallRng;

    struct Incr {
        n: usize,
        base: Addr,
    }

    impl Workload for Incr {
        type Snap = ();
        fn sample(&mut self, _r: &mut SmallRng) {}
        fn segment<C: TxCtx>(&mut self, _s: usize, ctx: &mut C) -> TxResult<()> {
            for i in 0..self.n {
                let a = self.base + (i * 8) as Addr;
                let v = ctx.read(a)?;
                ctx.write(a, v + 1)?;
            }
            Ok(())
        }
    }

    #[test]
    fn small_tx_commits_in_hardware() {
        let rt = TmRuntime::with_defaults(1, 256);
        let mut e = NOrecRh::new(&rt, 0);
        let mut w = Incr {
            n: 4,
            base: rt.app(0),
        };
        assert_eq!(e.execute(&mut w), CommitPath::Htm);
        assert_eq!(rt.verify_read(0), 1);
        // The hardware writer bumped the sequence lock.
        assert_eq!(rt.system().nt_read(rt.seqlock()), 2);
    }

    #[test]
    fn capacity_limited_tx_uses_stm_with_reduced_commit() {
        let rt = TmRuntime::new(
            HtmConfig {
                l1_sets: 4,
                l1_ways: 2,
                ..HtmConfig::default()
            },
            TmConfig::default(),
            1,
            4096,
        );
        let mut e = NOrecRh::new(&rt, 0);
        // 32 written lines: far over the 8-line capacity, so the body runs in
        // software; the reduced commit (32 writes + seqlock) also exceeds capacity
        // and takes the software-commit fallback.
        let mut w = Incr {
            n: 32,
            base: rt.app(0),
        };
        assert_eq!(e.execute(&mut w), CommitPath::Stm);
        for i in 0..32 {
            assert_eq!(rt.verify_read(i * 8), 1);
        }
        assert_eq!(rt.system().nt_read(rt.seqlock()) & 1, 0);
    }

    #[test]
    fn mixed_hardware_software_conserve_counters() {
        let rt = TmRuntime::new(
            HtmConfig {
                l1_sets: 16,
                l1_ways: 4,
                ..HtmConfig::default()
            },
            TmConfig::default(),
            4,
            4096,
        );
        std::thread::scope(|s| {
            for t in 0..4 {
                let rt = &rt;
                s.spawn(move || {
                    let mut e = NOrecRh::new(rt, t);
                    // Even threads run small (hardware-friendly) transactions, odd
                    // threads big (software) ones, all over the same counters.
                    let n = if t % 2 == 0 { 4 } else { 96 };
                    let mut w = Incr { n, base: rt.app(0) };
                    for _ in 0..30 {
                        e.execute(&mut w);
                    }
                });
            }
        });
        // Counters 0..4 are touched by all 4 threads' transactions.
        for i in 0..4 {
            assert_eq!(rt.verify_read(i * 8), 120, "counter {i}");
        }
        // Counters 4..96 only by the two odd (software) threads.
        for i in 4..96 {
            assert_eq!(rt.verify_read(i * 8), 60, "counter {i}");
        }
    }
}
