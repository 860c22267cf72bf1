//! Reduced-Hardware NOrec (Matveev & Shavit — SPAA'13 / TRANSACT'14 "NOrecRH"):
//! the Hybrid-TM competitor of the paper's evaluation.
//!
//! NOrecRH is [`NOrec`] plus two hardware steps. Transactions first try pure
//! HTM (subscribing NOrec's sequence lock so software commits abort them, and
//! bumping it on hardware commit so software transactions revalidate).
//! Transactions that fail in hardware run NOrec's speculative software path,
//! but the writer commit (sequence check + write back + sequence bump)
//! executes as a *small* hardware transaction, the "reduced hardware
//! transaction", which removes the software commit's lock acquisition from the
//! common case. If even the reduced transaction cannot commit in hardware
//! (e.g. the redo log exceeds HTM capacity), NOrec's software commit is the
//! final fallback. Irrevocable transactions run NOrec's inevitable mode.

use htm_sim::abort::TxResult;
use part_htm_core::ctx::RawCtx;
use part_htm_core::{run_all, CommitPath, TmExecutor, TmRuntime, TmThread, Workload, FAST_RETRIES};

use crate::norec::{validate, wait_even, NOrec};

/// Explicit-abort payload: the sequence lock moved under a hardware attempt;
/// software revalidation is required.
const XABORT_SEQ_CHANGED: u8 = 0xB0;

/// Pure-hardware attempt: subscribe the sequence lock; a writer bumps it (by 2,
/// staying even) inside the transaction so concurrent software transactions
/// revalidate their value-based read logs. A failed attempt counts one
/// [`part_htm_core::TmStats::fast_aborts`].
fn try_htm<W: Workload>(th: &mut TmThread<'_>, w: &mut W) -> TxResult<()> {
    w.reset();
    let seqlock = th.rt.seqlock();
    let res = th.hw.attempt(|tx| {
        let snap = tx.read(seqlock)?;
        if snap & 1 != 0 {
            return Err(tx.xabort(XABORT_SEQ_CHANGED));
        }
        let wbefore = tx.write_lines();
        run_all(w, &mut RawCtx { tx })?;
        if tx.write_lines() > wbefore {
            tx.write(seqlock, snap + 2)?;
        }
        Ok(())
    });
    if res.is_err() {
        th.stats.fast_aborts += 1;
    }
    res
}

/// The reduced hardware commit: {check the sequence lock unchanged, write the
/// redo log back, bump} as one small hardware transaction, retried up to
/// [`FAST_RETRIES`] times; a resource failure or the spent budget falls back
/// to [`NOrec::commit_writes`].
fn reduced_commit(stm: &mut NOrec<'_>, mut snapshot: u64) -> Result<(), ()> {
    let seqlock = stm.th.rt.seqlock();
    let mut hw_attempts = 0u32;
    loop {
        // Software revalidation first, so the hardware part only has to compare
        // the sequence number.
        while snapshot != stm.th.hw.nt_read(seqlock) {
            snapshot = validate(&stm.th, seqlock, &stm.reads)?;
        }
        let redo = &stm.redo;
        let commit = stm.th.hw.attempt(|tx| {
            if tx.read(seqlock)? != snapshot {
                return Err(tx.xabort(XABORT_SEQ_CHANGED));
            }
            for (a, v) in redo.iter() {
                tx.write(a, v)?;
            }
            tx.write(seqlock, snapshot + 2)
        });
        let Err(code) = commit else {
            return Ok(());
        };
        hw_attempts += 1;
        if code.is_resource_failure() || hw_attempts >= FAST_RETRIES {
            return stm.commit_writes(snapshot);
        }
        htm_sim::vclock::yield_now();
    }
}

/// The NOrecRH executor: a [`NOrec`] with a hardware first path and a reduced
/// hardware writer commit.
pub struct NOrecRh<'r> {
    stm: NOrec<'r>,
}

impl<'r> TmExecutor<'r> for NOrecRh<'r> {
    const NAME: &'static str = "NOrecRH";

    fn new(rt: &'r TmRuntime, thread_id: usize) -> Self {
        Self {
            stm: NOrec::new(rt, thread_id),
        }
    }

    fn execute<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        let th = &mut self.stm.th;
        if !w.is_irrevocable() {
            for _ in 0..FAST_RETRIES {
                // Anti-lemming: wait for any software committer to drain.
                wait_even(th, th.rt.seqlock());
                match try_htm(th, w) {
                    Ok(()) => {
                        w.after_commit();
                        th.stats.record_commit(CommitPath::Htm);
                        return CommitPath::Htm;
                    }
                    // No-retry hint: capacity/interrupt aborts go straight to the
                    // software path.
                    Err(code) if code.is_resource_failure() => break,
                    Err(_) => {}
                }
            }
        }
        self.stm.execute_with(w, reduced_commit)
    }

    fn thread(&self) -> &TmThread<'r> {
        &self.stm.th
    }

    fn thread_mut(&mut self) -> &mut TmThread<'r> {
        &mut self.stm.th
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_sim::{Addr, HtmConfig};
    use part_htm_core::{TmConfig, TxCtx};
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
    fn read_limited_tx_commits_through_the_reduced_hardware_commit() {
        // 32 read lines overflow the 16-line read budget, so the pure-hardware
        // attempt dies of capacity; the 2 written lines plus the sequence lock
        // fit, so the reduced hardware transaction commits them.
        struct ReadMany(Addr);
        impl Workload for ReadMany {
            type Snap = ();
            fn sample(&mut self, _r: &mut SmallRng) {}
            fn segment<C: TxCtx>(&mut self, _s: usize, ctx: &mut C) -> TxResult<()> {
                let mut sum = 0;
                for i in 0..32 {
                    sum += ctx.read(self.0 + (i * 8) as Addr)?;
                }
                ctx.write(self.0, sum + 1)?;
                ctx.write(self.0 + 8, sum + 2)
            }
        }
        let rt = TmRuntime::new(
            HtmConfig {
                read_lines_max: 16,
                ..HtmConfig::default()
            },
            TmConfig::default(),
            1,
            4096,
        );
        let mut e = NOrecRh::new(&rt, 0);
        assert_eq!(e.execute(&mut ReadMany(rt.app(0))), CommitPath::Stm);
        assert_eq!((rt.verify_read(0), rt.verify_read(8)), (1, 2));
        let hw = &e.thread().hw.stats;
        assert_eq!((hw.begins, hw.aborts_capacity, hw.commits), (2, 1, 1));
        assert_eq!(e.thread().stats.fast_aborts, 1);
        // One writer commit bumped the sequence lock.
        assert_eq!(rt.system().nt_read(rt.seqlock()), 2);
    }

    #[test]
    fn irrevocable_tx_runs_inevitably_without_hardware() {
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
        let mut e = NOrecRh::new(&rt, 0);
        assert_eq!(e.execute(&mut Irrev(rt.app(0))), CommitPath::Stm);
        assert_eq!(rt.verify_read(0), 1);
        assert_eq!(e.thread().hw.stats.begins, 0, "no hardware attempt");
        assert_eq!(e.thread().stats.commits_stm, 1);
        // Held odd for the whole execution, released even.
        assert_eq!(rt.system().nt_read(rt.seqlock()), 2);
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
