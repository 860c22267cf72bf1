//! HTM-GL: best-effort HTM with the default single-global-lock fallback.
//!
//! The industry-default usage of Intel TSX (§1 "GL-software path"): try the
//! transaction as pure hardware a bounded number of times (the paper uses 5, §7),
//! then acquire the global lock. Hardware attempts subscribe the lock so a fallback
//! acquisition aborts them; the anti-lemming policy waits for the lock to be free
//! before *retrying* in hardware (a first attempt's subscription is its check).

use htm_sim::abort::TxResult;
use part_htm_core::ctx::RawCtx;
use part_htm_core::{commit_under_glock, fast_retries, hw_attempt, run_all};
use part_htm_core::{CommitPath, TmExecutor, TmRuntime, TmThread, Workload};

/// One uninstrumented hardware attempt of the whole transaction, subscribed to
/// the global lock (HTM-GL's only hardware path, SpHT's fast path): HTM-GL adds
/// no software metadata at all — that is its appeal and its limitation.
pub fn try_pure_htm<W: Workload>(th: &mut TmThread<'_>, w: &mut W) -> TxResult<()> {
    hw_attempt(th, w, false, |tx, w| run_all(w, &mut RawCtx { tx }))
}

/// The HTM-GL executor.
pub struct HtmGl<'r> {
    th: TmThread<'r>,
}

impl<'r> TmExecutor<'r> for HtmGl<'r> {
    const NAME: &'static str = "HTM-GL";

    fn new(rt: &'r TmRuntime, thread_id: usize) -> Self {
        Self {
            th: TmThread::new(rt, thread_id),
        }
    }

    fn execute<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        // TSX clears the "retry may succeed" hint on capacity and interrupt
        // aborts: production fallback code takes the lock immediately instead
        // of burning the remaining retries, and so does `fast_retries`.
        if !w.is_irrevocable() && fast_retries(&mut self.th, |th| try_pure_htm(th, w)).is_ok() {
            w.after_commit();
            self.th.stats.record_commit(CommitPath::Htm);
            return CommitPath::Htm;
        }
        self.th.stats.fallbacks_gl += 1;
        commit_under_glock(&mut self.th, w, false)
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
        let mut e = HtmGl::new(&rt, 0);
        let mut w = Incr {
            n: 4,
            base: rt.app(0),
        };
        assert_eq!(e.execute(&mut w), CommitPath::Htm);
        assert_eq!(rt.verify_read(0), 1);
        assert_eq!(e.thread().stats.commits_htm, 1);
    }

    #[test]
    fn capacity_limited_tx_falls_to_global_lock() {
        let rt = TmRuntime::new(
            HtmConfig {
                l1_sets: 4,
                l1_ways: 2,
                ..HtmConfig::default()
            },
            TmConfig::default(),
            1,
            2048,
        );
        let mut e = HtmGl::new(&rt, 0);
        let mut w = Incr {
            n: 32,
            base: rt.app(0),
        };
        assert_eq!(e.execute(&mut w), CommitPath::GlobalLock);
        for i in 0..32 {
            assert_eq!(rt.verify_read(i * 8), 1);
        }
        // Exactly one wasted hardware attempt: the capacity abort carries no
        // retry hint, so the fallback takes the lock immediately.
        assert_eq!(e.thread().stats.fast_aborts, 1);
        assert_eq!(rt.system().nt_read(rt.gate()), 0);
    }

    #[test]
    fn concurrent_increments_exact() {
        let rt = TmRuntime::with_defaults(4, 256);
        std::thread::scope(|s| {
            for t in 0..4 {
                let rt = &rt;
                s.spawn(move || {
                    let mut e = HtmGl::new(rt, t);
                    let mut w = Incr {
                        n: 8,
                        base: rt.app(0),
                    };
                    for _ in 0..50 {
                        e.execute(&mut w);
                    }
                });
            }
        });
        for i in 0..8 {
            assert_eq!(rt.verify_read(i * 8), 200);
        }
    }
}
