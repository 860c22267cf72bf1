//! HLE — Hardware Lock Elision (§2 of the paper): "each critical section protected
//! by a lock is attempted before as transaction and, in case of abort, the original
//! lock is acquired and mutual exclusion is enforced."
//!
//! Unlike RTM (the paper's focus), HLE gives the programmer no retry policy: one
//! elided attempt, then the real lock. This executor models that contract on the
//! global lock. The paper notes that "applying Part-HTM to HLE's first speculative
//! trial before the lock acquisition is a simple extension" — that extension is
//! expressible here as `TmConfig { fast_retries: 1, .. }` on [`part_htm_core::PartHtm`],
//! which the tests below demonstrate.

use part_htm_core::{commit_under_glock, wait_glock_released};
use part_htm_core::{CommitPath, TmExecutor, TmRuntime, TmThread, Workload};

use crate::htm_gl::try_pure_htm;

/// The HLE executor: one elided hardware attempt, then the lock.
pub struct Hle<'r> {
    th: TmThread<'r>,
}

impl<'r> TmExecutor<'r> for Hle<'r> {
    const NAME: &'static str = "HLE";

    fn new(rt: &'r TmRuntime, thread_id: usize) -> Self {
        Self { th: TmThread::new(rt, thread_id) }
    }

    fn execute<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        if !w.is_irrevocable() {
            wait_glock_released(&self.th);
            // The elided lock is read (added to the read set) but not acquired —
            // exactly HLE's semantics: the lock word stays "free" unless someone
            // aborts and takes it for real, which then dooms all elisions.
            let elided = try_pure_htm(&mut self.th, w);
            if elided.is_ok() {
                w.after_commit();
                self.th.stats.record_commit(CommitPath::Htm);
                return CommitPath::Htm;
            }
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
    use htm_sim::abort::TxResult;
    use htm_sim::{Addr, HtmConfig};
    use part_htm_core::{PartHtm, TmConfig, TxCtx};
    use rand::rngs::SmallRng;

    struct Incr {
        n: usize,
        base: Addr,
    }
    impl Workload for Incr {
        type Snap = ();
        fn sample(&mut self, _r: &mut SmallRng) {}
        fn segments(&self) -> usize {
            4
        }
        fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
            let per = self.n / 4;
            for i in seg * per..(seg + 1) * per {
                let a = self.base + (i * 8) as Addr;
                let v = ctx.read(a)?;
                ctx.write(a, v + 1)?;
            }
            Ok(())
        }
    }

    #[test]
    fn small_section_elides() {
        let rt = TmRuntime::with_defaults(1, 512);
        let mut e = Hle::new(&rt, 0);
        let mut w = Incr { n: 4, base: rt.app(0) };
        assert_eq!(e.execute(&mut w), CommitPath::Htm);
        assert_eq!(e.thread().stats.commits_htm, 1);
    }

    #[test]
    fn oversized_section_takes_lock_after_one_attempt() {
        let htm = HtmConfig { l1_sets: 4, l1_ways: 2, ..HtmConfig::default() };
        let rt = TmRuntime::new(htm, TmConfig::default(), 1, 2048);
        let mut e = Hle::new(&rt, 0);
        let mut w = Incr { n: 32, base: rt.app(0) };
        assert_eq!(e.execute(&mut w), CommitPath::GlobalLock);
        // HLE's contract: exactly one wasted speculative attempt, not five.
        assert_eq!(e.thread().stats.fast_aborts, 1);
        for i in 0..32 {
            assert_eq!(rt.verify_read(i * 8), 1);
        }
    }

    #[test]
    fn part_htm_applied_to_hle_rescues_the_section() {
        // The paper's §2 extension: Part-HTM with a single fast-path trial is
        // HLE whose fallback is the partitioned path instead of the lock.
        let htm = HtmConfig { l1_sets: 16, l1_ways: 4, quantum: 100_000, ..HtmConfig::default() };
        let rt = TmRuntime::new(htm, TmConfig { fast_retries: 1, ..TmConfig::default() }, 1, 2048);
        let mut e = PartHtm::new(&rt, 0);
        let mut w = Incr { n: 96, base: rt.app(0) };
        assert_eq!(e.execute(&mut w), CommitPath::SubHtm);
        assert!(e.thread().stats.fast_aborts <= 1, "a single speculative trial");
    }

    #[test]
    fn concurrent_elision_is_serializable() {
        let rt = TmRuntime::with_defaults(4, 512);
        std::thread::scope(|s| {
            for t in 0..4 {
                let rt = &rt;
                s.spawn(move || {
                    let mut e = Hle::new(rt, t);
                    let mut w = Incr { n: 8, base: rt.app(0) };
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
