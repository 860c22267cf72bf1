//! Protocol-edge tests for Part-HTM / Part-HTM-O: path accounting, undo ordering,
//! retry exhaustion, slow-path mutual exclusion, lock hygiene.

use htm_sim::abort::TxResult;
use htm_sim::{Addr, HtmConfig};
use part_htm_core::{
    CommitPath, PartHtm, PartHtmO, TmConfig, TmExecutor, TmRuntime, TxCtx, Workload, LOCK_BIT,
};
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

/// Mid-size geometry where a 96-line transaction overflows but 12-line segments fit.
fn mid_htm() -> HtmConfig {
    HtmConfig { l1_sets: 16, l1_ways: 4, quantum: 100_000, ..HtmConfig::default() }
}

#[test]
fn fallback_counters_are_consistent() {
    let rt = TmRuntime::new(mid_htm(), TmConfig::default(), 1, 2048);
    let mut e = PartHtm::new(&rt, 0);
    let mut w = Incr { n: 96, segs: 8, base: rt.app(0) };
    for _ in 0..10 {
        e.execute(&mut w);
    }
    let s = &e.thread().stats;
    assert_eq!(s.commits_total(), 10);
    assert_eq!(s.commits_subhtm, 10);
    // Each transaction either probed the fast path (a resource-failure fallback) or
    // skipped it adaptively; fallbacks never exceed transactions.
    assert!(s.fallbacks_partitioned >= 1);
    assert!(s.fallbacks_partitioned <= 10);
    assert_eq!(s.fallbacks_gl, 0);
}

#[test]
fn undo_restores_across_multiple_subs_on_global_abort() {
    // Two writers ping-pong over the same region with sub-transactions small enough
    // to commit; in-flight validation forces global aborts whose undo must restore
    // the exact pre-transaction state. The conserved total proves every abort
    // rolled back completely.
    let rt = TmRuntime::new(mid_htm(), TmConfig { skip_fast: true, ..Default::default() }, 2, 2048);
    for i in 0..32 {
        rt.setup_write(i * 8, 100);
    }
    std::thread::scope(|s| {
        for t in 0..2 {
            let rt = &rt;
            s.spawn(move || {
                let mut e = PartHtm::new(rt, t);
                // Both threads increment the same 32 counters in 4 segments.
                let mut w = Incr { n: 32, segs: 4, base: rt.app(0) };
                for _ in 0..40 {
                    e.execute(&mut w);
                }
            });
        }
    });
    for i in 0..32 {
        assert_eq!(rt.verify_read(i * 8), 100 + 80, "counter {i}");
    }
    // All metadata released.
    let th = part_htm_core::TmThread::new(&rt, 0);
    assert!(rt.write_locks().snapshot_nt(&th.hw).is_empty());
    assert_eq!(rt.system().nt_read(rt.gate()), 0);
}

#[test]
fn oversize_segment_lands_on_global_lock_after_one_global_abort() {
    // A segment that can never fit in hardware (bigger than total L1): the
    // fast attempt overflows, the partitioned attempt's first sub-HTM capacity
    // abort on that single declared segment ends it (nothing is left to split,
    // so neither a sub-HTM retry nor another global attempt is spent), and the
    // transaction commits under the lock — once.
    let htm = HtmConfig { l1_sets: 4, l1_ways: 2, quantum: 100_000, ..HtmConfig::default() };
    let rt = TmRuntime::new(htm, TmConfig::default(), 1, 2048);
    let mut e = PartHtm::new(&rt, 0);
    let mut w = Incr { n: 64, segs: 2, base: rt.app(0) };
    assert_eq!(e.execute(&mut w), CommitPath::GlobalLock);
    let s = &e.thread().stats;
    assert_eq!(s.commits_gl, 1);
    assert_eq!(s.fallbacks_gl, 1);
    assert_eq!(s.fallbacks_partitioned, 1);
    assert_eq!(s.sub_aborts, 1);
    assert_eq!(s.global_aborts, 1);
    for i in 0..64 {
        assert_eq!(rt.verify_read(i * 8), 1);
    }
    assert_eq!(rt.system().nt_read(rt.gate()), 0, "lock released");
}

#[test]
fn slow_path_waits_for_partitioned_drain() {
    // Mix partitioned transactions with irrevocable (slow-path) ones; the
    // active_tx handshake must keep them serializable.
    struct Irrevocable {
        base: Addr,
        n: usize,
    }
    impl Workload for Irrevocable {
        type Snap = ();
        fn sample(&mut self, _r: &mut SmallRng) {}
        fn is_irrevocable(&self) -> bool {
            true
        }
        fn segment<C: TxCtx>(&mut self, _s: usize, ctx: &mut C) -> TxResult<()> {
            for i in 0..self.n {
                let a = self.base + (i * 8) as Addr;
                let v = ctx.read(a)?;
                ctx.write(a, v + 1)?;
            }
            Ok(())
        }
    }

    let rt = TmRuntime::new(mid_htm(), TmConfig { skip_fast: true, ..Default::default() }, 3, 2048);
    std::thread::scope(|s| {
        for t in 0..2 {
            let rt = &rt;
            s.spawn(move || {
                let mut e = PartHtm::new(rt, t);
                let mut w = Incr { n: 16, segs: 4, base: rt.app(0) };
                for _ in 0..30 {
                    e.execute(&mut w);
                }
            });
        }
        let rt = &rt;
        s.spawn(move || {
            let mut e = PartHtm::new(rt, 2);
            let mut w = Irrevocable { base: rt.app(0), n: 16 };
            for _ in 0..30 {
                assert_eq!(e.execute(&mut w), CommitPath::GlobalLock);
            }
        });
    });
    for i in 0..16 {
        assert_eq!(rt.verify_read(i * 8), 90, "counter {i}");
    }
}

#[test]
fn opaque_abort_releases_embedded_locks() {
    // Force global aborts in Part-HTM-O under contention, then verify no lock bit
    // survives anywhere.
    let rt = TmRuntime::new(mid_htm(), TmConfig { skip_fast: true, ..Default::default() }, 2, 2048);
    std::thread::scope(|s| {
        for t in 0..2 {
            let rt = &rt;
            s.spawn(move || {
                let mut e = PartHtmO::new(rt, t);
                let mut w = Incr { n: 32, segs: 8, base: rt.app(0) };
                for _ in 0..30 {
                    e.execute(&mut w);
                }
            });
        }
    });
    for i in 0..32 {
        let v = rt.verify_read(i * 8);
        assert_eq!(v & LOCK_BIT, 0, "counter {i} still locked: {v:#x}");
        assert_eq!(v, 60, "counter {i}");
    }
}

#[test]
fn quiet_fast_path_retreats_when_partitioned_traffic_appears() {
    // One thread runs partitioned transactions; the other runs small transactions.
    // Everything must stay exact despite the quiet/instrumented switching.
    let rt = TmRuntime::new(mid_htm(), TmConfig::default(), 2, 4096);
    std::thread::scope(|s| {
        let rt = &rt;
        s.spawn(move || {
            let mut e = PartHtm::new(rt, 0);
            let mut w = Incr { n: 96, segs: 8, base: rt.app(0) };
            for _ in 0..20 {
                e.execute(&mut w);
            }
        });
        s.spawn(move || {
            let mut e = PartHtm::new(rt, 1);
            // Overlapping small transactions on the first 4 counters.
            let mut w = Incr { n: 4, segs: 1, base: rt.app(0) };
            for _ in 0..200 {
                e.execute(&mut w);
            }
        });
    });
    for i in 0..4 {
        assert_eq!(rt.verify_read(i * 8), 220, "counter {i}");
    }
    for i in 4..96 {
        assert_eq!(rt.verify_read(i * 8), 20, "counter {i}");
    }
}

#[test]
fn validate_before_commit_only_mode_is_serializable_under_contention() {
    let tm = TmConfig { validate_every_sub: false, skip_fast: true, ..Default::default() };
    let rt = TmRuntime::new(mid_htm(), tm, 3, 2048);
    std::thread::scope(|s| {
        for t in 0..3 {
            let rt = &rt;
            s.spawn(move || {
                let mut e = PartHtm::new(rt, t);
                let mut w = Incr { n: 24, segs: 4, base: rt.app(0) };
                for _ in 0..30 {
                    e.execute(&mut w);
                }
            });
        }
    });
    for i in 0..24 {
        assert_eq!(rt.verify_read(i * 8), 90, "counter {i}");
    }
}
