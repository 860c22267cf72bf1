//! Differential tests of the adaptive segment planner against its pinned
//! plan.
//!
//! * `plan_group: Some(1)` must reproduce the declared `segments()` plan
//!   byte-for-byte — one `PlanStep` per declared segment, in order, software
//!   flags intact — and must never merge or split.
//! * Where no two hardware segments are adjacent there is nothing to merge,
//!   so the learned planner (`plan_group: None`) and `Some(1)` must run the
//!   same transactions bit for bit: both route the fast path through the same
//!   site profile.
//! * Merged plans, whatever the group width, must partition the declared
//!   segments exactly: full coverage, declaration order, no group spanning a
//!   software segment, no group wider than requested.
//! * Under real multithreaded contention with merging *and* capacity splits
//!   firing, the adaptive executor must preserve exact serializability (every
//!   committed increment visible exactly once) for both Part-HTM and
//!   Part-HTM-O.

use htm_sim::abort::TxResult;
use htm_sim::vclock::{SchedPolicy, SchedSpec, VClock};
use htm_sim::{Addr, HtmConfig, HtmStats};
use part_htm_core::{
    build_plan, PartHtm, PartHtmO, PlanStep, TmConfig, TmExecutor, TmRuntime, TmStats, TxCtx,
    Workload,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;

fn arb_software() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(prop_oneof![Just(false), Just(false), Just(true)], 1..24)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Group width 1 (the static oracle's configuration) emits the declared
    /// plan byte-for-byte, and reports the longest mergeable run unchanged.
    #[test]
    fn static_plan_is_byte_for_byte(sw in arb_software()) {
        let mut out = Vec::new();
        let max_run = build_plan(sw.len(), 1, |s| sw[s], &mut out);
        let expected: Vec<PlanStep> = (0..sw.len())
            .map(|s| PlanStep { start: s, end: s + 1, software: sw[s] })
            .collect();
        prop_assert_eq!(&out, &expected);
        // max_run = longest consecutive non-software stretch, floored at 1
        // (it feeds `record_clean_commit`'s ceiling clamp).
        let mut best = 0u32;
        let mut run = 0u32;
        for &is_sw in &sw {
            run = if is_sw { 0 } else { run + 1 };
            best = best.max(run);
        }
        prop_assert_eq!(max_run, best.max(1));
    }

    /// Any group width partitions the declared segments exactly: in-order
    /// coverage, software segments isolated, no group wider than requested or
    /// spanning a software segment.
    #[test]
    fn merged_plan_partitions_declared_segments(sw in arb_software(), group in 1u32..20) {
        let mut out = Vec::new();
        build_plan(sw.len(), group, |s| sw[s], &mut out);
        let mut next = 0usize;
        for step in &out {
            prop_assert_eq!(step.start, next, "gap or overlap in the plan");
            prop_assert!(step.end > step.start);
            prop_assert!(step.len() <= group as usize);
            if step.software {
                prop_assert_eq!(step.len(), 1, "software segments never merge");
                prop_assert!(sw[step.start]);
            } else {
                for &is_sw in &sw[step.start..step.end] {
                    prop_assert!(!is_sw, "hardware group swallowed a software segment");
                }
            }
            next = step.end;
        }
        prop_assert_eq!(next, sw.len(), "plan must cover every declared segment");
    }
}

/// The contended increment workload of the protocol-edge tests, declared at
/// fine granularity so the planner has room to merge: `n` counters, one cache
/// line each, split over `segs` segments.
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

/// 64-line transactional budget: a 6-line segment fits, a merged group of 16
/// segments (96 lines) overflows — merging must eventually probe past the
/// budget and split back.
fn mid_htm() -> HtmConfig {
    HtmConfig {
        l1_sets: 16,
        l1_ways: 4,
        quantum: 1_000_000,
        ..HtmConfig::default()
    }
}

/// Run `threads` workers x `ops` transactions of the 96-counter / 16-segment
/// workload under `cfg`; returns the final counter values and merged stats.
/// `skip_fast` pins every transaction to the partitioned path, the regime the
/// planner governs.
fn run_incr<'r, E: TmExecutor<'r> + Send>(
    rt: &'r TmRuntime,
    threads: usize,
    ops: usize,
) -> (Vec<u64>, TmStats) {
    let stats = std::sync::Mutex::new(TmStats::default());
    std::thread::scope(|s| {
        for t in 0..threads {
            let (rt, stats) = (rt, &stats);
            s.spawn(move || {
                let mut e = E::new(rt, t);
                let mut w = Incr {
                    n: 96,
                    segs: 16,
                    base: rt.app(0),
                };
                for _ in 0..ops {
                    e.execute(&mut w);
                }
                stats.lock().unwrap().merge(&e.thread().stats);
            });
        }
    });
    let state = (0..96).map(|i| rt.verify_read(i * 8)).collect();
    (state, stats.into_inner().unwrap())
}

fn planner_cfg(plan_group: Option<u32>) -> TmConfig {
    TmConfig {
        skip_fast: true,
        plan_group,
        ..TmConfig::default()
    }
}

fn seeded_rt(cfg: TmConfig, threads: usize) -> TmRuntime {
    let rt = TmRuntime::new(mid_htm(), cfg, threads, 96 * 8 + 64);
    for i in 0..96 {
        rt.setup_write(i * 8, 1000);
    }
    rt
}

/// Single-threaded differential: the learned planner and the pinned declared
/// plan must commit the same transactions to the same final state, and the
/// pinned configuration must never merge or split.
#[test]
fn pinned_plan_commits_what_the_planner_commits() {
    let ops = 80;
    let rt_static = seeded_rt(planner_cfg(Some(1)), 1);
    let (state_static, stats_static) = run_incr::<PartHtm>(&rt_static, 1, ops);
    let rt_adaptive = seeded_rt(planner_cfg(None), 1);
    let (state_adaptive, stats_adaptive) = run_incr::<PartHtm>(&rt_adaptive, 1, ops);

    assert_eq!(state_static, state_adaptive);
    assert_eq!(state_static, vec![1000 + ops as u64; 96]);
    assert_eq!(stats_static.plan_merges, 0, "a pinned plan never merges");
    assert_eq!(stats_static.plan_splits, 0, "a pinned plan never splits");
    assert!(
        stats_adaptive.plan_merges > 0,
        "adaptive run on a clean workload must have merged"
    );
}

/// Capacity-limited and unmergeable: `hw` hardware segments of `per`
/// core-private counters each, every pair separated by a software segment,
/// and a counter both cores share in the last one. The whole transaction
/// (96 lines) overflows [`mid_htm`]'s 64-line budget, so the fast path dies of
/// capacity aborts and the site demotes; every segment fits on its own.
struct Interleaved {
    hw: usize,
    per: usize,
    base: Addr,
    shared: Addr,
}

impl Workload for Interleaved {
    type Snap = ();
    fn sample(&mut self, _r: &mut SmallRng) {}
    fn segments(&self) -> usize {
        2 * self.hw - 1
    }
    fn software_segment(&self, seg: usize) -> bool {
        seg % 2 == 1
    }
    fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
        if seg % 2 == 1 {
            return ctx.nt_work(20);
        }
        let k = seg / 2;
        for i in k * self.per..(k + 1) * self.per {
            let a = self.base + (i * 8) as Addr;
            let v = ctx.read(a)?;
            ctx.write(a, v + 1)?;
        }
        if k + 1 == self.hw {
            let v = ctx.read(self.shared)?;
            ctx.write(self.shared, v + 1)?;
        }
        Ok(())
    }
}

const CORES: usize = 2;
/// Core-private region stride, in counters.
const REGION: usize = 96;

fn interleaved_rt(plan_group: Option<u32>) -> TmRuntime {
    let cfg = TmConfig {
        plan_group,
        ..TmConfig::default()
    };
    TmRuntime::new(mid_htm(), cfg, CORES, (CORES + 1) * REGION * 8)
}

/// Run [`Interleaved`] on two virtual cores (20 transactions each, fixed
/// schedule); returns the merged protocol and hardware counters and the
/// makespan.
fn run_interleaved<'r, E: TmExecutor<'r>>(rt: &'r TmRuntime) -> (TmStats, HtmStats, u64) {
    let clock = VClock::new(
        CORES,
        SchedSpec {
            seed: 7,
            policy: SchedPolicy::Seeded,
            forced: Vec::new(),
        },
    );
    let mut tm = TmStats::default();
    let mut hw = HtmStats::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CORES)
            .map(|t| {
                let clock = &clock;
                s.spawn(move || {
                    let mut e = E::new(rt, t);
                    let mut w = Interleaved {
                        hw: 8,
                        per: 12,
                        base: rt.app(t * REGION * 8),
                        shared: rt.app(CORES * REGION * 8),
                    };
                    let guard = clock.attach(t);
                    for _ in 0..20 {
                        e.execute(&mut w);
                    }
                    drop(guard);
                    (e.thread().stats.clone(), e.thread().hw.stats.clone())
                })
            })
            .collect();
        for h in handles {
            let (t_tm, t_hw) = h.join().expect("worker panicked");
            tm.merge(&t_tm);
            hw.merge(&t_hw);
        }
    });
    assert_eq!(rt.verify_read(CORES * REGION * 8), 2 * 20, "shared counter");
    (tm, hw, clock.report().makespan)
}

/// With a longest mergeable run of 1 the learned planner has no merge to make
/// and no split to suffer, so it must be the pinned declared plan bit for bit:
/// same counters, same makespan. Demotion must have fired, or the test would
/// not be comparing the routing of a resource-limited site.
#[test]
fn unmergeable_shape_learns_nothing_the_pinned_plan_does_not() {
    for (pinned, learned) in [
        (
            run_interleaved::<PartHtm>(&interleaved_rt(Some(1))),
            run_interleaved::<PartHtm>(&interleaved_rt(None)),
        ),
        (
            run_interleaved::<PartHtmO>(&interleaved_rt(Some(1))),
            run_interleaved::<PartHtmO>(&interleaved_rt(None)),
        ),
    ] {
        assert_eq!(pinned, learned);
        let (tm, hw, _) = pinned;
        assert!(tm.site_demotions > 0, "the site never demoted");
        assert!(hw.aborts_capacity > 0, "the shape never overflowed");
        assert!(tm.commits_subhtm > 0, "no partitioned commit");
        assert_eq!(tm.plan_merges + tm.plan_splits, 0);
    }
}

/// Multithreaded stress, Part-HTM: merges and capacity splits both fire under
/// contention, and every committed increment lands exactly once.
#[test]
fn adaptive_preserves_serializability_part_htm() {
    let (threads, ops) = (4, 150);
    let rt = seeded_rt(planner_cfg(None), threads);
    let (state, stats) = run_incr::<PartHtm>(&rt, threads, ops);
    assert_eq!(state, vec![1000 + (threads * ops) as u64; 96]);
    assert!(stats.plan_merges > 0, "merge machinery never engaged");
    assert!(
        stats.plan_splits > 0,
        "group probing never overflowed the 64-line budget"
    );
}

/// Multithreaded stress, Part-HTM-O: the opaque executor shares the planner;
/// its in-flight validation discipline must survive merge/split too.
#[test]
fn adaptive_preserves_serializability_part_htm_o() {
    let (threads, ops) = (4, 150);
    let rt = seeded_rt(planner_cfg(None), threads);
    let (state, stats) = run_incr::<PartHtmO>(&rt, threads, ops);
    assert_eq!(state, vec![1000 + (threads * ops) as u64; 96]);
    assert!(stats.plan_merges > 0, "merge machinery never engaged");
}
