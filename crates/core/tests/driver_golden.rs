//! Golden virtual-time pin for the three-path driver.
//!
//! {Part-HTM, Part-HTM-O} × {fits-in-HTM, capacity-limited multi-segment,
//! oversize-segment → global lock} on two simulated cores under a fixed
//! [`SchedSpec`]. Virtual-clock runs are bit-reproducible, so the makespan and
//! every counter below are exact: any change to *which* simulated accesses the
//! executors perform, or in which order, moves at least one of them. The
//! constants were recorded before `PartHtm`/`PartHtmO` were folded into one
//! generic executor and must survive that (and any later behaviour-preserving)
//! refactor unchanged.

use htm_sim::abort::TxResult;
use htm_sim::vclock::{SchedPolicy, SchedSpec, VClock};
use htm_sim::{Addr, HtmConfig, HtmStats};
use part_htm_core::{PartHtm, PartHtmO, TmConfig, TmExecutor, TmRuntime, TmStats, TxCtx, Workload};
use rand::rngs::SmallRng;

const CORES: usize = 2;
const TXS_PER_CORE: usize = 12;

/// Increment `n` core-private counters on distinct lines in `segs` segments,
/// then one counter both cores share: enough contention to exercise retries,
/// sub-HTM aborts and validation, not so much that everything ends on the lock.
struct Incr {
    n: usize,
    segs: usize,
    base: Addr,
    shared: Addr,
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
            ctx.write(a, v + 1)?;
        }
        if seg + 1 == self.segs {
            let v = ctx.read(self.shared)?;
            ctx.write(self.shared, v + 1)?;
        }
        Ok(())
    }
}

/// What one scenario pins for one variant.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    makespan: u64,
    /// Commits on (Htm, SubHtm, GlobalLock).
    commits: [u64; 3],
    /// Hardware aborts by (conflict, capacity, explicit, timer, interrupt).
    hw_aborts: [u64; 5],
    sub_aborts: u64,
    global_aborts: u64,
    /// Total ring publishes over all shards.
    shard_publishes: u64,
}

/// Mid-size HTM: 16 sets × 4 ways = 64 written lines — a 12-line segment plus
/// the protocol metadata fits, the whole 96-line transaction does not.
fn mid_htm() -> HtmConfig {
    HtmConfig {
        l1_sets: 16,
        l1_ways: 4,
        quantum: 100_000,
        ..HtmConfig::default()
    }
}

fn rt(htm: HtmConfig) -> TmRuntime {
    TmRuntime::new(htm, TmConfig::default(), CORES, 2048)
}

/// Core-private region stride, in counters (the largest `n` any shape uses).
const REGION: usize = 96;

/// Run `TXS_PER_CORE` transactions of shape `shapes[t] = (n, segs)` on core `t`.
fn run<'r, E: TmExecutor<'r>>(rt: &'r TmRuntime, shapes: [(usize, usize); CORES]) -> Golden {
    let spec = SchedSpec {
        seed: 14,
        policy: SchedPolicy::Seeded,
        forced: Vec::new(),
    };
    let clock = VClock::new(CORES, spec);
    let mut tm = TmStats::default();
    let mut hw = HtmStats::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CORES)
            .map(|t| {
                let clock = &clock;
                s.spawn(move || {
                    let mut e = E::new(rt, t);
                    let (n, segs) = shapes[t];
                    let mut w = Incr {
                        n,
                        segs,
                        base: rt.app(t * REGION * 8),
                        shared: rt.app(CORES * REGION * 8),
                    };
                    let guard = clock.attach(t);
                    for _ in 0..TXS_PER_CORE {
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
    for (t, &(n, _)) in shapes.iter().enumerate() {
        for i in 0..n {
            let got = rt.verify_read((t * REGION + i) * 8);
            assert_eq!(got, TXS_PER_CORE as u64, "core {t} counter {i}");
        }
    }
    assert_eq!(
        rt.verify_read(CORES * REGION * 8),
        (CORES * TXS_PER_CORE) as u64,
        "shared counter"
    );
    assert_eq!(rt.system().nt_read(rt.glock()), 0);
    assert_eq!(rt.system().nt_read(rt.active_tx()), 0);
    assert_eq!(rt.system().live_line_entries(), 0);
    Golden {
        makespan: clock.report().makespan,
        commits: [tm.commits_htm, tm.commits_subhtm, tm.commits_gl],
        hw_aborts: [
            hw.aborts_conflict,
            hw.aborts_capacity,
            hw.aborts_explicit,
            hw.aborts_timer,
            hw.aborts_interrupt,
        ],
        sub_aborts: tm.sub_aborts,
        global_aborts: tm.global_aborts,
        shard_publishes: tm.shard_publishes.iter().sum(),
    }
}

/// Positional constructor, in field order, to keep the recorded rows compact.
fn golden(
    makespan: u64,
    commits: [u64; 3],
    hw_aborts: [u64; 5],
    sub_aborts: u64,
    global_aborts: u64,
    shard_publishes: u64,
) -> Golden {
    Golden {
        makespan,
        commits,
        hw_aborts,
        sub_aborts,
        global_aborts,
        shard_publishes,
    }
}

/// Run `shapes` under both variants and compare with the recorded rows.
fn check(htm: fn() -> HtmConfig, shapes: [(usize, usize); CORES], s: Golden, o: Golden) {
    assert_eq!(run::<PartHtm>(&rt(htm()), shapes), s, "Part-HTM");
    assert_eq!(run::<PartHtmO>(&rt(htm()), shapes), o, "Part-HTM-O");
}

/// 100 % fast path; nothing is ever partitioned, so both variants take the same
/// quiet (uninstrumented) attempts.
#[test]
fn fits_in_htm() {
    check(
        HtmConfig::default,
        [(4, 1); CORES],
        golden(336, [24, 0, 0], [20, 0, 0, 0, 0], 0, 0, 0),
        golden(336, [24, 0, 0], [20, 0, 0, 0, 0], 0, 0, 0),
    );
}

/// The partitioned path: sub-HTM retries, in-flight validation, global aborts.
///
/// The Part-HTM row was re-recorded deliberately by ISSUE 18 (sub-HTM retry
/// backoff + doom re-check after a scheduler hand-off): the two cores no longer
/// re-collide in lockstep on the shared counter's write-locks line. It was
/// `golden(30156, [0, 23, 1], [129, 6, 0, 0, 0], 130, 23, 184)`; the other
/// seven rows of this file did not move.
///
/// Both rows were re-recorded deliberately again when the planner's adaptive
/// retry budgets were deleted (retries are the paper's constants again). They
/// were `golden(26461, [0, 24, 0], [88, 6, 0, 0, 0], 89, 6, 192)` (Part-HTM)
/// and `golden(15692, [0, 24, 0], [24, 7, 22, 0, 0], 48, 5, 192)`
/// (Part-HTM-O); the other six rows of this file did not move. At 12
/// transactions per core the row is schedule noise, not a cost: over seeds
/// 14, 1, 2 and 3 at 400 transactions per core the makespan rose 0.4 %
/// (Part-HTM) and 3.6 % (Part-HTM-O) on average.
#[test]
fn capacity_limited_multi_segment() {
    check(
        mid_htm,
        [(96, 8); CORES],
        golden(29569, [0, 24, 0], [97, 6, 1, 0, 0], 99, 10, 192),
        golden(15679, [0, 24, 0], [24, 7, 22, 0, 0], 48, 4, 192),
    );
}

/// Partitioning cannot help a segment that overflows on its own: every
/// transaction takes exactly one global abort — its first sub-HTM capacity
/// abort of a single declared segment — and then the global lock.
///
/// Both rows were re-recorded deliberately when a one-segment capacity abort
/// became terminal (no sub-HTM retry, no further global attempt). They were
/// `golden(25226, [0, 0, 24], [0, 145, 0, 0, 0], 139, 120, 0)` (Part-HTM) and
/// `golden(26258, [0, 0, 24], [0, 145, 1, 0, 0], 139, 120, 0)` (Part-HTM-O),
/// when every transaction spent all five partitioned attempts; the other six
/// rows of this file did not move.
#[test]
fn oversize_segment_takes_the_global_lock() {
    check(
        mid_htm,
        [(96, 2); CORES],
        golden(8620, [0, 0, 24], [0, 30, 1, 0, 0], 24, 24, 0),
        golden(8810, [0, 0, 24], [0, 30, 1, 0, 0], 24, 24, 0),
    );
}

/// Core 0 runs the capacity-limited shape (partitioned path), core 1 the small
/// one: with `active_tx != 0` most of the time, core 1 takes the *instrumented*
/// fast path (signatures, lock check, ring publish) rather than the quiet one.
#[test]
fn fast_path_beside_a_partitioned_peer() {
    check(
        mid_htm,
        [(96, 8), (4, 1)],
        golden(13873, [12, 12, 0], [1, 8, 0, 0, 0], 2, 0, 108),
        golden(13267, [11, 12, 1], [9, 8, 0, 0, 0], 6, 0, 96),
    );
}
