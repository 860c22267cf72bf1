//! Golden virtual-time pin for the competitor protocols.
//!
//! {NOrec, NOrecRH, SpHT, HTM-GL} × {fits-in-HTM, over-budget body with a
//! small write set, over-budget write set} on two simulated cores under a
//! fixed [`SchedSpec`]. Virtual-clock runs are bit-reproducible, so the
//! makespan and every counter below are exact: any change to *which*
//! simulated accesses a baseline performs, or in which order, moves at least
//! one of them. The rows were recorded before NOrecRH was rebuilt on NOrec's
//! software path and before the baselines' hardware attempts went through
//! the shared attempt code, and must survive that (and any later
//! behaviour-preserving) refactor unchanged.

use htm_sim::abort::TxResult;
use htm_sim::vclock::{SchedPolicy, SchedSpec, VClock};
use htm_sim::{Addr, HtmConfig, HtmStats};
use part_htm_core::{TmConfig, TmExecutor, TmRuntime, TmStats, TxCtx, Workload};
use rand::rngs::SmallRng;
use tm_baselines::{HtmGl, NOrec, NOrecRh, SpHt};

const CORES: usize = 2;
const TXS_PER_CORE: usize = 12;

/// Read `reads` core-private counters on distinct lines in `segs` segments,
/// incrementing the first `writes` of them, then increment one counter both
/// cores share.
struct Shape {
    reads: usize,
    writes: usize,
    segs: usize,
    base: Addr,
    shared: Addr,
}

impl Workload for Shape {
    type Snap = ();
    fn sample(&mut self, _rng: &mut SmallRng) {}
    fn segments(&self) -> usize {
        self.segs
    }
    fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
        let per = self.reads / self.segs;
        for i in seg * per..(seg + 1) * per {
            let a = self.base + (i * 8) as Addr;
            let v = ctx.read(a)?;
            if i < self.writes {
                ctx.write(a, v + 1)?;
            }
        }
        if seg + 1 == self.segs {
            let v = ctx.read(self.shared)?;
            ctx.write(self.shared, v + 1)?;
        }
        Ok(())
    }
}

/// What one scenario pins for one protocol.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    makespan: u64,
    /// Commits on (Htm, SubHtm, Stm, GlobalLock).
    commits: [u64; 4],
    /// Hardware aborts by (conflict, capacity, explicit, timer, interrupt).
    hw_aborts: [u64; 5],
    fast_aborts: u64,
    sub_aborts: u64,
    global_aborts: u64,
}

/// Positional constructor, in field order, to keep the recorded rows compact.
fn golden(
    makespan: u64,
    commits: [u64; 4],
    hw_aborts: [u64; 5],
    fast_aborts: u64,
    sub_aborts: u64,
    global_aborts: u64,
) -> Golden {
    Golden {
        makespan,
        commits,
        hw_aborts,
        fast_aborts,
        sub_aborts,
        global_aborts,
    }
}

/// Mid-size HTM: 16 sets × 4 ways = 64 written lines and 64 read lines. A
/// 96-line body overflows either budget; a 9-line write-back plus the
/// sequence lock fits.
fn mid_htm() -> HtmConfig {
    HtmConfig {
        l1_sets: 16,
        l1_ways: 4,
        read_lines_max: 64,
        quantum: 100_000,
        ..HtmConfig::default()
    }
}

/// Core-private region stride, in counters (the largest `reads` any shape uses).
const REGION: usize = 96;

/// Run `TXS_PER_CORE` transactions of shape `(reads, writes, segs)` on each core.
fn run<'r, E: TmExecutor<'r>>(rt: &'r TmRuntime, shape: (usize, usize, usize)) -> Golden {
    let spec = SchedSpec {
        seed: 14,
        policy: SchedPolicy::Seeded,
        forced: Vec::new(),
    };
    let clock = VClock::new(CORES, spec);
    let mut tm = TmStats::default();
    let mut hw = HtmStats::default();
    let (reads, writes, segs) = shape;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CORES)
            .map(|t| {
                let clock = &clock;
                s.spawn(move || {
                    let mut e = E::new(rt, t);
                    let mut w = Shape {
                        reads,
                        writes,
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
    for t in 0..CORES {
        for i in 0..reads {
            let want = if i < writes { TXS_PER_CORE as u64 } else { 0 };
            assert_eq!(
                rt.verify_read((t * REGION + i) * 8),
                want,
                "core {t} counter {i}"
            );
        }
    }
    assert_eq!(
        rt.verify_read(CORES * REGION * 8),
        (CORES * TXS_PER_CORE) as u64,
        "shared counter"
    );
    assert_eq!(
        rt.system().nt_read(rt.seqlock()) & 1,
        0,
        "sequence lock released"
    );
    assert_eq!(rt.system().nt_read(rt.gate()), 0, "gate released");
    assert_eq!(rt.system().live_line_entries(), 0);
    Golden {
        makespan: clock.report().makespan,
        commits: [
            tm.commits_htm,
            tm.commits_subhtm,
            tm.commits_stm,
            tm.commits_gl,
        ],
        hw_aborts: [
            hw.aborts_conflict,
            hw.aborts_capacity,
            hw.aborts_explicit,
            hw.aborts_timer,
            hw.aborts_interrupt,
        ],
        fast_aborts: tm.fast_aborts,
        sub_aborts: tm.sub_aborts,
        global_aborts: tm.global_aborts,
    }
}

/// The recorded rows of one shape, one per protocol.
struct Rows {
    norec: Golden,
    norec_rh: Golden,
    spht: Golden,
    htm_gl: Golden,
}

/// Run `shape` under every protocol and compare with the recorded rows.
fn check(shape: (usize, usize, usize), want: Rows) {
    let rt = || TmRuntime::new(mid_htm(), TmConfig::default(), CORES, 2048);
    assert_eq!(run::<NOrec>(&rt(), shape), want.norec, "NOrec");
    assert_eq!(run::<NOrecRh>(&rt(), shape), want.norec_rh, "NOrecRH");
    assert_eq!(run::<SpHt>(&rt(), shape), want.spht, "SpHT");
    assert_eq!(run::<HtmGl>(&rt(), shape), want.htm_gl, "HTM-GL");
}

/// Four counters and the shared one: every hybrid commits in hardware.
#[test]
fn fits_in_htm() {
    check(
        (4, 4, 1),
        Rows {
            norec: golden(391, [0, 0, 24, 0], [0, 0, 0, 0, 0], 0, 0, 0),
            norec_rh: golden(305, [24, 0, 0, 0], [18, 0, 0, 0, 0], 18, 0, 0),
            spht: golden(156, [24, 0, 0, 0], [2, 0, 0, 0, 0], 2, 0, 0),
            htm_gl: golden(156, [24, 0, 0, 0], [2, 0, 0, 0, 0], 2, 0, 0),
        },
    );
}

/// 96 read lines overflow the read budget, but the 9 written counters fit
/// NOrecRH's reduced hardware commit: its one capacity abort per transaction
/// is the pure-hardware attempt's, and every reduced commit lands.
#[test]
fn over_budget_body_with_a_small_write_set() {
    check(
        (96, 8, 8),
        Rows {
            norec: golden(3614, [0, 0, 24, 0], [0, 0, 0, 0, 0], 0, 0, 0),
            norec_rh: golden(4271, [0, 0, 24, 0], [1, 24, 0, 0, 0], 24, 0, 0),
            spht: golden(10443, [0, 0, 0, 24], [9, 48, 88, 0, 0], 26, 119, 43),
            htm_gl: golden(3832, [0, 0, 0, 24], [9, 23, 4, 0, 0], 36, 0, 0),
        },
    );
}

/// 97 written lines overflow the write budget, so NOrecRH's reduced commit
/// overflows too (its second capacity abort per transaction) and takes the
/// software-commit fallback.
#[test]
fn over_budget_write_set() {
    check(
        (96, 96, 8),
        Rows {
            norec: golden(5725, [0, 0, 24, 0], [0, 0, 0, 0, 0], 0, 0, 0),
            norec_rh: golden(9087, [0, 0, 24, 0], [12, 48, 0, 0, 0], 30, 0, 0),
            spht: golden(21301, [0, 0, 0, 24], [20, 48, 77, 0, 0], 26, 119, 43),
            htm_gl: golden(6752, [0, 0, 0, 24], [12, 23, 4, 0, 0], 39, 0, 0),
        },
    );
}
