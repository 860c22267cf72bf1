//! Cross-crate serializability tests: conserved-quantity invariants under every
//! executor, thread count, and HTM geometry.

use part_htm::baselines::{HtmGl, SpHt};
use part_htm::core::{PartHtm, PartHtmO, TmConfig, TmExecutor, TmRuntime, TxCtx, Workload};
use part_htm::harness::{run_cell_with, run_threads, run_threads_virtual, Algo, RunResult};
use part_htm::htm::abort::TxResult;
use part_htm::htm::{Addr, HtmConfig, SchedPolicy, SchedSpec};
use part_htm::workloads::micro::{Scatter, SCATTER_ACCOUNTS, SCATTER_MOD};
use rand::rngs::SmallRng;
use rand::Rng;

const ACCOUNTS: usize = 16;
const INITIAL: u64 = 500;

#[derive(Clone, Copy)]
struct Bank {
    base: Addr,
    /// Words from one account to the next: 8 gives each account a cache line
    /// of its own, 1 packs eight accounts into a line.
    stride: usize,
}

/// Transfer between two accounts, in two segments (so the partitioned path splits
/// it and the global-abort/undo machinery is exercised) or in one.
struct Transfer {
    bank: Bank,
    from: usize,
    to: usize,
    amount: u64,
    moved: u64,
    segs: usize,
    /// Work units spent between each account's read and its write.
    work: u64,
    /// The planner site: transfers with different resource appetites keep
    /// separate abort profiles.
    site: u32,
}

impl Workload for Transfer {
    type Snap = u64;

    fn sample(&mut self, rng: &mut SmallRng) {
        self.from = rng.gen_range(0..ACCOUNTS);
        self.to = (self.from + rng.gen_range(1..ACCOUNTS)) % ACCOUNTS;
        self.amount = rng.gen_range(1..40);
    }

    fn segments(&self) -> usize {
        self.segs
    }

    fn site(&self) -> u32 {
        self.site
    }

    fn snapshot(&self) -> u64 {
        self.moved
    }

    fn restore(&mut self, s: u64) {
        self.moved = s;
    }

    fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
        if seg == 0 {
            let a = self.bank.base + (self.from * self.bank.stride) as Addr;
            let v = ctx.read(a)?;
            self.moved = self.amount.min(v);
            self.spend(ctx)?;
            ctx.write(a, v - self.moved)?;
        }
        if seg == 1 || self.segs == 1 {
            let a = self.bank.base + (self.to * self.bank.stride) as Addr;
            let v = ctx.read(a)?;
            self.spend(ctx)?;
            ctx.write(a, v + self.moved)?;
        }
        Ok(())
    }
}

impl Transfer {
    fn spend<C: TxCtx>(&self, ctx: &mut C) -> TxResult<()> {
        if self.work > 0 {
            ctx.work(self.work)?;
        }
        Ok(())
    }
}

fn transfer(bank: Bank, _thread: usize) -> Transfer {
    Transfer {
        bank,
        from: 0,
        to: 1,
        amount: 0,
        moved: 0,
        segs: 2,
        work: 0,
        site: 0,
    }
}

fn conserved_total_under(algo: Algo, threads: usize, htm: HtmConfig, tm: TmConfig) {
    let (r, total) = run_cell_with(
        algo,
        threads,
        300,
        htm,
        tm,
        ACCOUNTS * 8,
        |rt| {
            for i in 0..ACCOUNTS {
                rt.setup_write(i * 8, INITIAL);
            }
            Bank {
                base: rt.app(0),
                stride: 8,
            }
        },
        transfer,
        |rt, _bank| (0..ACCOUNTS).map(|i| rt.verify_read(i * 8)).sum::<u64>(),
    );
    assert_eq!(
        total,
        (ACCOUNTS as u64) * INITIAL,
        "{} at {threads} threads lost or created money",
        r.algo
    );
    assert_eq!(r.commits, (threads * 300) as u64);
}

#[test]
fn every_algo_conserves_money_default_geometry() {
    for algo in Algo::COMPETITORS {
        for threads in [1, 2, 4] {
            conserved_total_under(algo, threads, HtmConfig::default(), TmConfig::default());
        }
    }
}

#[test]
fn part_htm_conserves_money_under_tiny_capacity() {
    // 16 sets x 2 ways: even two-account transfers plus metadata stress capacity,
    // forcing heavy partitioned-path and slow-path traffic.
    let htm = HtmConfig {
        l1_sets: 16,
        l1_ways: 2,
        ..HtmConfig::default()
    };
    for algo in [Algo::PartHtm, Algo::PartHtmO, Algo::HtmGl, Algo::NOrecRh] {
        conserved_total_under(algo, 4, htm.clone(), TmConfig::default());
    }
}

#[test]
fn part_htm_conserves_money_under_tiny_quantum() {
    let htm = HtmConfig {
        quantum: 300,
        ..HtmConfig::default()
    };
    for algo in [Algo::PartHtm, Algo::PartHtmO] {
        conserved_total_under(algo, 4, htm.clone(), TmConfig::default());
    }
}

#[test]
fn part_htm_conserves_money_without_fast_path() {
    conserved_total_under(
        Algo::PartHtmNoFast,
        4,
        HtmConfig::default(),
        TmConfig::default(),
    );
}

#[test]
fn part_htm_conserves_money_with_minimal_validation() {
    // Ablation knob: in-flight validation only before commit.
    let tm = TmConfig {
        validate_every_sub: false,
        skip_fast: true,
        ..TmConfig::default()
    };
    for algo in [Algo::PartHtm, Algo::PartHtmO] {
        conserved_total_under(algo, 4, HtmConfig::default(), tm.clone());
    }
}

#[test]
fn part_htm_conserves_money_with_tiny_ring() {
    // A 16-entry ring forces frequent rollover aborts; correctness must survive.
    let tm = TmConfig {
        ring_entries: 16,
        skip_fast: true,
        ..TmConfig::default()
    };
    for algo in [Algo::PartHtm, Algo::PartHtmO, Algo::RingStm] {
        conserved_total_under(algo, 4, HtmConfig::default(), tm.clone());
    }
}

#[test]
fn part_htm_conserves_money_with_small_signatures() {
    // 512-bit signatures collide often: more false conflicts, same correctness.
    let tm = TmConfig {
        sig_spec: part_htm::sig::SigSpec::new(512),
        skip_fast: true,
        ..TmConfig::default()
    };
    for algo in [Algo::PartHtm, Algo::RingStm] {
        conserved_total_under(algo, 4, HtmConfig::default(), tm.clone());
    }
}

#[test]
fn adjacent_word_partitioned_writers_conserve_money() {
    // Accounts one word apart: sixteen of them fill two cache lines, and
    // signatures are keyed on the line, so two threads' partitioned writers
    // on neighbouring accounts contend on one write-lock bit. The total must
    // stay exact, and no lock bit, line entry or gate count may leak.
    let tm = TmConfig {
        skip_fast: true,
        ..TmConfig::default()
    };
    for algo in [Algo::PartHtm, Algo::PartHtmO] {
        let (r, (total, locks_released, gate, live_lines)) = run_cell_with(
            algo,
            2,
            1_000,
            HtmConfig::default(),
            tm.clone(),
            ACCOUNTS,
            |rt| {
                for i in 0..ACCOUNTS {
                    rt.setup_write(i, INITIAL);
                }
                Bank {
                    base: rt.app(0),
                    stride: 1,
                }
            },
            transfer,
            |rt, _bank| {
                let th = rt.system().thread(0);
                (
                    (0..ACCOUNTS).map(|i| rt.verify_read(i)).sum::<u64>(),
                    rt.write_locks().snapshot_nt(&th).is_empty(),
                    rt.system().nt_read(rt.gate()),
                    rt.system().live_line_entries(),
                )
            },
        );
        assert_eq!(
            total,
            (ACCOUNTS as u64) * INITIAL,
            "{} lost or created money",
            r.algo
        );
        assert_eq!(r.commits, 2_000);
        assert!(
            r.tm.commits_subhtm > 0,
            "{}: the partitioned path ran",
            r.algo
        );
        assert!(locks_released, "{}: a write-lock bit leaked", r.algo);
        assert_eq!(gate, 0, "{}: gate leaked", r.algo);
        assert_eq!(live_lines, 0, "{}: a line-table entry leaked", r.algo);
    }
}

/// Two rounds of the scatter workload on one runtime, 2 virtual cores.
fn scatter_rounds<'r, E: TmExecutor<'r>>(rt: &'r TmRuntime, ops: usize) -> [RunResult; 2] {
    let scatter = |_t| Scatter::new(rt.app(0));
    [1, 2].map(|seed| {
        let spec = SchedSpec {
            seed,
            ..SchedSpec::default()
        };
        run_threads_virtual::<E, _, _>(rt, 2, ops, spec, scatter).0
    })
}

#[test]
fn summary_resets_at_production_tuning_conserve_money() {
    // Default `TmConfig`: a density check every 256 publishes per shard and a
    // reset past 1/3 of a shard's 256 live bits. Twelve fresh lines per commit
    // over 2048 accounts cross that threshold within a few hundred commits.
    for algo in [Algo::PartHtm, Algo::PartHtmO] {
        let rt = TmRuntime::new(
            HtmConfig::default(),
            TmConfig::default(),
            2,
            SCATTER_ACCOUNTS * 8,
        );
        for i in 0..SCATTER_ACCOUNTS {
            rt.setup_write(i * 8, INITIAL);
        }
        let [before, after] = match algo {
            Algo::PartHtm => scatter_rounds::<PartHtm>(&rt, 300),
            _ => scatter_rounds::<PartHtmO>(&rt, 300),
        };
        let name = before.algo;
        let total = (0..SCATTER_ACCOUNTS)
            .map(|i| rt.verify_read(i * 8))
            .fold(0, |acc, v| (acc + v) % SCATTER_MOD);
        assert_eq!(
            total,
            SCATTER_ACCOUNTS as u64 * INITIAL,
            "{name} lost or created money"
        );
        assert_eq!(before.commits + after.commits, 1_200);
        assert!(
            before.tm.commits_subhtm > 0,
            "{name}: the partitioned path ran"
        );
        assert!(
            before.tm.summary_resets > 0,
            "{name}: no summary reset at production tuning ({:?})",
            before.tm
        );
        assert!(
            after.tm.val_fast_hits > 0,
            "{name}: no fast pass hit after a reset ({:?})",
            after.tm
        );
    }
}

/// Quantum of the lock-holder workload's HTM: a few hundred work units.
const MIXED_QUANTUM: u64 = 200;

/// A transfer with a role: thread `t % 4` picks how its transactions end.
/// - 0: one segment that outruns the quantum — nothing to split, so it
///   commits under the global lock (every executor);
/// - 1 and 2: two segments that fit the quantum apart but not together — the
///   partitioned path (Part-HTM, SpHT's split path; HTM-GL takes the lock);
/// - 3: plain transfers — quiet fast path, or instrumented while a
///   partitioned transaction is in flight.
///
/// The work sits between each account's read and its write, so a lock holder
/// that raced a live transaction would overwrite, or be overwritten by, a
/// stale value. Each role is its own planner site: sharing one, the
/// over-quantum roles' resource failures demote role 3's fitting transfers
/// and send them to the partitioned path instead of the instrumented attempt.
fn mixed(bank: Bank, thread: usize) -> Transfer {
    let (segs, work) = match thread % 4 {
        0 => (1, MIXED_QUANTUM),
        1 | 2 => (2, MIXED_QUANTUM * 11 / 20),
        _ => (2, 0),
    };
    Transfer {
        segs,
        work,
        site: (thread % 4) as u32,
        ..transfer(bank, thread)
    }
}

/// Run the mixed workload under `E` on OS threads (`spec` `None`) or virtual
/// cores, then check the total, that every path the executor has ran, and that
/// no lock, counter or line-table entry leaked.
fn mixed_conserves_money<'r, E: TmExecutor<'r>>(
    rt: &'r TmRuntime,
    spec: Option<SchedSpec>,
    partitions: bool,
) {
    const THREADS: usize = 4;
    const OPS: usize = 150;
    for i in 0..ACCOUNTS {
        rt.setup_write(i * 8, INITIAL);
    }
    let bank = Bank {
        base: rt.app(0),
        stride: 8,
    };
    let factory = |t| mixed(bank, t);
    let clock = if spec.is_some() { "virtual" } else { "OS threads" };
    let r = match spec {
        None => run_threads::<E, _, _>(rt, THREADS, OPS, factory),
        Some(spec) => run_threads_virtual::<E, _, _>(rt, THREADS, OPS, spec, factory).0,
    };
    let total: u64 = (0..ACCOUNTS).map(|i| rt.verify_read(i * 8)).sum();
    // Every failure prints the run's counters, so a rare OS-thread failure
    // says which paths the run took.
    let counters = format!("\n  tm {:?}\n  hw {:?}", r.tm, r.hw);
    assert_eq!(
        total,
        ACCOUNTS as u64 * INITIAL,
        "{} ({clock}) lost or created money{counters}",
        r.algo
    );
    assert_eq!(r.commits, (THREADS * OPS) as u64, "{}{counters}", r.algo);
    assert!(r.tm.commits_gl > 0, "{} ({clock}): no lock commit{counters}", r.algo);
    assert!(r.tm.commits_htm > 0, "{} ({clock}): no fast commit{counters}", r.algo);
    assert_eq!(
        r.tm.commits_subhtm > 0,
        partitions,
        "{} ({clock}): partitioned commits {}{counters}",
        r.algo,
        r.tm.commits_subhtm
    );
    let sys = rt.system();
    assert_eq!(sys.nt_read(rt.gate()), 0, "{}: gate leaked{counters}", r.algo);
    assert_eq!(
        sys.live_line_entries(),
        0,
        "{} ({clock}): a line-table entry leaked{counters}",
        r.algo
    );
}

#[test]
fn lock_holders_beside_quiet_instrumented_and_partitioned_traffic_conserve_money() {
    // Lock commits run in the lock holder's context (plain heap accesses):
    // every hardware transaction that could race one subscribed the lock or
    // drained out of the partitioned path first. A holder that skips the
    // drain loses money on OS threads and under both seeded schedules.
    let htm = HtmConfig {
        quantum: MIXED_QUANTUM,
        ..HtmConfig::default()
    };
    let seeded = |seed| SchedSpec {
        seed,
        policy: SchedPolicy::Seeded,
        forced: Vec::new(),
    };
    for spec in [None, Some(seeded(2)), Some(seeded(7))] {
        let rt = || TmRuntime::new(htm.clone(), TmConfig::default(), 4, ACCOUNTS * 8);
        mixed_conserves_money::<PartHtm>(&rt(), spec.clone(), true);
        mixed_conserves_money::<PartHtmO>(&rt(), spec.clone(), true);
        mixed_conserves_money::<HtmGl>(&rt(), spec.clone(), false);
        mixed_conserves_money::<SpHt>(&rt(), spec, true);
    }
}
