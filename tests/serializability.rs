//! Cross-crate serializability tests: conserved-quantity invariants under every
//! executor, thread count, and HTM geometry.

use part_htm::core::{PartHtm, PartHtmO, TmConfig, TmExecutor, TmRuntime, TxCtx, Workload};
use part_htm::harness::{run_cell_with, run_threads_virtual, Algo, RunResult};
use part_htm::htm::abort::TxResult;
use part_htm::htm::{Addr, HtmConfig, SchedSpec};
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
/// it and the global-abort/undo machinery is exercised).
struct Transfer {
    bank: Bank,
    from: usize,
    to: usize,
    amount: u64,
    moved: u64,
}

impl Workload for Transfer {
    type Snap = u64;

    fn sample(&mut self, rng: &mut SmallRng) {
        self.from = rng.gen_range(0..ACCOUNTS);
        self.to = (self.from + rng.gen_range(1..ACCOUNTS)) % ACCOUNTS;
        self.amount = rng.gen_range(1..40);
    }

    fn segments(&self) -> usize {
        2
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
            ctx.write(a, v - self.moved)?;
        } else {
            let a = self.bank.base + (self.to * self.bank.stride) as Addr;
            let v = ctx.read(a)?;
            ctx.write(a, v + self.moved)?;
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
    // stay exact, and no lock bit, line entry or `active_tx` count may leak.
    let tm = TmConfig {
        skip_fast: true,
        ..TmConfig::default()
    };
    for algo in [Algo::PartHtm, Algo::PartHtmO] {
        let (r, (total, locks_released, active_tx, live_lines)) = run_cell_with(
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
                    rt.system().nt_read(rt.active_tx()),
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
        assert_eq!(active_tx, 0, "{}: active_tx leaked", r.algo);
        assert_eq!(live_lines, 0, "{}: a line-table entry leaked", r.algo);
    }
}

/// Accounts of the summary-reset workload, one cache line each. Account `i`
/// sits in L1 set `(base line + i) % 64`, so the 32 accounts with equal
/// `i % 64` share one set of the default 8-way geometry.
const SCATTER_ACCOUNTS: usize = 2048;
const SCATTER_SETS: usize = 64;
/// Accounts one transaction writes, all in one L1 set: more than its eight
/// ways, so the fast path overflows and the partitioned path's software
/// commit (where summary density is policed) runs.
const SCATTER_WRITES: usize = 12;

/// Balances live modulo 2^62 (application values must fit in 63 bits).
const SCATTER_MOD: u64 = 1 << 62;

/// Adds one random delta to each of `SCATTER_WRITES` accounts of one L1 set,
/// one account per segment; the deltas sum to zero modulo `SCATTER_MOD`, so
/// the sum of all accounts modulo `SCATTER_MOD` is conserved.
struct Scatter {
    base: Addr,
    accounts: [usize; SCATTER_WRITES],
    deltas: [u64; SCATTER_WRITES],
}

impl Workload for Scatter {
    type Snap = ();

    fn sample(&mut self, rng: &mut SmallRng) {
        let set = rng.gen_range(0..SCATTER_SETS);
        let per_set = SCATTER_ACCOUNTS / SCATTER_SETS;
        let mut picked = 0u64;
        for k in 0..SCATTER_WRITES {
            let mut j = rng.gen_range(0..per_set);
            while picked & (1 << j) != 0 {
                j = (j + 1) % per_set;
            }
            picked |= 1 << j;
            self.accounts[k] = set + j * SCATTER_SETS;
        }
        let mut sum = 0u64;
        for d in &mut self.deltas[..SCATTER_WRITES - 1] {
            *d = rng.gen_range(0..SCATTER_MOD);
            sum = (sum + *d) % SCATTER_MOD;
        }
        self.deltas[SCATTER_WRITES - 1] = (SCATTER_MOD - sum) % SCATTER_MOD;
    }

    fn segments(&self) -> usize {
        SCATTER_WRITES
    }

    fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
        let a = self.base + (self.accounts[seg] * 8) as Addr;
        let v = ctx.read(a)?;
        ctx.write(a, (v + self.deltas[seg]) % SCATTER_MOD)
    }
}

/// Two rounds of the scatter workload on one runtime, 2 virtual cores.
fn scatter_rounds<'r, E: TmExecutor<'r>>(rt: &'r TmRuntime, ops: usize) -> [RunResult; 2] {
    let scatter = |_t| Scatter {
        base: rt.app(0),
        accounts: [0; SCATTER_WRITES],
        deltas: [0; SCATTER_WRITES],
    };
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
