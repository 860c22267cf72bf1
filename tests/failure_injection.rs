//! Failure injection: every protocol must stay serializable when the simulated
//! hardware fires random asynchronous interrupts (on every capacity backend),
//! shrinks its caches, or both.
//! These runs push every fallback path hard (retries, partitioned-path aborts,
//! undo-log restores, global-lock rescues). A workload that panics while it
//! holds the global lock must fail its own thread only.

use part_htm::core::{PartHtm, PartHtmO, TmConfig, TmExecutor, TmRuntime, TxCtx, Workload};
use part_htm::harness::{run_cell_with, Algo};
use part_htm::htm::abort::TxResult;
use part_htm::htm::{Addr, BackendKind, HtmConfig};
use rand::rngs::SmallRng;
use rand::Rng;

const COUNTERS: usize = 12;

/// Random multi-counter increments in 3 segments; the oracle is the conserved sum.
struct Chaos {
    base: Addr,
    picks: [usize; 6],
}

impl Workload for Chaos {
    type Snap = ();
    fn sample(&mut self, rng: &mut SmallRng) {
        for p in &mut self.picks {
            *p = rng.gen_range(0..COUNTERS);
        }
    }
    fn segments(&self) -> usize {
        3
    }
    fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
        for &p in &self.picks[seg * 2..seg * 2 + 2] {
            let a = self.base + (p * 8) as Addr;
            let v = ctx.read(a)?;
            ctx.work(3)?;
            ctx.write(a, v + 1)?;
        }
        Ok(())
    }
}

fn total_increments_exact(algo: Algo, htm: HtmConfig) {
    const THREADS: usize = 3;
    const OPS: usize = 150;
    let (r, total) = run_cell_with(
        algo,
        THREADS,
        OPS,
        htm,
        TmConfig::default(),
        COUNTERS * 8,
        |rt| rt.app(0),
        |base, _t| Chaos { base, picks: [0; 6] },
        |rt, _| (0..COUNTERS).map(|i| rt.verify_read(i * 8)).sum::<u64>(),
    );
    assert_eq!(r.commits, (THREADS * OPS) as u64, "{}", r.algo);
    assert_eq!(
        total,
        (THREADS * OPS * 6) as u64,
        "{}: increments lost or duplicated under failure injection",
        r.algo
    );
}

#[test]
fn every_protocol_survives_random_interrupts() {
    let htm = HtmConfig { interrupt_prob: 0.01, ..HtmConfig::default() };
    for algo in Algo::COMPETITORS {
        total_increments_exact(algo, htm.clone());
    }
}

#[test]
fn every_protocol_survives_interrupts_plus_tiny_caches() {
    let htm = HtmConfig {
        interrupt_prob: 0.005,
        l1_sets: 8,
        l1_ways: 2,
        read_lines_max: 24,
        ..HtmConfig::default()
    };
    for algo in Algo::COMPETITORS {
        total_increments_exact(algo, htm.clone());
    }
}

#[test]
fn every_protocol_survives_interrupts_on_every_backend() {
    for backend in [BackendKind::Power, BackendKind::Limited] {
        let htm = HtmConfig { backend, interrupt_prob: 0.01, ..HtmConfig::default() };
        for algo in Algo::COMPETITORS {
            total_increments_exact(algo, htm.clone());
        }
    }
}

#[test]
fn extended_algos_survive_the_same_chaos() {
    let htm = HtmConfig { interrupt_prob: 0.01, ..HtmConfig::default() };
    for algo in [Algo::SpHt, Algo::PartHtmNoFast] {
        total_increments_exact(algo, htm.clone());
    }
}

/// An irrevocable transaction (global-lock path) whose segment panics after its
/// first write.
struct PanicsUnderLock(Addr);

impl Workload for PanicsUnderLock {
    type Snap = ();
    fn sample(&mut self, _rng: &mut SmallRng) {}
    fn is_irrevocable(&self) -> bool {
        true
    }
    fn segment<C: TxCtx>(&mut self, _seg: usize, ctx: &mut C) -> TxResult<()> {
        let v = ctx.read(self.0)?;
        ctx.write(self.0, v + 1)?;
        panic!("injected: workload segment panics under the global lock");
    }
}

/// One thread panics inside its segment while holding the global lock; the
/// panic must surface as that thread's join error and release the lock on the
/// way out, so every peer still commits all its transactions and no lock,
/// `active_tx` count or line-table entry leaks.
fn panic_under_glock_fails_one_thread_only<'r, E: TmExecutor<'r>>(rt: &'r TmRuntime) {
    const PEERS: usize = 2;
    const OPS: usize = 100;
    let mut commits = 0;
    std::thread::scope(|s| {
        let doomed = s.spawn(move || {
            let mut e = E::new(rt, 0);
            e.execute(&mut PanicsUnderLock(rt.app(0)));
        });
        // Joined before the peers start, so a leaked lock wedges them all
        // deterministically instead of racing their last commit.
        assert!(doomed.join().is_err(), "{}: the injected panic must surface", E::NAME);
        let peers: Vec<_> = (1..=PEERS)
            .map(|t| {
                s.spawn(move || {
                    let mut e = E::new(rt, t);
                    let mut w = Chaos { base: rt.app(8), picks: [0; 6] };
                    for _ in 0..OPS {
                        w.sample(&mut e.thread_mut().rng);
                        e.execute(&mut w);
                    }
                    e.thread().stats.commits_total()
                })
            })
            .collect();
        for p in peers {
            commits += p.join().expect("peers must not be affected");
        }
    });
    assert_eq!(commits, (PEERS * OPS) as u64, "{}", E::NAME);
    let total: u64 = (0..COUNTERS).map(|i| rt.verify_read(8 + i * 8)).sum();
    assert_eq!(total, (PEERS * OPS * 6) as u64, "{}", E::NAME);
    assert_eq!(rt.system().nt_read(rt.gate()), 0, "{}: gate leaked", E::NAME);
    assert_eq!(rt.system().live_line_entries(), 0, "{}", E::NAME);
}

#[test]
fn panic_under_the_global_lock_does_not_wedge_peers() {
    let rt = || TmRuntime::new(HtmConfig::default(), TmConfig::default(), 3, 8 + COUNTERS * 8);
    panic_under_glock_fails_one_thread_only::<PartHtm>(&rt());
    panic_under_glock_fails_one_thread_only::<PartHtmO>(&rt());
}
