//! The fast path's exact price on the virtual clock.
//!
//! Every transactional access, every non-transactional access and every spin
//! of a wait costs work units; a hardware begin, commit or abort costs none.
//! So a transaction's virtual cost is a count of the accesses its executor
//! makes, and these tests pin that count. A quiet Part-HTM attempt (no
//! partitioned-path transaction runs) subscribes the gate — the global lock
//! and the partitioned-path count in one word — and does nothing else (Fig. 1
//! lines 1–2 plus the quiet speculation): an n-access transaction costs
//! n + 1, HTM-GL's price. Neither reads a metadata word before its first
//! hardware attempt; the anti-lemming wait (§7) runs before a *retry* only.

use htm_sim::abort::TxResult;
use htm_sim::vclock::{self, SchedSpec, VClock};
use htm_sim::{Addr, HtmConfig};
use part_htm_core::{
    CommitPath, PartHtm, PartHtmO, TmConfig, TmExecutor, TmRuntime, TxCtx, Workload, GATE_LOCK,
};
use rand::rngs::SmallRng;
use tm_baselines::HtmGl;

/// Read-then-write `COUNTERS` counters on distinct lines.
struct Incr(Addr);

const COUNTERS: usize = 5;
/// Accesses of one [`Incr`] transaction.
const N: u64 = 2 * COUNTERS as u64;

impl Workload for Incr {
    type Snap = ();
    fn sample(&mut self, _rng: &mut SmallRng) {}
    fn segment<C: TxCtx>(&mut self, _seg: usize, ctx: &mut C) -> TxResult<()> {
        for i in 0..COUNTERS {
            let a = self.0 + (i * 8) as Addr;
            let v = ctx.read(a)?;
            ctx.write(a, v + 1)?;
        }
        Ok(())
    }
}

fn rt(threads: usize) -> TmRuntime {
    TmRuntime::new(HtmConfig::default(), TmConfig::default(), threads, 1024)
}

/// What one transaction cost its core.
#[derive(Debug, PartialEq, Eq)]
struct Price {
    /// Virtual time from `execute`'s call to its return.
    wu: u64,
    /// Work units charged inside hardware attempts, aborted ones included.
    in_htm_wu: u64,
    /// Failed hardware attempts.
    fast_aborts: u64,
}

/// One transaction on core 0 of a fresh `cores`-core virtual clock while core
/// 1, if there is one, runs `peer`. The transaction must commit in hardware.
fn price<'r, E: TmExecutor<'r>>(
    rt: &'r TmRuntime,
    cores: usize,
    peer: impl FnOnce() + Send,
) -> Price {
    let clock = VClock::new(cores, SchedSpec::default());
    let (path, price) = std::thread::scope(|s| {
        let clock = &clock;
        let tx = s.spawn(move || {
            let mut e = E::new(rt, 0);
            let _core = clock.attach(0);
            let t0 = vclock::now().unwrap();
            let path = e.execute(&mut Incr(rt.app(0)));
            let th = e.thread();
            let price = Price {
                wu: vclock::now().unwrap() - t0,
                in_htm_wu: th.hw.stats.work_units,
                fast_aborts: th.stats.fast_aborts,
            };
            (path, price)
        });
        if cores > 1 {
            s.spawn(move || {
                let _core = clock.attach(1);
                peer();
            });
        }
        tx.join().unwrap()
    });
    assert_eq!(path, CommitPath::Htm, "{}", E::NAME);
    for i in 0..COUNTERS {
        assert_eq!(rt.verify_read(i * 8), 1, "{}: counter {i}", E::NAME);
    }
    price
}

fn quiet<'r, E: TmExecutor<'r>>(rt: &'r TmRuntime) -> Price {
    price::<E>(rt, 1, || ())
}

/// Every executor pays one subscription, of the gate. Part-HTM and
/// Part-HTM-O paid N + 2 while the lock and the count were two words, the
/// quiet attempt subscribing both.
#[test]
fn a_quiet_transaction_pays_its_subscriptions_and_nothing_else() {
    let subscribed = |k| Price {
        wu: N + k,
        in_htm_wu: N + k,
        fast_aborts: 0,
    };
    assert_eq!(quiet::<PartHtm>(&rt(1)), subscribed(1), "Part-HTM");
    assert_eq!(quiet::<PartHtmO>(&rt(1)), subscribed(1), "Part-HTM-O");
    assert_eq!(quiet::<HtmGl>(&rt(1)), subscribed(1), "HTM-GL");
}

/// A gate count of 1: a partitioned-path transaction is in flight.
fn beside_a_partitioned_peer<'r, E: TmExecutor<'r>>(rt: &'r TmRuntime) -> Price {
    rt.system().nt_write(rt.gate(), 1);
    price::<E>(rt, 1, || ())
}

/// Beside a partitioned peer the quiet attempt dies of its first access, the
/// gate subscription — one access, as the non-transactional pre-read that
/// used to precede it — and the instrumented attempt (signatures, lock check,
/// ring publish) follows at once. An executor that also waited on the lock
/// before its first attempt would pay 1 wu more (45 and 40). HTM-GL reads the
/// count with the lock bit and ignores it. (The same prices as with two
/// words: the quiet attempt's one access was then the count's subscription,
/// and the instrumented attempt's the lock's.)
#[test]
fn beside_a_partitioned_peer_the_quiet_attempt_costs_one_access() {
    let part_htm = beside_a_partitioned_peer::<PartHtm>(&rt(1));
    let part_htm_o = beside_a_partitioned_peer::<PartHtmO>(&rt(1));
    assert_eq!((part_htm.wu, part_htm.fast_aborts), (44, 1), "Part-HTM");
    assert_eq!((part_htm_o.wu, part_htm_o.fast_aborts), (39, 1), "Part-HTM-O");
    // Every work unit was spent inside a hardware attempt: nothing was read
    // outside one.
    assert_eq!(part_htm.in_htm_wu, part_htm.wu, "Part-HTM");
    assert_eq!(part_htm_o.in_htm_wu, part_htm_o.wu, "Part-HTM-O");
    let gl = beside_a_partitioned_peer::<HtmGl>(&rt(1));
    assert_eq!((gl.wu, gl.fast_aborts), (N + 1, 0), "HTM-GL");
}

/// Core 1 holds the global lock from time 0 and releases it at `HOLD`.
const HOLD: u64 = 40;

fn against_a_held_lock<'r, E: TmExecutor<'r>>(rt: &'r TmRuntime) -> Price {
    rt.system().nt_write(rt.gate(), GATE_LOCK);
    price::<E>(rt, 2, || {
        vclock::charge(HOLD);
        rt.system().heap().fetch_sub(rt.gate(), GATE_LOCK);
    })
}

/// The first attempt starts at once and dies on its subscription of the held
/// lock — one access, the gate's, for every executor — and only then does the
/// executor wait. The wait ends with the one read that sees the lock free, at
/// `HOLD + 1`, and the retry pays the quiet price. Part-HTM and Part-HTM-O
/// were `after_wait(2, N + 2)` while their quiet attempt subscribed the count
/// and then the lock, two words.
#[test]
fn a_first_attempt_against_a_held_lock_pays_one_subscription_then_waits() {
    let after_wait = |first: u64, quiet: u64| Price {
        wu: HOLD + 1 + quiet,
        in_htm_wu: first + quiet,
        fast_aborts: 1,
    };
    assert_eq!(
        against_a_held_lock::<PartHtm>(&rt(2)),
        after_wait(1, N + 1),
        "Part-HTM"
    );
    assert_eq!(
        against_a_held_lock::<PartHtmO>(&rt(2)),
        after_wait(1, N + 1),
        "Part-HTM-O"
    );
    assert_eq!(
        against_a_held_lock::<HtmGl>(&rt(2)),
        after_wait(1, N + 1),
        "HTM-GL"
    );
}
