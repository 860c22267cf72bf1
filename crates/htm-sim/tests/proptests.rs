//! Property-based tests of the HTM simulator's core guarantees.

use htm_sim::{AbortCode, Addr, HtmConfig, HtmSystem, SchedSpec, VClock, WORDS_PER_LINE};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A tiny transactional program over 8 one-line counters.
#[derive(Clone, Debug)]
enum Op {
    Read(u8),
    Add(u8, u8),
    Work(u16),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..8).prop_map(Op::Read),
            (0u8..8, 1u8..20).prop_map(|(c, d)| Op::Add(c, d)),
            (1u16..50).prop_map(Op::Work),
        ],
        1..30,
    )
}

fn addr(counter: u8) -> u32 {
    u32::from(counter) * 8
}

/// Lines the write-buffer programs spread over.
const WB_LINES: u32 = 600;

/// One access of a write-buffer program: `(is_write, addr, value)`.
type WbOp = (bool, Addr, u64);

/// Reads and writes over up to [`WB_LINES`] lines, half of them crowded into
/// four lines so words repeat and share lines.
fn arb_wb_ops() -> impl Strategy<Value = Vec<WbOp>> {
    let word = prop_oneof![
        (0u32..WB_LINES, 0u32..8).prop_map(|(l, w)| l * 8 + w),
        (0u32..4, 0u32..8).prop_map(|(l, w)| l * 8 + w),
    ];
    proptest::collection::vec(
        (0u8..2, word, 1u64..1_000_000).prop_map(|(w, a, v)| (w == 1, a, v)),
        1..400,
    )
}

/// A machine whose write set holds every [`WB_LINES`] line and whose
/// quantum outlasts any program here.
fn wb_system() -> HtmSystem {
    let cfg = HtmConfig {
        l1_sets: 128,
        l1_ways: 8,
        quantum: 1 << 20,
        ..HtmConfig::default()
    };
    let words = WB_LINES as usize * WORDS_PER_LINE;
    let sys = HtmSystem::new(cfg, words);
    for a in 0..words as Addr {
        sys.nt_write(a, initial(a));
    }
    sys
}

/// The heap value of `a` before any program runs.
fn initial(a: Addr) -> u64 {
    u64::from(a) * 3 + 7
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Single-threaded: a committed transaction behaves exactly like the direct
    /// sequential execution of its program; an aborted one leaves no trace.
    #[test]
    fn committed_tx_matches_sequential_oracle(ops in arb_ops()) {
        let sys = HtmSystem::new(HtmConfig::default(), 1024);
        let mut th = sys.thread(0);

        // Oracle.
        let mut oracle = [0u64; 8];
        for op in &ops {
            if let Op::Add(c, d) = op {
                oracle[*c as usize] += u64::from(*d);
            }
        }

        let r = th.attempt(|tx| {
            for op in &ops {
                match op {
                    Op::Read(c) => {
                        tx.read(addr(*c))?;
                    }
                    Op::Add(c, d) => {
                        let v = tx.read(addr(*c))?;
                        tx.write(addr(*c), v + u64::from(*d))?;
                    }
                    Op::Work(u) => tx.work(u64::from(*u))?,
                }
            }
            Ok(())
        });
        prop_assert!(r.is_ok(), "no conflicts, ample resources: must commit");
        for c in 0..8u8 {
            prop_assert_eq!(sys.nt_read(addr(c)), oracle[c as usize]);
        }
        prop_assert_eq!(sys.live_line_entries(), 0);
    }

    /// An explicitly aborted transaction publishes nothing, regardless of program.
    #[test]
    fn aborted_tx_leaves_no_trace(ops in arb_ops()) {
        let sys = HtmSystem::new(HtmConfig::default(), 1024);
        let mut th = sys.thread(0);
        let r = th.attempt(|tx| -> Result<(), AbortCode> {
            for op in &ops {
                match op {
                    Op::Read(c) => {
                        tx.read(addr(*c))?;
                    }
                    Op::Add(c, d) => {
                        let v = tx.read(addr(*c))?;
                        tx.write(addr(*c), v + u64::from(*d))?;
                    }
                    Op::Work(u) => tx.work(u64::from(*u))?,
                }
            }
            Err(tx.xabort(1))
        });
        prop_assert_eq!(r, Err(AbortCode::Explicit(1)));
        for c in 0..8u8 {
            prop_assert_eq!(sys.nt_read(addr(c)), 0);
        }
        prop_assert_eq!(sys.live_line_entries(), 0);
    }

    /// The write buffer against a `BTreeMap` model, inside one transaction:
    /// a read returns the transaction's own latest write (else the heap), the
    /// buffer holds one entry per distinct word written, a commit publishes
    /// each word's last value and an abort publishes nothing.
    #[test]
    fn write_buffer_matches_map_model(ops in arb_wb_ops(), commit in 0u8..2) {
        let sys = wb_system();
        let mut th = sys.thread(0);
        let mut model: BTreeMap<Addr, u64> = BTreeMap::new();
        let mut tx = th.begin();
        for &(is_write, a, v) in &ops {
            if is_write {
                tx.write(a, v).unwrap();
                model.insert(a, v);
                prop_assert_eq!(tx.buffered_words(), model.len());
            } else {
                let want = model.get(&a).copied().unwrap_or_else(|| initial(a));
                prop_assert_eq!(tx.read(a), Ok(want), "read of {}", a);
            }
        }
        if commit == 1 {
            prop_assert_eq!(tx.commit(), Ok(()));
        } else {
            let _ = tx.xabort(3);
            drop(tx);
            model.clear();
        }
        for a in 0..(WB_LINES * 8) {
            let want = model.get(&a).copied().unwrap_or_else(|| initial(a));
            prop_assert_eq!(sys.nt_read(a), want, "word {} after the transaction", a);
        }
        prop_assert_eq!(sys.live_line_entries(), 0);
    }

    /// Capacity is a hard wall: a transaction writing `n` distinct lines commits iff
    /// `n` fits the configured geometry (uniform sets here, so the bound is exact).
    #[test]
    fn capacity_wall_is_exact(lines in 1usize..64) {
        let cfg = HtmConfig { l1_sets: 8, l1_ways: 4, ..HtmConfig::default() };
        let sys = HtmSystem::new(cfg, 64 * 8 + 8);
        let mut th = sys.thread(0);
        let r = th.attempt(|tx| {
            for i in 0..lines {
                tx.write((i * 8) as u32, 1)?;
            }
            Ok(())
        });
        // Consecutive lines spread uniformly: exactly sets*ways = 32 lines fit.
        if lines <= 32 {
            prop_assert!(r.is_ok(), "{} lines must fit", lines);
        } else {
            prop_assert_eq!(r, Err(AbortCode::Capacity));
        }
    }

    /// The quantum is a hard wall too.
    #[test]
    fn quantum_wall_is_exact(work in 1u64..3000) {
        let cfg = HtmConfig { quantum: 1000, ..HtmConfig::default() };
        let sys = HtmSystem::new(cfg, 64);
        let mut th = sys.thread(0);
        let r = th.attempt(|tx| tx.work(work));
        // The timer fires once cumulative work *reaches* the quantum.
        if work < 1000 {
            prop_assert!(r.is_ok());
        } else {
            prop_assert_eq!(r, Err(AbortCode::Timer));
        }
    }

    /// Two threads running random increment programs concurrently never lose an
    /// update: final counters equal the sum of both threads' committed adds.
    #[test]
    fn concurrent_adds_never_lost(ops_a in arb_ops(), ops_b in arb_ops()) {
        let sys = HtmSystem::new(HtmConfig::default(), 1024);
        let run = |tid: usize, ops: Vec<Op>| {
            let sys = &sys;
            move || {
                let mut th = sys.thread(tid);
                let mut committed = [0u64; 8];
                for _round in 0..10 {
                    let mut adds = [0u64; 8];
                    let r = th.attempt(|tx| {
                        for op in &ops {
                            match op {
                                Op::Read(c) => {
                                    tx.read(addr(*c))?;
                                }
                                Op::Add(c, d) => {
                                    let v = tx.read(addr(*c))?;
                                    tx.write(addr(*c), v + u64::from(*d))?;
                                    adds[*c as usize] += u64::from(*d);
                                }
                                Op::Work(u) => tx.work(u64::from(*u))?,
                            }
                        }
                        Ok(())
                    });
                    if r.is_ok() {
                        for c in 0..8 {
                            committed[c] += adds[c];
                        }
                    } else {
                        std::thread::yield_now();
                    }
                }
                committed
            }
        };
        let (done_a, done_b) = std::thread::scope(|s| {
            let ha = s.spawn(run(0, ops_a.clone()));
            let hb = s.spawn(run(1, ops_b.clone()));
            (ha.join().unwrap(), hb.join().unwrap())
        });
        for c in 0..8u8 {
            prop_assert_eq!(
                sys.nt_read(addr(c)),
                done_a[c as usize] + done_b[c as usize],
                "counter {} lost updates", c
            );
        }
        prop_assert_eq!(sys.live_line_entries(), 0);
    }
}

/// Re-writing one word keeps one buffered entry, however often it happens,
/// and commit publishes the last value.
#[test]
fn rewrites_of_one_word_keep_one_entry() {
    let sys = wb_system();
    let mut th = sys.thread(0);
    let mut tx = th.begin();
    for v in 0..10_000u64 {
        tx.write(13, v).unwrap();
        assert_eq!(tx.read(13), Ok(v));
    }
    assert_eq!(tx.buffered_words(), 1);
    tx.commit().unwrap();
    assert_eq!(sys.nt_read(13), 9_999);
}

// ---- the per-word charge -------------------------------------------------

/// One operation of a charge program: `(kind, addr, work units)`, kind 0 a
/// read, 1 a write, 2 `work(units)`.
type ChargeOp = (u8, Addr, u64);

/// Reads, writes and work over 16 lines (repeats on purpose: most accesses
/// hit a line the transaction already registered).
fn arb_charge_ops() -> impl Strategy<Value = Vec<ChargeOp>> {
    proptest::collection::vec((0u8..3, 0u32..128, 1u64..40), 1..120)
}

/// Units the op costs: 1 per access, `k` for `work(k)`.
fn units(op: &ChargeOp) -> u64 {
    if op.0 == 2 {
        op.2
    } else {
        1
    }
}

/// The timer model: the index of the first op that brings cumulative work to
/// `quantum` or beyond, with the cumulative work at that op (or the program's
/// total work and `None` when it never does).
fn timer_model(ops: &[ChargeOp], quantum: u64) -> (Option<usize>, u64) {
    let mut work = 0;
    for (i, op) in ops.iter().enumerate() {
        work += units(op);
        if work >= quantum {
            return (Some(i), work);
        }
    }
    (None, work)
}

/// Run `ops` as one transaction on `th`: the index and code of the op that
/// aborted it (`None` if it committed) and the work it had used.
fn run_charge_program(
    th: &mut htm_sim::HtmThread<'_>,
    ops: &[ChargeOp],
) -> (Option<(usize, AbortCode)>, u64) {
    let mut tx = th.begin();
    for (i, &(kind, a, k)) in ops.iter().enumerate() {
        let r = match kind {
            0 => tx.read(a).map(drop),
            1 => tx.write(a, k),
            _ => tx.work(k),
        };
        if let Err(code) = r {
            return (Some((i, code)), tx.work_used());
        }
    }
    let work = tx.work_used();
    tx.commit().expect("a lone transaction commits");
    (None, work)
}

/// A machine whose read and write sets hold all 16 lines of a charge program.
fn charge_system(quantum: u64, interrupt_prob: f64) -> HtmSystem {
    let cfg = HtmConfig {
        quantum,
        interrupt_prob,
        ..HtmConfig::default()
    };
    HtmSystem::new(cfg, 128)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// A plain transaction (no clock, no injected interrupts) charges on its
    /// one-add fast path; one attached to a clock charges through the full
    /// body. Both fire `Timer` at the op the cumulative-work model names, with
    /// the model's `work_used`, and the one-core clock advances by exactly the
    /// work charged.
    #[test]
    fn fast_charge_matches_timer_model(ops in arb_charge_ops(), quantum in 1u64..400) {
        let (at, work) = timer_model(&ops, quantum);
        let want = at.map(|i| (i, AbortCode::Timer));

        let sys = charge_system(quantum, 0.0);
        let mut th = sys.thread(0);
        prop_assert_eq!(run_charge_program(&mut th, &ops), (want, work));
        prop_assert_eq!(th.stats.work_units, work);
        prop_assert_eq!(sys.live_line_entries(), 0);

        // The same program on a one-core virtual clock.
        let idle = {
            let clock = VClock::new(1, SchedSpec::default());
            drop(clock.attach(0));
            clock.report()
        };
        let sys = charge_system(quantum, 0.0);
        let clock = VClock::new(1, SchedSpec::default());
        let got = {
            let _core = clock.attach(0);
            let mut th = sys.thread(0);
            run_charge_program(&mut th, &ops)
        };
        prop_assert_eq!(got, (want, work));
        let report = clock.report();
        prop_assert_eq!(report.makespan, work);
        let commits: Vec<(usize, u64)> = if at.is_none() { vec![(0, work)] } else { vec![] };
        prop_assert_eq!(&report.commit_log, &commits);
        prop_assert_eq!(report.n_commits, commits.len() as u64);
        // One core never hands the floor over: no scheduler entry beyond
        // attach and detach.
        prop_assert_eq!(report.n_decisions, idle.n_decisions);
    }

    /// With `interrupt_prob > 0` the transaction is not plain: injected
    /// interrupts still fire, never after the op the timer model names, and
    /// at probability 1 on the very first op that does not reach the quantum.
    #[test]
    fn injected_interrupts_still_fire(
        ops in arb_charge_ops(),
        quantum in 1u64..400,
        pct in 1u8..=100,
        attached in 0u8..2,
    ) {
        let (at, work) = timer_model(&ops, quantum);
        let sys = charge_system(quantum, f64::from(pct) / 100.0);
        let clock = VClock::new(1, SchedSpec::default());
        let core = (attached == 1).then(|| clock.attach(0));
        let mut th = sys.thread(0);
        let mut interrupts = 0;
        for _ in 0..8 {
            let (got, used) = run_charge_program(&mut th, &ops);
            match got {
                None => prop_assert_eq!((at, used), (None, work)),
                Some((i, code)) => {
                    let used_model: u64 = ops[..=i].iter().map(units).sum();
                    prop_assert_eq!(used, used_model);
                    if Some(i) == at {
                        prop_assert_eq!(code, AbortCode::Timer);
                    } else {
                        prop_assert!(at.is_none_or(|t| i < t), "abort at {} after the timer", i);
                        prop_assert_eq!(code, AbortCode::Interrupt);
                        interrupts += 1;
                    }
                    if pct == 100 {
                        prop_assert_eq!(i, 0, "probability 1 interrupts the first op");
                    }
                }
            }
        }
        prop_assert_eq!(th.stats.aborts_interrupt, interrupts);
        if pct == 100 && at != Some(0) {
            prop_assert_eq!(interrupts, 8);
        }
        drop(core);
    }
}
