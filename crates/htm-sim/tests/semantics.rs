//! Edge-case semantics of the HTM substrate: private stores, upgrades, budgets,
//! interrupt injection, wait paths, strong atomicity corners.

use htm_sim::{AbortCode, HtmConfig, HtmSystem};

fn sys() -> HtmSystem {
    HtmSystem::new(HtmConfig::default(), 8192)
}

#[test]
fn write_private_is_immediate_and_not_rolled_back() {
    let s = sys();
    let mut th = s.thread(0);
    let mut tx = th.begin();
    tx.write_private(0, 77).unwrap();
    // Visible immediately, before commit.
    assert_eq!(s.heap().load(0), 77);
    // And the abort does not undo it (that is the contract).
    assert_eq!(tx.xabort(5), AbortCode::Explicit(5));
    drop(tx);
    assert_eq!(s.heap().load(0), 77);
    assert_eq!(s.live_line_entries(), 0, "private lines still unregistered on abort");
}

#[test]
fn write_private_counts_against_capacity() {
    let cfg = HtmConfig { l1_sets: 4, l1_ways: 2, ..HtmConfig::default() };
    let s = HtmSystem::new(cfg, 8192);
    let mut th = s.thread(0);
    let r = th.attempt(|tx| {
        for i in 0..9u32 {
            tx.write_private(i * 8, 1)?;
        }
        Ok(())
    });
    assert_eq!(r, Err(AbortCode::Capacity));
}

#[test]
fn write_private_conflicts_like_a_write() {
    let s = sys();
    let mut a = s.thread(0);
    let mut b = s.thread(1);
    let mut atx = a.begin();
    atx.read(0).unwrap();
    // b's private store to the same line invalidates a (requester wins).
    b.attempt(|tx| tx.write_private(0, 1)).unwrap();
    assert_eq!(atx.read(8), Err(AbortCode::Conflict));
}

#[test]
fn read_then_write_upgrade_keeps_one_touched_entry() {
    let s = sys();
    let mut th = s.thread(0);
    let mut tx = th.begin();
    assert_eq!(tx.read(0), Ok(0));
    assert_eq!(tx.read_lines(), 1);
    tx.write(0, 5).unwrap();
    assert_eq!(tx.write_lines(), 1);
    // Still one read line (first access was the read).
    assert_eq!(tx.read_lines(), 1);
    tx.commit().unwrap();
    assert_eq!(s.live_line_entries(), 0);
}

#[test]
fn write_then_read_does_not_consume_read_budget() {
    let cfg = HtmConfig { read_lines_max: 1, ..HtmConfig::default() };
    let s = HtmSystem::new(cfg, 8192);
    let mut th = s.thread(0);
    th.attempt(|tx| {
        for i in 0..4u32 {
            tx.write(i * 8, 1)?;
            // Reading back a written line is free: TSX already tracks it in L1.
            assert_eq!(tx.read(i * 8)?, 1);
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn read_budget_boundary_is_exact() {
    let cfg = HtmConfig { read_lines_max: 4, ..HtmConfig::default() };
    let s = HtmSystem::new(cfg, 8192);
    let mut th = s.thread(0);
    assert!(th
        .attempt(|tx| {
            for i in 0..4u32 {
                tx.read(i * 8)?;
            }
            Ok(())
        })
        .is_ok());
    let r = th.attempt(|tx| {
        for i in 0..5u32 {
            tx.read(i * 8)?;
        }
        Ok(())
    });
    assert_eq!(r, Err(AbortCode::Capacity));
}

#[test]
fn fetch_update_aborts_propagate() {
    let cfg = HtmConfig { quantum: 1, ..HtmConfig::default() };
    let s = HtmSystem::new(cfg, 64);
    let mut th = s.thread(0);
    // The very first op reaches the 1-unit quantum: timer abort.
    let r = th.attempt(|tx| tx.fetch_update(0, |v| v + 1).map(|_| ()));
    assert_eq!(r, Err(AbortCode::Timer));
}

#[test]
fn interrupt_prob_one_kills_first_op() {
    let cfg = HtmConfig { interrupt_prob: 1.0, ..HtmConfig::default() };
    let s = HtmSystem::new(cfg, 64);
    let mut th = s.thread(0);
    assert_eq!(
        th.attempt(|tx| tx.read(0).map(|_| ())),
        Err(AbortCode::Interrupt)
    );
    assert_eq!(th.stats.aborts_interrupt, 1);
}

#[test]
fn doomed_victim_cannot_publish() {
    let s = sys();
    let mut a = s.thread(0);
    let mut b = s.thread(1);
    let mut atx = a.begin();
    atx.write(0, 111).unwrap();
    // b reads the same line: requester wins, a is doomed.
    b.attempt(|tx| tx.read(0).map(|_| ())).unwrap();
    assert_eq!(atx.commit(), Err(AbortCode::Conflict));
    assert_eq!(s.nt_read(0), 0, "doomed writer must not publish");
}

#[test]
fn requester_waits_out_a_committing_peer() {
    // Thread A parks in Committing state (we drive the registry directly through a
    // half-committed transaction) while B's access spins until A finishes. Driving
    // this deterministically from two real threads: A commits a large buffer while
    // B hammers the same line; B must never read a torn value and must eventually
    // succeed.
    let s = sys();
    std::thread::scope(|scope| {
        let sref = &s;
        scope.spawn(move || {
            let mut a = sref.thread(0);
            for round in 1..200u64 {
                let _ = a.attempt(|tx| {
                    for w in 0..8u32 {
                        tx.write(w, round)?;
                    }
                    Ok(())
                });
            }
        });
        scope.spawn(move || {
            let mut b = sref.thread(1);
            for _ in 0..200 {
                if let Ok(vals) = b.attempt(|tx| {
                    let mut vals = [0u64; 8];
                    for w in 0..8u32 {
                        vals[w as usize] = tx.read(w)?;
                    }
                    Ok(vals)
                }) {
                    assert!(
                        vals.iter().all(|&v| v == vals[0]),
                        "torn line observed: {vals:?}"
                    );
                }
            }
        });
    });
}

#[test]
fn nt_rmw_primitives_doom_conflicting_txs() {
    let s = sys();
    let mut th = s.thread(0);

    for (name, op) in [
        ("cas", Box::new(|| {
            let _ = s.nt_cas_by(1, 0, 0, 1);
        }) as Box<dyn Fn()>),
        ("fetch_add", Box::new(|| {
            s.nt_fetch_add_by(1, 0, 1);
        })),
        ("fetch_sub", Box::new(|| {
            s.nt_fetch_sub_by(1, 0, 1);
        })),
        ("fetch_or", Box::new(|| {
            s.nt_fetch_or_by(1, 0, 1);
        })),
        ("fetch_and", Box::new(|| {
            s.nt_fetch_and_by(1, 0, !0);
        })),
    ] {
        let mut tx = th.begin();
        tx.read(0).unwrap();
        op();
        assert_eq!(tx.read(8), Err(AbortCode::Conflict), "{name} must doom readers");
    }
}

#[test]
fn thread_stats_work_units_accumulate() {
    let s = sys();
    let mut th = s.thread(0);
    th.attempt(|tx| tx.work(100)).unwrap();
    let _ = th.attempt(|tx| -> Result<(), AbortCode> {
        tx.work(50)?;
        Err(tx.xabort(1))
    });
    // Work is accounted for commits and aborts alike.
    assert!(th.stats.work_units >= 150);
}

#[test]
fn zero_value_and_max_value_roundtrip() {
    let s = sys();
    let mut th = s.thread(0);
    th.attempt(|tx| {
        tx.write(0, u64::MAX)?;
        tx.write(8, 0)
    })
    .unwrap();
    assert_eq!(s.nt_read(0), u64::MAX);
    assert_eq!(s.nt_read(8), 0);
}

#[test]
fn trace_records_transaction_lifecycle() {
    let cfg = HtmConfig { trace_capacity: 16, ..HtmConfig::default() };
    let s = HtmSystem::new(cfg, 8192);
    let mut th = s.thread(0);
    th.attempt(|tx| {
        tx.read(0)?;
        tx.write(8, 1)
    })
    .unwrap();
    let _ = th.attempt(|tx| -> Result<(), AbortCode> { Err(tx.xabort(9)) });

    use htm_sim::trace::Event;
    let evs: Vec<_> = th.trace.events().cloned().collect();
    assert_eq!(evs.len(), 4, "{evs:?}");
    assert_eq!(evs[0], Event::Begin);
    assert!(matches!(evs[1], Event::Commit { read_lines: 1, write_lines: 1, .. }), "{evs:?}");
    assert_eq!(evs[2], Event::Begin);
    assert!(
        matches!(evs[3], Event::Abort { code: AbortCode::Explicit(9), .. }),
        "{evs:?}"
    );
    assert!(!th.trace.render().is_empty());
}

#[test]
fn trace_disabled_by_default() {
    let s = sys();
    let mut th = s.thread(0);
    th.attempt(|tx| tx.write(0, 1)).unwrap();
    assert!(th.trace.is_empty());
}
