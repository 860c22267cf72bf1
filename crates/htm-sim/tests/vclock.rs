//! Virtual-clock integration tests: monotonicity and determinism of
//! multi-core HTM runs under the discrete-event scheduler.
//!
//! The key properties (ISSUE 8 acceptance criteria):
//! * commit timestamps are globally monotone — an executing core always holds
//!   the minimum runnable timestamp, so observable actions are ordered;
//! * the same `SchedSpec` reproduces the identical decision trace, commit log
//!   and `HtmStats`, bit for bit, including injected interrupts.

use htm_sim::vclock::{self, SchedPolicy, SchedSpec, VReport};
use htm_sim::{AbortCode, HtmConfig, HtmStats, HtmSystem, VClock};
use proptest::prelude::*;

/// Run `threads` workers under a virtual clock; worker `t` executes
/// `body(t, &mut th)` attached to core `t`. Returns the schedule report plus
/// the per-thread hardware stats merged in core order (deterministic).
fn run_virtual<F>(sys: &HtmSystem, threads: usize, spec: SchedSpec, body: F) -> (VReport, HtmStats)
where
    F: Fn(usize, &mut htm_sim::HtmThread<'_>) + Sync,
{
    let clock = VClock::new(threads, spec);
    let stats: Vec<HtmStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let clock = &clock;
                let body = &body;
                s.spawn(move || {
                    let _g = clock.attach(t);
                    let mut th = sys.thread(t);
                    body(t, &mut th);
                    (*th.stats).clone()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut merged = HtmStats::default();
    for s in &stats {
        merged.merge(s);
    }
    (clock.report(), merged)
}

/// `n` conflicting counter increments per thread: every thread hammers word 0,
/// retrying each increment until it commits (requester-wins dooming guarantees
/// someone always makes progress; the backoff yields virtual time).
fn conflicting_increments(n: u64) -> impl Fn(usize, &mut htm_sim::HtmThread<'_>) + Sync {
    move |_t, th| {
        for _ in 0..n {
            let mut tries = 0u32;
            loop {
                let r = th.attempt(|tx| {
                    let v = tx.read(0)?;
                    tx.write(0, v + 1)
                });
                match r {
                    Ok(()) => break,
                    Err(_) => {
                        tries += 1;
                        assert!(tries < 100_000, "livelocked under the virtual clock");
                        let mut b = htm_sim::util::Backoff::new();
                        b.snooze();
                    }
                }
            }
        }
    }
}

#[test]
fn conflicting_counters_conserve_and_commit_times_are_monotone() {
    let sys = HtmSystem::new(HtmConfig::tiny(), 256);
    let (report, stats) = run_virtual(&sys, 4, SchedSpec::default(), conflicting_increments(25));
    assert_eq!(sys.nt_read(0), 100, "every increment committed exactly once");
    assert_eq!(stats.commits, 100);
    assert_eq!(report.n_commits, 100);
    // An executing core always holds the minimum runnable timestamp, so the
    // commit log — ordered by occurrence — must be ordered by virtual time.
    for w in report.commit_log.windows(2) {
        assert!(
            w[0].1 <= w[1].1,
            "commit times must be globally monotone: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    assert!(report.makespan > 0);
}

#[test]
fn same_spec_reproduces_run_bit_exactly() {
    let spec = SchedSpec {
        seed: 42,
        policy: SchedPolicy::Seeded,
        forced: vec![],
    };
    let mk = || {
        let sys = HtmSystem::new(HtmConfig::tiny(), 256);
        let (r, s) = run_virtual(&sys, 3, spec.clone(), conflicting_increments(20));
        (r.trace_text(), r.commit_log.clone(), s, sys.nt_read(0))
    };
    let (t1, c1, s1, v1) = mk();
    let (t2, c2, s2, v2) = mk();
    assert_eq!(t1, t2, "decision traces must be byte-identical");
    assert_eq!(c1, c2, "commit logs must be identical");
    assert_eq!(s1, s2, "hardware stats must be identical");
    assert_eq!(v1, v2);
}

#[test]
fn injected_interrupts_replay_bit_exactly() {
    // With interrupt_prob > 0 the per-charge draw comes from the clock's
    // seeded per-core RNG, so the whole run — including which ops the
    // interrupts hit — replays from the spec alone.
    let cfg = HtmConfig {
        interrupt_prob: 0.05,
        ..HtmConfig::tiny()
    };
    let spec = SchedSpec {
        seed: 7,
        policy: SchedPolicy::Seeded,
        forced: vec![],
    };
    let mk = || {
        let sys = HtmSystem::new(cfg.clone(), 256);
        let (r, s) = run_virtual(&sys, 2, spec.clone(), conflicting_increments(30));
        (r.trace_text(), s)
    };
    let (t1, s1) = mk();
    let (t2, s2) = mk();
    assert_eq!(t1, t2);
    assert_eq!(s1, s2);
    assert!(
        s1.aborts_interrupt > 0,
        "5% per-op interrupt probability over hundreds of ops must fire"
    );
}

#[test]
fn forced_prefix_changes_the_interleaving_but_not_the_sum() {
    // Different schedules may reorder commits and change abort counts, but
    // the workload's semantics (the conserved counter) must hold under all.
    let base = || HtmSystem::new(HtmConfig::tiny(), 256);
    let sys_a = base();
    let (ra, _) = run_virtual(&sys_a, 2, SchedSpec::default(), conflicting_increments(10));
    let sys_b = base();
    let spec_b = SchedSpec {
        forced: vec![1, 1, 1, 1],
        ..SchedSpec::default()
    };
    let (rb, _) = run_virtual(&sys_b, 2, spec_b, conflicting_increments(10));
    assert_eq!(sys_a.nt_read(0), 20);
    assert_eq!(sys_b.nt_read(0), 20);
    // Both runs hit schedule decisions; the forced run took a different path.
    assert!(ra.n_decisions > 0 && rb.n_decisions > 0);
    assert_ne!(
        ra.decisions.first().map(|d| d.chosen),
        rb.decisions.first().map(|d| d.chosen),
        "the forced prefix must actually flip decision 0"
    );
}

#[test]
fn quantum_timer_is_deterministic_under_the_clock() {
    // A transaction reaching the quantum aborts with Timer on every schedule.
    let cfg = HtmConfig {
        quantum: 8,
        ..HtmConfig::tiny()
    };
    let sys = HtmSystem::new(cfg, 256);
    let (_, stats) = run_virtual(&sys, 2, SchedSpec::default(), move |_, th| {
        let r = th.attempt(|tx| tx.work(8));
        assert_eq!(r, Err(AbortCode::Timer));
    });
    assert_eq!(stats.aborts_timer, 2);
}

#[test]
fn a_transaction_doomed_during_a_hand_off_never_dooms_its_killer() {
    // Two cores read-modify-write one word in lockstep — the shape of a lock
    // word acquired inside a hardware transaction. Core 0 upgrades its read to
    // a write while core 1 is parked in the scheduler between paying for its
    // own write and issuing it. On silicon the doomed core 1 sends no further
    // coherence request; when it used to register that write anyway it doomed
    // core 0 back and *both* aborted, forever (the sub-HTM lockstep livelock).
    use htm_sim::registry::{AccessKind, DoomCause, Requester};
    use htm_sim::trace::Event;
    const WORD: u32 = 40; // line 5
    let cfg = HtmConfig {
        trace_capacity: 8,
        ..HtmConfig::tiny()
    };
    let sys = HtmSystem::new(cfg, 256);
    let aborts = std::sync::Mutex::new(Vec::new());
    let (report, stats) = run_virtual(&sys, 2, SchedSpec::default(), |t, th| {
        let r = th.attempt(|tx| {
            tx.fetch_update(WORD, |v| v + 1)?;
            tx.work(1)
        });
        if let Err(code) = r {
            let last = th.trace.events().last().cloned();
            aborts.lock().unwrap().push((t, code, last));
        }
    });
    assert_eq!(stats.commits, 1, "exactly one of the two commits");
    assert_eq!(stats.aborts_conflict, 1, "and exactly one aborts");
    assert_eq!(sys.nt_read(WORD), 1);
    assert_eq!(sys.live_line_entries(), 0);
    let winner = report.commit_log[0].0;
    let aborts = aborts.into_inner().unwrap();
    let (loser, code, event) = aborts[0].clone();
    assert_eq!((loser, code), (1 - winner, AbortCode::Conflict));
    // Who aborted whom, on which line, when.
    let Some(Event::Abort { code, cause, at, .. }) = event else {
        panic!("the loser's last event must be its abort, got {event:?}");
    };
    assert_eq!(code, AbortCode::Conflict);
    assert_eq!(
        cause,
        Some(DoomCause {
            line: htm_sim::line_of(WORD),
            by: Requester::Thread(winner as u8),
            kind: AccessKind::TxWrite,
        })
    );
    assert!(at.is_some(), "virtual-time stamped under the clock");
}

#[test]
fn unattached_threads_coexist_with_virtual_runs() {
    // vclock hooks are per-thread: a thread that never attached must run
    // unimpeded even while a virtual-time run is in flight elsewhere.
    let sys = HtmSystem::new(HtmConfig::tiny(), 256);
    std::thread::scope(|s| {
        s.spawn(|| {
            let clock = VClock::new(1, SchedSpec::default());
            let _g = clock.attach(0);
            let mut th = sys.thread(0);
            for _ in 0..50 {
                th.attempt(|tx| {
                    let v = tx.read(0)?;
                    tx.write(0, v + 1)
                })
                .ok();
            }
        });
        s.spawn(|| {
            assert!(!vclock::is_attached());
            let mut th = sys.thread(1);
            for _ in 0..50 {
                loop {
                    let r = th.attempt(|tx| {
                        let v = tx.read(8)?;
                        tx.write(8, v + 1)
                    });
                    if r.is_ok() {
                        break;
                    }
                }
            }
        });
    });
    assert_eq!(sys.nt_read(8), 50);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Determinism sweep: any seed, any thread count 2..=4 — two runs of the
    /// same spec agree on trace, commit log, stats, and final memory.
    #[test]
    fn any_seed_is_reproducible(seed in 0u64..u64::MAX, threads in 2usize..5) {
        let spec = SchedSpec { seed, policy: SchedPolicy::Seeded, forced: vec![] };
        let mk = || {
            let sys = HtmSystem::new(HtmConfig::tiny(), 256);
            let (r, s) = run_virtual(&sys, threads, spec.clone(), conflicting_increments(8));
            (r.trace_text(), r.commit_log.clone(), s, sys.nt_read(0))
        };
        let a = mk();
        let b = mk();
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
        prop_assert_eq!(a.3, (threads as u64) * 8);
        prop_assert_eq!(b.3, (threads as u64) * 8);
    }

    /// Per-core times never run backwards: each core's commit timestamps are
    /// non-decreasing in every explored schedule.
    #[test]
    fn per_core_commit_times_are_monotone(seed in 0u64..u64::MAX) {
        let spec = SchedSpec { seed, policy: SchedPolicy::Seeded, forced: vec![] };
        let sys = HtmSystem::new(HtmConfig::tiny(), 256);
        let (r, _) = run_virtual(&sys, 3, spec, conflicting_increments(8));
        let mut last = [0u64; 3];
        for &(core, t) in &r.commit_log {
            prop_assert!(t >= last[core], "core {} time ran backwards", core);
            last[core] = t;
        }
    }
}
