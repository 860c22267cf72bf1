//! Backend conformance suite: every [`BackendKind`] must uphold the contract
//! Part-HTM's soundness rests on (see `docs/backends.md`):
//!
//! 1. **Serializability under concurrent stress** — committed transactions
//!    behave as if executed atomically: per-word sums are conserved by
//!    4-thread increment storms, including shapes that overflow the hardware
//!    budgets (exercising the limited-set backend's software spill), and no
//!    conflict-table entries leak.
//! 2. **Capacity-abort determinism under the virtual clock** — the same
//!    `SchedSpec` reproduces the identical statistics (including capacity
//!    and spill counts) bit for bit.
//! 3. **Suspend/resume nesting rules** — suspended regions do not nest,
//!    resume requires suspend, transactional operations and commit inside a
//!    suspended region panic, and backends without suspended regions reject
//!    `suspend()` outright; same for rollback-only transactions.

use htm_sim::vclock::SchedSpec;
use htm_sim::{AbortCode, BackendKind, HtmConfig, HtmStats, HtmSystem, HtmThread, VClock};

/// A per-backend test configuration (tiny quantum so timer paths stay live).
fn cfg(kind: BackendKind) -> HtmConfig {
    HtmConfig {
        backend: kind,
        quantum: 10_000,
        max_threads: 8,
        ..HtmConfig::default()
    }
}

/// Increment `lines` one-word-per-line counters starting at line `base` in
/// one transaction, retrying on aborts until committed, `rounds` times.
fn increment_storm(th: &mut HtmThread<'_>, base: usize, lines: usize, rounds: usize) {
    for _ in 0..rounds {
        let mut tries = 0u32;
        loop {
            let r = th.attempt(|tx| {
                for l in base..base + lines {
                    let a = (l * 8) as u32;
                    let v = tx.read(a)?;
                    tx.write(a, v + 1)?;
                }
                Ok(())
            });
            match r {
                Ok(()) => break,
                Err(AbortCode::Capacity) => panic!(
                    "{}-line transaction must fit backend capacity (or spill)",
                    lines
                ),
                Err(_) => {
                    tries += 1;
                    assert!(tries < 1_000_000, "livelocked");
                }
            }
        }
    }
}

/// Serializability: 4 threads x `rounds` committed transactions over `lines`
/// shared counters — every counter must end at exactly 4 x rounds, and the
/// conflict table must be empty.
fn stress(kind: BackendKind, lines: usize, rounds: usize) {
    let sys = HtmSystem::new(cfg(kind), lines * 8 + 8);
    std::thread::scope(|s| {
        for t in 0..4 {
            let sys = &sys;
            s.spawn(move || increment_storm(&mut sys.thread(t), 0, lines, rounds));
        }
    });
    for l in 0..lines {
        assert_eq!(
            sys.nt_read((l * 8) as u32),
            4 * rounds as u64,
            "{}: counter {l} lost updates",
            kind.name()
        );
    }
    assert_eq!(
        sys.live_line_entries(),
        0,
        "{}: conflict-table entries leaked",
        kind.name()
    );
}

#[test]
fn serializable_under_stress_within_capacity() {
    // 8 lines fit every backend's hardware write budget.
    for kind in BackendKind::ALL {
        stress(kind, 8, 40);
    }
}

#[test]
fn serializable_under_stress_with_spill() {
    // 24 written lines: over the limited-set hardware budget (16), inside its
    // spill budget — the software overflow path must stay serializable. Also
    // a healthy load for TSX (512) and POWER (64).
    for kind in BackendKind::ALL {
        stress(kind, 24, 25);
    }
    // The spill path must actually have been exercised on Limited.
    let sys = HtmSystem::new(cfg(BackendKind::Limited), 24 * 8 + 8);
    let mut th = sys.thread(0);
    th.attempt(|tx| {
        for l in 0..24 {
            tx.write((l * 8) as u32, 1)?;
        }
        Ok(())
    })
    .unwrap();
    assert!(
        th.stretch.spilled_lines >= 8,
        "24 written lines on a 16-line budget must spill, got {}",
        th.stretch.spilled_lines
    );
}

#[test]
fn capacity_overflow_code_is_capacity() {
    // Past every budget (hardware + spill), all backends abort with
    // AbortCode::Capacity — the code Part-HTM's resource-failure rescue keys
    // on.
    for kind in BackendKind::ALL {
        let sys = HtmSystem::new(cfg(kind), 1024 * 8);
        let model = sys.capacity_model();
        let over = model.write_lines_max() + model.spill_budget + 1;
        assert!(over <= 1024, "test heap too small for {}", kind.name());
        let mut th = sys.thread(0);
        let r = th.attempt(|tx| {
            for l in 0..over {
                tx.write((l * 8) as u32, 1)?;
            }
            Ok(())
        });
        assert_eq!(
            r,
            Err(AbortCode::Capacity),
            "{}: overflow must be a capacity abort",
            kind.name()
        );
        assert_eq!(th.stats.aborts_capacity, 1);
        assert_eq!(sys.live_line_entries(), 0);
    }
}

/// One virtual-clock run: 2 cores on disjoint line ranges, each doing wide
/// (spill-exercising) increments plus one deliberately over-budget attempt
/// that must abort with `Capacity`. Returns the per-core (stats,
/// spilled-line count) pairs plus the makespan as a determinism digest.
fn vclock_digest(kind: BackendKind) -> (Vec<(HtmStats, u64)>, u64) {
    let sys = HtmSystem::new(cfg(kind), 2048 * 8);
    let over = {
        let m = sys.capacity_model();
        m.write_lines_max() + m.spill_budget + 1
    };
    assert!(over <= 1024, "per-core line range too small");
    let clock = VClock::new(2, SchedSpec::default());
    let per_core: Vec<(HtmStats, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let clock = &clock;
                let sys = &sys;
                s.spawn(move || {
                    let _g = clock.attach(t);
                    let mut th = sys.thread(t);
                    let base = t * 1024;
                    increment_storm(&mut th, base, 24, 10);
                    let r = th.attempt(|tx| {
                        for l in base..base + over {
                            tx.write((l * 8) as u32, 1)?;
                        }
                        Ok(())
                    });
                    assert_eq!(r, Err(AbortCode::Capacity));
                    ((*th.stats).clone(), th.stretch.spilled_lines)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (per_core, clock.report().makespan)
}

#[test]
fn capacity_aborts_deterministic_under_vclock() {
    for kind in BackendKind::ALL {
        let a = vclock_digest(kind);
        let b = vclock_digest(kind);
        assert_eq!(a, b, "{}: virtual-clock run not reproducible", kind.name());
        assert!(a.1 > 0, "{}: virtual time must advance", kind.name());
    }
}

// ---------------------------------------------------------------------------
// Suspend/resume + ROT rules
// ---------------------------------------------------------------------------

fn power_sys() -> HtmSystem {
    // 512 lines: room for the read budget (128) plus stretched reads.
    HtmSystem::new(cfg(BackendKind::Power), 4096)
}

#[test]
fn suspend_resume_happy_path() {
    let sys = power_sys();
    let mut th = sys.thread(0);
    let mut tx = th.begin();
    tx.write(0, 42).unwrap();
    tx.suspend();
    assert!(tx.is_suspended());
    // Suspended loads see the pre-transactional value, not the buffered write.
    assert_eq!(tx.suspended_read(0), 0);
    tx.suspended_work(500);
    tx.resume().unwrap();
    assert!(!tx.is_suspended());
    tx.commit().unwrap();
    assert_eq!(sys.nt_read(0), 42);
    assert_eq!(th.stretch.suspends, 1);
    assert_eq!(th.stretch.resumes, 1);
    assert_eq!(th.stretch.suspended_reads, 1);
    assert_eq!(th.stretch.suspended_work, 500);
}

#[test]
fn suspended_work_is_quantum_immune() {
    let sys = power_sys(); // quantum 10_000
    let mut th = sys.thread(0);
    let r = th.attempt(|tx| {
        tx.write(0, 1)?;
        tx.suspend();
        tx.suspended_work(1_000_000); // far past the quantum: survives
        tx.resume()?;
        Ok(())
    });
    assert_eq!(r, Ok(()));
    assert_eq!(th.stats.aborts_timer, 0);

    // The same work transactionally fires the timer.
    let r = th.attempt(|tx| {
        tx.write(0, 2)?;
        tx.work(1_000_000)
    });
    assert_eq!(r, Err(AbortCode::Timer));
}

#[test]
fn conflict_while_suspended_observed_at_resume() {
    let sys = power_sys();
    let mut th = sys.thread(0);
    let mut tx = th.begin();
    tx.write(0, 5).unwrap();
    tx.suspend();
    // A peer commits over our write line while we are suspended.
    sys.nt_write(0, 9);
    assert_eq!(tx.resume(), Err(AbortCode::Conflict));
    drop(tx);
    assert_eq!(th.stats.aborts_conflict, 1);
    assert_eq!(sys.nt_read(0), 9, "our buffered write must not publish");
}

#[test]
fn stretched_reads_exceed_read_budget_but_stay_tracked() {
    let sys = power_sys();
    let model = sys.capacity_model();
    let budget = model.read_lines_max;
    let mut th = sys.thread(0);
    // Fill the hardware read budget, then stretch well past it.
    let r = th.attempt(|tx| {
        for l in 0..budget {
            tx.read((l * 8) as u32)?;
        }
        for l in budget..budget + 16 {
            tx.read_stretched((l * 8) as u32)?;
        }
        Ok(())
    });
    assert_eq!(r, Ok(()), "stretched reads must not hit the read budget");
    assert_eq!(th.stretch.stretched_reads, 16);
    assert_eq!(th.stats.aborts_capacity, 0);

    // ... and a stretched line is still conflict-tracked: a peer write to it
    // dooms the transaction (serializability is never traded away).
    let mut tx = th.begin();
    tx.read_stretched(0).unwrap();
    sys.nt_write(0, 1);
    assert_eq!(tx.read(8), Err(AbortCode::Conflict));
    drop(tx);
}

#[test]
fn rot_reads_are_invisible_to_conflict_detection() {
    let sys = power_sys();
    let mut writer = sys.thread(0);
    let mut rot = sys.thread(1);

    // A normal transaction holds line 0 in its write set; a ROT read of that
    // line neither dooms the writer (requester-wins would) nor registers.
    let mut wtx = writer.begin();
    wtx.write(0, 5).unwrap();
    let mut rtx = rot.begin_rot();
    assert_eq!(rtx.read(0), Ok(0), "ROT read sees the committed value");
    rtx.commit().unwrap();
    // The writer survived the ROT read.
    assert_eq!(wtx.read(8), Ok(0));
    wtx.commit().unwrap();
    assert_eq!(sys.nt_read(0), 5);

    // ROT writes are still conflict-tracked and buffered.
    let mut rtx = rot.begin_rot();
    rtx.write(16, 7).unwrap();
    assert_eq!(rtx.read(16), Ok(7), "ROT sees its own buffered write");
    sys.nt_write(16, 1); // peer write dooms the ROT via its write set
    assert!(rtx.read(24).is_err());
    drop(rtx);
    assert_eq!(sys.nt_read(16), 1, "doomed ROT publishes nothing");
    assert_eq!(rot.stretch.rot_begins, 2);
}

#[test]
#[should_panic(expected = "nested suspend")]
fn nested_suspend_panics() {
    let sys = power_sys();
    let mut th = sys.thread(0);
    let mut tx = th.begin();
    tx.suspend();
    tx.suspend();
}

#[test]
#[should_panic(expected = "resume outside a suspended region")]
fn resume_without_suspend_panics() {
    let sys = power_sys();
    let mut th = sys.thread(0);
    let mut tx = th.begin();
    let _ = tx.resume();
}

#[test]
#[should_panic(expected = "transactional read inside a suspended region")]
fn transactional_read_while_suspended_panics() {
    let sys = power_sys();
    let mut th = sys.thread(0);
    let mut tx = th.begin();
    tx.suspend();
    let _ = tx.read(0);
}

#[test]
#[should_panic(expected = "transactional write inside a suspended region")]
fn transactional_write_while_suspended_panics() {
    let sys = power_sys();
    let mut th = sys.thread(0);
    let mut tx = th.begin();
    tx.suspend();
    let _ = tx.write(0, 1);
}

#[test]
#[should_panic(expected = "commit inside a suspended region")]
fn commit_while_suspended_panics() {
    let sys = power_sys();
    let mut th = sys.thread(0);
    let mut tx = th.begin();
    tx.suspend();
    let _ = tx.commit();
}

#[test]
#[should_panic(expected = "suspended_read outside a suspended region")]
fn suspended_read_outside_region_panics() {
    let sys = power_sys();
    let mut th = sys.thread(0);
    let mut tx = th.begin();
    let _ = tx.suspended_read(0);
}

#[test]
#[should_panic(expected = "backend has no suspended regions")]
fn suspend_on_tsx_panics() {
    let sys = HtmSystem::new(cfg(BackendKind::Tsx), 1024);
    let mut th = sys.thread(0);
    let mut tx = th.begin();
    tx.suspend();
}

#[test]
#[should_panic(expected = "backend has no suspended regions")]
fn suspend_on_limited_panics() {
    let sys = HtmSystem::new(cfg(BackendKind::Limited), 1024);
    let mut th = sys.thread(0);
    let mut tx = th.begin();
    tx.suspend();
}

#[test]
#[should_panic(expected = "backend has no suspended regions")]
fn suspend_on_default_config_panics() {
    let sys = HtmSystem::new(HtmConfig::default(), 1024);
    let mut th = sys.thread(0);
    let mut tx = th.begin();
    tx.suspend();
}

#[test]
#[should_panic(expected = "backend has no rollback-only transactions")]
fn rot_on_tsx_panics() {
    let sys = HtmSystem::new(cfg(BackendKind::Tsx), 1024);
    let mut th = sys.thread(0);
    let _ = th.begin_rot();
}

#[test]
fn abort_inside_suspended_region_cleans_up() {
    // xabort is legal while suspended (POWER's tabort. works in suspended
    // state) and must roll everything back, clearing the suspension.
    let sys = power_sys();
    let mut th = sys.thread(0);
    let mut tx = th.begin();
    tx.write(0, 3).unwrap();
    tx.suspend();
    assert_eq!(tx.xabort(9), AbortCode::Explicit(9));
    drop(tx);
    assert_eq!(th.stats.aborts_explicit, 1);
    assert_eq!(sys.nt_read(0), 0);
    assert_eq!(sys.live_line_entries(), 0);
}
