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
        th.spilled_lines >= 8,
        "24 written lines on a 16-line budget must spill, got {}",
        th.spilled_lines
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
                    ((*th.stats).clone(), th.spilled_lines)
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
