//! Epoch-bank reset stress: sustained publish pressure through multiple full
//! epoch retirements, with and without pinned validators.
//!
//! Server traffic is the first workload that keeps a summary under continuous
//! publish pressure while validators hold epoch pins across their probes
//! (`docs/ring-sharding.md`, grace-period rule), so this pins the three
//! properties that traffic depends on:
//!
//! 1. under pressure alone, the epoch protocol keeps retiring banks
//!    (≥ 3 full retirements here — the two banks each get cleared);
//! 2. while a validator stays pinned to an older epoch, every due reset is
//!    *deferred* — never performed, never blocking the publisher;
//! 3. the deferral does not leak: the moment the pin drops, retirement
//!    resumes and proceeds at full cadence, and the publish occupancy
//!    counters balance back to zero.

use tm_sig::{ResetAttempt, RingSummary, Sig, SigSpec, SummaryTuning};

const SPEC_BITS: u32 = 512;

/// Aggressive tuning so a handful of publishes is "sustained pressure":
/// density check every 32 publishes, reset once 1/8 of the bits are live.
fn tuning() -> SummaryTuning {
    SummaryTuning {
        density_num: 1,
        density_den: 8,
        check_interval: 32,
    }
}

/// A shard summary over the whole geometry, as `ShardedRing::new_summary_tuned`
/// builds it for a 1-shard ring.
fn summary() -> RingSummary {
    RingSummary::new_masked_tuned(SigSpec::new(SPEC_BITS), u64::MAX, tuning())
}

/// One publisher step: announce, fold a signature of eight fresh addresses,
/// then attempt the post-commit reset sweep exactly like the executors do.
fn publish_and_sweep(sum: &RingSummary, round: u64, ts: &mut u64) -> ResetAttempt {
    sum.begin_publish();
    let mut sig = Sig::new(SigSpec::new(SPEC_BITS));
    for i in 0..8u64 {
        sig.add((round * 8 + i) as u32 * 97);
    }
    *ts += 1;
    let t = *ts;
    sum.complete_publish_masked(&sig, u64::MAX, t);
    sum.maybe_reset_with(|| t)
}

#[test]
fn sustained_publishes_retire_epochs() {
    let sum = summary();
    let mut ts = 0u64;
    let mut done = 0u64;
    for round in 0..1024 {
        match publish_and_sweep(&sum, round, &mut ts) {
            ResetAttempt::Done => done += 1,
            ResetAttempt::Deferred => panic!("deferred with no pins held"),
            ResetAttempt::Idle => {}
        }
    }
    assert!(done >= 3, "only {done} epoch retirements under pressure");
    assert_eq!(
        sum.started_publishes(),
        sum.completed_publishes(),
        "publish occupancy must balance when idle"
    );
    assert_eq!(sum.inflight_publishes(), 0);
}

#[test]
fn pinned_validator_defers_resets_without_leaking() {
    let sum = summary();
    let mut ts = 0u64;
    let mut round = 0u64;

    // Warm up: at least one retirement so both banks have been current.
    let mut warm_done = 0;
    while warm_done < 1 {
        if publish_and_sweep(&sum, round, &mut ts) == ResetAttempt::Done {
            warm_done += 1;
        }
        round += 1;
    }

    // A validator pins the current epoch and stays pinned. The first
    // retirement after the pin may still complete (the pin is not older than
    // the epoch it names — the reset clears the bank the validator is *not*
    // reading); every retirement after that must defer, because the pin is
    // now older than the current epoch and the grace-period rule protects
    // the bank the validator may still be probing.
    let pinned_epoch = sum.pin_epoch(0);
    let mut done_after_pin = 0u64;
    let mut deferred = 0u64;
    for _ in 0..512 {
        match publish_and_sweep(&sum, round, &mut ts) {
            ResetAttempt::Done => done_after_pin += 1,
            ResetAttempt::Deferred => deferred += 1,
            ResetAttempt::Idle => {}
        }
        round += 1;
    }
    assert!(
        done_after_pin <= 1,
        "grace period violated: {done_after_pin} retirements cleared a bank \
         a validator pinned at epoch {pinned_epoch} could still be reading"
    );
    assert!(
        deferred >= 3,
        "only {deferred} deferrals under sustained pressure — the due reset \
         is not being re-attempted"
    );

    // Drop the pin: the deferral must not leak. Retirement resumes and runs
    // ≥ 3 further full retirements under the same pressure.
    sum.unpin(0);
    let mut done_after_unpin = 0u64;
    for _ in 0..1024 {
        match publish_and_sweep(&sum, round, &mut ts) {
            ResetAttempt::Done => done_after_unpin += 1,
            ResetAttempt::Deferred => panic!("deferred after the pin dropped"),
            ResetAttempt::Idle => {}
        }
        round += 1;
    }
    assert!(
        done_after_unpin >= 3,
        "retirement did not resume after unpin ({done_after_unpin} resets): \
         deferred-reset leak"
    );
    assert_eq!(sum.started_publishes(), sum.completed_publishes());
    assert_eq!(sum.inflight_publishes(), 0);
}
