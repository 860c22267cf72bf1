//! Epoch-bank reset stress: sustained publish pressure through multiple full
//! epoch retirements.
//!
//! Server traffic keeps a summary under continuous publish pressure, so this
//! pins the property that traffic depends on: under pressure alone, the epoch
//! protocol keeps retiring banks (≥ 3 full retirements here — the two banks
//! each get cleared), and the publish occupancy counters balance back to
//! zero. A due reset always runs; no reader can hold it off.

use tm_sig::{RingSummary, Sig, SigSpec, SummaryTuning};

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
/// then attempt the post-commit reset sweep exactly like the executors do;
/// returns whether it reset.
fn publish_and_sweep(sum: &RingSummary, round: u64, ts: &mut u64) -> bool {
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
    let done = (0..1024)
        .filter(|&round| publish_and_sweep(&sum, round, &mut ts))
        .count();
    assert!(done >= 3, "only {done} epoch retirements under pressure");
    assert_eq!(
        sum.started_publishes(),
        sum.completed_publishes(),
        "publish occupancy must balance when idle"
    );
    assert_eq!(sum.inflight_publishes(), 0);
}
