//! Per-thread epoch pin registry: the grace-period half of the epoch-based
//! summary reset protocol (see `docs/ring-sharding.md`, "Epoch-based resets").
//!
//! A [`crate::RingSummary`] keeps **two** banks of summary words and flips
//! between them on reset instead of clearing in place. Validators *pin* the epoch they started in by publishing it into
//! their slot of this registry; a resetter retires the inactive bank only when
//! no validator is still pinned to an older epoch ([`EpochRegistry::drained`]).
//! Pinning is advisory for progress, not for soundness — a validator that
//! straddles an epoch flip anyway is caught by its final epoch re-check and
//! falls back to the precise walk — but the drain rule lets resets defer
//! instead of invalidating every long-running reader mid-probe, which is what
//! makes resets stall-free in both directions: validators never spin
//! on a resetter, and a resetter never spins on validators (it simply reports
//! [`crate::ResetAttempt::Deferred`] and lets the next committer retry).
//!
//! Each slot is padded to its own cache line so pin/unpin traffic from
//! different threads never false-shares.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

/// Capacity of the registry: one slot per hardware thread id. Matches the
/// simulator's thread-id space (ids are dense from 0).
pub const MAX_EPOCH_THREADS: usize = 64;

/// Slot value meaning "not pinned".
const UNPINNED: u64 = u64::MAX;

/// One pin slot on its own cache line.
#[repr(align(128))]
#[derive(Debug)]
struct PaddedSlot(AtomicU64);

/// The per-summary pin registry: one padded slot per thread id.
#[derive(Debug)]
pub struct EpochRegistry {
    slots: Box<[PaddedSlot]>,
}

impl Default for EpochRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochRegistry {
    /// An empty registry (every slot unpinned).
    pub fn new() -> Self {
        Self {
            slots: (0..MAX_EPOCH_THREADS)
                .map(|_| PaddedSlot(AtomicU64::new(UNPINNED)))
                .collect(),
        }
    }

    /// Publish thread `tid`'s pinned epoch. Callers re-check the epoch source
    /// after storing (the hazard-pointer handshake): either the resetter's
    /// drain scan sees this pin, or the pinning thread sees the new epoch and
    /// re-pins.
    #[inline]
    pub fn set(&self, tid: usize, epoch: u64) {
        self.slots[tid].0.store(epoch, SeqCst);
    }

    /// Drop thread `tid`'s pin.
    #[inline]
    pub fn clear(&self, tid: usize) {
        self.slots[tid].0.store(UNPINNED, SeqCst);
    }

    /// Thread `tid`'s current pin, if any (tests and diagnostics).
    pub fn pinned(&self, tid: usize) -> Option<u64> {
        match self.slots[tid].0.load(SeqCst) {
            UNPINNED => None,
            e => Some(e),
        }
    }

    /// True when no thread is pinned to an epoch older than `epoch` — the
    /// grace-period condition under which the bank retired by advancing to
    /// `epoch + 1` can be cleared and reused. Pins *at* `epoch` reference the
    /// current bank, which a reset never touches, so they do not block it.
    pub fn drained(&self, epoch: u64) -> bool {
        self.slots.iter().all(|s| {
            let p = s.0.load(SeqCst);
            p == UNPINNED || p >= epoch
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_registry_is_drained() {
        let r = EpochRegistry::new();
        assert!(r.drained(0));
        assert!(r.drained(100));
        assert_eq!(r.pinned(0), None);
    }

    #[test]
    fn stale_pin_blocks_drain_until_cleared() {
        let r = EpochRegistry::new();
        r.set(3, 5);
        assert_eq!(r.pinned(3), Some(5));
        assert!(r.drained(5), "a pin at the current epoch does not block");
        assert!(!r.drained(6), "a pin one epoch back blocks the drain");
        r.set(3, 6);
        assert!(r.drained(6), "re-pinning at the new epoch releases it");
        r.clear(3);
        assert!(r.drained(1000));
        assert_eq!(r.pinned(3), None);
    }

    #[test]
    fn drain_scans_every_slot() {
        let r = EpochRegistry::new();
        r.set(0, 10);
        r.set(MAX_EPOCH_THREADS - 1, 9);
        assert!(!r.drained(10), "the last slot's stale pin must be seen");
        r.clear(MAX_EPOCH_THREADS - 1);
        assert!(r.drained(10));
    }
}
