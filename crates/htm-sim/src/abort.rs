//! Abort taxonomy of a best-effort hardware transaction.
//!
//! §2 of the paper: "In the current HTM implementations, three reasons force a
//! transaction to abort: conflict, capacity, and other." Part-HTM groups capacity and
//! "other" (interrupts) into the superset of *resource failures*, which is the class
//! of aborts the partitioned path is designed to rescue.
//!
//! This simulator splits the paper's "other" bucket into its two distinct causes:
//! [`AbortCode::Timer`] (the transaction *deterministically* exhausted its work-unit
//! quantum — a resource failure that will recur on retry, so partitioning can cure
//! it) and [`AbortCode::Interrupt`] (a randomly injected asynchronous event — a
//! transient that an in-place retry usually survives). Conflating the two made the
//! planner's capacity-class profiles count transient interrupts as resource
//! failures and issue spurious group splits.

use std::fmt;

/// Why a hardware transaction aborted.
///
/// Mirrors the status word TSX hands to the fallback handler after `_xbegin`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortCode {
    /// A concurrent access to one of the transaction's cache lines invalidated it
    /// (data conflict), including invalidations by non-transactional code (strong
    /// atomicity).
    Conflict,
    /// The transaction's footprint exceeded the transactional buffer: a written line
    /// was evicted from the simulated L1, or the read-set budget was exhausted.
    Capacity,
    /// The transaction executed `xabort(code)`. TM protocols use the payload to
    /// signal software-defined conditions (e.g. "global lock held", "locked location
    /// observed", "timestamp changed").
    Explicit(u8),
    /// The simulated timer interrupt fired: cumulative work reached the configured
    /// quantum ([`crate::HtmConfig::quantum`]). Deterministic — the same transaction
    /// will exhaust the same quantum on every retry, which is why this is a
    /// *resource failure* the partitioned path rescues.
    Timer,
    /// A randomly injected asynchronous interrupt ([`crate::HtmConfig::interrupt_prob`])
    /// — page faults, device interrupts, etc. Transient: retrying in place usually
    /// succeeds, so this is *not* classified as a resource failure.
    Interrupt,
}

impl AbortCode {
    /// True if the abort is a *resource failure* in the paper's sense (§2): the
    /// transaction could not commit because of space (capacity) or time (quantum)
    /// limitations that will *deterministically* recur on retry. Transient causes —
    /// conflicts, explicit aborts, injected interrupts — are excluded.
    #[inline]
    pub fn is_resource_failure(self) -> bool {
        matches!(self, AbortCode::Capacity | AbortCode::Timer)
    }

    /// The explicit payload, if this was an `xabort`.
    #[inline]
    pub fn explicit_code(self) -> Option<u8> {
        match self {
            AbortCode::Explicit(c) => Some(c),
            _ => None,
        }
    }
}

impl fmt::Display for AbortCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortCode::Conflict => write!(f, "conflict"),
            AbortCode::Capacity => write!(f, "capacity"),
            AbortCode::Explicit(c) => write!(f, "explicit({c})"),
            AbortCode::Timer => write!(f, "timer"),
            AbortCode::Interrupt => write!(f, "interrupt"),
        }
    }
}

/// Result type for transactional operations: every read/write inside a hardware
/// transaction can abort, and the abort propagates to the fallback handler via `?`.
pub type TxResult<T> = Result<T, AbortCode>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_failure_classification() {
        assert!(AbortCode::Capacity.is_resource_failure());
        assert!(AbortCode::Timer.is_resource_failure());
        assert!(
            !AbortCode::Interrupt.is_resource_failure(),
            "transient injected interrupts are not deterministic resource failures"
        );
        assert!(!AbortCode::Conflict.is_resource_failure());
        assert!(!AbortCode::Explicit(3).is_resource_failure());
    }

    #[test]
    fn explicit_payload_roundtrip() {
        assert_eq!(AbortCode::Explicit(42).explicit_code(), Some(42));
        assert_eq!(AbortCode::Conflict.explicit_code(), None);
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(AbortCode::Conflict.to_string(), "conflict");
        assert_eq!(AbortCode::Explicit(7).to_string(), "explicit(7)");
        assert_eq!(AbortCode::Timer.to_string(), "timer");
        assert_eq!(AbortCode::Interrupt.to_string(), "interrupt");
    }
}
