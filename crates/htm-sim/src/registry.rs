//! Per-thread hardware-transaction status records.
//!
//! Conflict resolution is *requester wins*, mirroring how a cache-coherence
//! invalidation aborts the transaction that held the line: the thread performing the
//! conflicting access CASes the victim's status from `Active` to `Doomed`. A victim
//! that has already reached `Committing` can no longer be doomed — the requester
//! briefly waits for it to finish publishing, which models the coherence stall of
//! racing with an instantaneous `xend`.
//!
//! The requester that wins that CAS also leaves its calling card: the
//! [`DoomCause`] (which line, who, what kind of access) travels in the same
//! word as the status, so the victim's rollback can say *who aborted whom on
//! which line* ([`crate::trace::Event::Abort`]) at no cost beyond the CAS the
//! doom already pays.

use crate::abort::AbortCode;
use crate::align::CacheAligned;
use crate::heap::Line;
use std::sync::atomic::{AtomicU64, Ordering};

/// Hard ceiling on simulated hardware threads.
///
/// The conflict table packs each line's ownership into a single `AtomicU64`:
/// a 56-bit reader bitmap plus an 8-bit writer byte (see [`crate::line_table`]),
/// so thread ids must fit in 56 bitmap positions. Asserted here and in
/// [`crate::HtmConfig::validate`].
pub const MAX_THREADS: usize = 56;

/// Thread identifier. Bounded by the configured `max_threads` (<= [`MAX_THREADS`]).
pub type ThreadId = u8;

/// Identity of the agent performing a conflicting access.
///
/// Conflict-table operations need to know *who* is requesting an access, both to
/// skip self-conflicts and to sanity-check that no thread dooms itself. Strongly
/// atomic non-transactional accesses can also originate outside the simulated
/// machine (verification code, harness checksums); those use [`Requester::External`]
/// rather than a reserved fake thread id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Requester {
    /// A registered simulator thread (id < configured `max_threads`).
    Thread(ThreadId),
    /// An agent outside the simulated machine; never owns table entries and can
    /// never collide with a victim's id.
    External,
}

/// The kind of access that doomed a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum AccessKind {
    /// A transactional load registering the line in a peer's read set.
    TxRead = 0,
    /// A transactional store (request for ownership).
    TxWrite = 1,
    /// A strongly atomic non-transactional load.
    NtRead = 2,
    /// A strongly atomic non-transactional store / RMW.
    NtWrite = 3,
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccessKind::TxRead => "tx-read",
            AccessKind::TxWrite => "tx-write",
            AccessKind::NtRead => "nt-read",
            AccessKind::NtWrite => "nt-write",
        })
    }
}

/// Why a transaction was doomed: the conflicting access that won the
/// `Active → Doomed` transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DoomCause {
    /// The cache line both parties touched.
    pub line: Line,
    /// Who performed the conflicting access.
    pub by: Requester,
    /// What kind of access it was.
    pub kind: AccessKind,
}

/// Bit layout of a status word: status in the low byte, then the doom cause
/// (meaningful only while the status is `Doomed`).
const STATUS_MASK: u64 = 0xFF;
const CAUSE_KIND_SHIFT: u32 = 8;
const CAUSE_BY_SHIFT: u32 = 16;
const CAUSE_LINE_SHIFT: u32 = 32;
/// `by` byte of an external requester (thread ids stay below [`MAX_THREADS`]).
const CAUSE_BY_EXTERNAL: u64 = 0xFF;

impl DoomCause {
    /// The `Doomed` status word carrying this cause.
    fn doomed_word(self) -> u64 {
        let by = match self.by {
            Requester::Thread(t) => t as u64,
            Requester::External => CAUSE_BY_EXTERNAL,
        };
        TxStatus::Doomed as u64
            | (self.kind as u64) << CAUSE_KIND_SHIFT
            | by << CAUSE_BY_SHIFT
            | (self.line as u64) << CAUSE_LINE_SHIFT
    }

    /// Decode the cause out of a `Doomed` status word.
    fn of_doomed_word(word: u64) -> Self {
        let kind = match (word >> CAUSE_KIND_SHIFT) & 0xFF {
            0 => AccessKind::TxRead,
            1 => AccessKind::TxWrite,
            2 => AccessKind::NtRead,
            _ => AccessKind::NtWrite,
        };
        let by = match (word >> CAUSE_BY_SHIFT) & 0xFF {
            CAUSE_BY_EXTERNAL => Requester::External,
            t => Requester::Thread(t as ThreadId),
        };
        Self {
            line: (word >> CAUSE_LINE_SHIFT) as Line,
            by,
            kind,
        }
    }
}

/// Status of a thread's current hardware transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TxStatus {
    /// No hardware transaction in flight.
    Inactive = 0,
    /// Transaction executing; may be doomed by conflicting accesses.
    Active = 1,
    /// Transaction passed the point of no return and is publishing its write buffer.
    Committing = 2,
    /// A conflicting access invalidated this transaction; it will abort at its next
    /// operation (or at commit).
    Doomed = 3,
}

impl TxStatus {
    /// The status held in the low byte of a status word.
    fn of_word(word: u64) -> Self {
        match word & STATUS_MASK {
            0 => TxStatus::Inactive,
            1 => TxStatus::Active,
            2 => TxStatus::Committing,
            3 => TxStatus::Doomed,
            v => unreachable!("invalid TxStatus {v}"),
        }
    }
}

/// True if status word `word` holds `Doomed`: a compare on its low byte.
#[inline]
pub(crate) fn is_doomed_word(word: u64) -> bool {
    word & STATUS_MASK == TxStatus::Doomed as u64
}

/// One cache line per thread to avoid false sharing between status words:
/// every CAS on one thread's status would otherwise invalidate its
/// neighbours' lines on every doom/begin/finish. [`CacheAligned`] pads the
/// status word to a full line.
type TxSlot = CacheAligned<AtomicU64>;

fn new_slot() -> TxSlot {
    CacheAligned::new(AtomicU64::new(TxStatus::Inactive as u64))
}

/// Outcome of an attempt to doom a peer transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DoomOutcome {
    /// Peer was active and is now doomed (or was already doomed): requester proceeds.
    Doomed,
    /// Peer is committing and cannot be doomed: requester must wait for it to finish
    /// and retry the access.
    MustWait,
    /// Peer had no transaction in flight (stale entry): requester proceeds.
    Gone,
}

/// Registry of every thread's transaction status.
pub struct TxRegistry {
    slots: Box<[TxSlot]>,
}

impl TxRegistry {
    /// Create a registry for `max_threads` hardware threads.
    pub fn new(max_threads: usize) -> Self {
        assert!(
            (1..=MAX_THREADS).contains(&max_threads),
            "max_threads must be in 1..={MAX_THREADS} (packed line-table reader bitmap)"
        );
        let mut v = Vec::with_capacity(max_threads);
        v.resize_with(max_threads, new_slot);
        Self {
            slots: v.into_boxed_slice(),
        }
    }

    /// Number of thread slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the registry has no slots (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Current status of `t`'s transaction.
    #[inline]
    pub fn status(&self, t: ThreadId) -> TxStatus {
        TxStatus::of_word(self.slots[t as usize].load(Ordering::SeqCst))
    }

    /// `t`'s status word itself. A transaction keeps a reference to its own
    /// so that polling the doom flag is one load ([`is_doomed_word`]).
    pub(crate) fn word(&self, t: ThreadId) -> &AtomicU64 {
        &self.slots[t as usize]
    }

    /// Begin a transaction on thread `t`. Panics if one is already in flight —
    /// the simulator flattens nesting at a higher level, like TSX does.
    pub fn begin(&self, t: ThreadId) {
        let prev = self.slots[t as usize].swap(TxStatus::Active as u64, Ordering::SeqCst);
        debug_assert_eq!(
            prev,
            TxStatus::Inactive as u64,
            "nested hardware begin on thread {t}"
        );
    }

    /// Try to move `t` from `Active` to `Committing`. Fails (returning the doom
    /// cause) if the transaction was doomed first.
    pub fn start_commit(&self, t: ThreadId) -> Result<(), AbortCode> {
        match self.slots[t as usize].compare_exchange(
            TxStatus::Active as u64,
            TxStatus::Committing as u64,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => Ok(()),
            Err(_) => Err(AbortCode::Conflict),
        }
    }

    /// Finish `t`'s transaction (after commit publication or abort cleanup).
    pub fn finish(&self, t: ThreadId) {
        self.slots[t as usize].store(TxStatus::Inactive as u64, Ordering::SeqCst);
    }

    /// True if `t`'s transaction has been doomed by a conflicting access.
    #[inline]
    pub fn is_doomed(&self, t: ThreadId) -> bool {
        is_doomed_word(self.slots[t as usize].load(Ordering::SeqCst))
    }

    /// Why `t`'s transaction was doomed — the access that won its
    /// `Active → Doomed` transition — or `None` when it is not doomed.
    pub fn doom_cause(&self, t: ThreadId) -> Option<DoomCause> {
        let word = self.slots[t as usize].load(Ordering::SeqCst);
        (TxStatus::of_word(word) == TxStatus::Doomed).then(|| DoomCause::of_doomed_word(word))
    }

    /// Requester-wins conflict resolution: the access `cause` dooms thread
    /// `victim`. The first requester to doom a transaction is the one its
    /// cause names; later dooms of the same incarnation leave it alone.
    ///
    /// Callers identify `victim` from a lock-free snapshot of a conflict-table
    /// word, so by the time the CAS below lands, `victim` may have finished that
    /// transaction and begun another: the doom then hits the *next* incarnation.
    /// Such spurious dooms are semantically sound — best-effort HTM may abort any
    /// transaction at any time for any reason — and are vanishingly rare (the
    /// victim must roll back, clear its table entries, and restart inside the
    /// requester's read-doom-CAS window). Lost dooms cannot happen: the table
    /// word CAS fails if ownership changed, and the requester re-inspects.
    pub fn doom(&self, victim: ThreadId, cause: DoomCause) -> DoomOutcome {
        debug_assert_ne!(
            Requester::Thread(victim),
            cause.by,
            "self-doom is a logic error"
        );
        let slot = &self.slots[victim as usize];
        loop {
            let cur = slot.load(Ordering::SeqCst);
            match TxStatus::of_word(cur) {
                TxStatus::Active => {
                    if slot
                        .compare_exchange(
                            cur,
                            cause.doomed_word(),
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    {
                        return DoomOutcome::Doomed;
                    }
                    // Lost a race with the victim's own transition; re-inspect.
                }
                TxStatus::Doomed => return DoomOutcome::Doomed,
                TxStatus::Committing => return DoomOutcome::MustWait,
                TxStatus::Inactive => return DoomOutcome::Gone,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A doom of line 0 by thread `t`'s transactional write.
    fn by(t: ThreadId) -> DoomCause {
        DoomCause {
            line: 0,
            by: Requester::Thread(t),
            kind: AccessKind::TxWrite,
        }
    }

    #[test]
    fn lifecycle() {
        let r = TxRegistry::new(4);
        assert_eq!(r.status(0), TxStatus::Inactive);
        r.begin(0);
        assert_eq!(r.status(0), TxStatus::Active);
        r.start_commit(0).unwrap();
        assert_eq!(r.status(0), TxStatus::Committing);
        r.finish(0);
        assert_eq!(r.status(0), TxStatus::Inactive);
    }

    #[test]
    fn doom_active_peer() {
        let r = TxRegistry::new(4);
        r.begin(1);
        assert_eq!(r.doom(1, by(0)), DoomOutcome::Doomed);
        assert!(r.is_doomed(1));
        // Doomed transactions cannot start committing.
        assert!(r.start_commit(1).is_err());
        r.finish(1);
    }

    #[test]
    fn committing_peer_forces_wait() {
        let r = TxRegistry::new(4);
        r.begin(1);
        r.start_commit(1).unwrap();
        assert_eq!(r.doom(1, by(0)), DoomOutcome::MustWait);
        r.finish(1);
        assert_eq!(r.doom(1, by(0)), DoomOutcome::Gone);
    }

    #[test]
    fn doom_idempotent() {
        let r = TxRegistry::new(4);
        r.begin(1);
        assert_eq!(r.doom(1, by(0)), DoomOutcome::Doomed);
        assert_eq!(r.doom(1, by(2)), DoomOutcome::Doomed);
        r.finish(1);
    }

    #[test]
    fn first_doomer_is_the_recorded_cause() {
        let r = TxRegistry::new(4);
        r.begin(1);
        assert_eq!(r.doom_cause(1), None, "active, not doomed");
        let first = DoomCause {
            line: 0xDEAD_BEEF,
            by: Requester::External,
            kind: AccessKind::NtWrite,
        };
        r.doom(1, first);
        r.doom(1, by(2));
        assert_eq!(r.doom_cause(1), Some(first));
        r.finish(1);
        assert_eq!(r.doom_cause(1), None);
        r.begin(1);
        r.doom(1, by(3));
        assert_eq!(r.doom_cause(1), Some(by(3)), "a new incarnation starts clean");
        r.finish(1);
    }

    #[test]
    fn slot_is_cache_line_sized() {
        assert_eq!(std::mem::size_of::<TxSlot>(), 64);
        assert_eq!(std::mem::align_of::<TxSlot>(), 64);
    }
}
