//! Mutex-based reference implementation of the conflict table.
//!
//! This is the original `LineTable` (one `Mutex<LineEntry>` per heap line),
//! retained verbatim after the lock-free packed-word table replaced it on the
//! hot path ([`crate::line_table`]). It exists as the **differential-testing
//! oracle**: `tests/table_differential.rs` replays randomized operation
//! sequences against both tables and requires identical outcomes and identical
//! final ownership state. Sequential executions of the two implementations
//! must agree exactly — the lock-free table's extra freedoms (spurious dooms,
//! claim back-off) only arise under concurrency. (It was also the "before" arm
//! of the retired conflict-table bench: the packed word halved the access
//! cycle, 7.4 vs 15.5 ns/op — history table in EXPERIMENTS.md.)
//!
//! The API mirrors [`crate::line_table::LineTable`] exactly; it is not used by
//! [`crate::HtmSystem`].

use crate::heap::Line;
use crate::line_table::AccessOutcome;
use crate::registry::{AccessKind, DoomCause, DoomOutcome, Requester, ThreadId, TxRegistry};
use std::sync::Mutex;

#[derive(Clone, Copy, Default)]
struct LineEntry {
    /// Thread currently holding the line in its transactional write set, if any.
    writer: Option<ThreadId>,
    /// Bitmap of threads holding the line in their transactional read sets.
    readers: u64,
}

impl LineEntry {
    fn is_empty(&self) -> bool {
        self.writer.is_none() && self.readers == 0
    }
}

/// Direct-indexed, per-line-mutex conflict table (reference implementation).
pub struct MutexLineTable {
    entries: Box<[Mutex<LineEntry>]>,
}

impl MutexLineTable {
    /// Create a table covering `n_lines` heap lines.
    pub fn new(n_lines: usize) -> Self {
        let mut v = Vec::with_capacity(n_lines);
        v.resize_with(n_lines, || Mutex::new(LineEntry::default()));
        Self {
            entries: v.into_boxed_slice(),
        }
    }

    #[inline]
    fn slot(&self, line: Line) -> &Mutex<LineEntry> {
        &self.entries[line as usize]
    }

    /// Register thread `t` as a transactional reader of `line`.
    pub fn tx_read(&self, reg: &TxRegistry, line: Line, t: ThreadId) -> AccessOutcome {
        let mut entry = self.slot(line).lock().unwrap();
        if let Some(w) = entry.writer {
            if w != t {
                let cause = DoomCause {
                    line,
                    by: Requester::Thread(t),
                    kind: AccessKind::TxRead,
                };
                match reg.doom(w, cause) {
                    DoomOutcome::MustWait => return AccessOutcome::Wait,
                    DoomOutcome::Doomed => {}
                    DoomOutcome::Gone => entry.writer = None,
                }
            }
        }
        entry.readers |= 1u64 << t;
        AccessOutcome::Ok
    }

    /// Register thread `t` as the transactional writer of `line`.
    pub fn tx_write(&self, reg: &TxRegistry, line: Line, t: ThreadId) -> AccessOutcome {
        let mut entry = self.slot(line).lock().unwrap();
        let cause = DoomCause {
            line,
            by: Requester::Thread(t),
            kind: AccessKind::TxWrite,
        };
        if let Some(w) = entry.writer {
            if w != t {
                match reg.doom(w, cause) {
                    DoomOutcome::MustWait => return AccessOutcome::Wait,
                    DoomOutcome::Doomed => {}
                    DoomOutcome::Gone => {}
                }
            }
        }
        let mut readers = entry.readers & !(1u64 << t);
        while readers != 0 {
            let r = readers.trailing_zeros() as ThreadId;
            readers &= readers - 1;
            match reg.doom(r, cause) {
                DoomOutcome::MustWait => return AccessOutcome::Wait,
                DoomOutcome::Doomed | DoomOutcome::Gone => {}
            }
        }
        entry.writer = Some(t);
        AccessOutcome::Ok
    }

    /// Strong atomicity: a non-transactional access to `line` by `by`.
    pub fn nt_access(
        &self,
        reg: &TxRegistry,
        line: Line,
        is_write: bool,
        by: Requester,
    ) -> AccessOutcome {
        match self.nt_execute(reg, line, is_write, by, || ()) {
            Ok(()) => AccessOutcome::Ok,
            Err(()) => AccessOutcome::Wait,
        }
    }

    /// Execute a non-transactional heap access atomically with its conflict
    /// resolution, under the line's mutex.
    #[allow(clippy::result_unit_err)]
    pub fn nt_execute<R>(
        &self,
        reg: &TxRegistry,
        line: Line,
        is_write: bool,
        by: Requester,
        op: impl FnOnce() -> R,
    ) -> Result<R, ()> {
        let mut entry = self.slot(line).lock().unwrap();
        let kind = if is_write {
            AccessKind::NtWrite
        } else {
            AccessKind::NtRead
        };
        let cause = DoomCause { line, by, kind };
        if !entry.is_empty() {
            if let Some(w) = entry.writer {
                if Requester::Thread(w) != by {
                    match reg.doom(w, cause) {
                        DoomOutcome::MustWait => return Err(()),
                        DoomOutcome::Doomed => {}
                        DoomOutcome::Gone => entry.writer = None,
                    }
                } else {
                    debug_assert!(
                        false,
                        "non-transactional access to a line in the caller's own active write set"
                    );
                }
            }
            if is_write {
                let mut readers = entry.readers;
                if let Requester::Thread(b) = by {
                    readers &= !(1u64 << b);
                }
                while readers != 0 {
                    let r = readers.trailing_zeros() as ThreadId;
                    readers &= readers - 1;
                    match reg.doom(r, cause) {
                        DoomOutcome::MustWait => return Err(()),
                        DoomOutcome::Doomed | DoomOutcome::Gone => {}
                    }
                }
            }
        }
        Ok(op())
    }

    /// Remove thread `t`'s registration (reader and/or writer) for `line`.
    pub fn unregister(&self, line: Line, t: ThreadId) {
        let mut entry = self.slot(line).lock().unwrap();
        entry.readers &= !(1u64 << t);
        if entry.writer == Some(t) {
            entry.writer = None;
        }
    }

    /// Total number of live line registrations (diagnostics / leak tests).
    pub fn live_entries(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| !e.lock().unwrap().is_empty())
            .count()
    }

    /// Ownership of `line` in the packed-word encoding of
    /// [`crate::line_table::LineTable::raw_word`], for differential comparison.
    #[doc(hidden)]
    pub fn raw_word(&self, line: Line) -> u64 {
        let entry = self.slot(line).lock().unwrap();
        let wb = match entry.writer {
            None => 0,
            Some(t) => t as u64 + 1,
        };
        (wb << 56) | entry.readers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_packed_encoding() {
        let tab = MutexLineTable::new(16);
        let reg = TxRegistry::new(8);
        reg.begin(0);
        reg.begin(3);
        tab.tx_read(&reg, 7, 3);
        tab.tx_write(&reg, 7, 0);
        assert_eq!(tab.raw_word(7), (1 << 3) | (1u64 << 56));
        tab.unregister(7, 3);
        tab.unregister(7, 0);
        assert_eq!(tab.raw_word(7), 0);
        assert_eq!(tab.live_entries(), 0);
    }

    #[test]
    fn committing_writer_blocks_requester() {
        let tab = MutexLineTable::new(16);
        let reg = TxRegistry::new(8);
        reg.begin(0);
        tab.tx_write(&reg, 9, 0);
        reg.start_commit(0).unwrap();
        reg.begin(1);
        assert_eq!(tab.tx_read(&reg, 9, 1), AccessOutcome::Wait);
        assert_eq!(
            tab.nt_access(&reg, 9, true, Requester::External),
            AccessOutcome::Wait
        );
        tab.unregister(9, 0);
        reg.finish(0);
        assert_eq!(tab.tx_read(&reg, 9, 1), AccessOutcome::Ok);
    }
}
