//! The value-based undo-log (§5.1): old values of locations written by committed
//! sub-HTM transactions, used to roll the shared memory back when the enclosing
//! global transaction aborts.
//!
//! The log entries live in a heap arena and are appended **inside** the sub-HTM
//! transaction (Fig. 1 line 23), so — like in the real system — the log consumes HTM
//! write capacity and its entries vanish automatically when the sub-HTM transaction
//! aborts (well, almost: the simulator's buffered writes vanish; the software length
//! cursor is rolled back with [`UndoLog::truncate`]). The paper calls this log "the
//! biggest source of overhead in Part-HTM".

use crate::api::{LOCK_BIT, XABORT_UNDO_FULL};
use htm_sim::abort::TxResult;
use htm_sim::{Addr, HtmThread, HtmTx};

/// Software cursor over a heap-resident undo arena of (address, old-value) pairs.
pub struct UndoLog {
    base: Addr,
    capacity_words: usize,
    len_entries: usize,
}

impl UndoLog {
    /// Wrap a heap arena of `capacity_words` words starting at `base`.
    pub fn new(base: Addr, capacity_words: usize) -> Self {
        Self {
            base,
            capacity_words,
            len_entries: 0,
        }
    }

    /// Number of logged writes.
    pub fn len(&self) -> usize {
        self.len_entries
    }

    /// True when nothing is logged.
    pub fn is_empty(&self) -> bool {
        self.len_entries == 0
    }

    /// Append `(addr, old)` transactionally (from inside a sub-HTM transaction).
    /// Explicitly aborts the hardware transaction with [`XABORT_UNDO_FULL`] when the
    /// arena is full.
    pub fn append_tx(&mut self, tx: &mut HtmTx<'_, '_>, addr: Addr, old: u64) -> TxResult<()> {
        let at = self.len_entries * 2;
        if at + 2 > self.capacity_words {
            return Err(tx.xabort(XABORT_UNDO_FULL));
        }
        // The arena is thread-private and entries beyond the software cursor are
        // dead, so the stores need capacity accounting but no versioning.
        tx.write_private(self.base + at as Addr, addr as u64)?;
        tx.write_private(self.base + at as Addr + 1, old)?;
        self.len_entries += 1;
        Ok(())
    }

    /// Roll the cursor back to `mark` entries (a failed sub-HTM attempt's appends
    /// were never published, so dropping the cursor suffices).
    pub fn truncate(&mut self, mark: usize) {
        debug_assert!(mark <= self.len_entries);
        self.len_entries = mark;
    }

    /// Forget everything (global transaction finished).
    pub fn clear(&mut self) {
        self.len_entries = 0;
    }

    /// Entry `i` as `(addr, old value)`, read non-transactionally. Valid only for
    /// entries of *committed* sub-HTM transactions (published to the heap).
    pub fn entry_nt(&self, th: &HtmThread<'_>, i: usize) -> (Addr, u64) {
        debug_assert!(i < self.len_entries);
        let at = self.base + (i * 2) as Addr;
        (th.nt_read(at) as Addr, th.nt_read(at + 1))
    }

    /// Restore all logged old values, newest first (Fig. 1 line 53
    /// `undo_log.undo()`): a location written by two sub-HTM transactions has two
    /// entries, and reverse order leaves the oldest value in memory.
    pub fn undo_nt(&self, th: &HtmThread<'_>) {
        for i in (0..self.len_entries).rev() {
            let (addr, old) = self.entry_nt(th, i);
            th.nt_write(addr, old);
        }
    }

    /// Clear the embedded lock bit on every logged address (Part-HTM-O global
    /// commit, Fig. 2 lines 55–56), keeping the committed values.
    pub fn unlock_all_nt(&self, th: &HtmThread<'_>) {
        for i in 0..self.len_entries {
            let at = self.base + (i * 2) as Addr;
            let addr = th.nt_read(at) as Addr;
            th.system().nt_fetch_and_by(th.id(), addr, !LOCK_BIT);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::TmRuntime;
    use crate::runtime::TmThread;

    fn setup() -> TmRuntime {
        TmRuntime::with_defaults(1, 256)
    }

    #[test]
    fn append_and_undo_restores_in_reverse() {
        let rt = setup();
        let mut th = TmThread::new(&rt, 0);
        let a = rt.arena(0);
        let mut log = UndoLog::new(a.undo_base, a.undo_words);
        let x = rt.app(0);

        rt.setup_write(0, 100);
        // First sub-HTM: write 200, logging 100.
        th.hw
            .attempt(|tx| {
                log.append_tx(tx, x, 100)?;
                tx.write(x, 200)
            })
            .unwrap();
        // Second sub-HTM: write 300, logging 200.
        th.hw
            .attempt(|tx| {
                log.append_tx(tx, x, 200)?;
                tx.write(x, 300)
            })
            .unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(rt.verify_read(0), 300);

        log.undo_nt(&th.hw);
        assert_eq!(
            rt.verify_read(0),
            100,
            "reverse-order restore yields oldest value"
        );
    }

    #[test]
    fn truncate_discards_failed_attempt() {
        let rt = setup();
        let mut th = TmThread::new(&rt, 0);
        let a = rt.arena(0);
        let mut log = UndoLog::new(a.undo_base, a.undo_words);
        let x = rt.app(0);

        th.hw
            .attempt(|tx| {
                log.append_tx(tx, x, 0)?;
                tx.write(x, 1)
            })
            .unwrap();
        let mark = log.len();
        // Failed attempt: its appends roll back with the hardware transaction.
        let r = th.hw.attempt(|tx| -> htm_sim::abort::TxResult<()> {
            log.append_tx(tx, x, 1)?;
            tx.write(x, 2)?;
            Err(tx.xabort(9))
        });
        assert!(r.is_err());
        log.truncate(mark);
        assert_eq!(log.len(), 1);
        log.undo_nt(&th.hw);
        assert_eq!(rt.verify_read(0), 0);
    }

    #[test]
    fn overflow_aborts_with_undo_full() {
        let rt = setup();
        let mut th = TmThread::new(&rt, 0);
        let mut log = UndoLog::new(rt.arena(0).undo_base, 4);
        let r = th.hw.attempt(|tx| {
            log.append_tx(tx, rt.app(0), 0)?;
            log.append_tx(tx, rt.app(1), 0)?;
            log.append_tx(tx, rt.app(2), 0)?; // third entry needs words 4..6 > 4
            Ok(())
        });
        assert_eq!(r, Err(htm_sim::AbortCode::Explicit(XABORT_UNDO_FULL)));
    }

    #[test]
    fn unlock_all_clears_lock_bits_keeping_values() {
        let rt = setup();
        let mut th = TmThread::new(&rt, 0);
        let a = rt.arena(0);
        let mut log = UndoLog::new(a.undo_base, a.undo_words);
        let x = rt.app(3);
        th.hw
            .attempt(|tx| {
                log.append_tx(tx, x, 0)?;
                tx.write(x, 42 | LOCK_BIT)
            })
            .unwrap();
        assert_eq!(rt.verify_read(3) & LOCK_BIT, LOCK_BIT);
        log.unlock_all_nt(&th.hw);
        assert_eq!(rt.verify_read(3), 42);
    }
}
