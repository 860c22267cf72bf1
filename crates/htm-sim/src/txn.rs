//! A single hardware-transaction attempt, mirroring the RTM instruction set:
//! `_xbegin` ([`crate::HtmThread::begin`]), transactional loads/stores
//! ([`HtmTx::read`]/[`HtmTx::write`]), `_xabort` ([`HtmTx::xabort`]) and `_xend`
//! ([`HtmTx::commit`]).
//!
//! ## Semantics
//!
//! * Writes are buffered (write-in-place happens atomically at commit, which is how
//!   TSX's L1-buffered eager writes behave as observed from other cores).
//! * Reads return the transaction's own buffered value if present, else the shared
//!   heap value.
//! * Conflicts are detected eagerly at access registration; a conflicting peer access
//!   dooms this transaction asynchronously, and the doom is observed at the next
//!   operation or at commit. A transaction never returns a value that is inconsistent
//!   with its isolated snapshot: the doom flag is re-checked *after* each heap load
//!   (sequential consistency of the doom flag and the publish stores guarantees the
//!   check catches any racing commit).
//! * Capacity: distinct written lines must fit the simulated L1 sets/ways; distinct
//!   read lines must fit the flat read budget. A
//!   backend with a spill budget moves an overflowing line to software
//!   tracking at a work-unit charge instead ([`crate::backend`]).
//! * Time: each operation costs work units; reaching the quantum raises the
//!   simulated timer interrupt ([`AbortCode::Timer`]).
//!
//! ## Host cost
//!
//! An access to a line the transaction already registered is the common case
//! (an L1 hit with nothing new to record on hardware). Its path — doom check,
//! charge, line-state test, write-buffer lookup, heap load, doom re-check — is
//! inlined into the caller; first-access registration, capacity accounting and
//! every abort are out-of-line calls (`docs/hot-path.md` §5).

use crate::abort::{AbortCode, TxResult};
use crate::backend::CapOutcome;
use crate::heap::Addr;
use crate::line_table::AccessOutcome;
use crate::registry::is_doomed_word;
use crate::system::{Buffered, HtmThread, LineState, CHAIN_END};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// An in-flight hardware transaction. Obtained from [`crate::HtmThread::begin`].
///
/// All operations return `Err(AbortCode)` when the transaction aborts; after an
/// error, the transaction has already rolled back (buffers dropped, lines released)
/// and must be dropped. Committing consumes the transaction.
pub struct HtmTx<'a, 's> {
    th: &'a mut HtmThread<'s>,
    /// This thread's registry status word: a doom check is one load.
    status: &'s AtomicU64,
    /// The quantum when the transaction is *plain* — no virtual clock
    /// attached and `interrupt_prob` 0, so a charge can only ever fire the
    /// timer — else 0, which sends every charge through the full body.
    /// Fixed at begin; `commit` debug-asserts that the thread did not attach
    /// to a clock since.
    plain_quantum: u64,
    work: u64,
    active: bool,
}

impl<'a, 's> HtmTx<'a, 's> {
    pub(crate) fn new(th: &'a mut HtmThread<'s>) -> Self {
        let sys = th.sys;
        let plain = sys.config.interrupt_prob == 0.0 && !crate::vclock::is_attached();
        Self {
            status: sys.registry.word(th.id),
            plain_quantum: if plain { sys.config.quantum } else { 0 },
            th,
            work: 0,
            active: true,
        }
    }

    /// Work units consumed so far.
    pub fn work_used(&self) -> u64 {
        self.work
    }

    /// Distinct lines whose first access was a read.
    pub fn read_lines(&self) -> usize {
        self.th.cap.read_lines()
    }

    /// Distinct lines currently charged to the hardware write-set model
    /// (software-spilled lines excluded).
    pub fn write_lines(&self) -> usize {
        self.th.cap.write_lines()
    }

    /// Lines spilled to software capacity tracking by this transaction.
    pub fn spilled_lines(&self) -> u64 {
        self.th.cap.spilled_lines()
    }

    #[inline(always)]
    fn doomed(&self) -> bool {
        is_doomed_word(self.status.load(Ordering::SeqCst))
    }

    /// Roll back: release every registered line, drop buffers, record the abort.
    fn rollback(&mut self, code: AbortCode) {
        debug_assert!(self.active);
        self.active = false;
        let th = &mut *self.th;
        for &line in th.touched.iter() {
            th.sys.table.unregister(line, th.id);
        }
        th.touched.clear();
        th.wbuf.clear();
        th.spilled_lines += th.cap.spilled_lines();
        th.cap.reset();
        if !th.trace.is_disabled() {
            // Who aborted whom: the doom's cause lives in the status word
            // until `finish` clears it.
            let cause = match code {
                AbortCode::Conflict => th.sys.registry.doom_cause(th.id),
                _ => None,
            };
            th.trace.record(crate::trace::Event::Abort {
                code,
                work: self.work,
                cause,
                at: crate::vclock::now(),
            });
        }
        th.sys.registry.finish(th.id);
        th.stats.record_abort(code);
        th.stats.work_units += self.work;
        th.in_tx = false;
    }

    #[cold]
    #[inline(never)]
    fn fail(&mut self, code: AbortCode) -> AbortCode {
        self.rollback(code);
        code
    }

    /// Advance the simulated core's clock under a virtual-time run (a no-op
    /// otherwise), which may hand the floor to another core. A peer that ran
    /// during the hand-over may have doomed this transaction: it must die
    /// here, before it issues the access the charge pays for — a doomed
    /// transaction sends no further coherence request, so it can never doom
    /// its own killer back.
    #[inline]
    fn charge_clock(&mut self, units: u64) -> TxResult<()> {
        if crate::vclock::charge(units) {
            self.check_doomed()?;
        }
        Ok(())
    }

    /// Charge work units. A plain transaction below its quantum pays one add
    /// and one compare; everything else takes [`HtmTx::charge_full`].
    #[inline(always)]
    fn charge(&mut self, units: u64) -> TxResult<()> {
        let work = self.work + units;
        if work < self.plain_quantum {
            self.work = work;
            return Ok(());
        }
        self.charge_full(units)
    }

    /// Charge work units and fire the timer / injected interrupts: the one
    /// place either fires.
    #[inline(never)]
    fn charge_full(&mut self, units: u64) -> TxResult<()> {
        self.work += units;
        self.charge_clock(units)?;
        // The timer fires at the operation that brings cumulative work to the
        // quantum or beyond (>=: consuming *exactly* `quantum` units aborts).
        if self.work >= self.th.sys.config.quantum {
            return Err(self.fail(AbortCode::Timer));
        }
        let p = self.th.sys.config.interrupt_prob;
        if p > 0.0 {
            // Under a virtual clock the draw comes from the schedule-seeded
            // per-core RNG, so a replayed schedule reproduces injected
            // interrupts bit-exactly; otherwise from the thread's own RNG.
            let draw = crate::vclock::interrupt_draw().unwrap_or_else(|| self.th.rng.gen::<f64>());
            if draw < p {
                return Err(self.fail(AbortCode::Interrupt));
            }
        }
        Ok(())
    }

    #[inline(always)]
    fn check_doomed(&mut self) -> TxResult<()> {
        if self.doomed() {
            return Err(self.fail(AbortCode::Conflict));
        }
        Ok(())
    }

    /// Transactional load of the word at `addr`.
    #[inline(always)]
    pub fn read(&mut self, addr: Addr) -> TxResult<u64> {
        debug_assert!(self.active, "operation on finished transaction");
        self.check_doomed()?;
        self.charge(1)?;
        let line = crate::line_of(addr);
        let st = self.th.lstate[line as usize];
        if st.epoch != self.th.epoch {
            self.register_read_line(line)?;
        } else if st.head != CHAIN_END {
            // The line has buffered words: this one may be among them.
            if let Some(i) = self.buffered(st.head, addr) {
                return Ok(self.th.wbuf[i].val);
            }
        }
        let v = self.th.sys.heap.load(addr);
        // Re-check after the load: if a racing commit published over this line, the
        // doom flag (stored before the publish, both SeqCst) is visible now.
        self.check_doomed()?;
        Ok(v)
    }

    /// Register a first access to `line` that reads: conflict-table claim,
    /// line-state update, capacity charge.
    #[inline(never)]
    fn register_read_line(&mut self, line: crate::heap::Line) -> TxResult<()> {
        let mut backoff = crate::util::Backoff::new();
        loop {
            match self
                .th
                .sys
                .table
                .tx_read(&self.th.sys.registry, line, self.th.id)
            {
                AccessOutcome::Ok => break,
                AccessOutcome::Wait => {
                    if self.doomed() {
                        return Err(self.fail(AbortCode::Conflict));
                    }
                    backoff.snooze();
                }
            }
        }
        self.th.lstate[line as usize] = LineState {
            epoch: self.th.epoch,
            flags: crate::system::LINE_READ,
            head: CHAIN_END,
        };
        self.th.touched.push(line);
        match self.th.cap.on_read_line(&self.th.sys.model) {
            CapOutcome::Fits => Ok(()),
            CapOutcome::Spilled { charge } => self.charge(charge),
            CapOutcome::Overflow => Err(self.fail(AbortCode::Capacity)),
        }
    }

    /// Register a first write to `line` (possibly an upgrade from a read):
    /// conflict-table claim, line-state update, capacity charge. Shared by
    /// [`HtmTx::write`] and [`HtmTx::write_private`].
    #[inline(never)]
    fn register_write_line(&mut self, line: crate::heap::Line) -> TxResult<()> {
        let st = self.th.lstate[line as usize];
        let mut backoff = crate::util::Backoff::new();
        loop {
            match self
                .th
                .sys
                .table
                .tx_write(&self.th.sys.registry, line, self.th.id)
            {
                AccessOutcome::Ok => break,
                AccessOutcome::Wait => {
                    if self.doomed() {
                        return Err(self.fail(AbortCode::Conflict));
                    }
                    backoff.snooze();
                }
            }
        }
        let fresh = st.epoch != self.th.epoch;
        let flags = if fresh {
            crate::system::LINE_WRITTEN
        } else {
            st.flags | crate::system::LINE_WRITTEN
        };
        self.th.lstate[line as usize] = LineState {
            epoch: self.th.epoch,
            flags,
            head: CHAIN_END,
        };
        if fresh {
            self.th.touched.push(line);
        }
        match self.th.cap.on_write_line(&self.th.sys.model, line) {
            CapOutcome::Fits => {}
            CapOutcome::Spilled { charge } => self.charge(charge)?,
            CapOutcome::Overflow => return Err(self.fail(AbortCode::Capacity)),
        }
        Ok(())
    }

    /// Transactional store of `val` to the word at `addr` (buffered until commit).
    #[inline(always)]
    pub fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        debug_assert!(self.active, "operation on finished transaction");
        self.check_doomed()?;
        self.charge(1)?;
        let line = crate::line_of(addr);
        let st = self.th.lstate[line as usize];
        let next = if st.epoch != self.th.epoch || st.flags & crate::system::LINE_WRITTEN == 0 {
            // A line enters the write set with nothing buffered.
            self.register_write_line(line)?;
            CHAIN_END
        } else if let Some(i) = self.buffered(st.head, addr) {
            self.th.wbuf[i].val = val;
            return Ok(());
        } else {
            st.head
        };
        // A new word: append it as the line's chain head. The write-set
        // bound `HtmSystem::new` checks keeps the index below `CHAIN_END`.
        debug_assert!(self.th.wbuf.len() < CHAIN_END as usize);
        let head = self.th.wbuf.len() as u16;
        self.th.wbuf.push(Buffered { addr, next, val });
        self.th.lstate[line as usize].head = head;
        Ok(())
    }

    /// The write-buffer index of `addr`, walking its line's chain from `head`.
    #[inline(always)]
    fn buffered(&self, mut head: u16, addr: Addr) -> Option<usize> {
        while head != CHAIN_END {
            let e = &self.th.wbuf[head as usize];
            if e.addr == addr {
                return Some(head as usize);
            }
            head = e.next;
        }
        None
    }

    /// Distinct words buffered by this transaction so far.
    pub fn buffered_words(&self) -> usize {
        self.th.wbuf.len()
    }

    /// Store to a **thread-private** location with transactional capacity accounting
    /// but no versioning: the line is registered in the write set and charged
    /// against the L1 model exactly like [`HtmTx::write`], but the value is stored
    /// to the heap immediately and is *not* rolled back on abort.
    ///
    /// Only sound for memory no other thread reads while this transaction can still
    /// abort — the per-thread metadata arenas (undo log, local signatures). Models
    /// metadata writes that occupy transactional cache without needing the
    /// simulator's write buffering; protocol correctness never depends on their
    /// rollback (failed attempts roll back their software cursors instead).
    #[inline(always)]
    pub fn write_private(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        debug_assert!(self.active, "operation on finished transaction");
        self.check_doomed()?;
        self.charge(1)?;
        let line = crate::line_of(addr);
        let st = self.th.lstate[line as usize];
        if st.epoch != self.th.epoch || st.flags & crate::system::LINE_WRITTEN == 0 {
            self.register_write_line(line)?;
        }
        self.th.sys.heap.store(addr, val);
        Ok(())
    }

    /// Read-modify-write helper: `read` then `write` of `f(old)`, returning the old
    /// value.
    pub fn fetch_update(&mut self, addr: Addr, f: impl FnOnce(u64) -> u64) -> TxResult<u64> {
        let old = self.read(addr)?;
        self.write(addr, f(old))?;
        Ok(old)
    }

    /// Perform `units` of transactional computation (loop bodies, floating-point
    /// work, ...). Consumes time but touches no memory.
    #[inline(always)]
    pub fn work(&mut self, units: u64) -> TxResult<()> {
        debug_assert!(self.active, "operation on finished transaction");
        self.check_doomed()?;
        self.charge(units)
    }

    /// Explicitly abort with a software-defined code (`_xabort(code)`).
    /// Always returns `Err(AbortCode::Explicit(code))` for use with `?`.
    pub fn xabort(&mut self, code: u8) -> AbortCode {
        debug_assert!(self.active, "operation on finished transaction");
        self.fail(AbortCode::Explicit(code))
    }

    /// Abort with an externally chosen code without counting it as explicit —
    /// used by [`crate::HtmThread::attempt`] to unwind after a body error whose
    /// rollback already happened. If the transaction is still active (the body
    /// synthesised its own error), roll back with that code.
    pub(crate) fn cancel(mut self, code: AbortCode) {
        if self.active {
            self.rollback(code);
        }
    }

    /// Attempt to commit (`_xend`). On success the write buffer is published
    /// atomically to the heap. Fails with `Conflict` if the transaction was doomed.
    pub fn commit(mut self) -> TxResult<()> {
        debug_assert!(self.active, "double commit");
        debug_assert!(
            self.plain_quantum == 0 || !crate::vclock::is_attached(),
            "attached to a virtual clock mid-transaction"
        );
        if self.th.sys.registry.start_commit(self.th.id).is_err() {
            return Err(self.fail(AbortCode::Conflict));
        }
        // Point of no return: publish.
        self.active = false;
        let read_lines = self.th.cap.read_lines();
        let write_lines = self.th.cap.write_lines();
        let th = &mut *self.th;
        for e in th.wbuf.iter() {
            th.sys.heap.store(e.addr, e.val);
        }
        th.wbuf.clear();
        for &line in th.touched.iter() {
            th.sys.table.unregister(line, th.id);
        }
        th.touched.clear();
        th.spilled_lines += th.cap.spilled_lines();
        th.cap.reset();
        th.sys.registry.finish(th.id);
        th.stats.commits += 1;
        th.stats.work_units += self.work;
        th.trace.record(crate::trace::Event::Commit { read_lines, write_lines, work: self.work });
        th.in_tx = false;
        crate::vclock::note_commit();
        Ok(())
    }
}

impl Drop for HtmTx<'_, '_> {
    fn drop(&mut self) {
        if self.active {
            // Dropped without commit/abort: treat as an explicit cancellation.
            self.rollback(AbortCode::Explicit(0xFE));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HtmConfig, HtmSystem};

    fn sys() -> HtmSystem {
        HtmSystem::new(HtmConfig::tiny(), 4096)
    }

    #[test]
    fn read_own_write() {
        let s = sys();
        let mut th = s.thread(0);
        let mut tx = th.begin();
        tx.write(5, 42).unwrap();
        assert_eq!(tx.read(5), Ok(42));
        tx.commit().unwrap();
        assert_eq!(s.nt_read(5), 42);
    }

    #[test]
    fn writes_invisible_until_commit() {
        let s = sys();
        let mut th = s.thread(0);
        let mut tx = th.begin();
        tx.write(5, 42).unwrap();
        assert_eq!(s.heap().load(5), 0, "buffered write must not be visible");
        tx.commit().unwrap();
        assert_eq!(s.heap().load(5), 42);
    }

    #[test]
    fn capacity_abort_on_write_set_overflow() {
        let s = sys(); // tiny: 4 sets x 2 ways = 8 written lines max
        let mut th = s.thread(0);
        let mut tx = th.begin();
        let mut aborted = None;
        for i in 0..64 {
            // One word per line: line stride is 8 words.
            if let Err(code) = tx.write(i * 8, 1) {
                aborted = Some(code);
                break;
            }
        }
        assert_eq!(aborted, Some(AbortCode::Capacity));
        drop(tx);
        assert_eq!(th.stats.aborts_capacity, 1);
        assert_eq!(s.live_line_entries(), 0, "abort must release all lines");
    }

    #[test]
    fn capacity_abort_on_read_budget() {
        let s = sys(); // tiny: 16 read lines max
        let mut th = s.thread(0);
        let mut tx = th.begin();
        let mut aborted = None;
        for i in 0..64 {
            if let Err(code) = tx.read(i * 8) {
                aborted = Some(code);
                break;
            }
        }
        assert_eq!(aborted, Some(AbortCode::Capacity));
    }

    #[test]
    fn quantum_exhaustion_is_timer() {
        let s = sys(); // tiny: quantum 1000
        let mut th = s.thread(0);
        let mut tx = th.begin();
        assert_eq!(tx.work(999), Ok(()));
        assert_eq!(tx.work(5), Err(AbortCode::Timer));
        drop(tx);
        assert_eq!(th.stats.aborts_timer, 1);
    }

    #[test]
    fn quantum_boundary_fires_at_exactly_quantum_units() {
        // `config.rs`: "the timer fires once cumulative work *reaches* the
        // quantum" — consuming exactly `quantum` units must abort (>=, not >).
        let s = sys(); // tiny: quantum 1000
        let mut th = s.thread(0);
        let mut tx = th.begin();
        assert_eq!(tx.work(1000), Err(AbortCode::Timer));
        drop(tx);
        assert_eq!(th.stats.aborts_timer, 1);

        // One unit below the boundary still commits.
        let mut tx = th.begin();
        assert_eq!(tx.work(999), Ok(()));
        assert_eq!(tx.commit(), Ok(()));

        // ... and the next single unit after 999 is the one that fires.
        let mut tx = th.begin();
        assert_eq!(tx.work(999), Ok(()));
        assert_eq!(tx.work(1), Err(AbortCode::Timer));
        drop(tx);
        assert_eq!(th.stats.aborts_timer, 2);
    }

    #[test]
    fn xabort_reports_payload() {
        let s = sys();
        let mut th = s.thread(0);
        let mut tx = th.begin();
        tx.write(0, 1).unwrap();
        assert_eq!(tx.xabort(7), AbortCode::Explicit(7));
        drop(tx);
        assert_eq!(th.stats.aborts_explicit, 1);
        assert_eq!(s.nt_read(0), 0, "aborted write must not be published");
    }

    #[test]
    fn fetch_update_reads_then_writes() {
        let s = sys();
        let mut th = s.thread(0);
        s.nt_write(3, 10);
        let mut tx = th.begin();
        assert_eq!(tx.fetch_update(3, |v| v * 2), Ok(10));
        assert_eq!(tx.read(3), Ok(20));
        tx.commit().unwrap();
        assert_eq!(s.nt_read(3), 20);
    }

    #[test]
    fn drop_without_commit_rolls_back() {
        let s = sys();
        let mut th = s.thread(0);
        {
            let mut tx = th.begin();
            tx.write(0, 99).unwrap();
        } // dropped
        assert_eq!(s.nt_read(0), 0);
        assert_eq!(th.stats.aborts_explicit, 1);
        assert_eq!(s.live_line_entries(), 0);
        // Thread is reusable afterwards.
        th.attempt(|tx| tx.write(0, 1)).unwrap();
        assert_eq!(s.nt_read(0), 1);
    }

    #[test]
    fn conflicting_writer_is_doomed_by_reader() {
        let s = sys();
        let mut w = s.thread(0);
        let mut r = s.thread(1);
        let mut wtx = w.begin();
        wtx.write(0, 5).unwrap();
        let mut rtx = r.begin();
        // Requester (reader) wins: it reads the pre-transactional value.
        assert_eq!(rtx.read(0), Ok(0));
        rtx.commit().unwrap();
        // Victim aborts at its next operation.
        assert_eq!(wtx.read(8), Err(AbortCode::Conflict));
        drop(wtx);
        assert_eq!(w.stats.aborts_conflict, 1);
    }

    #[test]
    fn doomed_at_commit_fails() {
        let s = sys();
        let mut a = s.thread(0);
        let mut b = s.thread(1);
        let mut atx = a.begin();
        atx.read(0).unwrap();
        // b writes the same line and commits first.
        b.attempt(|tx| tx.write(0, 1)).unwrap();
        assert_eq!(atx.commit(), Err(AbortCode::Conflict));
    }

    #[test]
    fn random_interrupts_fire() {
        let cfg = HtmConfig {
            interrupt_prob: 0.5,
            ..HtmConfig::tiny()
        };
        let s = HtmSystem::new(cfg, 4096);
        let mut th = s.thread(0);
        let mut interrupts = 0;
        for _ in 0..50 {
            let r = th.attempt(|tx| {
                for i in 0..4 {
                    tx.write(i * 8, 1)?;
                }
                Ok(())
            });
            if r == Err(AbortCode::Interrupt) {
                interrupts += 1;
            }
        }
        assert!(
            interrupts > 5,
            "injected interrupts should fire often, got {interrupts}"
        );
        assert_eq!(th.stats.aborts_interrupt, interrupts);
        assert_eq!(th.stats.aborts_timer, 0, "no quantum was exhausted");
    }

    #[test]
    fn two_words_same_line_one_capacity_slot() {
        let s = sys();
        let mut th = s.thread(0);
        let mut tx = th.begin();
        // 8 words in line 0: occupies a single way.
        for w in 0..8 {
            tx.write(w, w as u64).unwrap();
        }
        assert_eq!(tx.write_lines(), 1);
        tx.commit().unwrap();
    }
}
