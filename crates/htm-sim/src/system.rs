//! The simulated machine: heap + conflict table + transaction registry, and the
//! per-thread handle from which hardware transactions are started.

use crate::abort::AbortCode;
use crate::backend::{CapacityModel, TxCap};
use crate::config::HtmConfig;
use crate::heap::{Addr, Heap, Line};
use crate::line_table::LineTable;
use crate::registry::{Requester, ThreadId, TxRegistry};
use crate::stats::HtmStats;
use crate::txn::HtmTx;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Per-line access state of the current transaction, epoch-tagged so that beginning
/// a new transaction invalidates the whole array in O(1). Direct indexing keeps the
/// simulator's hot path (is this line already in my read/write set?) at the cost of
/// an array access — modelling the fact that on real hardware this check is free.
#[derive(Clone, Copy, Default)]
pub(crate) struct LineState {
    pub(crate) epoch: u32,
    pub(crate) flags: u8,
    /// Index in [`HtmThread::wbuf`] of the line's newest buffered word, or
    /// [`CHAIN_END`] when it has none. Lives in the struct's padding.
    pub(crate) head: u16,
}

/// Line is registered in the read set.
pub(crate) const LINE_READ: u8 = 1;
/// Line is registered in the write set.
pub(crate) const LINE_WRITTEN: u8 = 2;

/// One buffered transactional store. The words of one line form a chain,
/// newest first, from [`LineState::head`] through `next`, so a lookup compares
/// at most [`crate::WORDS_PER_LINE`] entries and never hashes.
pub(crate) struct Buffered {
    pub(crate) addr: Addr,
    /// The line's next-older entry, or [`CHAIN_END`].
    pub(crate) next: u16,
    pub(crate) val: u64,
}

/// `Buffered::next` of a line's oldest entry.
pub(crate) const CHAIN_END: u16 = u16::MAX;

/// Distinct words one transaction may buffer: chain links are `u16` and
/// [`CHAIN_END`] is reserved.
const WBUF_MAX: usize = CHAIN_END as usize;

/// A simulated machine with best-effort HTM.
///
/// Create one per experiment, carve its heap with [`crate::HeapBuilder`], hand one
/// [`HtmThread`] to each OS thread (via [`HtmSystem::thread`]), and run.
pub struct HtmSystem {
    pub(crate) heap: Heap,
    pub(crate) table: LineTable,
    pub(crate) registry: TxRegistry,
    pub(crate) config: HtmConfig,
    /// The capacity model of [`HtmConfig::backend`] (see [`crate::backend`]).
    pub(crate) model: CapacityModel,
}

impl HtmSystem {
    /// Build a machine with the given HTM geometry and a heap of `heap_words` words.
    ///
    /// # Panics
    ///
    /// On an invalid configuration ([`HtmConfig::validate`]), or when the
    /// backend's write set — hardware lines plus spill budget — exceeds the
    /// 8 191 lines whose words the write buffer's `u16` chain links address.
    pub fn new(config: HtmConfig, heap_words: usize) -> Self {
        config.validate();
        let model = config.backend.model(&config);
        assert!(
            (model.write_lines_max() + model.spill_budget) * crate::heap::WORDS_PER_LINE
                <= WBUF_MAX,
            "write set of {} lines exceeds the write buffer's {WBUF_MAX} words",
            model.write_lines_max() + model.spill_budget
        );
        Self {
            heap: Heap::new(heap_words),
            table: LineTable::new(heap_words.div_ceil(crate::heap::WORDS_PER_LINE)),
            registry: TxRegistry::new(config.max_threads),
            config,
            model,
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &HtmConfig {
        &self.config
    }

    /// The machine's published capacity geometry. TM protocols and the
    /// segment planner plan against this rather than poking at
    /// `l1_sets`/`l1_ways` directly.
    pub fn capacity_model(&self) -> &CapacityModel {
        &self.model
    }

    /// Direct access to the heap (raw, non-conflict-checked operations).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Create the handle for hardware thread `id`. Each id must be used by at most
    /// one OS thread at a time.
    pub fn thread(&self, id: usize) -> HtmThread<'_> {
        assert!(
            id < self.config.max_threads,
            "thread id {id} >= max_threads"
        );
        let n_lines = self.heap.len().div_ceil(crate::heap::WORDS_PER_LINE);
        let cap = TxCap::new(&self.model);
        HtmThread {
            sys: self,
            id: id as ThreadId,
            wbuf: Vec::new(),
            lstate: vec![LineState::default(); n_lines].into_boxed_slice(),
            epoch: 0,
            touched: Vec::with_capacity(64),
            cap,
            rng: SmallRng::seed_from_u64(0x5EED_0000 + id as u64),
            stats: crate::align::CacheAligned::new(HtmStats::default()),
            spilled_lines: 0,
            trace: crate::trace::Trace::new(self.config.trace_capacity),
            in_tx: false,
        }
    }

    fn nt_op<R>(
        &self,
        line: Line,
        is_write: bool,
        by: Requester,
        mut op: impl FnMut() -> R,
    ) -> R {
        // A non-transactional access is one simulated memory operation: under a
        // virtual clock it advances this core's timestamp (no-op otherwise), so
        // protocol software that polls simulated memory makes virtual progress
        // and the discrete-event scheduler stays livelock-free.
        crate::vclock::charge(1);
        let mut backoff = crate::util::Backoff::new();
        loop {
            match self
                .table
                .nt_execute(&self.registry, line, is_write, by, &mut op)
            {
                Ok(r) => return r,
                // A committer or claim holder finishes quickly; spin briefly,
                // then yield so it gets scheduled on an oversubscribed machine.
                Err(()) => backoff.snooze(),
            }
        }
    }

    /// Strongly atomic non-transactional read (anonymous accessor, e.g. verification
    /// code). Dooms a hardware transaction that wrote `addr`'s line.
    pub fn nt_read(&self, addr: Addr) -> u64 {
        self.nt_op(crate::line_of(addr), false, Requester::External, || {
            self.heap.load(addr)
        })
    }

    /// Strongly atomic non-transactional write (anonymous accessor).
    pub fn nt_write(&self, addr: Addr, val: u64) {
        self.nt_op(crate::line_of(addr), true, Requester::External, || {
            self.heap.store(addr, val)
        })
    }

    /// Strongly atomic non-transactional read performed by simulator thread `t`
    /// (software code of a TM protocol running between hardware transactions).
    pub fn nt_read_by(&self, t: ThreadId, addr: Addr) -> u64 {
        self.nt_op(crate::line_of(addr), false, Requester::Thread(t), || {
            self.heap.load(addr)
        })
    }

    /// Strongly atomic non-transactional write by thread `t`.
    pub fn nt_write_by(&self, t: ThreadId, addr: Addr, val: u64) {
        self.nt_op(crate::line_of(addr), true, Requester::Thread(t), || {
            self.heap.store(addr, val)
        })
    }

    /// Strongly atomic non-transactional multi-word store by thread `t`. Every
    /// `(addr, value)` pair must fall in a single cache line; all stores are
    /// performed under one conflict resolution, so the whole group costs one
    /// simulated memory access — exactly how a masked cache-line store behaves
    /// on real hardware, which claims the line once rather than once per word.
    ///
    /// # Panics
    ///
    /// Debug builds assert that the addresses share a line.
    pub fn nt_write_line_by(&self, t: ThreadId, writes: &[(Addr, u64)]) {
        let Some(&(first, _)) = writes.first() else {
            return;
        };
        let line = crate::line_of(first);
        debug_assert!(
            writes.iter().all(|&(a, _)| crate::line_of(a) == line),
            "nt_write_line_by: stores span cache lines"
        );
        self.nt_op(line, true, Requester::Thread(t), || {
            for &(a, v) in writes {
                self.heap.store(a, v);
            }
        });
    }

    /// Strongly atomic non-transactional compare-and-swap by thread `t`.
    pub fn nt_cas_by(&self, t: ThreadId, addr: Addr, current: u64, new: u64) -> Result<u64, u64> {
        self.nt_op(crate::line_of(addr), true, Requester::Thread(t), || {
            self.heap.cas(addr, current, new)
        })
    }

    /// Strongly atomic non-transactional fetch-add by thread `t`.
    pub fn nt_fetch_add_by(&self, t: ThreadId, addr: Addr, delta: u64) -> u64 {
        self.nt_op(crate::line_of(addr), true, Requester::Thread(t), || {
            self.heap.fetch_add(addr, delta)
        })
    }

    /// Strongly atomic non-transactional fetch-subtract by thread `t`.
    pub fn nt_fetch_sub_by(&self, t: ThreadId, addr: Addr, delta: u64) -> u64 {
        self.nt_op(crate::line_of(addr), true, Requester::Thread(t), || {
            self.heap.fetch_sub(addr, delta)
        })
    }

    /// Strongly atomic non-transactional fetch-or by thread `t`.
    pub fn nt_fetch_or_by(&self, t: ThreadId, addr: Addr, bits: u64) -> u64 {
        self.nt_op(crate::line_of(addr), true, Requester::Thread(t), || {
            self.heap.fetch_or(addr, bits)
        })
    }

    /// Strongly atomic non-transactional fetch-and by thread `t`.
    pub fn nt_fetch_and_by(&self, t: ThreadId, addr: Addr, bits: u64) -> u64 {
        self.nt_op(crate::line_of(addr), true, Requester::Thread(t), || {
            self.heap.fetch_and(addr, bits)
        })
    }

    /// Number of live entries in the conflict table (leak diagnostics).
    pub fn live_line_entries(&self) -> usize {
        self.table.live_entries()
    }
}

/// Per-thread handle: owns the reusable transactional buffers and statistics for one
/// hardware thread.
pub struct HtmThread<'s> {
    pub(crate) sys: &'s HtmSystem,
    pub(crate) id: ThreadId,
    /// Buffered transactional writes, one entry per distinct word in
    /// first-write order, chained per line (see [`Buffered`]); published at
    /// commit.
    pub(crate) wbuf: Vec<Buffered>,
    /// Per-line access state, epoch-tagged (see [`LineState`]).
    pub(crate) lstate: Box<[LineState]>,
    /// Current transaction epoch; `lstate` entries from other epochs are stale.
    pub(crate) epoch: u32,
    /// Lines touched by the current transaction (for commit/abort cleanup).
    pub(crate) touched: Vec<Line>,
    /// Per-transaction capacity state, shaped by the backend's
    /// [`CapacityModel`] (write-set model, read budget, spill budget).
    pub(crate) cap: TxCap,
    pub(crate) rng: SmallRng,
    /// Hardware statistics for this thread, padded to its own cache line so
    /// the hot-loop counter bumps never false-share with a neighbouring
    /// thread's handle (`Deref` keeps `th.stats.field` call sites unchanged).
    pub stats: crate::align::CacheAligned<HtmStats>,
    /// Lines spilled to software capacity tracking (limited-set backend),
    /// cumulative. Cold, so it lives outside the cache-line-pinned
    /// [`HtmStats`].
    pub spilled_lines: u64,
    /// Debugging event trace (empty unless [`HtmConfig::trace_capacity`] > 0).
    pub trace: crate::trace::Trace,
    pub(crate) in_tx: bool,
}

impl<'s> HtmThread<'s> {
    /// This thread's id.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// The machine this thread belongs to.
    pub fn system(&self) -> &'s HtmSystem {
        self.sys
    }

    /// Begin a hardware transaction (`_xbegin`). Panics on nesting — flatten at the
    /// protocol level, as TSX effectively does.
    pub fn begin(&mut self) -> HtmTx<'_, 's> {
        assert!(!self.in_tx, "nested hardware transaction");
        self.in_tx = true;
        self.stats.begins += 1;
        self.trace.record(crate::trace::Event::Begin);
        if self.epoch == u32::MAX {
            // Epoch wrap: invalidate every stale entry the slow way, once per 4G
            // transactions.
            self.lstate.fill(LineState::default());
            self.epoch = 0;
        }
        self.epoch += 1;
        self.sys.registry.begin(self.id);
        HtmTx::new(self)
    }

    /// Convenience: strongly atomic non-transactional read by this thread.
    pub fn nt_read(&self, addr: Addr) -> u64 {
        self.sys.nt_read_by(self.id, addr)
    }

    /// Convenience: strongly atomic non-transactional write by this thread.
    pub fn nt_write(&self, addr: Addr, val: u64) {
        self.sys.nt_write_by(self.id, addr, val)
    }

    /// Convenience: strongly atomic CAS by this thread.
    pub fn nt_cas(&self, addr: Addr, current: u64, new: u64) -> Result<u64, u64> {
        self.sys.nt_cas_by(self.id, addr, current, new)
    }

    /// Convenience: strongly atomic single-line multi-word store by this
    /// thread (see [`HtmSystem::nt_write_line_by`]).
    pub fn nt_write_line(&self, writes: &[(Addr, u64)]) {
        self.sys.nt_write_line_by(self.id, writes)
    }

    /// Convenience: strongly atomic fetch-add by this thread.
    pub fn nt_fetch_add(&self, addr: Addr, delta: u64) -> u64 {
        self.sys.nt_fetch_add_by(self.id, addr, delta)
    }

    /// Run a closure as a single hardware transaction attempt: begins, runs `body`,
    /// commits. Returns the abort code on any failure. This is the building block the
    /// TM protocols wrap with their retry policies.
    pub fn attempt<T>(
        &mut self,
        body: impl FnOnce(&mut HtmTx<'_, 's>) -> Result<T, AbortCode>,
    ) -> Result<T, AbortCode> {
        let mut tx = self.begin();
        match body(&mut tx) {
            Ok(v) => {
                tx.commit()?;
                Ok(v)
            }
            Err(code) => {
                tx.cancel(code);
                Err(code)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nt_roundtrip() {
        let sys = HtmSystem::new(HtmConfig::tiny(), 256);
        sys.nt_write(10, 77);
        assert_eq!(sys.nt_read(10), 77);
        assert_eq!(sys.nt_cas_by(0, 10, 77, 78), Ok(77));
        assert_eq!(sys.nt_read_by(0, 10), 78);
        assert_eq!(sys.nt_fetch_add_by(0, 10, 2), 78);
        assert_eq!(sys.nt_read(10), 80);
    }

    #[test]
    fn simple_tx_commits() {
        let sys = HtmSystem::new(HtmConfig::tiny(), 256);
        let mut th = sys.thread(0);
        let r = th.attempt(|tx| {
            let v = tx.read(0)?;
            tx.write(0, v + 1)?;
            tx.write(8, 5)?;
            Ok(())
        });
        assert!(r.is_ok());
        assert_eq!(sys.nt_read(0), 1);
        assert_eq!(sys.nt_read(8), 5);
        assert_eq!(th.stats.commits, 1);
        assert_eq!(
            sys.live_line_entries(),
            0,
            "commit must unregister all lines"
        );
    }

    #[test]
    fn nt_write_dooms_active_reader_tx() {
        let sys = HtmSystem::new(HtmConfig::tiny(), 256);
        let mut th = sys.thread(0);
        let mut tx = th.begin();
        assert_eq!(tx.read(0), Ok(0));
        // Another agent writes the line non-transactionally: strong atomicity.
        sys.nt_write(0, 9);
        let r = tx.read(1); // next op observes the doom
        assert_eq!(r, Err(AbortCode::Conflict));
        drop(tx);
        assert_eq!(th.stats.aborts_conflict, 1);
        assert_eq!(sys.live_line_entries(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the write buffer")]
    fn write_set_beyond_u16_chain_links_is_rejected() {
        let cfg = HtmConfig {
            l1_sets: 1024,
            l1_ways: 8,
            ..HtmConfig::default()
        };
        HtmSystem::new(cfg, 256);
    }

    // The check is a `debug_assert!` in `Registry::begin`: release builds
    // skip it, so the test exists only where the panic does.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "nested hardware")]
    fn nesting_panics() {
        let sys = HtmSystem::new(HtmConfig::tiny(), 256);
        let mut th = sys.thread(0);
        let _tx = th.begin();
        // Cannot even express a second begin without unsafe aliasing; simulate via a
        // second thread handle with the same id, which shares the registry slot.
        let mut th2 = sys.thread(0);
        let _tx2 = th2.begin();
    }
}
