//! Protocol-agnostic execution interface: how workloads express transactions and how
//! executors run them.

use crate::runtime::{TmRuntime, TmThread};
use htm_sim::abort::TxResult;
use htm_sim::Addr;
use rand::rngs::SmallRng;

/// Explicit-abort payload: the global lock was observed held (fast-path begin,
/// Fig. 1 line 2).
pub const XABORT_GLOCK: u8 = 0xA0;
/// Explicit-abort payload: a write-locked (non-visible) location was observed
/// (pre-commit validation in Part-HTM, encounter-time check in Part-HTM-O).
pub const XABORT_LOCKED: u8 = 0xA2;
/// Explicit-abort payload: the global timestamp moved under a Part-HTM-O sub-HTM
/// transaction (Fig. 2 lines 23–24).
pub const XABORT_TS_CHANGED: u8 = 0xA3;
/// Explicit-abort payload: the heap-resident undo-log arena overflowed; the global
/// transaction must fall back.
pub const XABORT_UNDO_FULL: u8 = 0xA4;
/// Explicit-abort payload: the fast path speculated that no partitioned-path
/// transaction was active but found `active_tx != 0` inside the transaction; it
/// restarts with full instrumentation.
pub const XABORT_NOT_QUIET: u8 = 0xA5;

/// Part-HTM-O's address-embedded write lock: the stolen bit. The paper steals the
/// least-significant bit of a memory-aligned pointer behind an indirection wrapper;
/// on this word-addressable heap we steal the top bit of the 64-bit value itself,
/// which preserves the two properties the trick exists for — an exact per-location
/// lock with zero false conflicts, co-located with the datum in the same cache line —
/// while restricting application values to 63 bits.
pub const LOCK_BIT: u64 = 1 << 63;

/// Mask extracting the application value from a possibly-locked word.
pub const VALUE_MASK: u64 = !LOCK_BIT;

/// Which execution path finally committed a transaction. The paper's Table 1 reports
/// the distribution over these paths ("GL / HTM / SW").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommitPath {
    /// A single hardware transaction (Part-HTM's fast path; HTM-GL's and NOrecRH's
    /// hardware attempts).
    Htm,
    /// Part-HTM's partitioned path: a chain of sub-HTM transactions.
    SubHtm,
    /// The global-lock slow path.
    GlobalLock,
    /// A pure software commit (NOrec, RingSTM, NOrecRH's software fallback).
    Stm,
}

/// The transactional memory interface a workload programs against. The same workload
/// code runs unchanged on every executor and path — the ctx supplies the
/// path-appropriate instrumentation, exactly like the paper's manually inserted
/// transactional barriers (§7: "transactional barriers (read and write) are inserted
/// manually").
pub trait TxCtx {
    /// Transactional read of the word at `addr`.
    fn read(&mut self, addr: Addr) -> TxResult<u64>;

    /// Transactional write of `val` (must fit in 63 bits so the Part-HTM-O lock bit
    /// can be embedded) to the word at `addr`.
    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()>;

    /// Transactional computation of `units` work (charged against the HTM quantum on
    /// hardware paths, plus real CPU time on every path).
    fn work(&mut self, units: u64) -> TxResult<()>;

    /// Computation that the programmer marked as *non-transactional* (it touches no
    /// shared state). On hardware paths it still burns quantum — that is exactly the
    /// problem §4 "Non-transactional Code" describes — but the partitioned path's
    /// software segments run it outside any hardware transaction.
    fn nt_work(&mut self, units: u64) -> TxResult<()> {
        self.work(units)
    }
}

/// A transaction generator plus the transaction body, with the static partitioning
/// the paper derives from profiling (§5.3.1).
///
/// Lifecycle per transaction: `sample` (choose parameters) → [executor may attempt
/// any path any number of times; before each whole-transaction attempt it calls
/// `reset`; around each *segment* attempt on the partitioned path it uses
/// `snapshot`/`restore`] → commit.
///
/// ```
/// use part_htm_core::{PartHtm, TmExecutor, TmRuntime, TxCtx, Workload};
/// use htm_sim::abort::TxResult;
///
/// /// Adds 1 to two counters, one per segment, so the partitioned path can split
/// /// it into two sub-HTM transactions.
/// struct TwoCounters(htm_sim::Addr);
///
/// impl Workload for TwoCounters {
///     type Snap = ();
///     fn sample(&mut self, _rng: &mut rand::rngs::SmallRng) {}
///     fn segments(&self) -> usize { 2 }
///     fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
///         let a = self.0 + (seg * 8) as htm_sim::Addr;
///         let v = ctx.read(a)?;
///         ctx.write(a, v + 1)
///     }
/// }
///
/// let rt = TmRuntime::with_defaults(1, 64);
/// let mut exec = PartHtm::new(&rt, 0);
/// exec.execute(&mut TwoCounters(rt.app(0)));
/// assert_eq!(rt.verify_read(0), 1);
/// assert_eq!(rt.verify_read(8), 1);
/// ```
pub trait Workload {
    /// Cursor state that must survive segment boundaries but roll back when a single
    /// segment retries (e.g. a list-traversal position).
    type Snap: Clone + Default;

    /// Choose the next transaction's parameters. Called once per transaction —
    /// never per retry, so every attempt replays the same logical transaction.
    fn sample(&mut self, rng: &mut SmallRng);

    /// Number of static segments (sub-HTM partitions). 1 means unpartitioned.
    fn segments(&self) -> usize {
        1
    }

    /// True if segment `seg` touches no shared state and should run outside any
    /// hardware transaction on the partitioned path (§5.3.1: "we manually excluded
    /// basic blocks that access no shared objects from being executed in sub-HTM
    /// transactions").
    fn software_segment(&self, _seg: usize) -> bool {
        false
    }

    /// True if the transaction performs irrevocable operations and must take the
    /// global-lock path directly.
    fn is_irrevocable(&self) -> bool {
        false
    }

    /// The static profiler's verdict for the *sampled* transaction (§4: the paper's
    /// profiler routes transactions that "likely (or certainly) fail in HTM" to the
    /// partitioned path directly). `Some(true)` = known to exceed HTM resources;
    /// `Some(false)` = known to fit; `None` = unknown.
    ///
    /// This is a *prior*, not a verdict: it decides only while the site's
    /// abort profile ([`crate::planner`]) has recorded no fast-path outcome.
    /// A site's first transaction (tick 0) always probes the fast path, so on
    /// one thread the prior routes no transaction at all; it steers only
    /// threads that route while that first probe is still in flight. After
    /// the first outcome the learned history decides (and re-probes every
    /// 64th transaction).
    fn profiled_resource_limited(&self) -> Option<bool> {
        None
    }

    /// The transaction *site* of the sampled transaction: a small stable id
    /// for "transactions of this shape" (e.g. one id per operation type, or
    /// per long/short class). The adaptive planner keeps one abort profile —
    /// demotion history and segment plan — per site, so
    /// transactions with different resource appetites should report
    /// different sites. The default (one site for the whole workload) is
    /// always safe, just coarser.
    fn site(&self) -> u32 {
        0
    }

    /// Reset all mutable execution state before a whole-transaction (re)attempt.
    fn reset(&mut self) {}

    /// Capture the cursor state at a segment boundary.
    fn snapshot(&self) -> Self::Snap {
        Self::Snap::default()
    }

    /// Restore cursor state captured by [`Workload::snapshot`] (segment retry).
    fn restore(&mut self, _s: Self::Snap) {}

    /// Execute segment `seg` against `ctx`. The fast and slow paths run all segments
    /// under one context; the partitioned path gives each segment its own sub-HTM
    /// transaction.
    fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()>;

    /// Called by the executor exactly once after the transaction commits. Use for
    /// thread-local accounting of committed effects (segment bodies can run multiple
    /// times due to retries, so counting inside `segment` over-counts).
    fn after_commit(&mut self) {}
}

/// A per-thread transaction executor: one of the TM protocols under evaluation.
///
/// An executor instance owns all of its thread's protocol state (signatures, logs,
/// statistics) and borrows the shared [`TmRuntime`].
pub trait TmExecutor<'r>: Send + Sized {
    /// Display name used in experiment reports (matches the paper's figure legends).
    const NAME: &'static str;

    /// Create the executor for `thread_id`.
    fn new(rt: &'r TmRuntime, thread_id: usize) -> Self;

    /// Run one transaction to commit, retrying internally as the protocol dictates.
    /// Returns the path that committed it.
    fn execute<W: Workload>(&mut self, w: &mut W) -> CommitPath;

    /// Run one transaction that an admission controller decided to *shed*:
    /// skip the speculative paths and commit on the protocol's cheapest
    /// serialized path directly. Under overload the speculative retries are
    /// what convoy the ring shards (backoff + global-lock waits), so a shed
    /// request must not add to them. The default simply delegates to
    /// [`TmExecutor::execute`] — protocols with a distinguished slow path
    /// (Part-HTM, Part-HTM-O) override it to take the global lock without
    /// any fast or partitioned attempt, recording the commit in
    /// [`crate::TmStats::shed_commits`].
    fn execute_shed<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        self.execute(w)
    }

    /// The thread context (statistics live here).
    fn thread(&self) -> &TmThread<'r>;

    /// Mutable thread context (the harness samples workloads with its RNG).
    fn thread_mut(&mut self) -> &mut TmThread<'r>;
}

/// Burn roughly `units` of real CPU work. Used by every path for the computation a
/// workload declares via [`TxCtx::work`]/[`TxCtx::nt_work`], so that time-limited
/// transactions cost real time no matter which path executes them — the throughput
/// comparisons in the paper's figures depend on that.
#[inline]
pub fn spin_work(units: u64) {
    let mut acc = 0x2545F4914F6CDD1Du64;
    for i in 0..units {
        acc = std::hint::black_box(acc.rotate_left(7).wrapping_mul(0x9E3779B97F4A7C15) ^ i);
    }
    std::hint::black_box(acc);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_bit_is_top_bit() {
        assert_eq!(LOCK_BIT, 0x8000_0000_0000_0000);
        assert_eq!(VALUE_MASK, 0x7FFF_FFFF_FFFF_FFFF);
        assert_eq!(LOCK_BIT & VALUE_MASK, 0);
    }

    #[test]
    fn spin_work_zero_is_noop() {
        spin_work(0);
        spin_work(10);
    }

    #[test]
    fn xabort_codes_distinct() {
        let codes = [
            XABORT_GLOCK,
            XABORT_LOCKED,
            XABORT_TS_CHANGED,
            XABORT_UNDO_FULL,
            tm_sig::ring::XABORT_RING_LOCKED,
        ];
        for (i, a) in codes.iter().enumerate() {
            for b in &codes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
