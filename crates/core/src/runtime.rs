//! The shared runtime: heap layout of the global and per-thread metadata, and the
//! per-thread context every executor builds on.

use crate::planner::SiteTable;
use crate::stats::TmStats;
use htm_sim::{line_of, Addr, HeapBuilder, HtmConfig, HtmSystem, HtmThread, Line};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tm_sig::{
    CacheAligned, HeapSig, Ring, ShardedRing, ShardedSummary, SigSpec, SummaryTuning,
};

/// Per-thread undo-log arena size in words (2 words per logged write).
const UNDO_WORDS: usize = 16 * 1024;

/// The gate word's global-lock bit: Fig. 1's `GLock`. The gate packs the slow
/// path's two metadata words into one, so that every protocol step is one
/// access to one word (`docs/hot-path.md` §6).
pub const GATE_LOCK: u64 = 1 << 62;
/// The gate word's low bits: Fig. 1's `active_tx`, the count of transactions
/// on the partitioned path (including an entrant's increment that is about to
/// back out of a held lock).
pub const GATE_COUNT: u64 = GATE_LOCK - 1;

/// Protocol configuration (paper defaults).
#[derive(Clone, Debug)]
pub struct TmConfig {
    /// Signature geometry (paper: 2048 bits = 4 cache lines, §5.1).
    pub sig_spec: SigSpec,
    /// Global ring entries (power of two). RingSTM and Part-HTM share the same ring
    /// size and signature, as in the evaluation setup (§7). With sharding, this is
    /// the entry count *per shard*.
    pub ring_entries: usize,
    /// Ring shards (power of two, clamped to the signature word count and
    /// [`tm_sig::MAX_RING_SHARDS`]). 1 recovers the single global ring; the
    /// default of 8 gives disjoint-region commits independent serialisation
    /// points (see `docs/ring-sharding.md`).
    pub ring_shards: usize,
    /// Sub-HTM attempts before aborting the enclosing global transaction (§5.3.5
    /// "retries for a limited number of times").
    pub sub_retries: u32,
    /// Skip the fast path entirely — the Part-HTM-no-fast variant of Fig. 3(b).
    pub skip_fast: bool,
    /// Run the in-flight validation after every sub-HTM commit (the paper's choice,
    /// §5.3.6) instead of only once before the global commit (the serializability
    /// minimum; ablation knob).
    pub validate_every_sub: bool,
    /// Publishes between summary density checks of each shard summary; a
    /// check resets the summary past 1/3 density (`docs/ring-sharding.md`,
    /// "Epoch-based resets").
    pub summary_check_interval: u64,
    /// Segment merge width. `None` (the default) lets the adaptive planner
    /// ([`crate::planner`]) learn it per site, starting from one declared
    /// segment per sub-HTM transaction and merging or splitting on observed
    /// capacity outcomes. `Some(g)` pins it: every `g` consecutive
    /// non-software segments run as one sub-HTM transaction, and no plan
    /// decision is fed back (`Some(1)` is the workload's declared plan; the
    /// benchmarks' hand-tuned static segmentations use larger `g`). Fast-path
    /// demotion is learned either way (`docs/adaptive-partitioner.md`).
    pub plan_group: Option<u32>,
}

impl Default for TmConfig {
    fn default() -> Self {
        Self {
            sig_spec: SigSpec::PAPER,
            ring_entries: 1024,
            ring_shards: 8,
            sub_retries: 5,
            skip_fast: false,
            validate_every_sub: true,
            summary_check_interval: 256,
            plan_group: None,
        }
    }
}

/// Heap handles of one thread's local metadata (§5.1 "Local Metadata"). The
/// signatures are heap-resident so that updating them inside hardware transactions
/// consumes HTM capacity, as in the real system.
#[derive(Clone, Copy, Debug)]
pub struct ThreadArena {
    /// read-set-signature.
    pub read_sig: HeapSig,
    /// write-set-signature (current sub-HTM transaction on the partitioned path).
    pub write_sig: HeapSig,
    /// aggregate write-set-signature (all committed sub-HTM transactions of the
    /// enclosing global transaction).
    pub agg_sig: HeapSig,
    /// Undo-log arena: pairs of (address, old value) words.
    pub undo_base: Addr,
    /// Undo-log arena capacity in words.
    pub undo_words: usize,
}

/// One of a thread's three local signatures ([`ThreadArena`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SigKind {
    /// read-set-signature.
    Read,
    /// write-set-signature.
    Write,
    /// aggregate write-set-signature.
    Agg,
}

/// What a heap cache line holds, in the runtime's layout: the vocabulary of
/// "who aborted whom *on what*" ([`TmRuntime::region_of`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    /// The slow-path gate ([`GATE_LOCK`] and [`GATE_COUNT`]), and the unused
    /// padding line after it.
    Gate,
    /// NOrec's sequence lock.
    Seqlock,
    /// Ring shard `k`: its lock, its timestamp and its entries.
    RingShard(usize),
    /// Line `i` of the global write-locks signature.
    WriteLocks(usize),
    /// One of thread `thread`'s local signatures.
    ThreadSig {
        /// The owning worker.
        thread: usize,
        /// Which of its signatures.
        which: SigKind,
    },
    /// Thread `.0`'s undo-log arena.
    Undo(usize),
    /// Application data.
    App,
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Region::Gate => f.write_str("gate"),
            Region::Seqlock => f.write_str("seqlock"),
            Region::RingShard(k) => write!(f, "ring_shard[{k}]"),
            Region::WriteLocks(i) => write!(f, "write_locks[{i}]"),
            Region::ThreadSig { thread, which } => {
                let which = match which {
                    SigKind::Read => "read_sig",
                    SigKind::Write => "write_sig",
                    SigKind::Agg => "agg_sig",
                };
                write!(f, "thread[{thread}].{which}")
            }
            Region::Undo(t) => write!(f, "thread[{t}].undo"),
            Region::App => f.write_str("app"),
        }
    }
}

/// The shared state of one experiment: the simulated machine plus the global TM
/// metadata (§5.1 "Global Metadata") and the application region.
///
/// ```
/// use part_htm_core::TmRuntime;
///
/// // 2 worker threads, 128 words of application data, default (Haswell-like) HTM.
/// let rt = TmRuntime::with_defaults(2, 128);
/// rt.setup_write(3, 42);
/// assert_eq!(rt.verify_read(3), 42);
/// assert!(rt.system().heap().len() > 128); // metadata lives in the same heap
/// ```
pub struct TmRuntime {
    sys: HtmSystem,
    cfg: TmConfig,
    threads: usize,
    /// The slow-path gate: the global lock ([`GATE_LOCK`]) and the count of
    /// transactions running in the partitioned path ([`GATE_COUNT`]).
    gate: Addr,
    /// NOrec's global sequence lock (global metadata so every baseline shares the
    /// same runtime).
    seqlock: Addr,
    /// The global ring, sharded by signature word range (shard 0 doubles as the
    /// single-ring view the baselines use).
    ring: ShardedRing,
    /// Host-side summary signatures of everything published to each ring shard
    /// since its last reset (the validation fast path). Deliberately *not* in the
    /// simulated heap: validators probe them non-transactionally on every
    /// in-flight validation, and heap reads there would doom concurrent hardware
    /// publishers.
    summaries: ShardedSummary,
    /// Host-side per-site abort profiles driving the adaptive planner. Like
    /// the summaries, deliberately *not* in the simulated heap: the
    /// controller is a scheduling heuristic and must not consume simulated
    /// HTM capacity or create simulated conflicts.
    sites: SiteTable,
    write_locks: HeapSig,
    arenas: Vec<ThreadArena>,
    app_base: Addr,
    app_words: usize,
}

impl TmRuntime {
    /// Build a runtime for `threads` worker threads with `app_words` words of
    /// application data. The heap is sized to fit all metadata plus the application
    /// region.
    pub fn new(mut htm_cfg: HtmConfig, cfg: TmConfig, threads: usize, app_words: usize) -> Self {
        assert!(
            (1..=htm_sim::registry::MAX_THREADS).contains(&threads),
            "threads must be in 1..=htm_sim::registry::MAX_THREADS ({})",
            htm_sim::registry::MAX_THREADS
        );
        htm_cfg.max_threads = threads;
        let spec = cfg.sig_spec;

        let mut b = HeapBuilder::new(u32::MAX as usize);
        let gate = b.alloc_lines(1);
        // The line the partitioned-path counter had before it folded into the
        // gate. Nothing touches it; it stays allocated so that every later
        // region keeps its line number. Signatures key on line numbers, and
        // shifting `app_base` by this one line alone moves `nrmw_capacity`'s
        // virtual throughput by 12 %.
        b.alloc_lines(1);
        let seqlock = b.alloc_lines(1);
        let ring = ShardedRing::alloc(&mut b, cfg.ring_shards, cfg.ring_entries, spec);
        let write_locks = HeapSig::alloc(&mut b, spec);
        let arenas: Vec<ThreadArena> = (0..threads)
            .map(|_| ThreadArena {
                read_sig: HeapSig::alloc(&mut b, spec),
                write_sig: HeapSig::alloc(&mut b, spec),
                agg_sig: HeapSig::alloc(&mut b, spec),
                undo_base: b.alloc_lines(UNDO_WORDS.div_ceil(8)),
                undo_words: UNDO_WORDS,
            })
            .collect();
        let app_base = b.alloc_lines(app_words.div_ceil(8));
        let total = b.used();

        let sys = HtmSystem::new(htm_cfg, total);
        let summaries = ring.new_summary_tuned(SummaryTuning {
            check_interval: cfg.summary_check_interval,
            ..SummaryTuning::default()
        });
        Self {
            sys,
            cfg,
            threads,
            gate,
            seqlock,
            ring,
            summaries,
            sites: SiteTable::default(),
            write_locks,
            arenas,
            app_base,
            app_words,
        }
    }

    /// Convenience constructor with default HTM and TM configs.
    pub fn with_defaults(threads: usize, app_words: usize) -> Self {
        Self::new(
            HtmConfig::default(),
            TmConfig::default(),
            threads,
            app_words,
        )
    }

    /// The simulated machine.
    pub fn system(&self) -> &HtmSystem {
        &self.sys
    }

    /// Protocol configuration.
    pub fn config(&self) -> &TmConfig {
        &self.cfg
    }

    /// Number of worker threads this runtime was built for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The slow-path gate word's address ([`GATE_LOCK`], [`GATE_COUNT`]).
    pub fn gate(&self) -> Addr {
        self.gate
    }

    /// NOrec sequence-lock address.
    pub fn seqlock(&self) -> Addr {
        self.seqlock
    }

    /// The sharded global ring.
    pub fn sharded_ring(&self) -> &ShardedRing {
        &self.ring
    }

    /// The per-shard host-side summary signatures (validation fast path).
    pub fn summaries(&self) -> &ShardedSummary {
        &self.summaries
    }

    /// The per-site abort-profile table of the adaptive planner.
    pub fn sites(&self) -> &SiteTable {
        &self.sites
    }

    /// The single-ring view: shard 0, which is a complete [`Ring`]. The RingSTM
    /// baseline publishes full signatures through it, so with `ring_shards: 1`
    /// the pre-sharding behaviour is recovered exactly.
    pub fn ring(&self) -> &Ring {
        self.ring.shard(0)
    }

    /// The global write-locks signature.
    pub fn write_locks(&self) -> &HeapSig {
        &self.write_locks
    }

    /// Thread `id`'s local-metadata arena.
    pub fn arena(&self, id: usize) -> ThreadArena {
        self.arenas[id]
    }

    /// Base address of the application region.
    pub fn app_base(&self) -> Addr {
        self.app_base
    }

    /// Size of the application region in words.
    pub fn app_words(&self) -> usize {
        self.app_words
    }

    /// Address of application word `i` (bounds-checked).
    #[inline]
    pub fn app(&self, i: usize) -> Addr {
        debug_assert!(
            i < self.app_words,
            "app index {i} out of {}",
            self.app_words
        );
        self.app_base + i as Addr
    }

    /// The region of the runtime's heap layout that `line` belongs to — turns
    /// the line of a [`htm_sim::registry::DoomCause`] into something a reader
    /// can act on. Regions are allocated in ascending address order, so a line
    /// belongs to the last region that starts at or before it.
    pub fn region_of(&self, line: Line) -> Region {
        if line >= line_of(self.app_base) {
            return Region::App;
        }
        for (thread, a) in self.arenas.iter().enumerate().rev() {
            if line >= line_of(a.undo_base) {
                return Region::Undo(thread);
            }
            for (sig, which) in [
                (a.agg_sig, SigKind::Agg),
                (a.write_sig, SigKind::Write),
                (a.read_sig, SigKind::Read),
            ] {
                if line >= line_of(sig.base()) {
                    return Region::ThreadSig { thread, which };
                }
            }
        }
        if line >= line_of(self.write_locks.base()) {
            return Region::WriteLocks((line - line_of(self.write_locks.base())) as usize);
        }
        for k in (0..self.ring.shard_count()).rev() {
            if line >= line_of(self.ring.shard(k).lock_addr()) {
                return Region::RingShard(k);
            }
        }
        if line >= line_of(self.seqlock) {
            Region::Seqlock
        } else {
            Region::Gate
        }
    }

    /// Raw store for single-threaded experiment setup (no conflict detection).
    pub fn setup_write(&self, i: usize, val: u64) {
        self.sys.heap().store(self.app(i), val);
    }

    /// Raw load for single-threaded verification (no conflict detection).
    pub fn setup_read(&self, i: usize) -> u64 {
        self.sys.heap().load(self.app(i))
    }

    /// Strongly atomic read of application word `i` (for cross-thread verification
    /// while transactions may still be running).
    pub fn verify_read(&self, i: usize) -> u64 {
        self.sys.nt_read(self.app(i))
    }
}

/// Per-thread context shared by every executor: the hardware thread handle, an RNG
/// and the protocol statistics.
pub struct TmThread<'r> {
    /// The runtime this thread belongs to.
    pub rt: &'r TmRuntime,
    /// The hardware-thread handle (hardware statistics live in `hw.stats`).
    pub hw: HtmThread<'r>,
    /// Deterministic per-thread RNG (seeded by thread id).
    pub rng: SmallRng,
    /// Protocol statistics, padded to a cache line: worker threads bump their
    /// counters on every transaction, and without the padding two contexts
    /// allocated back to back would false-share (`Deref` keeps every
    /// `stats.field` call site unchanged).
    pub stats: CacheAligned<TmStats>,
    id: usize,
}

impl<'r> TmThread<'r> {
    /// Create the context for worker `id`.
    pub fn new(rt: &'r TmRuntime, id: usize) -> Self {
        Self {
            rt,
            hw: rt.sys.thread(id),
            rng: SmallRng::seed_from_u64(0xC0FFEE ^ (id as u64) << 16),
            stats: CacheAligned::new(TmStats::default()),
            id,
        }
    }

    /// Worker id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// This thread's metadata arena.
    pub fn arena(&self) -> ThreadArena {
        self.rt.arena(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_disjoint_and_aligned() {
        let rt = TmRuntime::with_defaults(4, 1000);
        assert_eq!(rt.gate() % 8, 0);
        // The gate, one padding line, then the seqlock: the layout the
        // separate lock and counter lines had, so every later region keeps
        // its line number (the lock and the counter sat at lines 0 and 1).
        assert_eq!(htm_sim::line_of(rt.gate()), 0);
        assert_eq!(htm_sim::line_of(rt.seqlock()), 2);
        // Arenas do not overlap the app region.
        for t in 0..4 {
            let a = rt.arena(t);
            assert!(a.undo_base + a.undo_words as Addr <= rt.app_base());
        }
        assert!(rt.system().heap().len() >= rt.app_base() as usize + 1000);
    }

    #[test]
    fn region_of_names_every_part_of_the_layout() {
        let rt = TmRuntime::with_defaults(2, 64);
        let at = |a: Addr| rt.region_of(line_of(a));
        assert_eq!(at(rt.gate()), Region::Gate);
        // The padding line between the gate and the seqlock.
        assert_eq!(at(rt.gate() + 8), Region::Gate);
        assert_eq!(at(rt.seqlock()), Region::Seqlock);
        let ring = rt.sharded_ring();
        let last = ring.shard_count() - 1;
        assert_eq!(at(ring.shard(0).lock_addr()), Region::RingShard(0));
        assert_eq!(at(ring.shard(last).timestamp_addr()), Region::RingShard(last));
        // The line just below the write-locks signature is the last ring entry.
        assert_eq!(at(rt.write_locks().base() - 1), Region::RingShard(last));
        // 2048 bits = 32 words = 4 lines.
        assert_eq!(at(rt.write_locks().word_addr(0)), Region::WriteLocks(0));
        assert_eq!(at(rt.write_locks().word_addr(31)), Region::WriteLocks(3));
        for thread in 0..2 {
            let a = rt.arena(thread);
            for (sig, which) in [
                (a.read_sig, SigKind::Read),
                (a.write_sig, SigKind::Write),
                (a.agg_sig, SigKind::Agg),
            ] {
                assert_eq!(at(sig.word_addr(0)), Region::ThreadSig { thread, which });
                assert_eq!(at(sig.word_addr(31)), Region::ThreadSig { thread, which });
            }
            assert_eq!(at(a.undo_base), Region::Undo(thread));
            assert_eq!(at(a.undo_base + a.undo_words as Addr - 1), Region::Undo(thread));
        }
        assert_eq!(at(rt.app(0)), Region::App);
        assert_eq!(at(rt.app(63)), Region::App);
    }

    #[test]
    #[should_panic(expected = "htm_sim::registry::MAX_THREADS")]
    fn thread_count_is_limited_by_the_simulator() {
        TmRuntime::with_defaults(htm_sim::registry::MAX_THREADS + 1, 8);
    }

    #[test]
    fn app_read_write_roundtrip() {
        let rt = TmRuntime::with_defaults(2, 64);
        rt.setup_write(10, 1234);
        assert_eq!(rt.setup_read(10), 1234);
        assert_eq!(rt.verify_read(10), 1234);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn app_bounds_checked() {
        let rt = TmRuntime::with_defaults(1, 8);
        rt.setup_read(8);
    }

    #[test]
    fn thread_contexts_distinct() {
        let rt = TmRuntime::with_defaults(2, 64);
        let t0 = TmThread::new(&rt, 0);
        let t1 = TmThread::new(&rt, 1);
        assert_ne!(t0.arena().read_sig.base(), t1.arena().read_sig.base());
        assert_ne!(t0.id(), t1.id());
    }
}
