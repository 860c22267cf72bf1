//! The global ring: a circular buffer of committed write signatures ordered by
//! commit timestamp, used to validate in-flight transactions against transactions
//! that committed after they started (RingSTM-style; §5.1 "global-ring").
//!
//! The executors reach each [`Ring`] through one shard of a
//! [`ShardedRing`](crate::ShardedRing), which pairs it with a [`RingSummary`].
//! Two publish paths exist because Part-HTM commits writers from two worlds:
//!
//! * **Hardware** ([`Ring::publish_tx_masked`]): the fast path increments the
//!   timestamp and stores its write signature into the ring *inside* its hardware
//!   transaction (Fig. 1 lines 9–11); HTM conflict detection on the timestamp line
//!   serialises concurrent hardware publishers.
//! * **Software** ([`Ring::write_entry_masked_nt`] under the ring lock): the
//!   partitioned path's global commit must bump the timestamp and publish
//!   atomically *outside* any hardware transaction (Fig. 1 lines 45–47, the paper's
//!   "atomic" block). We implement the atomic block with a ring lock that hardware
//!   publishers subscribe to: acquiring it (a non-transactional CAS) dooms every
//!   hardware transaction that already read the lock word — strong atomicity makes
//!   the two worlds mutually exclusive. [`Ring::publish_software`] is the whole
//!   block for one full-signature entry: the plain reference the tests publish
//!   through.
//!
//! # The summary fast path
//!
//! [`Ring::validate_nt`] walks every entry between the validator's start time and
//! the current timestamp — O(ts-delta × words) strongly-atomic heap reads, the worst
//! scaling term of the software framework, and the plain reference every fast pass
//! is tested against. [`RingSummary`] collapses the common no-conflict case to
//! O(live words): it maintains, in *host* memory (deliberately outside the simulated
//! heap, so summary reads never doom in-flight hardware publishers), the OR of every
//! signature published since the summary's last reset. A validator whose read
//! signature is disjoint from the summary — checked under the publish-counter/epoch
//! fence of [`RingSummary::try_fast_pass_at`] or [`RingSummary::clean_since_at`] —
//! has nothing to conflict with and skips the walk entirely; any doubt falls back
//! to the precise walk. False positives only cost the fallback; false negatives
//! cannot happen (the correctness argument lives with the fast passes and in
//! `docs/hot-path.md`). A summary pass is valid even across ring rollover: the OR
//! covers every publish since the reset, whether or not its slot has been
//! overwritten.
//!
//! A reset never waits for readers and readers never wait for it: the summary
//! keeps two banks, a reset clears the one no probe of the current epoch
//! reads, and a probe that straddles a flip sees the epoch move at its final
//! re-check and falls back (`docs/ring-sharding.md` §5).

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

use crate::heap_sig::HeapSig;
use crate::kernels::{self, BankLine};
use crate::sig::Sig;
use crate::spec::SigSpec;
use htm_sim::abort::TxResult;
use htm_sim::{Addr, HeapBuilder, HtmThread, HtmTx, WORDS_PER_LINE};

/// Explicit-abort payload used when a hardware publisher finds the ring lock held.
pub const XABORT_RING_LOCKED: u8 = 0xA1;

/// Flag bit in an entry's mask word marking the *compact* layout: the entry's
/// signature words live in the spare words of the mask's own cache line (slots
/// `+1..+7`, in ascending word-index order) instead of the full-geometry array
/// at `+8..`. Word-range-restricted publishes (the sharded ring's per-shard
/// entries) use it so the whole entry is a single cache-line store. Only ever
/// set when the geometry has fewer than 64 words, so the bit cannot collide
/// with a real word index.
const ENTRY_COMPACT: u64 = 1 << 63;

/// Validation failure against the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingValidationError {
    /// A transaction that committed after `start_time` wrote something this
    /// transaction read.
    Invalid,
    /// The ring wrapped past the validation window; entries needed for validation
    /// were overwritten (Fig. 1 lines 39–40: "abort at ring rollover").
    Rollover,
}

/// The global ring resident in the simulated heap.
#[derive(Clone, Copy, Debug)]
pub struct Ring {
    lock: Addr,
    timestamp: Addr,
    entries: Addr,
    size: u64,
    spec: SigSpec,
}

impl Ring {
    /// Words per ring entry: one line holding the non-zero-word mask, then the
    /// signature words. Entries whose mask bit is clear are never read, so stale
    /// slot content from earlier laps is harmless and publishers only store the
    /// words they actually use.
    fn entry_words(spec: SigSpec) -> u32 {
        8 + spec.words()
    }

    /// Allocate a ring with `size` entries of geometry `spec`. The lock and the
    /// timestamp each get their own cache line so that subscribing one does not
    /// false-conflict with bumps of the other.
    pub fn alloc(b: &mut HeapBuilder, size: usize, spec: SigSpec) -> Self {
        assert!(size.is_power_of_two(), "ring size must be a power of two");
        let lock = b.alloc_lines(1);
        let timestamp = b.alloc_lines(1);
        let entries = b.alloc_aligned(size * Self::entry_words(spec) as usize);
        Self {
            lock,
            timestamp,
            entries,
            size: size as u64,
            spec,
        }
    }

    /// Number of entries.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Heap address of the ring lock word.
    pub fn lock_addr(&self) -> Addr {
        self.lock
    }

    /// Heap address of the global timestamp word.
    pub fn timestamp_addr(&self) -> Addr {
        self.timestamp
    }

    /// Heap address of entry `ts`'s non-zero-word mask.
    fn entry_mask_addr(&self, ts: u64) -> Addr {
        let idx = (ts % self.size) as u32;
        self.entries + idx * Self::entry_words(self.spec)
    }

    /// The signature words of the entry for the commit with timestamp `ts`
    /// (full layout only — compact entries keep their words next to the mask;
    /// see the `ENTRY_COMPACT` flag bit).
    pub fn entry(&self, ts: u64) -> HeapSig {
        HeapSig::at(self.entry_mask_addr(ts) + 8, self.spec)
    }

    /// Whether a publish restricted to `word_mask` with live words `stored_mask`
    /// can use the compact single-line entry layout: the restriction must be
    /// real (full-geometry entries stay in the full layout so
    /// [`Ring::entry`] snapshots keep working), the flag bit must be free
    /// (geometry under 64 words), the entry base must be line-aligned, and the
    /// words must fit the line's spare slots.
    fn entry_is_compact(&self, word_mask: u64, stored_mask: u64) -> bool {
        word_mask != u64::MAX
            && self.spec.words() < 64
            && Self::entry_words(self.spec).is_multiple_of(WORDS_PER_LINE as u32)
            && (stored_mask.count_ones() as usize) < WORDS_PER_LINE
    }

    /// Non-transactional intersection of ring entry `ts` with `sig`, honouring the
    /// entry's non-zero-word mask (words outside the mask hold stale content from an
    /// earlier lap and are never read) and `sig`'s own mask (only its live words can
    /// intersect anything).
    fn entry_intersects_nt(&self, th: &HtmThread<'_>, ts: u64, sig: &Sig) -> bool {
        let base = self.entry_mask_addr(ts);
        let mword = th.nt_read(base);
        // Both layouts gather the overlapping entry words and `sig` words into
        // stack buffers (the mask pretests keep the gather to the handful of
        // words both sides have live — the same heap-read set as before), then
        // settle the conflict with one unrolled intersect-any kernel call.
        let mut ewords = [0u64; 64];
        let mut swords = [0u64; 64];
        let mut n = 0usize;
        if self.spec.words() < 64 && mword & ENTRY_COMPACT != 0 {
            // Compact layout: word `i` sits at slot `rank of i in the stored
            // mask` right after the mask word (writers store in ascending
            // word-index order).
            let stored = mword & !ENTRY_COMPACT;
            let mut overlap = stored & sig.nonzero_mask();
            while overlap != 0 {
                let i = overlap.trailing_zeros();
                let slot = (stored & ((1u64 << i) - 1)).count_ones();
                ewords[n] = th.nt_read(base + 1 + slot);
                swords[n] = sig.word(i);
                n += 1;
                overlap &= overlap - 1;
            }
            return kernels::intersect_any(&ewords[..n], &swords[..n]);
        }
        if mword & sig.nonzero_mask() == 0 {
            return false;
        }
        let entry = self.entry(ts);
        for (i, w) in sig.nonzero_words() {
            if mword & (1 << i) != 0 {
                ewords[n] = th.nt_read(entry.word_addr(i));
                swords[n] = w;
                n += 1;
            }
        }
        kernels::intersect_any(&ewords[..n], &swords[..n])
    }

    /// Read the global timestamp non-transactionally (strongly atomic).
    pub fn timestamp_nt(&self, th: &HtmThread<'_>) -> u64 {
        th.nt_read(self.timestamp)
    }

    /// Read the global timestamp inside a hardware transaction — this *subscribes*
    /// the transaction to the timestamp line, so any later commit (hardware bump or
    /// software store) dooms it. Part-HTM-O's sub-HTM begin uses this (Fig. 2
    /// lines 23–24).
    pub fn timestamp_tx(&self, tx: &mut HtmTx<'_, '_>) -> TxResult<u64> {
        tx.read(self.timestamp)
    }

    /// Hardware publish (fast path commit, Fig. 1 lines 9–11) of the words
    /// selected by `word_mask` (bit `i` set ⇔ word `i` is stored): subscribe the
    /// ring lock (explicitly aborting if a software committer holds it), bump the
    /// timestamp and store `write_sig`'s non-zero words inside the mask into the
    /// new entry — all inside `tx`, hence atomic with the transaction's own
    /// commit. The signature is supplied as its software value (the caller's
    /// mirror tracks the heap copy exactly), so the publish is write-only, and the
    /// entry mask records exactly the stored subset. The sharded ring
    /// ([`crate::ShardedRing`]) passes each shard's word range, so each shard's
    /// entries carry only its own words. Returns the new timestamp.
    pub fn publish_tx_masked(
        &self,
        tx: &mut HtmTx<'_, '_>,
        write_sig: &Sig,
        word_mask: u64,
    ) -> TxResult<u64> {
        if tx.read(self.lock)? != 0 {
            return Err(tx.xabort(XABORT_RING_LOCKED));
        }
        let ts = tx.read(self.timestamp)? + 1;
        let base = self.entry_mask_addr(ts);
        let mask = write_sig.nonzero_mask() & word_mask;
        if self.entry_is_compact(word_mask, mask) {
            // Compact layout: the whole entry fits the mask word's line, so the
            // transaction's entry footprint is a single cache line.
            let mut slot = 1;
            for (i, w) in write_sig.nonzero_words() {
                if word_mask & (1 << i) != 0 {
                    tx.write(base + slot, w)?;
                    slot += 1;
                }
            }
            tx.write(base, mask | ENTRY_COMPACT)?;
        } else {
            let entry = self.entry(ts);
            for (i, w) in write_sig.nonzero_words() {
                if word_mask & (1 << i) != 0 {
                    tx.write(entry.word_addr(i), w)?;
                }
            }
            tx.write(base, mask)?;
        }
        tx.write(self.timestamp, ts)?;
        Ok(ts)
    }

    /// Software publish (partitioned path global commit, Fig. 1 lines 45–47):
    /// acquire the ring lock — the CAS dooms hardware publishers that subscribed the
    /// lock word — then write the entry, then bump the timestamp (entry-before-bump
    /// so validators that read timestamp `ts` always see complete entries `<= ts`).
    /// Returns the new timestamp. The plain reference: it keeps no summary, and
    /// [`ShardedRing::publish_software_summarized`](crate::ShardedRing::publish_software_summarized)
    /// is the same block per shard with the summary hand-shake.
    pub fn publish_software(&self, th: &HtmThread<'_>, sig: &Sig) -> u64 {
        while th.nt_cas(self.lock, 0, 1).is_err() {
            htm_sim::vclock::yield_now();
        }
        let ts = th.nt_read(self.timestamp) + 1;
        self.write_entry_nt(th, ts, sig);
        th.nt_write(self.timestamp, ts);
        th.nt_write(self.lock, 0);
        ts
    }

    /// Write entry `ts`'s signature words and mask non-transactionally, for software
    /// committers that manage the ring lock and timestamp themselves (RingSTM's
    /// writer commit). The caller must hold the ring lock.
    pub fn write_entry_nt(&self, th: &HtmThread<'_>, ts: u64, sig: &Sig) {
        self.write_entry_masked_nt(th, ts, sig, u64::MAX)
    }

    /// [`Ring::write_entry_nt`] restricted to the words selected by `word_mask`:
    /// the entry stores only `sig`'s non-zero words inside the mask and its mask
    /// word records exactly that subset. Used by the sharded ring's software
    /// publish, where each shard's entry carries only the shard's own word range.
    /// The caller must hold the ring lock.
    pub fn write_entry_masked_nt(&self, th: &HtmThread<'_>, ts: u64, sig: &Sig, word_mask: u64) {
        let base = self.entry_mask_addr(ts);
        let mask = sig.nonzero_mask() & word_mask;
        if self.entry_is_compact(word_mask, mask) {
            // Compact layout: mask and words share one line, published as a
            // single strongly-atomic cache-line store.
            let mut writes = [(0 as Addr, 0u64); WORDS_PER_LINE];
            writes[0] = (base, mask | ENTRY_COMPACT);
            let mut n = 1;
            for (i, w) in sig.nonzero_words() {
                if word_mask & (1 << i) != 0 {
                    writes[n] = (base + n as Addr, w);
                    n += 1;
                }
            }
            th.nt_write_line(&writes[..n]);
            return;
        }
        let entry = self.entry(ts);
        for (i, w) in sig.nonzero_words() {
            if word_mask & (1 << i) != 0 {
                th.nt_write(entry.word_addr(i), w);
            }
        }
        th.nt_write(base, mask);
    }

    /// Validate `read_sig` against every commit later than `start_time` (Fig. 1
    /// lines 34–41). On success returns the new start time (the timestamp covered by
    /// this validation), letting the caller advance and avoid re-validating.
    pub fn validate_nt(
        &self,
        th: &HtmThread<'_>,
        read_sig: &Sig,
        start_time: u64,
    ) -> Result<u64, RingValidationError> {
        let ts = self.timestamp_nt(th);
        if ts == start_time {
            return Ok(ts);
        }
        let mut i = ts;
        while i > start_time {
            if self.entry_intersects_nt(th, i, read_sig) {
                return Err(RingValidationError::Invalid);
            }
            i -= 1;
        }
        // Rollover check with a re-read: if the window wrapped while we were
        // validating, some inspected entries may have been overwritten by newer
        // commits and the loop above cannot be trusted.
        if self.timestamp_nt(th) > start_time + self.size {
            return Err(RingValidationError::Rollover);
        }
        Ok(ts)
    }
}

/// Default density threshold: reset once more than a third of the summary's bits
/// are set (a summary this dense intersects almost every read signature, so the
/// fast path stops paying for itself).
const SUMMARY_DENSITY_NUM: u32 = 1;
const SUMMARY_DENSITY_DEN: u32 = 3;
/// Default publishes between density checks (keeps the density popcount off the
/// common path).
const SUMMARY_CHECK_INTERVAL: u64 = 256;

/// The density rule of a [`RingSummary`], fixed at construction: every
/// `check_interval` publishes, reset when more than `density_num/density_den`
/// of the live bits are set (`1/3` and 256 publishes by default).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SummaryTuning {
    /// Density threshold numerator: reset when more than `num/den` of the live
    /// bits are set.
    pub density_num: u32,
    /// Density threshold denominator.
    pub density_den: u32,
    /// Publishes between density checks.
    pub check_interval: u64,
}

impl Default for SummaryTuning {
    fn default() -> Self {
        Self {
            density_num: SUMMARY_DENSITY_NUM,
            density_den: SUMMARY_DENSITY_DEN,
            check_interval: SUMMARY_CHECK_INTERVAL,
        }
    }
}

/// Why a summary fast pass declined to decide a validation (the precise walk
/// runs instead). The executors count the split (`TmStats::summary_miss_*`):
/// dirty misses are what a denser reset would cure, in-flight misses are not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FastMiss {
    /// The read signature intersected the summary words: the summary is too
    /// dense (or a genuine conflict exists — the walk decides which).
    Dirty,
    /// Transient instability a denser-summary reset would not have prevented:
    /// a publisher was announced but not yet folded, the epoch moved
    /// mid-probe, or the validator's window predates the last reset.
    Inflight,
}

/// The summary signature: host-side companion to one [`Ring`] shard (the ring
/// itself is a plain-old-data heap handle; the summary holds atomics and therefore
/// lives in the runtime). See the module docs for the protocol overview.
///
/// Soundness hinges on three rules, in concert:
///
/// 1. **Announce-then-bump**: a publisher increments `started` *before* its
///    timestamp store can become visible, and increments `completed` only after its
///    bits are in the summary (or the publish aborted). A validator reads
///    `completed` right after the epoch and `started` last and requires them equal — any publish it
///    could be missing bits from is then provably either fully summarised or not
///    yet visible in the timestamp it validated against.
/// 2. **Stability across the probe**: publishers OR their bits under an epoch
///    re-check (retrying into the current bank if a reset overlapped), and
///    validators require the epoch stable across their whole read sequence.
///    The final re-check additionally catches publishers that folded into the
///    *new* bank after a flip the validator did not see.
/// 3. **Reset timestamp read after the clear**: bits a clear may have dropped
///    belong to publishes whose timestamps were visible before `reset_ts` was
///    read, so requiring `start_time >= reset_ts` (of the bank being probed) on
///    the fast path makes the dropped bits irrelevant (those publishes are
///    before the validator's window).
///
/// A reset at epoch `e` clears bank `(e + 1) & 1`, never the bank an epoch-`e`
/// probe reads; only a second reset clears that bank, and it moves the epoch
/// past `e` first, so the probe's final re-check (rule 2) already sends it to
/// the walk. Validators therefore register nowhere, and a due reset always
/// runs.
#[derive(Debug)]
pub struct RingSummary {
    /// OR of every signature published since the last reset, stored as whole
    /// cache lines ([`BankLine`], 8 words per 64-byte line) so each bank
    /// starts on a line boundary and two banks never share a line — a
    /// publisher folding into the current bank cannot false-share with the
    /// reset clearing the retired one. Two banks back to back (bank `b` word
    /// `i` at line `b * lines_per_bank + i / 8`, lane `i % 8`); publishers
    /// fold into bank `gen & 1`, resets clear the retired bank off to the
    /// side.
    lines: Box<[BankLine]>,
    /// Whole cache lines per bank: `spec.words() / 8`, rounded up.
    lines_per_bank: usize,
    /// The epoch counter; the current bank is `gen & 1`.
    gen: AtomicU64,
    /// Ring timestamp observed just after the last clear of each bank;
    /// fast-path validators must have `start_time >= reset_ts[bank]` for the
    /// bank they probe.
    reset_ts: [AtomicU64; 2],
    /// Publishes announced (monotone; never decremented).
    started: AtomicU64,
    /// Publishes completed or cancelled (monotone; never decremented).
    completed: AtomicU64,
    /// Completed publishes since the last reset (density-check pacing).
    since_reset: AtomicU64,
    /// CAS guard: at most one resetter at a time.
    resetting: AtomicU64,
    /// The density rule.
    tuning: SummaryTuning,
    /// Highest commit timestamp whose publish has *completed its fold* into
    /// `words` (recorded by [`RingSummary::complete_publish_masked`] just
    /// before it bumps `completed`; monotone). A validator whose clean probe
    /// passes may advance its window here without reading the ring timestamp:
    /// every publish at or below this value has its bits in the words the
    /// probe just read. May lag the ring timestamp while folds are in flight —
    /// lagging is safe, it only advances windows less.
    folded_ts: AtomicU64,
    /// Bits the density check measures against: 64 × the covered word count.
    live_bits: u32,
    spec: SigSpec,
}

impl RingSummary {
    /// An empty summary whose density accounting covers only the words selected by
    /// `word_mask` (a shard of the sharded ring only ever folds in its own word
    /// range, so measuring density against the full geometry would make a reset
    /// unreachable).
    pub fn new_masked_tuned(spec: SigSpec, word_mask: u64, tuning: SummaryTuning) -> Self {
        assert!(tuning.density_den > 0, "density threshold needs a denominator");
        let covered = (0..spec.words()).filter(|i| word_mask & (1 << i) != 0).count() as u32;
        let lines_per_bank = (spec.words() as usize).div_ceil(WORDS_PER_LINE);
        Self {
            lines: (0..2 * lines_per_bank)
                .map(|_| BankLine::default())
                .collect(),
            lines_per_bank,
            gen: AtomicU64::new(0),
            reset_ts: [AtomicU64::new(0), AtomicU64::new(0)],
            started: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            since_reset: AtomicU64::new(0),
            resetting: AtomicU64::new(0),
            tuning,
            folded_ts: AtomicU64::new(0),
            live_bits: covered * 64,
            spec,
        }
    }

    /// Word `i` of bank `bank`.
    #[inline]
    fn word(&self, bank: usize, i: usize) -> &AtomicU64 {
        &self.bank_lines(bank)[i / WORDS_PER_LINE].0[i % WORDS_PER_LINE]
    }

    /// The whole-line storage of bank `bank` (what the line kernels walk).
    #[inline]
    fn bank_lines(&self, bank: usize) -> &[BankLine] {
        &self.lines[bank * self.lines_per_bank..(bank + 1) * self.lines_per_bank]
    }

    /// Announce a publish whose timestamp is about to become visible. Every
    /// `begin_publish` must be matched by exactly one
    /// [`RingSummary::complete_publish_masked`] or [`RingSummary::cancel_publish`].
    #[inline]
    pub fn begin_publish(&self) {
        self.started.fetch_add(1, SeqCst);
    }

    /// Fold a committed publish's signature into the summary, restricted to the
    /// words selected by `word_mask`: only `sig`'s non-zero words inside the mask
    /// are folded in. A shard summary of the sharded ring folds in only its own
    /// word range, keeping each shard's density (and therefore its reset cadence)
    /// independent. The epoch re-check makes the OR effectively atomic against
    /// resets: if the epoch flips mid-OR, the loop runs again and re-ORs into the
    /// new current bank.
    ///
    /// `folded_ts` is the publish's commit timestamp. It is recorded strictly
    /// *before* `completed` is bumped: the [`RingSummary::clean_since_at`]
    /// early-out relies on "counters balanced ⇒ the watermark covers every
    /// folded publish".
    pub fn complete_publish_masked(&self, sig: &Sig, word_mask: u64, folded_ts: u64) {
        loop {
            let g1 = self.gen.load(SeqCst);
            let bank = (g1 & 1) as usize;
            // The fold kernel ORs `sig`'s non-zero words under `word_mask`
            // into the bank — the same atomic-RMW set as the old per-word
            // loop, four words per branch.
            kernels::fold_or_lines(self.bank_lines(bank), sig.words(), word_mask);
            if self.gen.load(SeqCst) == g1 {
                break;
            }
            // The epoch flipped mid-fold — re-fold into the new current
            // bank. Bits a straggling iteration left in the retired
            // bank only over-approximate it (false positives, never missed
            // conflicts) and vanish at that bank's next clear.
        }
        self.folded_ts.fetch_max(folded_ts, SeqCst);
        self.since_reset.fetch_add(1, SeqCst);
        self.completed.fetch_add(1, SeqCst);
    }

    /// Retire an announced publish whose hardware transaction aborted (its
    /// timestamp never became visible, so there is nothing to fold in).
    #[inline]
    pub fn cancel_publish(&self) {
        self.completed.fetch_add(1, SeqCst);
    }

    /// Publishes announced against this summary so far (monotone). With
    /// [`RingSummary::completed_publishes`] this exposes the summary's
    /// *occupancy* to admission controllers: per-shard arrival pressure
    /// without touching the protocol's own counters.
    #[inline]
    pub fn started_publishes(&self) -> u64 {
        self.started.load(SeqCst)
    }

    /// Publishes completed or cancelled so far (monotone).
    #[inline]
    pub fn completed_publishes(&self) -> u64 {
        self.completed.load(SeqCst)
    }

    /// Publishes currently in flight (announced, not yet completed or
    /// cancelled): the instantaneous occupancy of this summary's shard. The
    /// two loads are not atomic together, so a racing publish can skew the
    /// snapshot by ±1 per concurrent publisher — fine for an admission
    /// heuristic, never a correctness input.
    #[inline]
    pub fn inflight_publishes(&self) -> u64 {
        let s = self.started.load(SeqCst);
        s.saturating_sub(self.completed.load(SeqCst))
    }

    /// The summary fast path: `Ok(ts)` when `read_sig` provably conflicts with
    /// nothing published after `start_time` (with `ts` the timestamp the caller may
    /// advance to), `Err` with the miss cause when the precise walk must decide.
    /// `read_ts` reads the ring timestamp; it is taken as a closure because the
    /// timestamp lives in the simulated heap while the summary does not. The
    /// executors feed the miss cause into `TmStats`.
    ///
    /// Read order is load-bearing (see the type-level docs): the epoch,
    /// `completed`, the reset window, the timestamp, the summary words, then
    /// `started` and the epoch again. Equality of the two counters
    /// proves every publish visible in `ts` had completed before the first read —
    /// and was therefore either in the bank words read afterwards, or dropped by
    /// a reset that the `start_time >= reset_ts` check already accounts for. The
    /// final epoch re-check is what catches the one hole counters
    /// alone leave open: a publish that folded into the *new* bank after a flip
    /// this validator did not observe would balance the counters while its bits
    /// are absent from the old bank being probed — any such publish implies the
    /// epoch moved, which the re-check turns into a fallback.
    pub fn try_fast_pass_at(
        &self,
        read_sig: &Sig,
        start_time: u64,
        read_ts: impl FnOnce() -> u64,
    ) -> Result<u64, FastMiss> {
        self.fast_pass_epoch(self.gen.load(SeqCst), read_sig, start_time, read_ts)
    }

    /// The fast pass against the bank of epoch `e`, read by the caller before
    /// anything else. There is no "reset in progress" bail-out: a concurrent
    /// reset clears the *retired* bank, not the one this probe reads, so
    /// validators keep deciding at full speed for the whole clear and only a
    /// probe that actually straddles the flip (final `gen != e`) falls back.
    fn fast_pass_epoch(
        &self,
        e: u64,
        read_sig: &Sig,
        start_time: u64,
        read_ts: impl FnOnce() -> u64,
    ) -> Result<u64, FastMiss> {
        let c1 = self.completed.load(SeqCst);
        let bank = (e & 1) as usize;
        if start_time < self.reset_ts[bank].load(SeqCst) {
            return Err(FastMiss::Inflight);
        }
        let ts = read_ts();
        if ts == start_time {
            return Ok(ts);
        }
        if kernels::probe_lines_masked(self.bank_lines(bank), read_sig.words(), read_sig.nonzero_mask()) {
            return Err(FastMiss::Dirty);
        }
        if self.started.load(SeqCst) != c1 || self.gen.load(SeqCst) != e {
            return Err(FastMiss::Inflight);
        }
        Ok(ts)
    }

    /// The fold watermark: the highest commit timestamp whose publish has
    /// completed its fold into the summary words.
    ///
    /// Safe to use as a begin-time validation window without reading the ring
    /// timestamp: every publish with a commit timestamp at or below the
    /// watermark became visible *before* the watermark reached that value (a
    /// fold runs strictly after the commit that produced its timestamp, and
    /// timestamps are handed out in commit order per shard), so a reader whose
    /// window starts here has already observed all of those publishes' writes.
    /// The watermark may lag the ring timestamp while folds are in flight;
    /// lag only widens the window, which is conservative, never unsound.
    #[inline]
    pub fn folded_ts(&self) -> u64 {
        self.folded_ts.load(SeqCst)
    }

    /// Timestamp-free variant of [`RingSummary::try_fast_pass_at`]: `Ok(adv)`
    /// when `read_sig` provably collides with no entry published after
    /// `start_time`, with `adv` a timestamp the caller may advance its window
    /// to (possibly below `start_time`; take the max). A miss reports its
    /// cause.
    ///
    /// Because the ring timestamp is never read, the probe touches only the
    /// host-side summary atomics — no simulated-heap access at all. Two ways
    /// to pass, mirroring the two exits of the fast pass:
    ///
    /// * **Nothing-new early-out** (the common case of a freshly advanced
    ///   window): the fold watermark is `<= start_time` and the counters
    ///   balance. Every *folded* publish then has a timestamp `<= start_time`
    ///   (the watermark is bumped before `completed`, so "balanced counters"
    ///   means the watermark covers all of them — this is why every masked
    ///   completer must pass its timestamp), every announced-but-unfolded one
    ///   trips the counter mismatch, and anything announced after the final
    ///   load is outside the window this probe vouches for. The signature
    ///   words are never read.
    /// * **Bloom probe**: `read_sig` intersects none of the summary words.
    ///   The watermark is loaded *before* the words, so every publish at or
    ///   below it folded its bits into what the probe then read — advancing
    ///   to it is strictly weaker than the advance
    ///   [`RingSummary::try_fast_pass_at`] proves sound from the real timestamp.
    ///
    /// In both cases a reset inside the window is rejected by the
    /// `start_time >= reset_ts` check, exactly as in the fast pass.
    pub fn clean_since_at(&self, read_sig: &Sig, start_time: u64) -> Result<u64, FastMiss> {
        self.clean_since_epoch(self.gen.load(SeqCst), read_sig, start_time)
    }

    /// The clean probe against epoch `e`'s bank; same structure
    /// as [`RingSummary::fast_pass_epoch`] with the fold watermark in place of
    /// the ring timestamp.
    fn clean_since_epoch(&self, e: u64, read_sig: &Sig, start_time: u64) -> Result<u64, FastMiss> {
        let c1 = self.completed.load(SeqCst);
        let bank = (e & 1) as usize;
        if start_time < self.reset_ts[bank].load(SeqCst) {
            return Err(FastMiss::Inflight);
        }
        let adv = self.folded_ts.load(SeqCst);
        if adv <= start_time {
            if self.started.load(SeqCst) == c1 && self.gen.load(SeqCst) == e {
                return Ok(start_time);
            }
            return Err(FastMiss::Inflight);
        }
        if kernels::probe_lines_masked(self.bank_lines(bank), read_sig.words(), read_sig.nonzero_mask()) {
            return Err(FastMiss::Dirty);
        }
        if self.started.load(SeqCst) != c1 || self.gen.load(SeqCst) != e {
            return Err(FastMiss::Inflight);
        }
        Ok(adv)
    }

    /// Popcount of the current bank against the density threshold: more than
    /// `density_num/density_den` of the live bits (the shard's word range) set.
    /// A summary that dense intersects almost every read signature, so the fast
    /// path stops paying for itself.
    fn density_exceeded(&self) -> bool {
        let bank = (self.gen.load(SeqCst) & 1) as usize;
        let pop = kernels::popcount_lines(self.bank_lines(bank), self.spec.words() as usize);
        let t = self.tuning;
        pop > self.live_bits as u64 * t.density_num as u64 / t.density_den as u64
    }

    /// Attempt a reset: pacing-interval gate, resetter guard, density check,
    /// then the reset protocol. Returns whether it reset. `read_ts` reads the
    /// owning ring's timestamp (a closure because the timestamp lives in the
    /// simulated heap while the summary does not).
    ///
    /// **The protocol** (two banks): the *retired* bank (the one validators
    /// of the current epoch are not reading) is cleared off to the side, its `reset_ts`
    /// slot set from a timestamp read after the clear, and only then does the
    /// epoch flip make it current — validators and publishers run at full
    /// speed throughout, and the only ones that fall back are probes straddling
    /// the flip itself. Why dropped bits stay safe is rule 3 of the type-level
    /// docs, applied per bank: every publish whose bits the clear dropped had
    /// folded into that bank before it was retired (or is a straggler that
    /// re-folds into the current bank), so its timestamp was visible before the
    /// post-clear `reset_ts` read, and `start_time >= reset_ts[bank]` excludes
    /// it from every window the flipped bank will ever vouch for.
    pub fn maybe_reset_with(&self, read_ts: impl FnOnce() -> u64) -> bool {
        if self.since_reset.load(SeqCst) < self.tuning.check_interval {
            return false;
        }
        if self
            .resetting
            .compare_exchange(0, 1, SeqCst, SeqCst)
            .is_err()
        {
            return false;
        }
        if !self.density_exceeded() {
            // Below threshold: restart the pacing interval so the popcount is
            // not repeated on every subsequent commit.
            self.since_reset.store(0, SeqCst);
            self.resetting.store(0, SeqCst);
            return false;
        }
        let e = self.gen.load(SeqCst);
        let retired = ((e + 1) & 1) as usize;
        for i in 0..self.spec.words() as usize {
            self.word(retired, i).store(0, SeqCst);
        }
        // Read the timestamp only *after* the clear: any publish whose bits
        // the clear dropped had made its timestamp visible before this read,
        // so `reset_ts` covers it and validators that started earlier are
        // sent to the precise walk.
        let ts = read_ts();
        self.reset_ts[retired].store(ts, SeqCst);
        self.since_reset.store(0, SeqCst);
        // The flip: the freshly cleared bank becomes current. Store, not
        // fetch_add — only the guarded resetter ever moves the epoch.
        self.gen.store(e + 1, SeqCst);
        self.resetting.store(0, SeqCst);
        true
    }

    /// Snapshot of the current bank's summary bits (diagnostics and tests).
    pub fn snapshot(&self) -> Sig {
        let bank = (self.gen.load(SeqCst) & 1) as usize;
        let nw = self.spec.words() as usize;
        Sig::from_words(
            self.spec,
            (0..nw).map(|i| self.word(bank, i).load(SeqCst)).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::{ShardTimes, ShardedRing, ShardedSummary};
    use htm_sim::{AbortCode, HeapBuilder, HtmConfig, HtmSystem};

    const HEAP: usize = 1 << 18;

    fn setup(ring_size: usize) -> (HtmSystem, Ring) {
        let sys = HtmSystem::new(HtmConfig::default(), HEAP);
        let mut b = HeapBuilder::new(HEAP);
        let ring = Ring::alloc(&mut b, ring_size, SigSpec::PAPER);
        (sys, ring)
    }

    #[test]
    fn software_publish_and_validate() {
        let (sys, ring) = setup(16);
        let mut th = sys.thread(0);
        assert_eq!(ring.timestamp_nt(&th), 0);

        let mut wsig = Sig::new(SigSpec::PAPER);
        wsig.add(1000);
        let ts = ring.publish_software(&th, &wsig);
        assert_eq!(ts, 1);

        // A reader of address 1000 that started at time 0 is invalidated.
        let mut rsig = Sig::new(SigSpec::PAPER);
        rsig.add(1000);
        assert_eq!(
            ring.validate_nt(&th, &rsig, 0),
            Err(RingValidationError::Invalid)
        );

        // A reader of an unrelated address advances its start time.
        let mut rsig2 = Sig::new(SigSpec::PAPER);
        rsig2.add(2000);
        assert_eq!(ring.validate_nt(&th, &rsig2, 0), Ok(1));

        // A reader that started after the commit has nothing to validate.
        assert_eq!(ring.validate_nt(&th, &rsig, 1), Ok(1));
        let _ = &mut th;
    }

    #[test]
    fn hardware_publish_updates_timestamp_and_entry() {
        let (sys, ring) = setup(16);
        let mut th = sys.thread(0);
        let mut s = Sig::new(SigSpec::PAPER);
        s.add(777);

        let ts = th.attempt(|tx| ring.publish_tx_masked(tx, &s, u64::MAX)).unwrap();
        assert_eq!(ts, 1);
        assert_eq!(ring.timestamp_nt(&th), 1);
        assert!(ring.entry(1).snapshot_nt(&th).contains(777));
    }

    #[test]
    fn hardware_publisher_aborts_when_lock_held() {
        let (sys, ring) = setup(16);
        let mut th = sys.thread(0);
        let wsig = Sig::new(SigSpec::PAPER);
        sys.nt_write(ring.lock_addr(), 1);
        let r = th.attempt(|tx| ring.publish_tx_masked(tx, &wsig, u64::MAX));
        assert_eq!(r, Err(AbortCode::Explicit(XABORT_RING_LOCKED)));
    }

    #[test]
    fn software_lock_dooms_subscribed_hardware_publisher() {
        let (sys, ring) = setup(16);
        let wsig = Sig::new(SigSpec::PAPER);
        let mut hw = sys.thread(0);
        let mut tx = hw.begin();
        // Subscribe the lock word (first step of publish_tx_masked).
        assert_eq!(tx.read(ring.lock_addr()), Ok(0));
        // Software committer on another thread takes the lock.
        let sw = sys.thread(1);
        let sig = Sig::new(SigSpec::PAPER);
        ring.publish_software(&sw, &sig);
        // The hardware publisher is doomed before it can bump the timestamp.
        let r = ring.publish_tx_masked(&mut tx, &wsig, u64::MAX);
        assert_eq!(r, Err(AbortCode::Conflict));
    }

    #[test]
    fn rollover_detected() {
        let (sys, ring) = setup(8);
        let th = sys.thread(0);
        let empty = Sig::new(SigSpec::PAPER);
        for _ in 0..10 {
            ring.publish_software(&th, &empty);
        }
        // A transaction that started at time 0 cannot validate across 10 commits in
        // an 8-entry ring.
        let rsig = Sig::new(SigSpec::PAPER);
        assert_eq!(
            ring.validate_nt(&th, &rsig, 0),
            Err(RingValidationError::Rollover)
        );
        // One that started at time 4 can (window 6 <= 8).
        assert_eq!(ring.validate_nt(&th, &rsig, 4), Ok(10));
    }

    #[test]
    fn entry_indexing_wraps() {
        let (sys, ring) = setup(8);
        let th = sys.thread(0);
        let mut s1 = Sig::new(SigSpec::PAPER);
        s1.add(1);
        for _ in 0..9 {
            ring.publish_software(&th, &s1);
        }
        // ts 9 lives at slot 1, same as ts 1 did.
        assert_eq!(ring.entry(9).base(), ring.entry(1).base());
        assert!(ring.entry(9).snapshot_nt(&th).contains(1));
    }

    #[test]
    fn concurrent_software_publishers_serialize() {
        let (sys, ring) = setup(1024);
        std::thread::scope(|s| {
            for t in 0..4 {
                let sys = &sys;
                let ring = &ring;
                s.spawn(move || {
                    let th = sys.thread(t);
                    let sig = Sig::new(SigSpec::PAPER);
                    for _ in 0..100 {
                        ring.publish_software(&th, &sig);
                    }
                });
            }
        });
        let th = sys.thread(0);
        assert_eq!(
            ring.timestamp_nt(&th),
            400,
            "every publish must get a unique ts"
        );
    }

    // ---- summary fast path (one shard: the summary production runs) ----

    /// A 1-shard sharded ring: shard 0 is a whole [`Ring`] paired with its
    /// summary, in the default tuning.
    fn one_shard(ring_size: usize) -> (HtmSystem, ShardedRing, ShardedSummary) {
        let sys = HtmSystem::new(HtmConfig::default(), HEAP);
        let mut b = HeapBuilder::new(HEAP);
        let ring = ShardedRing::alloc(&mut b, 1, ring_size, SigSpec::PAPER);
        let sums = ring.new_summary();
        (sys, ring, sums)
    }

    /// A lone summary over the whole paper geometry, default tuning.
    fn summary() -> RingSummary {
        RingSummary::new_masked_tuned(SigSpec::PAPER, u64::MAX, SummaryTuning::default())
    }

    fn sig_of(addrs: &[u32]) -> Sig {
        let mut s = Sig::new(SigSpec::PAPER);
        addrs.iter().for_each(|&a| s.add(a));
        s
    }

    #[test]
    fn summary_fast_pass_on_disjoint_reader() {
        let (sys, sh, sums) = one_shard(64);
        let th = sys.thread(0);
        let wsig = sig_of(&[1000]);
        for _ in 0..5 {
            sh.publish_software_summarized(&th, &wsig, &sums);
        }
        // Disjoint reader: fast pass, advances to the current timestamp, the
        // same verdict as the plain walk.
        let rsig = sig_of(&[2000]);
        assert!(!rsig.intersects(&wsig), "test addresses must not collide");
        let walk = sh.shard(0).validate_nt(&th, &rsig, 0);
        assert_eq!(walk, Ok(5));
        let mut times = ShardTimes::new();
        let v = sh.validate_summarized_nt(&th, &sums, &rsig, &mut times);
        assert_eq!((v.result, times.get(0)), (Ok(()), 5));
        assert_eq!(v.fast_shards, 1, "disjoint reader must take the fast path");
        // Intersecting reader: falls back and is rejected, as the walk is.
        let rbad = sig_of(&[1000]);
        let mut times = ShardTimes::new();
        let v = sh.validate_summarized_nt(&th, &sums, &rbad, &mut times);
        assert_eq!(v.result, Err(RingValidationError::Invalid));
        assert_eq!(sh.shard(0).validate_nt(&th, &rbad, 0), Err(RingValidationError::Invalid));
        assert_eq!((v.fast_shards, v.dirty_shards), (0, 1));
    }

    #[test]
    fn summary_fast_pass_survives_rollover() {
        // 8-entry ring, 20 publishes: the precise walk from 0 reports Rollover, but
        // the summary (which covers every publish since reset, regardless of slot
        // overwrites) still passes a disjoint reader.
        let (sys, sh, sums) = one_shard(8);
        let th = sys.thread(0);
        let wsig = sig_of(&[1000]);
        for _ in 0..20 {
            sh.publish_software_summarized(&th, &wsig, &sums);
        }
        let (ring, summary) = (sh.shard(0), sums.shard(0));
        let rsig = sig_of(&[2000]);
        assert_eq!(ring.validate_nt(&th, &rsig, 0), Err(RingValidationError::Rollover));
        assert_eq!(
            summary.try_fast_pass_at(&rsig, 0, || ring.timestamp_nt(&th)),
            Ok(20),
            "summary pass avoids the spurious rollover abort"
        );
        assert_eq!(summary.clean_since_at(&rsig, 0), Ok(20));
    }

    #[test]
    fn hardware_publish_hand_shake() {
        let (sys, sh, sums) = one_shard(64);
        let mut th = sys.thread(0);
        let s = sig_of(&[777]);
        let (mask, times) = th
            .attempt(|tx| sh.publish_tx_summarized(tx, &s, &sums))
            .unwrap();
        // Announced, not yet folded: nobody may fast-pass.
        let summary = sums.shard(0);
        let rok = sig_of(&[4242]);
        assert!(!rok.intersects(&s));
        assert_eq!(summary.try_fast_pass_at(&rok, 0, || 1), Err(FastMiss::Inflight));
        sh.complete_publish(&s, mask, &times, &sums);
        assert_eq!(times.get(0), 1);
        assert!(summary.snapshot().contains(777));
        // A reader of 777 must not fast-pass; a disjoint one must.
        let rbad = sig_of(&[777]);
        assert_eq!(summary.try_fast_pass_at(&rbad, 0, || 1), Err(FastMiss::Dirty));
        assert_eq!(summary.try_fast_pass_at(&rok, 0, || 1), Ok(1));
        assert_eq!(summary.clean_since_at(&rok, 0), Ok(1));
    }

    // ---- resets ----

    fn saturate(sh: &ShardedRing, th: &htm_sim::HtmThread<'_>, sums: &ShardedSummary, n: u64) {
        let mut wsig = Sig::new(SigSpec::PAPER);
        for a in 0..n {
            wsig.clear();
            wsig.add((a * 4099) as u32);
            wsig.add((a * 7919 + 13) as u32);
            wsig.add((a * 104_729 + 7) as u32);
            sh.publish_software_summarized(th, &wsig, sums);
        }
    }

    #[test]
    fn epoch_reset_flips_bank_and_redirects_old_windows() {
        let (sys, sh, sums) = one_shard(4096);
        let th = sys.thread(0);
        let (ring, summary) = (sh.shard(0), sums.shard(0));
        let reset = || summary.maybe_reset_with(|| ring.timestamp_nt(&th));
        saturate(&sh, &th, &sums, SUMMARY_CHECK_INTERVAL + 10);
        assert!(summary.density_exceeded());
        assert_eq!(summary.gen.load(SeqCst), 0);
        assert!(reset());
        assert_eq!(summary.gen.load(SeqCst), 1, "reset flips the epoch");
        assert!(summary.snapshot().is_empty(), "the new current bank is clean");
        let rts = ring.timestamp_nt(&th);
        assert_eq!(summary.reset_ts[1].load(SeqCst), rts);
        // A validator that started before the flip must not fast-pass on the
        // new bank; one at/after the reset timestamp may.
        let rsig = sig_of(&[1]);
        assert_eq!(summary.try_fast_pass_at(&rsig, rts - 1, || rts), Err(FastMiss::Inflight));
        assert_eq!(summary.clean_since_at(&rsig, rts - 1), Err(FastMiss::Inflight));
        assert_eq!(summary.try_fast_pass_at(&rsig, rts, || rts), Ok(rts));
        // A second reset attempt is a no-op until the interval elapses again.
        assert!(!reset());
        // Publishes after the flip fold into the new current bank.
        sh.publish_software_summarized(&th, &sig_of(&[31_337]), &sums);
        assert!(summary.snapshot().contains(31_337));
    }

    #[test]
    fn probe_whose_bank_is_cleared_mid_probe_falls_back() {
        let (sys, sh, sums) = one_shard(4096);
        let th = sys.thread(0);
        let (ring, summary) = (sh.shard(0), sums.shard(0));
        let start = ring.timestamp_nt(&th);
        let rsig = sig_of(&[31_337]);
        // The timestamp read happens mid-probe, after the probe took its
        // epoch (0) and `completed`: saturate and reset twice there, so the
        // second reset clears bank 0, the bank the probe then reads, and the
        // window holds a publish of the reader's own address.
        let res = summary.try_fast_pass_at(&rsig, start, || {
            sh.publish_software_summarized(&th, &rsig, &sums);
            for _ in 0..2 {
                saturate(&sh, &th, &sums, SUMMARY_CHECK_INTERVAL + 10);
                assert!(summary.maybe_reset_with(|| ring.timestamp_nt(&th)));
            }
            ring.timestamp_nt(&th)
        });
        assert_eq!(summary.gen.load(SeqCst), 2, "both resets ran");
        assert_eq!(res, Err(FastMiss::Inflight));
        assert_eq!(
            sh.shard(0).validate_nt(&th, &rsig, start),
            Err(RingValidationError::Invalid),
            "the window holds a real conflict"
        );
    }

    /// A probe that read epoch `e`, then saw a flip and a publish fold into
    /// the new bank before it read `completed`: the counters balance and the
    /// probed bank lacks the publish's bits, so only the final epoch
    /// re-check sends it to the walk. Replayed by handing the stale epoch to
    /// the pass directly, for both fast passes.
    #[test]
    fn flip_between_epoch_and_counter_reads_is_caught_by_the_final_recheck() {
        let (sys, sh, sums) = one_shard(4096);
        let th = sys.thread(0);
        let (ring, summary) = (sh.shard(0), sums.shard(0));
        saturate(&sh, &th, &sums, SUMMARY_CHECK_INTERVAL + 10);
        let old = summary.snapshot();
        let a = (0u32..).find(|&a| !old.intersects(&sig_of(&[a]))).unwrap();
        let rsig = sig_of(&[a]);
        let e = summary.gen.load(SeqCst);
        assert!(summary.maybe_reset_with(|| ring.timestamp_nt(&th)));
        let start = ring.timestamp_nt(&th);
        sh.publish_software_summarized(&th, &rsig, &sums);
        let ts = ring.timestamp_nt(&th);
        assert_eq!(sh.shard(0).validate_nt(&th, &rsig, start), Err(RingValidationError::Invalid));
        assert_eq!(
            summary.fast_pass_epoch(e, &rsig, start, || ts),
            Err(FastMiss::Inflight)
        );
        assert_eq!(summary.clean_since_epoch(e, &rsig, start), Err(FastMiss::Inflight));
        // At the current epoch both passes see the publish's bits.
        assert_eq!(summary.try_fast_pass_at(&rsig, start, || ts), Err(FastMiss::Dirty));
        assert_eq!(summary.clean_since_at(&rsig, start), Err(FastMiss::Dirty));
    }

    #[test]
    fn probe_with_publisher_in_flight_reports_inflight() {
        let summary = summary();
        summary.begin_publish();
        // A publish is in flight (announced, not completed): nobody may fast-pass.
        let rsig = sig_of(&[1]);
        assert_eq!(summary.try_fast_pass_at(&rsig, 0, || 5), Err(FastMiss::Inflight));
        summary.cancel_publish();
        assert_eq!(summary.try_fast_pass_at(&rsig, 0, || 5), Ok(5));
    }

    #[test]
    fn dirty_probe_reports_dirty() {
        let summary = summary();
        summary.begin_publish();
        summary.complete_publish_masked(&sig_of(&[1000]), u64::MAX, 1);
        let rbad = sig_of(&[1000]);
        assert_eq!(summary.try_fast_pass_at(&rbad, 0, || 1), Err(FastMiss::Dirty));
        assert_eq!(
            summary.clean_since_at(&rbad, 0),
            Err(FastMiss::Dirty),
            "the timestamp-free probe classifies the same way"
        );
    }
}
