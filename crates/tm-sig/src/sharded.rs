//! Address-region sharding of the global ring.
//!
//! PR 2's summary made *validation* cheap, but every software-path commit still
//! serialised on one global ring lock and one global timestamp word — the last
//! global serialisation point of the software framework. [`ShardedRing`] removes
//! it by splitting the ring into `N` independent shards keyed by **signature word
//! range**: with a `W`-word geometry, shard `s` owns signature words
//! `[s·W/N, (s+1)·W/N)`, i.e. the addresses that hash into those words. Each
//! shard is a complete [`Ring`] — its own lock, timestamp and entry buffer — and
//! is paired with its own [`RingSummary`].
//!
//! * **Publishers** touch only the shards their write signature's non-zero-word
//!   mask intersects ([`ShardedRing::shard_mask`]), and each touched shard's
//!   entry stores only the words of that shard's range — so per-shard entries are
//!   *restricted*, not duplicated, and a validator probing word `w` always finds
//!   it in exactly one shard.
//! * **Validators** intersect their read signature against only the touched
//!   shards' summaries, falling back to a per-shard precise walk, and track a
//!   per-shard timestamp vector ([`ShardTimes`]) instead of one start time.
//!
//! Disjoint-region commits proceed with no shared writes at all; the cross-shard
//! serializability argument (why per-shard timestamp windows still admit no real
//! conflict even though a multi-shard publish is not atomic across shards) is
//! spelled out in `docs/ring-sharding.md` and summarised on
//! [`ShardedRing::validate_summarized_nt`].

use htm_sim::abort::TxResult;
use htm_sim::{HeapBuilder, HtmThread, HtmTx};

use crate::ring::{FastMiss, Ring, RingSummary, RingValidationError, SummaryTuning};
use crate::sig::Sig;
use crate::spec::SigSpec;

/// Hard upper bound on the shard count; [`ShardTimes`] and the per-shard stats
/// arrays are sized by it. Requests above it are clamped by [`ShardedRing::alloc`].
pub const MAX_RING_SHARDS: usize = 16;

/// Per-shard timestamp vector: the sharded analogue of the single-ring
/// `start_time`. A validator carries one timestamp per shard — the newest commit
/// of that shard its reads are known consistent against — and advances each slot
/// independently as per-shard validations succeed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardTimes {
    t: [u64; MAX_RING_SHARDS],
}

impl ShardTimes {
    /// All-zero vector (the state before any commit).
    pub fn new() -> Self {
        Self::default()
    }

    /// Timestamp recorded for shard `s`.
    #[inline]
    pub fn get(&self, s: usize) -> u64 {
        self.t[s]
    }

    /// Set shard `s`'s timestamp.
    #[inline]
    pub fn set(&mut self, s: usize, ts: u64) {
        self.t[s] = ts;
    }
}

/// Outcome of [`ShardedRing::validate_summarized_nt`]: the overall verdict plus,
/// for the executors' statistics, which touched shards were decided by the
/// summary fast pass and which needed a precise walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardedValidation {
    /// `Ok(())` when every touched shard validated; otherwise the first per-shard
    /// failure.
    pub result: Result<(), RingValidationError>,
    /// Touched shards decided by the summary fast pass (bit `s` ⇔ shard `s`).
    pub fast_shards: u32,
    /// Touched shards that ran the precise entry walk (bit `s` ⇔ shard `s`).
    pub walked_shards: u32,
    /// Walked shards whose fast-pass miss was [`FastMiss::Dirty`] (summary too
    /// dense / real conflict — the walk decided which).
    pub dirty_shards: u32,
    /// Walked shards whose fast-pass miss was [`FastMiss::Inflight`]
    /// (publisher mid-flight or reset churn; a denser-reset policy would not
    /// have prevented the walk).
    pub inflight_shards: u32,
}

/// Iterate the set bit positions of a shard mask, ascending.
#[inline]
fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let s = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(s)
        }
    })
}

/// The global ring split into word-range shards (see the module docs). Like
/// [`Ring`], this is a plain-old-data heap handle; the host-side atomics live in
/// the companion [`ShardedSummary`].
#[derive(Clone, Debug)]
pub struct ShardedRing {
    shards: Vec<Ring>,
    /// log2(words per shard): shard of word `w` is `w >> shift`.
    shift: u32,
    spec: SigSpec,
}

impl ShardedRing {
    /// Allocate `shard_count` shards (power of two) of `entries_per_shard`
    /// entries each, geometry `spec`. The count is clamped so that every shard
    /// owns at least one signature word and at most [`MAX_RING_SHARDS`] shards
    /// exist; `shard_count == 1` recovers the single global ring exactly (shard 0
    /// is a complete [`Ring`] over the whole geometry).
    pub fn alloc(
        b: &mut HeapBuilder,
        shard_count: usize,
        entries_per_shard: usize,
        spec: SigSpec,
    ) -> Self {
        assert!(
            shard_count >= 1 && shard_count.is_power_of_two(),
            "shard count must be a power of two"
        );
        let words = spec.words() as usize;
        let mut n = shard_count.min(MAX_RING_SHARDS).min(words);
        // Every shard must own the same whole number of words.
        while !words.is_multiple_of(n) {
            n /= 2;
        }
        let shards = (0..n)
            .map(|_| Ring::alloc(b, entries_per_shard, spec))
            .collect();
        Self {
            shards,
            shift: (words / n).trailing_zeros(),
            spec,
        }
    }

    /// Number of shards (after clamping).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Signature geometry.
    pub fn spec(&self) -> SigSpec {
        self.spec
    }

    /// Signature words owned by each shard.
    pub fn words_per_shard(&self) -> u32 {
        1 << self.shift
    }

    /// Shard `s`'s underlying ring. Shard 0 doubles as the workspace's
    /// single-ring view: it is a complete [`Ring`] and the RingSTM baseline
    /// publishes full signatures through its plain API.
    pub fn shard(&self, s: usize) -> &Ring {
        &self.shards[s]
    }

    /// The shard owning signature word `w`.
    #[inline]
    pub fn shard_of_word(&self, w: u32) -> usize {
        (w >> self.shift) as usize
    }

    /// Word mask of shard `s`'s word range (bit `i` set ⇔ shard `s` owns word `i`).
    #[inline]
    pub fn shard_word_mask(&self, s: usize) -> u64 {
        let wps = 1u32 << self.shift;
        if wps >= 64 {
            u64::MAX
        } else {
            ((1u64 << wps) - 1) << (s as u32 * wps)
        }
    }

    /// Shards touched by `sig` (bit `s` ⇔ some non-zero word of `sig` falls in
    /// shard `s`'s range). An empty signature touches nothing.
    pub fn shard_mask(&self, sig: &Sig) -> u32 {
        let mut m = 0u32;
        let mut words = sig.nonzero_mask();
        while words != 0 {
            let s = (words.trailing_zeros() >> self.shift) as usize;
            m |= 1 << s;
            words &= !self.shard_word_mask(s);
        }
        m
    }

    /// Read every shard's timestamp non-transactionally into `out`. Taken at
    /// transaction begin: the vector is the validator's initial window.
    pub fn timestamps_nt(&self, th: &HtmThread<'_>, out: &mut ShardTimes) {
        for (s, ring) in self.shards.iter().enumerate() {
            out.t[s] = ring.timestamp_nt(th);
        }
    }

    /// Compare every shard's timestamp against `times` *inside* a hardware
    /// transaction, subscribing each shard's timestamp line (the sharded analogue
    /// of [`Ring::timestamp_tx`] for Part-HTM-O's sub-HTM begin): any later
    /// commit in any shard dooms the transaction. Returns whether all match; a
    /// `false` return leaves some lines unread, which is fine because the caller
    /// immediately aborts.
    pub fn timestamps_match_tx(
        &self,
        tx: &mut HtmTx<'_, '_>,
        times: &ShardTimes,
    ) -> TxResult<bool> {
        for (s, ring) in self.shards.iter().enumerate() {
            if ring.timestamp_tx(tx)? != times.t[s] {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Hardware publish across every shard `write_sig` touches, inside `tx`: per
    /// touched shard (ascending), check the shard lock, bump the shard timestamp
    /// and store the word-range-restricted entry; then announce the publish to
    /// every touched shard's summary as the last body step (past it the
    /// transaction either commits — making all bumps visible atomically, HTM
    /// gives multi-shard hardware publishes the atomicity software ones lack — or
    /// aborts). Returns the touched-shard mask and the per-shard commit
    /// timestamps; the caller must finish the hand-shake with
    /// [`ShardedRing::complete_publish`] on commit (passing the returned mask
    /// *and* timestamps — they feed the fold watermark) or
    /// [`ShardedRing::cancel_publish`] on abort, passing the returned mask.
    pub fn publish_tx_summarized(
        &self,
        tx: &mut HtmTx<'_, '_>,
        write_sig: &Sig,
        summaries: &ShardedSummary,
    ) -> TxResult<(u32, ShardTimes)> {
        let smask = self.shard_mask(write_sig);
        let mut times = ShardTimes::new();
        for s in bits(smask) {
            times.t[s] =
                self.shards[s].publish_tx_masked(tx, write_sig, self.shard_word_mask(s))?;
        }
        // Announce *before* any timestamp store can become visible (they publish
        // at commit, which is after this body step by construction).
        for s in bits(smask) {
            summaries.shards[s].begin_publish();
        }
        Ok((smask, times))
    }

    /// Commit half of the hardware hand-shake: fold `write_sig`'s per-shard word
    /// ranges into every summary in `shard_mask`, recording each shard's commit
    /// timestamp as its fold watermark (`shard_mask` and `times` as returned by
    /// [`ShardedRing::publish_tx_summarized`]).
    pub fn complete_publish(
        &self,
        write_sig: &Sig,
        shard_mask: u32,
        times: &ShardTimes,
        summaries: &ShardedSummary,
    ) {
        for s in bits(shard_mask) {
            let word_mask = self.shard_word_mask(s);
            summaries.shards[s].complete_publish_masked(write_sig, word_mask, times.t[s]);
        }
    }

    /// Abort half of the hardware hand-shake: retire the announcement in every
    /// summary in `shard_mask` (no timestamps became visible, nothing to fold).
    pub fn cancel_publish(&self, shard_mask: u32, summaries: &ShardedSummary) {
        for s in bits(shard_mask) {
            summaries.shards[s].cancel_publish();
        }
    }

    /// Software publish across every shard `sig` touches (the partitioned path's
    /// global commit), in three phases:
    ///
    /// 1. acquire the touched shards' ring locks in **ascending shard order** —
    ///    the one global lock order, so multi-shard committers cannot deadlock
    ///    (and each CAS dooms hardware publishers subscribed to that shard);
    /// 2. per touched shard, ascending: reserve the next timestamp, write the
    ///    word-range-restricted entry, announce to the shard summary, bump the
    ///    shard timestamp (entry-before-bump per shard, exactly as in
    ///    [`Ring::publish_software`]) — then release **that shard's lock
    ///    immediately**, before moving to the next shard;
    /// 3. with no locks held, complete the summary hand-shakes.
    ///
    /// Untouched shards (those outside the write signature's non-zero-word mask)
    /// are never locked, bumped or walked at all.
    ///
    /// **Why the early per-shard release keeps the serialisation order:** all
    /// touched locks are still acquired *up front* in phase 1. If commits `A`
    /// and `B` share shards, `B`'s ascending phase 1 blocks at the first shared
    /// shard `A` still holds, and `B` publishes nowhere until phase 1 finishes —
    /// which requires `A` to have bumped-and-released every shared shard,
    /// including the highest one. So at every shared shard `A`'s bump precedes
    /// `B`'s: the same pairwise order as the hold-everything protocol, but each
    /// lock is now held only for its own shard's reserve/write/bump instead of
    /// for the whole multi-shard sweep (the software-only publish regression
    /// of the first sharded-ring bench was exactly this over-long hold). Returns the
    /// touched-shard mask and per-shard commit timestamps.
    pub fn publish_software_summarized(
        &self,
        th: &HtmThread<'_>,
        sig: &Sig,
        summaries: &ShardedSummary,
    ) -> (u32, ShardTimes) {
        let smask = self.shard_mask(sig);
        let mut times = ShardTimes::new();
        for s in bits(smask) {
            let lock = self.shards[s].lock_addr();
            while th.nt_cas(lock, 0, 1).is_err() {
                htm_sim::vclock::yield_now();
            }
        }
        for s in bits(smask) {
            let ring = &self.shards[s];
            let ts = ring.timestamp_nt(th) + 1;
            ring.write_entry_masked_nt(th, ts, sig, self.shard_word_mask(s));
            summaries.shards[s].begin_publish();
            th.nt_write(ring.timestamp_addr(), ts);
            th.nt_write(ring.lock_addr(), 0);
            times.t[s] = ts;
        }
        for s in bits(smask) {
            let word_mask = self.shard_word_mask(s);
            summaries.shards[s].complete_publish_masked(sig, word_mask, times.t[s]);
        }
        (smask, times)
    }

    /// Validate `read_sig` against every shard, advancing `times` per shard.
    ///
    /// Touched shards (those `read_sig`'s word mask intersects) go through the
    /// shard summary's fast pass, falling back to that shard's precise entry
    /// walk. Untouched shards cannot hold a conflict — a commit's entry in shard
    /// `s` carries only shard `s`'s word range, and `read_sig` has no bits there
    /// — so their slot is simply advanced to the shard's current timestamp (one
    /// non-transactional read), keeping windows short and Part-HTM-O's
    /// subscription vector exact.
    ///
    /// **Why per-shard windows are sound without cross-shard publish
    /// atomicity:** a conflict on signature word `w` is always witnessed in `w`'s
    /// owning shard, because the writer bumps that shard's timestamp only
    /// *after* its data writes are done (eager writes complete before global
    /// commit) and the validator snapshots that shard's timestamp *before* the
    /// reads it covers. If writer and validator overlap on `w`, the validator's
    /// window in `w`'s shard either contains the writer's entry (detected) or
    /// closed before the writer's bump — in which case the validator's reads all
    /// preceded the writer's writes and no value was missed. Other shards of the
    /// same multi-shard commit need no coordinated window. The full argument is
    /// in `docs/ring-sharding.md`.
    pub fn validate_summarized_nt(
        &self,
        th: &HtmThread<'_>,
        summaries: &ShardedSummary,
        read_sig: &Sig,
        times: &mut ShardTimes,
    ) -> ShardedValidation {
        let smask = self.shard_mask(read_sig);
        let mut v = ShardedValidation {
            result: Ok(()),
            fast_shards: 0,
            walked_shards: 0,
            dirty_shards: 0,
            inflight_shards: 0,
        };
        for (s, ring) in self.shards.iter().enumerate() {
            if smask & (1 << s) == 0 {
                times.t[s] = ring.timestamp_nt(th);
                continue;
            }
            let sum = &summaries.shards[s];
            match sum.try_fast_pass_at(read_sig, times.t[s], || ring.timestamp_nt(th)) {
                Ok(ts) => {
                    times.t[s] = ts;
                    v.fast_shards |= 1 << s;
                    continue;
                }
                Err(FastMiss::Dirty) => v.dirty_shards |= 1 << s,
                Err(FastMiss::Inflight) => v.inflight_shards |= 1 << s,
            }
            // A failing validation is always decided by the walk (the fast pass
            // only ever says "definitely clean").
            v.walked_shards |= 1 << s;
            match ring.validate_nt(th, read_sig, times.t[s]) {
                Ok(ts) => times.t[s] = ts,
                Err(e) => {
                    v.result = Err(e);
                    return v;
                }
            }
        }
        v
    }

    /// Cheap validation for executors that re-validate from a begin-time
    /// snapshot and do **not** subscribe shard timestamps (Part-HTM; Part-HTM-O
    /// must use [`ShardedRing::validate_summarized_nt`], whose advanced windows
    /// keep its subscription vector convergent).
    ///
    /// Only touched shards are probed, untouched shards are skipped outright —
    /// their `times` slot keeps the begin-time value, which is exactly the
    /// window start validation needs if `read_sig` later grows a bit there.
    ///
    /// Each touched shard, ascending, runs one fast pass,
    /// [`RingSummary::clean_since_at`] (which reports the miss cause), and on
    /// a miss that shard's precise entry walk
    /// before the next shard is probed. A clean probe never reads the shard
    /// timestamp — the window advances to the fold-completion watermark (a
    /// host-side atomic) — so the common no-conflict case touches no
    /// simulated memory at all.
    pub fn validate_touched_nt(
        &self,
        th: &HtmThread<'_>,
        summaries: &ShardedSummary,
        read_sig: &Sig,
        times: &mut ShardTimes,
    ) -> ShardedValidation {
        let smask = self.shard_mask(read_sig);
        let mut v = ShardedValidation {
            result: Ok(()),
            fast_shards: 0,
            walked_shards: 0,
            dirty_shards: 0,
            inflight_shards: 0,
        };
        for s in bits(smask) {
            match summaries.shards[s].clean_since_at(read_sig, times.t[s]) {
                Ok(adv) => {
                    times.t[s] = times.t[s].max(adv);
                    v.fast_shards |= 1 << s;
                    continue;
                }
                Err(FastMiss::Dirty) => v.dirty_shards |= 1 << s,
                Err(FastMiss::Inflight) => v.inflight_shards |= 1 << s,
            }
            v.walked_shards |= 1 << s;
            match self.shards[s].validate_nt(th, read_sig, times.t[s]) {
                Ok(ts) => times.t[s] = ts,
                Err(e) => {
                    v.result = Err(e);
                    return v;
                }
            }
        }
        v
    }

    /// Run the density check on every shard summary and reset those that want
    /// it (see [`RingSummary::maybe_reset_with`]). Returns how many reset.
    pub fn maybe_reset_summaries(&self, th: &HtmThread<'_>, summaries: &ShardedSummary) -> u64 {
        self.shards
            .iter()
            .zip(&summaries.shards)
            .filter(|(ring, sum)| sum.maybe_reset_with(|| ring.timestamp_nt(th)))
            .count() as u64
    }

    /// Build the matching host-side summary set: one word-range-masked
    /// [`RingSummary`] per shard, geometry kept in sync with this ring, in the
    /// default tuning ([`SummaryTuning::default`]).
    pub fn new_summary(&self) -> ShardedSummary {
        self.new_summary_tuned(SummaryTuning::default())
    }

    /// [`ShardedRing::new_summary`] with explicit [`SummaryTuning`] — the
    /// runtime sets the check interval from `TmConfig` through this.
    pub fn new_summary_tuned(&self, tuning: SummaryTuning) -> ShardedSummary {
        ShardedSummary {
            shards: (0..self.shards.len())
                .map(|s| RingSummary::new_masked_tuned(self.spec, self.shard_word_mask(s), tuning))
                .collect(),
        }
    }
}

/// Host-side companion to a [`ShardedRing`]: one [`RingSummary`] per shard, each
/// masked to its shard's word range. Built by [`ShardedRing::new_summary`] so the geometry can never drift from
/// the ring's.
#[derive(Debug)]
pub struct ShardedSummary {
    shards: Vec<RingSummary>,
}

impl ShardedSummary {
    /// Number of shard summaries.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`'s summary.
    pub fn shard(&self, s: usize) -> &RingSummary {
        &self.shards[s]
    }

    /// Begin-time window snapshot from the fold watermarks alone — zero
    /// simulated-heap accesses, one host atomic load per shard.
    ///
    /// Sound for executors that use the vector purely as validation windows
    /// (Part-HTM's partitioned path): each shard's watermark only ever names
    /// publishes whose writes were visible before the load (see
    /// [`RingSummary::folded_ts`]), and a lagging watermark merely widens the
    /// window. **Not** a substitute for [`ShardedRing::timestamps_nt`] when
    /// the vector must *equal* the live shard timestamps — Part-HTM-O's
    /// sub-HTM begin compares it against the subscribed timestamp lines via
    /// [`ShardedRing::timestamps_match_tx`], and a lagging entry there would
    /// abort every sub-transaction.
    pub fn watermark_times(&self, out: &mut ShardTimes) {
        for (s, sum) in self.shards.iter().enumerate() {
            out.t[s] = sum.folded_ts();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_sim::{HeapBuilder, HtmConfig, HtmSystem};

    const HEAP: usize = 1 << 20;

    fn setup(shards: usize, entries: usize) -> (HtmSystem, ShardedRing, ShardedSummary) {
        let sys = HtmSystem::new(HtmConfig::default(), HEAP);
        let mut b = HeapBuilder::new(HEAP);
        let ring = ShardedRing::alloc(&mut b, shards, entries, SigSpec::PAPER);
        let summaries = ring.new_summary();
        (sys, ring, summaries)
    }

    /// An address whose signature bit falls into shard `s` of `ring`, scanning
    /// from `seed` upward.
    fn addr_in_shard(ring: &ShardedRing, s: usize, seed: u32) -> u32 {
        let spec = ring.spec();
        (seed..seed + 1_000_000)
            .find(|&a| ring.shard_of_word(spec.bit_of(a) / 64) == s)
            .expect("an address hashing into the shard exists")
    }

    #[test]
    fn geometry_masks_partition_the_words() {
        for n in [1usize, 2, 4, 8, 16] {
            let sys = HtmSystem::new(HtmConfig::default(), HEAP);
            let mut b = HeapBuilder::new(HEAP);
            let ring = ShardedRing::alloc(&mut b, n, 16, SigSpec::PAPER);
            assert_eq!(ring.shard_count(), n, "PAPER has 32 words; no clamping");
            let mut seen = 0u64;
            let valid = if SigSpec::PAPER.words() >= 64 {
                u64::MAX
            } else {
                (1u64 << SigSpec::PAPER.words()) - 1
            };
            for s in 0..n {
                let m = ring.shard_word_mask(s) & valid;
                assert_ne!(m, 0);
                assert_eq!(seen & m, 0, "shard ranges must be disjoint");
                seen |= m;
            }
            assert_eq!(seen, valid, "shard ranges must cover every word");
            drop(sys);
        }
    }

    #[test]
    fn shard_count_clamps_to_word_count_and_max() {
        let mut b = HeapBuilder::new(HEAP);
        // 512-bit geometry = 8 words: a request for 64 shards clamps to 8.
        let spec = SigSpec::new(512);
        let ring = ShardedRing::alloc(&mut b, 64, 16, spec);
        assert_eq!(ring.shard_count(), 8);
        assert_eq!(ring.words_per_shard(), 1);
        // PAPER (32 words): 64 requested clamps to MAX_RING_SHARDS.
        let ring = ShardedRing::alloc(&mut b, 64, 16, SigSpec::PAPER);
        assert_eq!(ring.shard_count(), MAX_RING_SHARDS);
    }

    #[test]
    fn shard_mask_matches_word_ownership() {
        let (_sys, ring, _) = setup(8, 16);
        let spec = ring.spec();
        let mut sig = Sig::new(spec);
        let a = addr_in_shard(&ring, 2, 10_000);
        let b = addr_in_shard(&ring, 5, 20_000);
        sig.add(a);
        sig.add(b);
        assert_eq!(ring.shard_mask(&sig), (1 << 2) | (1 << 5));
        assert_eq!(ring.shard_mask(&Sig::new(spec)), 0, "empty sig touches nothing");
    }

    #[test]
    fn empty_signature_publish_is_a_no_op() {
        let (sys, ring, summaries) = setup(8, 16);
        let th = sys.thread(0);
        let (mask, _) = ring.publish_software_summarized(&th, &Sig::new(ring.spec()), &summaries);
        assert_eq!(mask, 0);
        for s in 0..ring.shard_count() {
            assert_eq!(ring.shard(s).timestamp_nt(&th), 0);
        }
    }

    #[test]
    fn cross_shard_publish_bumps_only_touched_shards() {
        let (sys, ring, summaries) = setup(8, 16);
        let th = sys.thread(0);
        let mut sig = Sig::new(ring.spec());
        sig.add(addr_in_shard(&ring, 1, 0));
        sig.add(addr_in_shard(&ring, 6, 50_000));
        let (mask, times) = ring.publish_software_summarized(&th, &sig, &summaries);
        assert_eq!(mask, (1 << 1) | (1 << 6));
        for s in 0..ring.shard_count() {
            let expect = if mask & (1 << s) != 0 { 1 } else { 0 };
            assert_eq!(ring.shard(s).timestamp_nt(&th), expect);
            assert_eq!(times.get(s), expect);
        }
    }

    #[test]
    fn validation_detects_conflict_and_advances_untouched_shards() {
        let (sys, ring, summaries) = setup(8, 16);
        let th = sys.thread(0);
        let a = addr_in_shard(&ring, 3, 0);
        let mut wsig = Sig::new(ring.spec());
        wsig.add(a);
        ring.publish_software_summarized(&th, &wsig, &summaries);

        // Conflicting reader (same address): rejected via shard 3's walk.
        let mut times = ShardTimes::new();
        let mut rsig = Sig::new(ring.spec());
        rsig.add(a);
        let v = ring.validate_summarized_nt(&th, &summaries, &rsig, &mut times);
        assert_eq!(v.result, Err(RingValidationError::Invalid));
        assert_ne!(v.walked_shards & (1 << 3), 0);

        // Disjoint reader in another shard: fast pass there, and the untouched
        // shard-3 slot still advances to shard 3's current timestamp.
        let mut times = ShardTimes::new();
        let mut rok = Sig::new(ring.spec());
        rok.add(addr_in_shard(&ring, 0, 0));
        assert!(!rok.intersects(&wsig));
        let v = ring.validate_summarized_nt(&th, &summaries, &rok, &mut times);
        assert_eq!(v.result, Ok(()));
        assert_ne!(v.fast_shards & 1, 0);
        assert_eq!(times.get(3), 1, "untouched shards advance to current ts");
    }

    #[test]
    fn touched_validation_skips_untouched_and_never_advances_clean_shards() {
        let (sys, ring, summaries) = setup(8, 16);
        let th = sys.thread(0);
        let a = addr_in_shard(&ring, 3, 0);
        let mut wsig = Sig::new(ring.spec());
        wsig.add(a);
        ring.publish_software_summarized(&th, &wsig, &summaries);

        // Bit-disjoint reader over shards 3 and 5: both probes are clean even
        // though shard 3 has a published entry in the window; the clean probe
        // advances shard 3 to the fold watermark without walking.
        let mut rsig = Sig::new(ring.spec());
        let b = (1u32..)
            .map(|seed| addr_in_shard(&ring, 3, seed * 10_000))
            .find(|&b| {
                let mut probe = Sig::new(ring.spec());
                probe.add(b);
                !probe.intersects(&wsig)
            })
            .unwrap();
        rsig.add(b);
        rsig.add(addr_in_shard(&ring, 5, 0));
        let mut times = ShardTimes::new();
        let v = ring.validate_touched_nt(&th, &summaries, &rsig, &mut times);
        assert_eq!(v.result, Ok(()));
        assert_eq!(v.walked_shards, 0);
        assert_eq!(v.fast_shards, (1 << 3) | (1 << 5));
        assert_eq!(times.get(3), 1, "clean probe advances to the fold watermark");
        assert_eq!(times.get(5), 0, "nothing folded in shard 5 yet");
        assert_eq!(times.get(0), 0, "untouched shards are skipped outright");

        // Conflicting reader: rejected by shard 3's walk from its begin time.
        let mut rbad = Sig::new(ring.spec());
        rbad.add(a);
        let mut times = ShardTimes::new();
        let v = ring.validate_touched_nt(&th, &summaries, &rbad, &mut times);
        assert_eq!(v.result, Err(RingValidationError::Invalid));
        assert_eq!(v.walked_shards, 1 << 3);

        // The same conflicting signature with a window already at the fold
        // watermark hits the nothing-new early-out: no walk, window stays put.
        let mut times = ShardTimes::new();
        times.set(3, 1);
        let v = ring.validate_touched_nt(&th, &summaries, &rbad, &mut times);
        assert_eq!(v.result, Ok(()));
        assert_eq!(v.walked_shards, 0);
        assert_eq!(
            v.fast_shards,
            1 << 3,
            "at-watermark window fast-passes without probing the Bloom words"
        );
        assert_eq!(times.get(3), 1);
    }

    #[test]
    fn hardware_publish_hand_shake_multi_shard() {
        let (sys, ring, summaries) = setup(8, 16);
        let mut th = sys.thread(0);
        let mut sig = Sig::new(ring.spec());
        let a = addr_in_shard(&ring, 0, 0);
        let b = addr_in_shard(&ring, 7, 70_000);
        sig.add(a);
        sig.add(b);

        let (mask, times) = th
            .attempt(|tx| ring.publish_tx_summarized(tx, &sig, &summaries))
            .unwrap();
        ring.complete_publish(&sig, mask, &times, &summaries);
        assert_eq!(mask, 1 | (1 << 7));
        assert_eq!(times.get(0), 1);
        assert_eq!(times.get(7), 1);
        // Each shard summary holds only its own word range.
        assert!(summaries.shard(0).snapshot().contains(a));
        assert!(!summaries.shard(0).snapshot().contains(b));
        assert!(summaries.shard(7).snapshot().contains(b));
        // Conflicting reader is rejected; disjoint passes.
        let mut times2 = ShardTimes::new();
        let mut rbad = Sig::new(ring.spec());
        rbad.add(b);
        let v = ring.validate_summarized_nt(&th, &summaries, &rbad, &mut times2);
        assert_eq!(v.result, Err(RingValidationError::Invalid));
        let _ = times;
    }

    #[test]
    fn single_shard_matches_plain_ring_timestamps() {
        let (sys, ring, summaries) = setup(1, 16);
        assert_eq!(ring.shard_count(), 1);
        let th = sys.thread(0);
        let mut sig = Sig::new(ring.spec());
        sig.add(123);
        let (mask, times) = ring.publish_software_summarized(&th, &sig, &summaries);
        assert_eq!((mask, times.get(0)), (1, 1));
        // Shard 0 is a whole plain ring: its own API agrees.
        assert_eq!(ring.shard(0).timestamp_nt(&th), 1);
        let mut times = ShardTimes::new();
        let mut rsig = Sig::new(ring.spec());
        rsig.add(123);
        let v = ring.validate_summarized_nt(&th, &summaries, &rsig, &mut times);
        assert_eq!(v.result, Err(RingValidationError::Invalid));
    }

    #[test]
    fn concurrent_cross_shard_publishers_do_not_deadlock() {
        let (sys, ring, summaries) = setup(8, 1024);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let sys = &sys;
                let ring = &ring;
                let summaries = &summaries;
                scope.spawn(move || {
                    let th = sys.thread(t);
                    let mut sig = Sig::new(ring.spec());
                    // Every publisher touches an overlapping pair of shards so
                    // lock ordering is actually exercised.
                    sig.add(addr_in_shard(ring, t % 8, 0));
                    sig.add(addr_in_shard(ring, (t + 1) % 8, 0));
                    for _ in 0..100 {
                        ring.publish_software_summarized(&th, &sig, summaries);
                    }
                });
            }
        });
        // Every publish bumped each touched shard exactly once: total bumps
        // across shards = 400 publishes × 2 shards each.
        let th = sys.thread(0);
        let total: u64 = (0..ring.shard_count())
            .map(|s| ring.shard(s).timestamp_nt(&th))
            .sum();
        assert_eq!(total, 800);
    }

    #[test]
    fn touched_validation_decides_disjoint_reader_and_walks_dirty_miss() {
        let (sys, ring, summaries) = setup(8, 16);
        let th = sys.thread(0);
        let a = addr_in_shard(&ring, 3, 0);
        let mut wsig = Sig::new(ring.spec());
        wsig.add(a);
        ring.publish_software_summarized(&th, &wsig, &summaries);

        // A same-shard reader whose bits are disjoint from the writer's:
        // decided by the shard's clean probe alone (fast, no walk), window
        // advanced to the watermark.
        let b = (1u32..)
            .map(|seed| addr_in_shard(&ring, 3, seed * 10_000))
            .find(|&b| {
                let mut probe = Sig::new(ring.spec());
                probe.add(b);
                !probe.intersects(&wsig)
            })
            .unwrap();
        let mut rsig = Sig::new(ring.spec());
        rsig.add(b);
        rsig.add(addr_in_shard(&ring, 5, 0));
        let mut times = ShardTimes::new();
        let v = ring.validate_touched_nt(&th, &summaries, &rsig, &mut times);
        assert_eq!(v.result, Ok(()));
        assert_eq!(v.walked_shards, 0);
        assert_eq!(v.fast_shards, (1 << 3) | (1 << 5));
        assert_eq!(times.get(3), 1, "clean probe advances to the watermark");
        assert_eq!(times.get(5), 0, "empty shard 5 passes without advancing");

        // The conflicting reader hits the writer's bits: the probe declines,
        // the shard's walk rejects, and the miss is Dirty.
        let mut rbad = Sig::new(ring.spec());
        rbad.add(a);
        let mut times = ShardTimes::new();
        let v = ring.validate_touched_nt(&th, &summaries, &rbad, &mut times);
        assert_eq!(v.result, Err(RingValidationError::Invalid));
        assert_eq!(v.walked_shards, 1 << 3);
        assert_eq!(v.dirty_shards, 1 << 3);
        assert_eq!(v.inflight_shards, 0);
    }

    #[test]
    fn touched_validation_walks_while_publisher_in_flight() {
        let (sys, ring, summaries) = setup(8, 16);
        let th = sys.thread(0);
        // Hand-announce without completing: an in-flight hardware publisher.
        summaries.shard(2).begin_publish();
        let mut rsig = Sig::new(ring.spec());
        rsig.add(addr_in_shard(&ring, 2, 50_000));
        let mut times = ShardTimes::new();
        let v = ring.validate_touched_nt(&th, &summaries, &rsig, &mut times);
        // Counters are imbalanced: the probe may not vouch; the walk decides
        // (cleanly — nothing is published).
        assert_eq!(v.result, Ok(()));
        assert_eq!(v.walked_shards, 1 << 2);
        assert_eq!(v.inflight_shards, 1 << 2);
        summaries.shard(2).cancel_publish();
        let mut times = ShardTimes::new();
        let v = ring.validate_touched_nt(&th, &summaries, &rsig, &mut times);
        assert_eq!(v.walked_shards, 0, "balanced counters fast-pass again");
    }

    #[test]
    fn touched_validation_refuses_windows_before_a_reset() {
        // One shard of an 8-shard PAPER ring covers 4 words = 256 bits; a third
        // of that is ~85 bits, far below the full geometry's threshold — the
        // masked live-bit accounting must still trigger the reset.
        let (sys, ring, summaries) = setup(8, 256);
        let th = sys.thread(0);
        let mut sig = Sig::new(ring.spec());
        for i in 0..300u32 {
            sig.clear();
            sig.add(addr_in_shard(&ring, 2, i * 4099));
            ring.publish_software_summarized(&th, &sig, &summaries);
        }
        let reset_ts = ring.shard(2).timestamp_nt(&th);
        assert!(ring.maybe_reset_summaries(&th, &summaries) >= 1);
        assert!(summaries.shard(2).snapshot().is_empty());
        let mut rsig = Sig::new(ring.spec());
        rsig.add(addr_in_shard(&ring, 2, 123));
        // A window that starts before the reset cannot be vouched for by the
        // cleared bank: the probe refuses it and the walk decides.
        let mut times = ShardTimes::new();
        times.set(2, reset_ts - 1);
        let v = ring.validate_touched_nt(&th, &summaries, &rsig, &mut times);
        assert_eq!(v.walked_shards, 1 << 2, "pre-reset window");
        assert_eq!(v.inflight_shards, 1 << 2);
        // A window at the reset timestamp passes without a walk.
        let mut times = ShardTimes::new();
        times.set(2, reset_ts);
        let v = ring.validate_touched_nt(&th, &summaries, &rsig, &mut times);
        assert_eq!(v.result, Ok(()));
        assert_eq!(v.walked_shards, 0);
    }
}
