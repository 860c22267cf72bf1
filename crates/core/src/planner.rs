//! The adaptive abort-profile controller: per-site profiles that steer the
//! three-path executor at runtime.
//!
//! The paper treats partitioning policy as an orthogonal problem (§3) and
//! derives both the fast-path skip hint and the segment boundaries from a
//! *static* profiling pass (§4, §5.3.1). This module closes that loop with a
//! runtime controller fed by the abort codes the simulator already classifies
//! ([`htm_sim::AbortCode`]): every workload keeps declaring its
//! finest-granularity segments, and a lock-free table of per-site profiles
//! ([`SiteTable`]) makes two decisions per transaction:
//!
//! 1. **Futility demotion** — sites whose fast attempts persistently die of
//!    resource failures skip the fast path directly, re-probing every
//!    [`PROBE_PERIOD`]th transaction, tick 0 included. The static
//!    [`crate::Workload::profiled_resource_limited`] hint is folded in as a
//!    *prior* that decides only while the site has no observed fast-path
//!    outcome. Since tick 0 always probes, on one thread the prior routes no
//!    transaction; it steers only threads that race that first probe.
//! 2. **Dynamic segment planning** — the executor runs a *plan*
//!    ([`build_plan`]) that merges up to `group` consecutive non-software
//!    segments into one sub-HTM transaction each. The controller doubles
//!    `group` after [`MERGE_AFTER`] clean partitioned commits (fewer
//!    begin/commit/validate round-trips) and halves it when a merged group
//!    dies of a capacity-class abort (capacity, quantum interrupt, or an
//!    overflowing undo log). A `limit` watermark remembers the largest group
//!    that survived, so the plan converges instead of oscillating; the limit
//!    re-probes upward after [`RAISE_AFTER`] clean commits at the plateau.
//!
//! Retries are the paper's constants ([`crate::FAST_RETRIES`] and
//! `TmConfig::sub_retries`). `TmConfig::plan_group: Some(g)` pins the merge
//! width at `g` and feeds no plan decision back; fast-path routing is the same
//! [`SiteSlot::route`] call in every configuration
//! (`docs/adaptive-partitioner.md`).
//!
//! All profile state is host-side (like the ring summaries): the controller
//! is a scheduling heuristic and must not consume simulated HTM capacity or
//! create simulated conflicts. Updates use relaxed atomics and are lossy
//! under races by design — a dropped sample shifts a heuristic, never a
//! protocol invariant.

use crate::stats::TmStats;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use tm_sig::CacheAligned;

/// Fixed-point one for the EWMA counters (probabilities in `0..=EWMA_ONE`).
pub const EWMA_ONE: u32 = 1024;
/// EWMA smoothing shift: `new = old + (sample - old) / 2^EWMA_SHIFT`
/// (α = 1/4 — a site demotes after ~5 consecutive resource failures and
/// re-admits after ~2 consecutive probe successes).
pub const EWMA_SHIFT: u32 = 2;
/// Demote the fast path once the resource-failure EWMA reaches 3/4.
pub const DEMOTE_THRESHOLD: u32 = EWMA_ONE * 3 / 4;
/// A demoted site re-probes the fast path every `PROBE_PERIOD`th transaction.
pub const PROBE_PERIOD: u64 = 64;
/// Clean partitioned commits at the current plan before the group doubles.
pub const MERGE_AFTER: u32 = 4;
/// Clean commits at the `limit` plateau before the limit re-probes upward
/// (the cost of re-discovery is one split per `RAISE_AFTER` transactions).
pub const RAISE_AFTER: u32 = 64;
/// Largest segments-per-group merge factor the controller will plan.
pub const MAX_GROUP: u32 = 16;
/// Site-table slots (power of two). Sites beyond the table share slots by
/// hash collision — profiles blend, decisions stay safe (every decision is a
/// performance hint, never a correctness input).
pub const SITE_SLOTS: usize = 64;

/// How a fast-path episode ended (the samples the demotion EWMA consumes).
/// An episode that exhausts its conflict retries feeds no sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FastExit {
    /// The transaction committed on the fast path.
    Commit,
    /// The attempt died of a resource failure (capacity/interrupt) and the
    /// transaction left the fast path.
    Resource,
}

/// The fast-path routing decision for one transaction ([`SiteSlot::route`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FastRoute {
    /// Try the fast path, with [`crate::FAST_RETRIES`] conflict retries
    /// before the global lock.
    Attempt,
    /// Skip straight to the partitioned path.
    Demote,
}

/// A controller plan adjustment, reported so the executor can count it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanChange {
    /// No adjustment this transaction.
    None,
    /// The site's merge factor grew (fewer sub-HTM round-trips planned).
    Merged,
}

/// One site's lock-free abort profile. All fields are racy-by-design relaxed
/// atomics; see the module docs.
pub struct SiteSlot {
    /// Claimed site id + 1 (0 = empty slot).
    key: AtomicU32,
    /// The resource EWMA has observed a fast-path outcome (before that, the
    /// static prior decides instead of the unseeded EWMA).
    sampled: AtomicBool,
    /// EWMA of fast-path episodes ending in a resource failure.
    res_ewma: AtomicU32,
    /// Current merge factor: declared segments per planned sub-HTM group.
    group: AtomicU32,
    /// Largest group size not known to split (merges never plan past it).
    limit: AtomicU32,
    /// Consecutive clean partitioned commits at the current plan.
    credit: AtomicU32,
    /// The merge factor [`SiteSlot::seed_plan`] started the plan at (0 =
    /// never seeded).
    seed: AtomicU32,
    /// Fast-path exits routed to the partitioned path because partitioned
    /// peers ran ([`SiteSlot::record_routed_exit`]).
    routed: AtomicU64,
    /// Transactions routed through this site (drives the demotion re-probe).
    /// Every transaction's `fetch_add` dirties it, so it has a line of its
    /// own: the profile fields above stay shared between the cores that
    /// read them.
    clock: CacheAligned<AtomicU64>,
}

impl SiteSlot {
    fn new() -> Self {
        Self {
            key: AtomicU32::new(0),
            sampled: AtomicBool::new(false),
            res_ewma: AtomicU32::new(0),
            group: AtomicU32::new(1),
            limit: AtomicU32::new(MAX_GROUP),
            credit: AtomicU32::new(0),
            seed: AtomicU32::new(0),
            routed: AtomicU64::new(0),
            clock: CacheAligned::new(AtomicU64::new(0)),
        }
    }

    /// Move `cell` toward 0 or [`EWMA_ONE`] by one α-step (lossy under races).
    /// A step that changes nothing stores nothing: a stable site's line stays
    /// shared between the cores that read it.
    fn ewma(cell: &AtomicU32, sample: bool) {
        let old = cell.load(Relaxed) as i64;
        let target = if sample { EWMA_ONE as i64 } else { 0 };
        let new = (old + ((target - old) >> EWMA_SHIFT)).clamp(0, EWMA_ONE as i64);
        if new != old {
            cell.store(new as u32, Relaxed);
        }
    }

    /// Advance the site clock; returns the previous tick.
    #[inline]
    pub fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Relaxed)
    }

    /// Would the controller route this site straight to the partitioned path?
    /// Before any fast-path outcome was observed the static `prior` decides;
    /// afterwards the learned resource EWMA does. (The re-probe exception is
    /// [`SiteSlot::route`]'s job — it owns the tick.)
    #[inline]
    pub fn wants_demotion(&self, prior: Option<bool>) -> bool {
        if self.sampled.load(Relaxed) {
            self.res_ewma.load(Relaxed) >= DEMOTE_THRESHOLD
        } else {
            prior == Some(true)
        }
    }

    /// Decide the fast-path route for one transaction and advance the site
    /// clock. Counts a [`TmStats::site_demotions`] whenever the profile
    /// (learned history or, before the first sample, the static prior — not
    /// the `skip_fast` ablation) routes the transaction straight to the
    /// partitioned path. Every [`PROBE_PERIOD`]th tick, tick 0 included,
    /// probes the fast path regardless.
    pub fn route(&self, skip_fast: bool, prior: Option<bool>, stats: &mut TmStats) -> FastRoute {
        let tick = self.tick();
        if skip_fast {
            return FastRoute::Demote;
        }
        if self.wants_demotion(prior) && !tick.is_multiple_of(PROBE_PERIOD) {
            stats.site_demotions += 1;
            return FastRoute::Demote;
        }
        FastRoute::Attempt
    }

    /// Feed one fast-path episode outcome.
    pub fn record_fast_exit(&self, exit: FastExit) {
        Self::ewma(&self.res_ewma, exit == FastExit::Resource);
        if !self.sampled.load(Relaxed) {
            self.sampled.store(true, Relaxed);
        }
    }

    /// A fast attempt left for the partitioned path because partitioned peers
    /// ran: one resource sample, so demotion still engages, and one routed
    /// exit.
    pub fn record_routed_exit(&self) {
        self.record_fast_exit(FastExit::Resource);
        self.routed.fetch_add(1, Relaxed);
    }

    /// The merge factor the executor should plan with right now.
    #[inline]
    pub fn plan_group(&self) -> u32 {
        self.group.load(Relaxed)
    }

    /// Largest group not known to split.
    pub fn plan_limit(&self) -> u32 {
        self.limit.load(Relaxed)
    }

    /// The merge factor the footprint seed set (0 = never seeded).
    pub fn seed(&self) -> u32 {
        self.seed.load(Relaxed)
    }

    /// The resource-failure EWMA, in `0..=EWMA_ONE`. Non-zero means a fast
    /// attempt of this site died of a resource failure recently: the driver
    /// then sends a partitionable transaction that finds partitioned peers
    /// running to the partitioned path instead of into an instrumented
    /// attempt the gate would doom.
    #[inline]
    pub fn resource_ewma(&self) -> u32 {
        self.res_ewma.load(Relaxed)
    }

    /// Transactions routed through this site so far.
    pub fn ticks(&self) -> u64 {
        self.clock.load(Relaxed)
    }

    /// Fast-path exits routed to the partitioned path because partitioned
    /// peers ran.
    pub fn routed_exits(&self) -> u64 {
        self.routed.load(Relaxed)
    }

    /// A failed quiet fast attempt completed `done` declared segments: they
    /// fit in hardware without any metadata. An unlearned site (group 1,
    /// limit [`MAX_GROUP`], never seeded) starts its plan at `done / 2`,
    /// capped at [`MAX_GROUP`], instead of one segment; the halving leaves
    /// room for the sub-HTM's signature and lock lines, and a split still
    /// halves a seed that is too large. Returns true when the plan grew.
    pub fn seed_plan(&self, done: u32) -> bool {
        let seed = (done / 2).min(MAX_GROUP);
        if seed < 2 || self.seed.load(Relaxed) != 0 || self.limit.load(Relaxed) != MAX_GROUP {
            return false;
        }
        if self
            .group
            .compare_exchange(1, seed, Relaxed, Relaxed)
            .is_err()
        {
            return false;
        }
        self.seed.store(seed, Relaxed);
        self.credit.store(0, Relaxed);
        true
    }

    /// A group of `used` segments died of a capacity-class abort: halve the
    /// plan and remember `used` is beyond this site's budget.
    pub fn record_capacity_split(&self, used: u32) {
        let new = (used / 2).max(1);
        self.limit.fetch_min(new, Relaxed);
        self.group.fetch_min(new, Relaxed);
        self.credit.store(0, Relaxed);
    }

    /// A partitioned commit completed without capacity trouble. `max_run` is
    /// the longest run of consecutive mergeable (non-software) segments the
    /// transaction declared — the largest group worth planning. Returns
    /// [`PlanChange::Merged`] when the plan grew.
    pub fn record_clean_commit(&self, max_run: u32) -> PlanChange {
        let group = self.group.load(Relaxed);
        let ceiling = max_run.clamp(1, MAX_GROUP);
        if group >= ceiling {
            return PlanChange::None;
        }
        let credit = self.credit.fetch_add(1, Relaxed) + 1;
        let limit = self.limit.load(Relaxed);
        if group < limit && credit >= MERGE_AFTER {
            self.group.store((group * 2).min(limit).min(ceiling), Relaxed);
            self.credit.store(0, Relaxed);
            return PlanChange::Merged;
        }
        if group >= limit && limit < ceiling && credit >= RAISE_AFTER {
            // Plateau re-probe: the capacity landscape may have changed (e.g.
            // less cache pressure); try one size up and let a split re-cap it.
            self.limit.store((limit * 2).min(ceiling), Relaxed);
            self.group.store((group * 2).min(ceiling), Relaxed);
            self.credit.store(0, Relaxed);
            return PlanChange::Merged;
        }
        PlanChange::None
    }
}

/// The lock-free site table: [`SITE_SLOTS`] cache-line-aligned profiles,
/// hash-indexed by site id with short linear probing. A site that finds
/// neither itself nor an empty slot within the probe window shares the home
/// slot of its hash — blended profiles degrade decisions, never safety.
pub struct SiteTable {
    slots: Box<[CacheAligned<SiteSlot>]>,
}

impl Default for SiteTable {
    /// An empty table; fresh sites start planning one declared segment per
    /// sub-HTM transaction, up to [`MAX_GROUP`].
    fn default() -> Self {
        Self {
            slots: (0..SITE_SLOTS)
                .map(|_| CacheAligned::new(SiteSlot::new()))
                .collect(),
        }
    }
}

impl SiteTable {
    /// Every claimed slot with its site id, in table order.
    pub fn claimed(&self) -> impl Iterator<Item = (u32, &SiteSlot)> + '_ {
        self.slots.iter().filter_map(|s| match s.key.load(Relaxed) {
            0 => None,
            k => Some((k - 1, &**s)),
        })
    }

    /// The profile slot for `site` (claiming an empty slot on first sight).
    pub fn slot(&self, site: u32) -> &SiteSlot {
        let key = site.wrapping_add(1);
        // Fibonacci-hash the site id so dense ids spread over the table.
        let home = (site.wrapping_mul(0x9E37_79B9) >> 16) as usize & (SITE_SLOTS - 1);
        for probe in 0..4 {
            let slot = &self.slots[(home + probe) & (SITE_SLOTS - 1)];
            let k = slot.key.load(Relaxed);
            if k == key {
                return slot;
            }
            if k == 0
                && slot
                    .key
                    .compare_exchange(0, key, Relaxed, Relaxed)
                    .is_ok()
            {
                return slot;
            }
            if slot.key.load(Relaxed) == key {
                return slot; // lost the claim race to ourselves on another thread
            }
        }
        &self.slots[home]
    }
}

/// One step of a segment plan: either one sub-HTM transaction covering the
/// declared segments `start..end`, or a single software segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanStep {
    /// First declared segment of the step.
    pub start: usize,
    /// One past the last declared segment of the step.
    pub end: usize,
    /// True for a software (non-transactional) segment; always a single
    /// segment — software segments never merge.
    pub software: bool,
}

impl PlanStep {
    /// Segments covered by this step.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the step covers no segments (never produced by
    /// [`build_plan`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Build the segment plan for a transaction of `nseg` declared segments:
/// group up to `group` consecutive non-software segments per sub-HTM step,
/// never across a software segment. `group == 1` reproduces the static plan
/// byte-for-byte — one step per declared segment, in declaration order (the
/// `plan_group: Some(1)` guarantee, pinned by proptest).
///
/// Returns the longest run of consecutive non-software segments (the largest
/// group worth planning for this shape).
pub fn build_plan(
    nseg: usize,
    group: u32,
    is_software: impl Fn(usize) -> bool,
    out: &mut Vec<PlanStep>,
) -> u32 {
    out.clear();
    let group = group.max(1) as usize;
    let mut max_run = 0usize;
    let mut seg = 0;
    while seg < nseg {
        if is_software(seg) {
            out.push(PlanStep {
                start: seg,
                end: seg + 1,
                software: true,
            });
            seg += 1;
            continue;
        }
        // The full mergeable run, chunked into groups.
        let mut run_end = seg + 1;
        while run_end < nseg && !is_software(run_end) {
            run_end += 1;
        }
        max_run = max_run.max(run_end - seg);
        while seg < run_end {
            let end = (seg + group).min(run_end);
            out.push(PlanStep {
                start: seg,
                end,
                software: false,
            });
            seg = end;
        }
    }
    (max_run.max(1)).min(u32::MAX as usize) as u32
}

/// Site id for a *batched request group*: `batch_max`-bounded groups of
/// coalesced same-shard server requests executed as one multi-segment
/// transaction (`crates/tm-server`). The planner keeps one abort profile per
/// site, and a batch's resource appetite scales with its width — so batches
/// report a site derived from `(op_class, shard, width-class)` rather than
/// the per-request site: a shard whose 8-wide batches die of capacity aborts
/// learns a smaller merge plan without also demoting the 2-wide batches.
///
/// The width class is `ceil(log2(width))` (1, 2, 3–4, 5–8, ... share a
/// class), so the id space stays small enough for [`SITE_SLOTS`] while still
/// separating the capacity regimes that matter. Ids are offset by `1 << 16`
/// to keep clear of the hand-assigned per-workload sites.
pub fn batch_site(op_class: u32, shard: u32, width: u32) -> u32 {
    let wclass = 32 - (width.max(1) - 1).leading_zeros(); // ceil(log2(w))
    (1 << 16) | (op_class << 12) | (shard << 4) | wclass
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demote_after(slot: &SiteSlot) -> u32 {
        let mut n = 0;
        while !slot.wants_demotion(None) {
            slot.record_fast_exit(FastExit::Resource);
            n += 1;
            assert!(n < 100, "demotion never reached");
        }
        n
    }

    #[test]
    fn demotion_learns_and_recovers() {
        let t = SiteTable::default();
        let s = t.slot(7);
        // Unseeded: the prior decides.
        assert!(!s.wants_demotion(None));
        assert!(!s.wants_demotion(Some(false)));
        assert!(s.wants_demotion(Some(true)));
        // A handful of consecutive resource failures demotes...
        let n = demote_after(s);
        assert!((3..=8).contains(&n), "demoted after {n}");
        // ...and once sampled, the learned EWMA overrides the prior.
        assert!(s.wants_demotion(Some(false)));
        // Probe successes re-admit.
        s.record_fast_exit(FastExit::Commit);
        s.record_fast_exit(FastExit::Commit);
        assert!(!s.wants_demotion(Some(true)), "prior no longer absolute");
    }

    #[test]
    fn route_probes_tick_zero_and_every_period() {
        let t = SiteTable::default();
        let s = t.slot(11);
        let mut stats = TmStats::default();
        // Tick 0 probes even under a resource-limited prior; the prior routes
        // the next transaction only because no outcome was recorded yet.
        assert_eq!(s.route(false, Some(true), &mut stats), FastRoute::Attempt);
        assert_eq!(s.route(false, Some(true), &mut stats), FastRoute::Demote);
        demote_after(s);
        let mut probed = 0;
        for _ in 2..2 * PROBE_PERIOD {
            if s.route(false, None, &mut stats) == FastRoute::Attempt {
                probed += 1;
            }
        }
        assert_eq!(probed, 1, "exactly the 64th-tick probe");
        assert_eq!(stats.site_demotions, 2 * PROBE_PERIOD - 2);
        // `skip_fast` is the ablation, not a demotion: it is never counted.
        assert_eq!(s.route(true, None, &mut stats), FastRoute::Demote);
        assert_eq!(stats.site_demotions, 2 * PROBE_PERIOD - 2);
    }

    #[test]
    fn plan_merges_then_splits_then_converges() {
        let t = SiteTable::default();
        let s = t.slot(3);
        assert_eq!(s.plan_group(), 1);
        let mut merges = 0;
        for _ in 0..2 * MERGE_AFTER {
            if s.record_clean_commit(16) == PlanChange::Merged {
                merges += 1;
            }
        }
        assert_eq!(merges, 2);
        assert_eq!(s.plan_group(), 4);
        // A capacity split at 4 halves and caps the plan.
        s.record_capacity_split(4);
        assert_eq!(s.plan_group(), 2);
        for _ in 0..4 * MERGE_AFTER {
            s.record_clean_commit(16);
        }
        assert_eq!(s.plan_group(), 2, "limit pins the plateau");
        // The plateau re-probes upward only after RAISE_AFTER clean commits.
        for _ in 0..RAISE_AFTER {
            s.record_clean_commit(16);
        }
        assert_eq!(s.plan_group(), 4, "plateau re-probe");
    }

    #[test]
    fn footprint_seed_starts_an_unlearned_plan_once() {
        let t = SiteTable::default();
        let s = t.slot(21);
        // Too few completed segments to merge anything: no seed.
        assert!(!s.seed_plan(3));
        assert_eq!((s.plan_group(), s.seed()), (1, 0));
        // 20 segments fit without metadata: plan 10 per sub-HTM.
        assert!(s.seed_plan(20));
        assert_eq!((s.plan_group(), s.seed()), (10, 10));
        // It seeds once.
        assert!(!s.seed_plan(30));
        assert_eq!(s.plan_group(), 10);
        // Capped at MAX_GROUP.
        let big = t.slot(22);
        assert!(big.seed_plan(1000));
        assert_eq!(big.plan_group(), MAX_GROUP);
    }

    #[test]
    fn footprint_seed_never_overrides_learning() {
        let t = SiteTable::default();
        // After a merge.
        let merged = t.slot(23);
        for _ in 0..MERGE_AFTER {
            merged.record_clean_commit(16);
        }
        assert_eq!(merged.plan_group(), 2);
        assert!(!merged.seed_plan(20));
        assert_eq!((merged.plan_group(), merged.seed()), (2, 0));
        // After a split back to one segment.
        let split = t.slot(24);
        for _ in 0..MERGE_AFTER {
            split.record_clean_commit(16);
        }
        split.record_capacity_split(2);
        assert_eq!((split.plan_group(), split.plan_limit()), (1, 1));
        assert!(!split.seed_plan(20));
        assert_eq!((split.plan_group(), split.seed()), (1, 0));
    }

    #[test]
    fn one_split_corrects_an_oversized_seed() {
        let t = SiteTable::default();
        let s = t.slot(25);
        assert!(s.seed_plan(40));
        assert_eq!(s.plan_group(), 16);
        // The seeded group dies of capacity: halve and cap.
        s.record_capacity_split(16);
        assert_eq!((s.plan_group(), s.plan_limit()), (8, 8));
        for _ in 0..4 * MERGE_AFTER {
            s.record_clean_commit(32);
        }
        assert_eq!(s.plan_group(), 8, "the limit holds the corrected plan");
    }

    #[test]
    fn routed_exits_feed_demotion() {
        let t = SiteTable::default();
        let s = t.slot(26);
        assert_eq!(s.resource_ewma(), 0);
        s.record_routed_exit();
        assert!(s.resource_ewma() > 0);
        assert_eq!(s.routed_exits(), 1);
        while !s.wants_demotion(None) {
            s.record_routed_exit();
        }
        assert!(s.routed_exits() > 1);
    }

    #[test]
    fn plan_never_exceeds_declared_run() {
        let t = SiteTable::default();
        let s = t.slot(9);
        for _ in 0..10 * RAISE_AFTER {
            s.record_clean_commit(2);
        }
        assert_eq!(s.plan_group(), 2, "no point planning past the longest run");
    }

    #[test]
    fn build_plan_group1_is_the_static_plan() {
        let mut out = Vec::new();
        let sw = |s: usize| s == 2;
        build_plan(5, 1, sw, &mut out);
        let expect: Vec<PlanStep> = (0..5)
            .map(|s| PlanStep {
                start: s,
                end: s + 1,
                software: s == 2,
            })
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn build_plan_groups_respect_software_boundaries() {
        let mut out = Vec::new();
        // segments: hw hw hw SW hw hw, group 4.
        let max_run = build_plan(6, 4, |s| s == 3, &mut out);
        assert_eq!(
            out,
            vec![
                PlanStep { start: 0, end: 3, software: false },
                PlanStep { start: 3, end: 4, software: true },
                PlanStep { start: 4, end: 6, software: false },
            ]
        );
        assert_eq!(max_run, 3);
        // Full coverage, in order, no overlap.
        let covered: Vec<usize> = out.iter().flat_map(|p| p.start..p.end).collect();
        assert_eq!(covered, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn batch_sites_separate_width_classes() {
        // Same shard, widths 1 / 2 / 4 / 8 — 2 and 3..=4 share a class edge:
        assert_ne!(batch_site(0, 3, 1), batch_site(0, 3, 2));
        assert_ne!(batch_site(0, 3, 2), batch_site(0, 3, 4));
        assert_eq!(batch_site(0, 3, 3), batch_site(0, 3, 4));
        assert_eq!(batch_site(0, 3, 5), batch_site(0, 3, 8));
        // Distinct shards and op classes get distinct sites.
        assert_ne!(batch_site(0, 3, 4), batch_site(0, 5, 4));
        assert_ne!(batch_site(0, 3, 4), batch_site(1, 3, 4));
        // Clear of the hand-assigned per-workload id space.
        assert!(batch_site(0, 0, 1) >= 1 << 16);
    }

    #[test]
    fn site_table_distinguishes_and_shares() {
        let t = SiteTable::default();
        let a = t.slot(0) as *const _;
        let b = t.slot(1) as *const _;
        assert_ne!(a, b, "distinct sites get distinct slots");
        assert_eq!(a, t.slot(0) as *const _, "stable mapping");
        let mut ids: Vec<u32> = t.claimed().map(|(site, _)| site).collect();
        ids.sort_unstable();
        assert_eq!(ids, [0, 1], "claimed slots carry their site ids");
    }

    #[test]
    fn site_clock_has_a_line_of_its_own() {
        let t = SiteTable::default();
        let slot = t.slot(0);
        let line = |p: *const u8| p as usize / tm_sig::CACHE_LINE;
        let clock = line(&*slot.clock as *const AtomicU64 as *const u8);
        for (name, p) in [
            ("key", &slot.key as *const AtomicU32 as *const u8),
            ("sampled", &slot.sampled as *const AtomicBool as *const u8),
            ("res_ewma", &slot.res_ewma as *const AtomicU32 as *const u8),
            ("group", &slot.group as *const AtomicU32 as *const u8),
        ] {
            assert_ne!(line(p), clock, "{name} shares the clock's line");
        }
    }
}
