//! Protocol-level statistics: commits per path and software-framework events.
//!
//! Hardware-level abort causes are tracked separately by
//! [`htm_sim::HtmStats`]; together they regenerate the paper's Table 1.

use crate::api::CommitPath;
use tm_sig::{ShardedValidation, MAX_RING_SHARDS};

/// Per-thread protocol counters; merged across threads by the harness.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TmStats {
    /// Transactions committed on the fast path / as pure HTM.
    pub commits_htm: u64,
    /// Transactions committed on the partitioned path.
    pub commits_subhtm: u64,
    /// Transactions committed under the global lock.
    pub commits_gl: u64,
    /// Transactions committed by a software (STM) commit.
    pub commits_stm: u64,
    /// Fast-path attempts that aborted.
    pub fast_aborts: u64,
    /// Sub-HTM transaction attempts that aborted.
    pub sub_aborts: u64,
    /// Global (partitioned-path) transactions aborted by validation or lock
    /// conflicts after at least one sub-HTM transaction committed.
    pub global_aborts: u64,
    /// Transactions that gave up on the fast path and entered the partitioned path.
    pub fallbacks_partitioned: u64,
    /// Transactions that fell all the way back to the global lock.
    pub fallbacks_gl: u64,
    /// In-flight validations decided by the ring-summary fast path (no per-entry
    /// walk).
    pub val_fast_hits: u64,
    /// In-flight validations that fell back to the precise per-entry ring walk.
    pub val_fast_misses: u64,
    /// Ring-summary resets performed by this thread (each retires one epoch
    /// bank).
    pub summary_resets: u64,
    /// Summary fast-pass misses caused by a dirty summary (the read signature
    /// intersected the summary words; eager resets cure these).
    pub summary_miss_dirty: u64,
    /// Summary fast-pass misses caused by transient instability (in-flight
    /// publisher, epoch movement, window predating the last reset;
    /// eager resets only create more of these).
    pub summary_miss_inflight: u64,
    /// Sub-HTM segment failures rolled back through the signature journal.
    pub journal_rollbacks: u64,
    /// Transactions the abort-profile controller routed straight to the
    /// partitioned path (learned futility demotion or the static hint prior —
    /// not the `skip_fast` config override).
    pub site_demotions: u64,
    /// Segment-plan merges: the controller grew a site's group size, so
    /// subsequent transactions run fewer sub-HTM round-trips.
    pub plan_merges: u64,
    /// Segment-plan splits: a merged group died of a capacity-class abort and
    /// was re-run as single declared segments (the controller also halves the
    /// site's group size).
    pub plan_splits: u64,
    /// Transactions an admission controller shed straight to the serialized
    /// slow path ([`crate::TmExecutor::execute_shed`]); these also count in
    /// `commits_gl`, so `shed_commits <= commits_gl`.
    pub shed_commits: u64,
    /// Multi-request group commits executed (batches of coalesced server
    /// requests run as one planner-declared multi-segment transaction).
    pub batch_groups: u64,
    /// Requests carried by those group commits (`>= batch_groups`; the mean
    /// batch width is `batch_reqs / batch_groups`).
    pub batch_reqs: u64,
    /// Ring publishes (hardware or software) that touched each shard; a
    /// cross-shard commit counts once per shard it touched.
    pub shard_publishes: [u64; MAX_RING_SHARDS],
    /// Per-shard validation decisions (summary fast pass or precise walk); one
    /// sharded validation counts once per shard its read signature touched.
    pub shard_validations: [u64; MAX_RING_SHARDS],
}

impl TmStats {
    /// Record a commit on `path`.
    #[inline]
    pub fn record_commit(&mut self, path: CommitPath) {
        match path {
            CommitPath::Htm => self.commits_htm += 1,
            CommitPath::SubHtm => self.commits_subhtm += 1,
            CommitPath::GlobalLock => self.commits_gl += 1,
            CommitPath::Stm => self.commits_stm += 1,
        }
    }

    /// Total committed transactions.
    pub fn commits_total(&self) -> u64 {
        self.commits_htm + self.commits_subhtm + self.commits_gl + self.commits_stm
    }

    /// Percentage of commits on `path` (0.0 with no commits).
    pub fn commit_pct(&self, path: CommitPath) -> f64 {
        let total = self.commits_total();
        if total == 0 {
            return 0.0;
        }
        let n = match path {
            CommitPath::Htm => self.commits_htm,
            CommitPath::SubHtm => self.commits_subhtm,
            CommitPath::GlobalLock => self.commits_gl,
            CommitPath::Stm => self.commits_stm,
        };
        n as f64 * 100.0 / total as f64
    }

    /// Credit one publish to every shard set in `shard_mask`.
    #[inline]
    pub fn record_shard_publish(&mut self, shard_mask: u32) {
        Self::bump_shards(&mut self.shard_publishes, shard_mask);
    }

    /// Credit a sharded validation outcome: the fast/walked split, the
    /// per-shard decision counts and the fast-pass miss causes.
    #[inline]
    pub fn record_sharded_validation(&mut self, v: &ShardedValidation) {
        self.val_fast_hits += v.fast_shards.count_ones() as u64;
        self.val_fast_misses += v.walked_shards.count_ones() as u64;
        self.summary_miss_dirty += v.dirty_shards.count_ones() as u64;
        self.summary_miss_inflight += v.inflight_shards.count_ones() as u64;
        Self::bump_shards(&mut self.shard_validations, v.fast_shards | v.walked_shards);
    }

    fn bump_shards(arr: &mut [u64; MAX_RING_SHARDS], mut mask: u32) {
        while mask != 0 {
            let s = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            arr[s] += 1;
        }
    }

    /// Merge another thread's counters.
    pub fn merge(&mut self, o: &TmStats) {
        self.commits_htm += o.commits_htm;
        self.commits_subhtm += o.commits_subhtm;
        self.commits_gl += o.commits_gl;
        self.commits_stm += o.commits_stm;
        self.fast_aborts += o.fast_aborts;
        self.sub_aborts += o.sub_aborts;
        self.global_aborts += o.global_aborts;
        self.fallbacks_partitioned += o.fallbacks_partitioned;
        self.fallbacks_gl += o.fallbacks_gl;
        self.val_fast_hits += o.val_fast_hits;
        self.val_fast_misses += o.val_fast_misses;
        self.summary_resets += o.summary_resets;
        self.summary_miss_dirty += o.summary_miss_dirty;
        self.summary_miss_inflight += o.summary_miss_inflight;
        self.journal_rollbacks += o.journal_rollbacks;
        self.site_demotions += o.site_demotions;
        self.plan_merges += o.plan_merges;
        self.plan_splits += o.plan_splits;
        self.shed_commits += o.shed_commits;
        self.batch_groups += o.batch_groups;
        self.batch_reqs += o.batch_reqs;
        for s in 0..MAX_RING_SHARDS {
            self.shard_publishes[s] += o.shard_publishes[s];
            self.shard_validations[s] += o.shard_validations[s];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_percentages() {
        let mut s = TmStats::default();
        s.record_commit(CommitPath::Htm);
        s.record_commit(CommitPath::Htm);
        s.record_commit(CommitPath::SubHtm);
        s.record_commit(CommitPath::GlobalLock);
        assert_eq!(s.commits_total(), 4);
        assert!((s.commit_pct(CommitPath::Htm) - 50.0).abs() < 1e-9);
        assert!((s.commit_pct(CommitPath::SubHtm) - 25.0).abs() < 1e-9);
        assert_eq!(s.commit_pct(CommitPath::Stm), 25.0 - 25.0 + 0.0);
    }

    #[test]
    fn merge_sums() {
        let mut a = TmStats {
            commits_htm: 1,
            global_aborts: 2,
            ..Default::default()
        };
        let b = TmStats {
            commits_htm: 3,
            fallbacks_gl: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.commits_htm, 4);
        assert_eq!(a.global_aborts, 2);
        assert_eq!(a.fallbacks_gl, 1);
    }

    #[test]
    fn empty_pct_is_zero() {
        assert_eq!(TmStats::default().commit_pct(CommitPath::Htm), 0.0);
    }
}
