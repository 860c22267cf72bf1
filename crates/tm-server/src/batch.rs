//! Group commit: coalesce small same-shard requests into one
//! planner-declared multi-segment transaction.
//!
//! Small transactions pay the Part-HTM fixed costs — begin/commit of the
//! hardware transaction, the glock check, ring-summary publish — once *per
//! transaction*, and for a two-access Put that overhead dominates the actual
//! work. A [`ReqGroup`] amortizes it: up to `batch_max` batchable requests
//! bound for the same shard become one transaction with one segment per
//! request, so the fast path commits the whole batch inside a single
//! hardware transaction while the partitioned path inherits a natural
//! segment boundary per request. The group declares a width-classed planner
//! site ([`part_htm_core::batch_site`]), so the abort-profile planner learns
//! capacity behaviour *per batch width* and an over-wide group is demoted or
//! split back toward singleton granularity without un-learning the narrow
//! widths.
//!
//! The [`Batcher`] enforces the ordering rules that make batching
//! result-transparent (see `docs/tm-server.md`): per-shard FIFO pending
//! lists, a full list flushes immediately, a transfer first flushes every
//! pending list of a shard it touches and then runs as a singleton group.
//! Each shard is served by exactly one worker, so per-shard service order
//! equals arrival order for *any* `batch_max` — that is the differential
//! oracle (`batch_max = 1`) the proptests pin.

use crate::service::{Request, ServerState};
use htm_sim::abort::TxResult;
use part_htm_core::{batch_site, TxCtx, Workload};
use rand::rngs::SmallRng;

/// Planner op-class for batched small-request groups.
const CLASS_SMALL: u32 = 0;
/// Planner op-class for transfer singletons.
const CLASS_TRANSFER: u32 = 1;

/// A group of requests executing as one transaction: segment `i` serves
/// request `i`. Built by the [`Batcher`]; results are readable after the
/// executor commits it. Hand a finished group back with
/// [`Batcher::recycle`] so its buffers serve a later group.
pub struct ReqGroup<'s> {
    state: &'s ServerState,
    reqs: Vec<Request>,
    results: Vec<u64>,
    site: u32,
}

impl<'s> ReqGroup<'s> {
    /// Wrap `reqs` (non-empty; all same home shard, or a lone transfer).
    pub fn new(state: &'s ServerState, reqs: Vec<Request>) -> Self {
        Self::with_results(state, reqs, Vec::new())
    }

    /// [`ReqGroup::new`] over a reusable `results` buffer (its contents are
    /// discarded).
    fn with_results(state: &'s ServerState, reqs: Vec<Request>, mut results: Vec<u64>) -> Self {
        assert!(!reqs.is_empty());
        let spec = state.spec();
        let shard = reqs[0].op.home_shard(spec);
        let class = if reqs.len() == 1 && !reqs[0].op.batchable() {
            CLASS_TRANSFER
        } else {
            debug_assert!(
                reqs.iter()
                    .all(|r| r.op.batchable() && r.op.home_shard(spec) == shard),
                "batched group must be same-shard batchable requests"
            );
            CLASS_SMALL
        };
        let site = batch_site(class, shard, reqs.len() as u32);
        results.clear();
        results.resize(reqs.len(), 0);
        Self {
            state,
            reqs,
            results,
            site,
        }
    }

    /// Requests in the group (service order).
    pub fn requests(&self) -> &[Request] {
        &self.reqs
    }

    /// Group width.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// Always false (groups are non-empty by construction).
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// Response words, valid after the executor committed the group
    /// (`results()[i]` answers `requests()[i]`).
    pub fn results(&self) -> &[u64] {
        &self.results
    }
}

impl Workload for ReqGroup<'_> {
    type Snap = ();

    fn sample(&mut self, _rng: &mut SmallRng) {}

    fn segments(&self) -> usize {
        self.reqs.len()
    }

    fn site(&self) -> u32 {
        self.site
    }

    fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
        // Idempotent: a retried segment simply overwrites its slot.
        let v = self.state.exec_op(&self.reqs[seg].op, ctx)?;
        self.results[seg] = v;
        Ok(())
    }
}

/// Per-worker request coalescer: per-shard FIFO pending lists with the
/// flush rules from the module docs.
///
/// It allocates only while warming up: pending lists and group buffers are
/// sized to `batch_max`, and a group's `(requests, results)` pair returns to
/// a pool through [`Batcher::recycle`] when the caller is done with it.
pub struct Batcher {
    pending: Vec<Vec<Request>>,
    batch_max: usize,
    count: usize,
    /// Round-robin cursor for idle flushes.
    rr: usize,
    /// Empty `(requests, results)` buffers of recycled groups.
    pool: Vec<(Vec<Request>, Vec<u64>)>,
}

impl Batcher {
    /// A batcher over `shards` shards coalescing up to `batch_max` requests
    /// per group (`1` = unbatched).
    pub fn new(shards: usize, batch_max: usize) -> Self {
        assert!(batch_max >= 1);
        Self {
            pending: (0..shards).map(|_| Vec::with_capacity(batch_max)).collect(),
            batch_max,
            count: 0,
            rr: 0,
            pool: Vec::new(),
        }
    }

    /// Requests pulled but not yet part of an emitted group.
    pub fn pending(&self) -> usize {
        self.count
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Accept one request; appends the groups that must execute *now* to
    /// `out`, in service order. A batchable request emits at most one group
    /// (its shard's list reaching `batch_max`); a transfer emits the flushes
    /// of every shard it touches (ascending shard id — the shards are
    /// disjoint, so the inter-shard order is immaterial) followed by itself.
    pub fn offer<'s>(&mut self, state: &'s ServerState, req: Request, out: &mut Vec<ReqGroup<'s>>) {
        let spec = state.spec();
        if req.op.batchable() {
            let shard = req.op.home_shard(spec) as usize;
            self.pending[shard].push(req);
            self.count += 1;
            if self.pending[shard].len() >= self.batch_max {
                out.extend(self.drain(state, shard));
            }
            return;
        }
        // Transfer: flush the pending lists of every shard it touches, then
        // run it alone — per-shard service order stays arrival order.
        let home = req.op.home_shard(spec);
        let cross = req.op.cross_shard(spec).unwrap_or(home);
        for s in [home.min(cross), home.max(cross)] {
            out.extend(self.drain(state, s as usize));
        }
        let (mut reqs, results) = self.buffers();
        reqs.push(req);
        out.push(ReqGroup::with_results(state, reqs, results));
    }

    /// Flush one pending shard (round-robin), for when no arrival is due:
    /// serving a partial batch beats idling on latency.
    pub fn flush_next<'s>(&mut self, state: &'s ServerState) -> Option<ReqGroup<'s>> {
        if self.count == 0 {
            return None;
        }
        for i in 0..self.pending.len() {
            let s = (self.rr + i) % self.pending.len();
            if !self.pending[s].is_empty() {
                self.rr = (s + 1) % self.pending.len();
                return self.drain(state, s);
            }
        }
        None
    }

    /// Take back a finished group's buffers for a later group.
    pub fn recycle(&mut self, group: ReqGroup<'_>) {
        let (mut reqs, results) = (group.reqs, group.results);
        reqs.clear();
        self.pool.push((reqs, results));
    }

    /// An empty `(requests, results)` pair: pooled, or new at `batch_max`.
    fn buffers(&mut self) -> (Vec<Request>, Vec<u64>) {
        self.pool.pop().unwrap_or_else(|| {
            (
                Vec::with_capacity(self.batch_max),
                Vec::with_capacity(self.batch_max),
            )
        })
    }

    /// Emit shard `shard`'s pending list as a group, leaving an empty pooled
    /// buffer in its place.
    fn drain<'s>(&mut self, state: &'s ServerState, shard: usize) -> Option<ReqGroup<'s>> {
        if self.pending[shard].is_empty() {
            return None;
        }
        let (empty, results) = self.buffers();
        let reqs = std::mem::replace(&mut self.pending[shard], empty);
        self.count -= reqs.len();
        Some(ReqGroup::with_results(state, reqs, results))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{gen_requests, Op, ServerSpec, TrafficMix};
    use part_htm_core::{PartHtm, TmExecutor, TmRuntime};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn setup() -> (TmRuntime, ServerSpec) {
        let spec = ServerSpec {
            shards: 4,
            slots_per_shard: 32,
            queue_cap: 8,
        };
        (TmRuntime::with_defaults(1, spec.app_words()), spec)
    }

    /// A key living on the given shard (found by search).
    fn key_on_shard(spec: &ServerSpec, shard: u32) -> u32 {
        (0..).find(|&k| spec.shard_of_key(0, k) == shard).unwrap()
    }

    /// The groups one `offer` emits.
    fn offer<'s>(b: &mut Batcher, state: &'s ServerState, req: Request) -> Vec<ReqGroup<'s>> {
        let mut out = Vec::new();
        b.offer(state, req, &mut out);
        out
    }

    fn put(spec: &ServerSpec, shard: u32, val: u64) -> Request {
        Request {
            arrival: 0,
            seq: 0,
            op: Op::Put {
                tenant: 0,
                key: key_on_shard(spec, shard),
                val,
            },
        }
    }

    #[test]
    fn batches_flush_at_batch_max_in_fifo_order() {
        let (rt, spec) = setup();
        let state = ServerState::new(&rt, spec);
        let mut b = Batcher::new(spec.shards, 3);
        assert!(offer(&mut b, &state, put(&spec, 1, 10)).is_empty());
        assert!(offer(&mut b, &state, put(&spec, 2, 99)).is_empty());
        assert!(offer(&mut b, &state, put(&spec, 1, 11)).is_empty());
        assert_eq!(b.pending(), 3);
        let groups = offer(&mut b, &state, put(&spec, 1, 12));
        assert_eq!(groups.len(), 1);
        let g = &groups[0];
        assert_eq!(g.len(), 3);
        let vals: Vec<u64> = g
            .requests()
            .iter()
            .map(|r| match r.op {
                Op::Put { val, .. } => val,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(vals, [10, 11, 12], "FIFO within the shard");
        assert_eq!(b.pending(), 1, "other shard still pending");
    }

    #[test]
    fn transfer_flushes_touched_shards_then_rides_alone() {
        let (rt, spec) = setup();
        let state = ServerState::new(&rt, spec);
        // Find a cross-shard transfer.
        let from = key_on_shard(&spec, 0);
        let to = (0..)
            .find(|&k| spec.shard_of_key(0, k) != 0)
            .unwrap();
        let xfer = Request {
            arrival: 0,
            seq: 0,
            op: Op::Transfer {
                tenant: 0,
                from,
                to,
                amount: 1,
            },
        };
        let home = xfer.op.home_shard(&spec);
        let cross = xfer.op.cross_shard(&spec).unwrap();

        let mut b = Batcher::new(spec.shards, 8);
        assert!(offer(&mut b, &state, put(&spec, home, 1)).is_empty());
        assert!(offer(&mut b, &state, put(&spec, cross, 2)).is_empty());
        let groups = offer(&mut b, &state, xfer);
        assert_eq!(groups.len(), 3, "both flushes plus the transfer");
        assert!(groups[..2].iter().all(|g| g.len() == 1));
        let last = groups.last().unwrap();
        assert_eq!(last.len(), 1);
        assert!(!last.requests()[0].op.batchable());
        assert!(b.is_empty());
    }

    #[test]
    fn idle_flush_drains_round_robin() {
        let (rt, spec) = setup();
        let state = ServerState::new(&rt, spec);
        let mut b = Batcher::new(spec.shards, 8);
        for s in [0u32, 2, 3] {
            offer(&mut b, &state, put(&spec, s, u64::from(s)));
        }
        let mut seen = Vec::new();
        while let Some(g) = b.flush_next(&state) {
            seen.push(g.requests()[0].op.home_shard(&spec));
        }
        seen.sort_unstable();
        assert_eq!(seen, [0, 2, 3]);
        assert!(b.is_empty());
        assert!(b.flush_next(&state).is_none());
    }

    #[test]
    fn group_sites_are_width_classed() {
        let (rt, spec) = setup();
        let state = ServerState::new(&rt, spec);
        let one = ReqGroup::new(&state, vec![put(&spec, 1, 1)]);
        let two = ReqGroup::new(&state, vec![put(&spec, 1, 1), put(&spec, 1, 2)]);
        assert_ne!(one.site(), two.site(), "width classes separate sites");
        assert_eq!(one.segments(), 1);
        assert_eq!(two.segments(), 2);
    }

    /// The flush rules restated as plain per-shard queues: a full queue
    /// flushes whole, a transfer flushes the queues of the shards it touches
    /// (ascending) and then runs alone, an idle flush takes the next
    /// non-empty queue round-robin.
    struct Model {
        queues: Vec<VecDeque<Request>>,
        batch_max: usize,
        rr: usize,
    }

    impl Model {
        fn offer(&mut self, spec: &ServerSpec, req: Request, out: &mut Vec<Vec<Request>>) {
            let home = req.op.home_shard(spec) as usize;
            if req.op.batchable() {
                self.queues[home].push_back(req);
                if self.queues[home].len() == self.batch_max {
                    out.push(self.queues[home].drain(..).collect());
                }
                return;
            }
            let mut shards = vec![home];
            shards.extend(req.op.cross_shard(spec).map(|s| s as usize));
            shards.sort_unstable();
            for s in shards {
                if !self.queues[s].is_empty() {
                    out.push(self.queues[s].drain(..).collect());
                }
            }
            out.push(vec![req]);
        }

        fn flush_next(&mut self) -> Option<Vec<Request>> {
            let n = self.queues.len();
            let s = (0..n)
                .map(|i| (self.rr + i) % n)
                .find(|&s| !self.queues[s].is_empty())?;
            self.rr = (s + 1) % n;
            Some(self.queues[s].drain(..).collect())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The pooled batcher emits exactly the model's groups, in the
        /// model's order, with the model's site ids; every group is executed
        /// and recycled before the next one is built, so a buffer that
        /// carried a request or a response word across groups would show.
        #[test]
        fn batcher_matches_per_shard_queue_model(
            seed in 0u64..1_000_000,
            n in 1usize..160,
            batch_max in 1usize..=8,
            idle_every in 0usize..6,
        ) {
            let spec = ServerSpec { shards: 4, slots_per_shard: 128, queue_cap: 8 };
            let rt = TmRuntime::with_defaults(1, spec.app_words());
            let state = ServerState::new(&rt, spec);
            let mix = TrafficMix { tenants: 2, keys: 24, transfer_weight: 3, ..TrafficMix::default() };
            let reqs = gen_requests(&mix, &vec![0; n], seed);
            let mut exec = PartHtm::new(&rt, 0);
            let mut b = Batcher::new(spec.shards, batch_max);
            let mut model = Model {
                queues: vec![VecDeque::new(); spec.shards],
                batch_max,
                rr: 0,
            };
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut check = |g: ReqGroup<'_>, b: &mut Batcher, want: &[Request]| {
                assert_eq!(g.requests(), want);
                assert_eq!(g.results(), vec![0; want.len()], "stale response words");
                let class = if want[0].op.batchable() { CLASS_SMALL } else { CLASS_TRANSFER };
                let shard = want[0].op.home_shard(&spec);
                assert_eq!(g.site(), batch_site(class, shard, want.len() as u32));
                let mut g = g;
                exec.execute(&mut g);
                b.recycle(g);
            };
            for (i, &req) in reqs.iter().enumerate() {
                b.offer(&state, req, &mut got);
                model.offer(&spec, req, &mut want);
                prop_assert_eq!(got.len(), want.len());
                for (g, w) in got.drain(..).zip(want.drain(..)) {
                    check(g, &mut b, &w);
                }
                if idle_every > 0 && i % idle_every == 0 {
                    let (g, w) = (b.flush_next(&state), model.flush_next());
                    prop_assert_eq!(g.is_some(), w.is_some());
                    if let (Some(g), Some(w)) = (g, w) {
                        check(g, &mut b, &w);
                    }
                }
            }
            while let Some(w) = model.flush_next() {
                let g = b.flush_next(&state).expect("model still has a pending queue");
                check(g, &mut b, &w);
            }
            prop_assert!(b.is_empty());
            prop_assert!(b.flush_next(&state).is_none());
        }
    }
}
