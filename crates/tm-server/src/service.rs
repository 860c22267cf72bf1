//! The service itself: heap layout, the request vocabulary, worker serve
//! loops and the multi-worker front-end.
//!
//! A [`ServerState`] is a multi-tenant KV/queue store laid out on the
//! simulated heap as `spec.shards` independent *shards*, each owning an
//! open-addressing hash table ([`HeapHashMap`]) and a bounded queue
//! ([`HeapQueue`]). Keys are tenant-scoped (`(tenant, key)` pairs hashed to
//! a shard), so tenants share the shard fabric without sharing keys.
//!
//! Every request executes as a Part-HTM transaction (any
//! [`TmExecutor`] works — the service is protocol-generic). Single-shard
//! requests are *small* and batchable; [`Op::Transfer`] may touch two
//! shards and always runs as its own transaction. Shards are owned by
//! workers (`shard % workers`), so each shard's requests are served by
//! exactly one worker in arrival order — the property the batching
//! equivalence argument rests on (`docs/tm-server.md`).

use crate::admission::{Admission, AdmissionSpec};
use crate::batch::{Batcher, ReqGroup};
use htm_sim::vclock::{self, SchedSpec, VClock};
use htm_sim::HtmStats;
use part_htm_core::{TmExecutor, TmRuntime, TmStats, TxCtx};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use tm_harness::driver::RunResult;
use tm_harness::loadgen::LatencyHisto;
use tm_workloads::structures::{transfer, HeapHashMap, HeapQueue};

/// Geometry of the service heap.
#[derive(Clone, Copy, Debug)]
pub struct ServerSpec {
    /// Shard count (power of two). Each shard = one KV table + one queue.
    pub shards: usize,
    /// KV slots per shard (power of two; size above peak occupancy — the
    /// table does not resize).
    pub slots_per_shard: usize,
    /// Queue capacity per shard (power of two).
    pub queue_cap: usize,
}

impl Default for ServerSpec {
    fn default() -> Self {
        Self {
            shards: 8,
            slots_per_shard: 256,
            queue_cap: 64,
        }
    }
}

impl ServerSpec {
    /// Application heap words the layout needs (size the runtime with this).
    pub fn app_words(&self) -> usize {
        self.shards * self.shard_words()
    }

    fn shard_words(&self) -> usize {
        HeapHashMap::words_needed(self.slots_per_shard) + HeapQueue::words_needed(self.queue_cap)
    }

    /// The shard owning tenant-scoped key `(tenant, key)`.
    #[inline]
    pub fn shard_of_key(&self, tenant: u32, key: u32) -> u32 {
        let h = full_key(tenant, key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 48) as usize & (self.shards - 1)) as u32
    }

    /// The shard owning `tenant`'s queue.
    #[inline]
    pub fn shard_of_queue(&self, tenant: u32) -> u32 {
        let h = (u64::from(tenant) + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
        ((h >> 48) as usize & (self.shards - 1)) as u32
    }
}

/// Tenant-scoped 63-bit-safe key: tenants never collide in the key space.
#[inline]
fn full_key(tenant: u32, key: u32) -> u64 {
    (u64::from(tenant) << 32) | u64::from(key)
}

/// One service request. All values are 62-bit-safe (the Part-HTM-O lock bit
/// plus the `Option` encoding of [`enc_opt`] each cost a bit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// KV write; responds with the previous value (encoded, see [`enc_opt`]).
    Put {
        /// Tenant id.
        tenant: u32,
        /// Tenant-scoped key.
        key: u32,
        /// Value to store.
        val: u64,
    },
    /// KV read; responds with the value (encoded).
    Get {
        /// Tenant id.
        tenant: u32,
        /// Tenant-scoped key.
        key: u32,
    },
    /// KV read-modify-write (counter bump); responds with the new value.
    Add {
        /// Tenant id.
        tenant: u32,
        /// Tenant-scoped key.
        key: u32,
        /// Increment.
        delta: u64,
    },
    /// Enqueue onto the tenant's queue; responds 1 on success, 0 when full.
    Push {
        /// Tenant id.
        tenant: u32,
        /// Value to enqueue.
        val: u64,
    },
    /// Dequeue from the tenant's queue; responds with the value (encoded).
    Pop {
        /// Tenant id.
        tenant: u32,
    },
    /// Move `amount` between two balances of one tenant (possibly across
    /// shards); responds 1 if applied, 0 on insufficient funds. Never
    /// batched.
    Transfer {
        /// Tenant id.
        tenant: u32,
        /// Source key.
        from: u32,
        /// Destination key.
        to: u32,
        /// Amount to move (applied only if the source balance covers it).
        amount: u64,
    },
}

/// Encode `Option<u64>` into the response word: 0 = absent, `v + 1` = present.
#[inline]
pub fn enc_opt(v: Option<u64>) -> u64 {
    v.map_or(0, |v| v + 1)
}

impl Op {
    /// The shard this request is served on (for [`Op::Transfer`]: the source
    /// key's shard — the worker owning it runs the transaction).
    pub fn home_shard(&self, spec: &ServerSpec) -> u32 {
        match *self {
            Op::Put { tenant, key, .. } | Op::Get { tenant, key } | Op::Add { tenant, key, .. } => {
                spec.shard_of_key(tenant, key)
            }
            Op::Push { tenant, .. } | Op::Pop { tenant } => spec.shard_of_queue(tenant),
            Op::Transfer { tenant, from, .. } => spec.shard_of_key(tenant, from),
        }
    }

    /// The second shard a transfer touches, when it differs from the home
    /// shard. `None` for every batchable op.
    pub fn cross_shard(&self, spec: &ServerSpec) -> Option<u32> {
        match *self {
            Op::Transfer {
                tenant, from, to, ..
            } => {
                let a = spec.shard_of_key(tenant, from);
                let b = spec.shard_of_key(tenant, to);
                (a != b).then_some(b)
            }
            _ => None,
        }
    }

    /// True when the op may coalesce into a same-shard group commit.
    /// Transfers never batch (they may span shards and carry a conditional
    /// two-key update — the batching rules in `docs/tm-server.md`).
    pub fn batchable(&self) -> bool {
        !matches!(self, Op::Transfer { .. })
    }
}

/// A request: an operation plus its scheduled open-loop arrival time
/// (time units — nanoseconds under the wall clock, work units under the
/// virtual clock).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Scheduled arrival time.
    pub arrival: u64,
    /// Stream sequence number (arrival order): the stable request identity
    /// that response-equivalence oracles join on.
    pub seq: u64,
    /// The operation.
    pub op: Op,
}

/// The service heap: per-shard KV tables and queues over a [`TmRuntime`]'s
/// application region.
pub struct ServerState {
    spec: ServerSpec,
    maps: Vec<HeapHashMap>,
    queues: Vec<HeapQueue>,
}

impl ServerState {
    /// Lay the service out at the start of `rt`'s application region
    /// (`rt` must have been sized with at least [`ServerSpec::app_words`]).
    pub fn new(rt: &TmRuntime, spec: ServerSpec) -> Self {
        assert!(spec.shards.is_power_of_two());
        assert!(rt.app_words() >= spec.app_words(), "runtime heap too small");
        let mut maps = Vec::with_capacity(spec.shards);
        let mut queues = Vec::with_capacity(spec.shards);
        let mut off = 0usize;
        for _ in 0..spec.shards {
            maps.push(HeapHashMap::new(rt.app(off), spec.slots_per_shard));
            off += HeapHashMap::words_needed(spec.slots_per_shard);
            queues.push(HeapQueue::new(rt.app(off), spec.queue_cap));
            off += HeapQueue::words_needed(spec.queue_cap);
        }
        Self { spec, maps, queues }
    }

    /// The geometry.
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// Execute one request against `ctx`, returning the response word.
    pub fn exec_op<C: TxCtx>(&self, op: &Op, ctx: &mut C) -> htm_sim::abort::TxResult<u64> {
        match *op {
            Op::Put { tenant, key, val } => {
                let m = &self.maps[self.spec.shard_of_key(tenant, key) as usize];
                m.insert(ctx, full_key(tenant, key), val).map(enc_opt)
            }
            Op::Get { tenant, key } => {
                let m = &self.maps[self.spec.shard_of_key(tenant, key) as usize];
                m.get(ctx, full_key(tenant, key)).map(enc_opt)
            }
            Op::Add { tenant, key, delta } => {
                let m = &self.maps[self.spec.shard_of_key(tenant, key) as usize];
                m.update(ctx, full_key(tenant, key), 0, |v| v + delta)
            }
            Op::Push { tenant, val } => {
                let q = &self.queues[self.spec.shard_of_queue(tenant) as usize];
                q.push(ctx, val).map(u64::from)
            }
            Op::Pop { tenant } => {
                let q = &self.queues[self.spec.shard_of_queue(tenant) as usize];
                q.pop(ctx).map(enc_opt)
            }
            Op::Transfer {
                tenant,
                from,
                to,
                amount,
            } => {
                let account = |key| {
                    let m = &self.maps[self.spec.shard_of_key(tenant, key) as usize];
                    (m, full_key(tenant, key))
                };
                transfer(ctx, account(from), account(to), amount).map(u64::from)
            }
        }
    }

    /// Non-transactional sum of every KV value (verification: transfers
    /// conserve this).
    pub fn kv_total_nt(&self, rt: &TmRuntime) -> u64 {
        let sys = rt.system();
        let mut total = 0u64;
        for (s, m) in self.maps.iter().enumerate() {
            let base = s * self.spec.shard_words();
            for slot in 0..self.spec.slots_per_shard {
                if sys.nt_read(rt.app(base + slot * 8)) != 0 {
                    total += sys.nt_read(rt.app(base + slot * 8 + 1));
                }
            }
            let _ = m;
        }
        total
    }

    /// Pre-load `(tenant, key) -> value` pairs outside any measured region
    /// (direct non-speculative writes; call before serving starts).
    pub fn preload(&self, rt: &TmRuntime, items: &[(u32, u32, u64)]) {
        let th = part_htm_core::TmThread::new(rt, 0);
        let mut ctx = part_htm_core::ctx::SlowCtx {
            th: &th.hw,
            mask_values: false,
        };
        for &(tenant, key, val) in items {
            self.maps[self.spec.shard_of_key(tenant, key) as usize]
                .insert(&mut ctx, full_key(tenant, key), val)
                .expect("slow-path preload cannot abort");
        }
    }
}

/// Traffic shape for [`gen_requests`]: op-class weights plus the hot-key
/// knobs that create cross-shard contention.
#[derive(Clone, Copy, Debug)]
pub struct TrafficMix {
    /// Tenants in play.
    pub tenants: u32,
    /// Keys per tenant.
    pub keys: u32,
    /// Weight of small KV ops (Put/Get/Add).
    pub kv_weight: u32,
    /// Weight of queue ops (Push/Pop).
    pub queue_weight: u32,
    /// Weight of transfers.
    pub transfer_weight: u32,
    /// Fraction (0..=100) of transfers drawn from the hot key set.
    pub hot_pct: u32,
    /// Hot key set size (small = convoy-prone).
    pub hot_keys: u32,
}

impl Default for TrafficMix {
    fn default() -> Self {
        Self {
            tenants: 4,
            keys: 4096,
            kv_weight: 8,
            queue_weight: 1,
            transfer_weight: 1,
            hot_pct: 50,
            hot_keys: 8,
        }
    }
}

impl TrafficMix {
    /// A small-transaction-only mix (`microbench`'s group-commit rows).
    pub fn small_only() -> Self {
        Self {
            transfer_weight: 0,
            queue_weight: 1,
            ..Self::default()
        }
    }
}

/// Generate `n` requests with the given arrival timestamps (one per
/// request, non-decreasing — see [`tm_harness::loadgen::ArrivalProcess`]),
/// deterministically from `seed`.
pub fn gen_requests(mix: &TrafficMix, arrivals: &[u64], seed: u64) -> Vec<Request> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E12_7E57);
    let total_w = mix.kv_weight + mix.queue_weight + mix.transfer_weight;
    assert!(total_w > 0, "all traffic weights zero");
    arrivals
        .iter()
        .enumerate()
        .map(|(seq, &arrival)| {
            let tenant = rng.gen_range(0..mix.tenants.max(1));
            let w = rng.gen_range(0..total_w);
            let op = if w < mix.kv_weight {
                let key = rng.gen_range(0..mix.keys.max(1));
                match rng.gen_range(0..3u32) {
                    0 => Op::Put {
                        tenant,
                        key,
                        val: rng.gen_range(0..1_000_000),
                    },
                    1 => Op::Get { tenant, key },
                    _ => Op::Add {
                        tenant,
                        key,
                        delta: rng.gen_range(1..100),
                    },
                }
            } else if w < mix.kv_weight + mix.queue_weight {
                if rng.gen_range(0..2u32) == 0 {
                    Op::Push {
                        tenant,
                        val: rng.gen_range(0..1_000_000),
                    }
                } else {
                    Op::Pop { tenant }
                }
            } else {
                let hot = rng.gen_range(0..100) < mix.hot_pct;
                let span = if hot {
                    mix.hot_keys.max(2)
                } else {
                    mix.keys.max(2)
                };
                let from = rng.gen_range(0..span);
                let mut to = rng.gen_range(0..span);
                if to == from {
                    to = (to + 1) % span;
                }
                Op::Transfer {
                    tenant,
                    from,
                    to,
                    amount: rng.gen_range(1..20),
                }
            };
            Request {
                arrival,
                seq: seq as u64,
                op,
            }
        })
        .collect()
}

/// How the server keeps time (and therefore how arrivals are paced and
/// latency is measured).
#[derive(Clone, Debug)]
pub enum ServeMode {
    /// Wall clock: time units are nanoseconds.
    Wall,
    /// Deterministic virtual clock ([`htm_sim::vclock`]): time units are
    /// simulated work units and the whole run is reproducible from the spec.
    Virtual(SchedSpec),
}

/// Per-run serving options.
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// Group-commit width cap: maximum same-shard small requests per
    /// transaction. `1` pins the unbatched differential oracle.
    pub batch_max: usize,
    /// Admission control tuning ([`AdmissionSpec::off`] pins the
    /// no-controller baseline).
    pub admission: AdmissionSpec,
    /// Collect every `(seq, response)` pair into the report — the join key
    /// for the batched-vs-unbatched differential oracles (costs memory
    /// proportional to the stream; off for benchmarks).
    pub collect_responses: bool,
}

impl Default for ServeOpts {
    fn default() -> Self {
        Self {
            batch_max: 8,
            admission: AdmissionSpec::default(),
            collect_responses: false,
        }
    }
}

/// A worker's clock (see [`ServeMode`]).
enum WorkerClock {
    Wall(Instant),
    Virtual,
}

impl WorkerClock {
    #[inline]
    fn now(&self) -> u64 {
        match self {
            WorkerClock::Wall(t0) => t0.elapsed().as_nanos() as u64,
            WorkerClock::Virtual => vclock::now().unwrap_or(0),
        }
    }

    /// Idle until time `t` (the next scheduled arrival).
    fn wait_until(&self, t: u64) {
        match self {
            WorkerClock::Wall(t0) => {
                while (t0.elapsed().as_nanos() as u64) < t {
                    std::hint::spin_loop();
                }
            }
            WorkerClock::Virtual => {
                let now = vclock::now().unwrap_or(0);
                if t > now {
                    vclock::charge(t - now);
                }
            }
        }
    }
}

/// One worker's serve-loop outcome.
struct WorkerOut {
    tm: TmStats,
    hw: HtmStats,
    histo: LatencyHisto,
    served: u64,
    elapsed: Duration,
    responses: Vec<(u64, u64)>,
}

/// The aggregated outcome of a server run.
pub struct ServerReport {
    /// Merged run result (commits count *group* transactions, not requests).
    pub run: RunResult,
    /// Requests served (admitted + shed — nothing is dropped).
    pub served: u64,
    /// Sojourn latency (completion minus scheduled arrival) over all
    /// requests, in the mode's time units.
    pub latency: LatencyHisto,
    /// `(seq, response)` pairs when [`ServeOpts::collect_responses`] was set
    /// (unsorted — join on `seq`); empty otherwise.
    pub responses: Vec<(u64, u64)>,
}

impl ServerReport {
    /// Requests per second (wall mode).
    pub fn goodput_wall(&self) -> f64 {
        self.served as f64 / self.run.elapsed.as_secs_f64().max(1e-9)
    }

    /// Requests per million work units (virtual mode).
    pub fn goodput_virtual(&self) -> f64 {
        self.served as f64 * 1e6 / (self.run.makespan.max(1) as f64)
    }
}

/// The per-worker serve loop: pull due arrivals in order, coalesce
/// batchable same-shard requests up to `batch_max`, flush a transfer's
/// shards before it runs, admit or shed each group, record sojourn latency.
/// `stream` indexes this worker's requests in `requests`, in arrival order.
fn serve_worker<'r, E: TmExecutor<'r>>(
    exec: &mut E,
    state: &ServerState,
    requests: &[Request],
    stream: &[u32],
    opts: &ServeOpts,
    clock: &WorkerClock,
) -> WorkerOut {
    let mut batcher = Batcher::new(state.spec().shards, opts.batch_max);
    let mut admission = Admission::new(opts.admission);
    let mut histo = LatencyHisto::new();
    let mut served = 0u64;
    let mut responses: Vec<(u64, u64)> = Vec::new();
    let mut ready: Vec<ReqGroup<'_>> = Vec::new();
    let arrival = |i: usize| requests[stream[i] as usize].arrival;
    // The end of the arrivals due by `now`, searched from `from` (the stream
    // is sorted by arrival): galloping, so the usual one or two new arrivals
    // cost one or two probes and a saturated stream's catch-up O(log n).
    let due_end = |from: usize, now: u64| {
        let (mut lo, mut step) = (from, 1);
        while lo + step <= stream.len() && arrival(lo + step - 1) <= now {
            lo += step;
            step *= 2;
        }
        let hi = (lo + step - 1).min(stream.len());
        lo + stream[lo..hi].partition_point(|&i| requests[i as usize].arrival <= now)
    };
    let mut next = 0usize;
    // Arrivals at or before the last observed clock: `due - next` is the
    // due-but-unpulled queue, part of the controller's backlog signal.
    let mut due = 0usize;
    let t0 = Instant::now();

    let run_group = |group: &mut ReqGroup<'_>,
                     exec: &mut E,
                     admission: &mut Admission,
                     histo: &mut LatencyHisto,
                     responses: &mut Vec<(u64, u64)>,
                     served: &mut u64,
                     backlog: u64| {
        let n = group.len() as u64;
        let admit = admission.admit(backlog, exec.thread());
        let path = if admit {
            exec.execute(group)
        } else {
            exec.execute_shed(group)
        };
        if admit {
            admission.observe(path, exec.thread());
        }
        let st = &mut exec.thread_mut().stats;
        if n > 1 {
            st.batch_groups += 1;
            st.batch_reqs += n;
        }
        let done = clock.now();
        for r in group.requests() {
            histo.record(done.saturating_sub(r.arrival));
        }
        if opts.collect_responses {
            responses.extend(
                group
                    .requests()
                    .iter()
                    .zip(group.results())
                    .map(|(r, &v)| (r.seq, v)),
            );
        }
        *served += n;
    };

    while next < stream.len() || !batcher.is_empty() {
        let now = clock.now();
        due = due_end(due, now);
        // Pull every due arrival, in order. Full groups and transfers flush
        // inline so per-shard service order equals arrival order.
        while next < due {
            let req = requests[stream[next] as usize];
            next += 1;
            batcher.offer(state, req, &mut ready);
            for mut g in ready.drain(..) {
                let backlog =
                    (due - next) as u64 + batcher.pending() as u64 + g.len() as u64;
                run_group(
                    &mut g,
                    exec,
                    &mut admission,
                    &mut histo,
                    &mut responses,
                    &mut served,
                    backlog,
                );
                batcher.recycle(g);
            }
        }
        if let Some(mut g) = batcher.flush_next(state) {
            // No arrival is due: serving a partial batch beats idling.
            let backlog = (due - next) as u64 + batcher.pending() as u64 + g.len() as u64;
            run_group(
                &mut g,
                exec,
                &mut admission,
                &mut histo,
                &mut responses,
                &mut served,
                backlog,
            );
            batcher.recycle(g);
        } else if next < stream.len() {
            clock.wait_until(arrival(next));
        }
    }
    let th = exec.thread();
    WorkerOut {
        tm: (*th.stats).clone(),
        hw: (*th.hw.stats).clone(),
        histo,
        served,
        elapsed: t0.elapsed(),
        responses,
    }
}

/// Serve `requests` (sorted by arrival) on `workers` worker threads under
/// executor `E`. Requests are routed to the worker owning their home shard
/// (`shard % workers`), each worker serving its stream in arrival order.
pub fn run_server<'r, E: TmExecutor<'r>>(
    rt: &'r TmRuntime,
    state: &ServerState,
    workers: usize,
    requests: &[Request],
    mode: &ServeMode,
    opts: &ServeOpts,
) -> ServerReport {
    assert!(workers >= 1 && workers <= rt.threads());
    debug_assert!(
        requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "requests must be sorted by arrival"
    );
    assert!(
        u32::try_from(requests.len()).is_ok(),
        "more than 2^32 requests"
    );
    // Each worker's stream is a list of indices into `requests`, sized
    // exactly: count first, then fill.
    let spec = *state.spec();
    let worker_of = |r: &Request| r.op.home_shard(&spec) as usize % workers;
    let mut lens = vec![0usize; workers];
    for r in requests {
        lens[worker_of(r)] += 1;
    }
    let mut streams: Vec<Vec<u32>> = lens.iter().map(|&n| Vec::with_capacity(n)).collect();
    for (i, r) in requests.iter().enumerate() {
        streams[worker_of(r)].push(i as u32);
    }

    let vclock = match mode {
        ServeMode::Virtual(spec) => Some(VClock::new(workers, spec.clone())),
        ServeMode::Wall => None,
    };
    let mut tm = TmStats::default();
    let mut hw = HtmStats::default();
    let mut latency = LatencyHisto::new();
    let mut served = 0u64;
    let mut elapsed = Duration::ZERO;
    let mut responses = Vec::new();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|wid| {
                let stream = &streams[wid];
                let vclock = vclock.as_ref();
                s.spawn(move || {
                    let mut exec = E::new(rt, wid);
                    let (clock, guard) = match vclock {
                        Some(vc) => (WorkerClock::Virtual, Some(vc.attach(wid))),
                        None => (WorkerClock::Wall(Instant::now()), None),
                    };
                    let out = serve_worker(&mut exec, state, requests, stream, opts, &clock);
                    drop(guard);
                    out
                })
            })
            .collect();
        for h in handles {
            let out = h.join().expect("server worker panicked");
            tm.merge(&out.tm);
            hw.merge(&out.hw);
            latency.merge(&out.histo);
            served += out.served;
            elapsed = elapsed.max(out.elapsed);
            responses.extend(out.responses);
        }
    });

    let makespan = vclock.map_or(0, |vc| vc.report().makespan);
    let run = RunResult {
        algo: E::NAME,
        threads: workers,
        elapsed,
        commits: tm.commits_total(),
        makespan,
        tm,
        hw,
    };
    ServerReport {
        run,
        served,
        latency,
        responses,
    }
}
