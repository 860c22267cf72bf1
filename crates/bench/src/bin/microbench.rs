//! The one microbenchmark: every claim perfbench cannot carry, as rows of
//! perfbench's report shape (`tm_bench::ROWS`; docs in EXPERIMENTS.md,
//! "Microbenchmarks").
//!
//! Usage: `microbench [--smoke] [--out PATH]`
//!   --smoke     ~10-20x less work per row (CI sanity run; floors not enforced)
//!   --out PATH  report file (default `target/microbench.json`)
//!
//! The drift gate is `benchmark/run.sh check BENCH.json target/microbench.json`;
//! `BENCH.json` is a committed full run. A full run also checks the absolute
//! claim floors of the row table and exits 1 naming any row below its floor.
//!
//! Wall groups time their two arms back to back, once per pass over all of
//! them; [`Scale::reps`] passes give each row its median and quartiles. Virtual
//! groups run each cell once on [`CORES`] simulated cores under the default
//! schedule, on a thread pinned to one CPU (hand-offs between simulated cores
//! are futex wake-ups, 4-6x dearer across CPUs; results do not depend on
//! placement).

use htm_sim::vclock::SchedSpec;
use htm_sim::{BackendKind, HeapBuilder, HtmConfig, HtmSystem, HtmThread, WORDS_PER_LINE};
use part_htm_core::{CommitPath, PartHtm, TmConfig, TmExecutor, TmRuntime, TmThread, Workload};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;
use tm_bench::{floor_misses, render, rows, Measured};
use tm_harness::experiments::capacity_shape;
use tm_harness::loadgen::ArrivalProcess;
use tm_harness::{run_cell_virtual, Algo, RunResult};
use tm_server::service::{gen_requests, run_server, Request, ServeMode, ServeOpts};
use tm_server::{AdmissionSpec, ServerReport, ServerSpec, ServerState, TrafficMix};
use tm_sig::kernels::{scalar, unrolled};
use tm_sig::{ShardTimes, ShardedRing, ShardedSummary, Sig, SigSpec};
use tm_workloads::micro::{self, NrmwParams};

/// Simulated cores of every virtual cell, worker threads of every server cell.
const CORES: usize = 4;
/// Shard count of the sharded ring arm (the `TmConfig::ring_shards` default).
const SHARDS: usize = 8;
/// Published entries of timestamp lag the validation rows walk past.
const VALIDATION_LAG: u64 = 48;

struct Scale {
    /// Passes over the wall groups: repetitions of every wall row.
    reps: usize,
    /// Transactions per arm of the simulator read rows.
    sim_txs: u64,
    kernel_iters: u64,
    val_iters: u64,
    /// Publishes per repetition, shared by the committer threads.
    pub_target: u64,
    /// Transactions per core: capacity-shape plans / hint-optimal plans /
    /// rescue cells / ablation cells.
    plan_ops: usize,
    hint_ops: usize,
    rescue_ops: usize,
    ablation_ops: usize,
    /// Requests: small-transaction stream (the virtual cell runs a quarter)
    /// / overload stream.
    small_n: usize,
    overload_n: usize,
}

impl Scale {
    fn full() -> Self {
        Self {
            reps: 7,
            sim_txs: 20_000,
            kernel_iters: 200_000,
            val_iters: 100_000,
            pub_target: 240_000,
            plan_ops: 60,
            hint_ops: 200,
            rescue_ops: 60,
            ablation_ops: 8,
            small_n: 80_000,
            overload_n: 24_000,
        }
    }
    fn smoke() -> Self {
        Self {
            reps: 5,
            sim_txs: 1_000,
            kernel_iters: 10_000,
            val_iters: 5_000,
            pub_target: 12_000,
            plan_ops: 6,
            hint_ops: 20,
            rescue_ops: 6,
            ablation_ops: 1,
            small_n: 4_000,
            overload_n: 1_200,
        }
    }
}

/// Wall time of `f()` in nanoseconds.
fn time_ns(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64
}

// ---- simulator -------------------------------------------------------------

/// Lines each simulator-row transaction reads.
const SIM_LINES: u32 = 96;

/// The simulator's read path on one thread, at `nrmw_capacity`'s shape: one
/// transaction reads `words` words of each of [`SIM_LINES`] lines. The 8-word
/// arm less the 1-word arm is 672 repeat reads of registered lines; the
/// 1-word arm less an empty transaction is 96 first reads, each with its
/// line-table registration and its release at commit.
fn sim_read(sc: &Scale, out: &mut Measured) {
    use std::hint::black_box as bb;
    let sys = HtmSystem::new(HtmConfig::default(), SIM_LINES as usize * WORDS_PER_LINE);
    let mut th = sys.thread(0);
    let mut arm = |words: u32| {
        time_ns(|| {
            for _ in 0..sc.sim_txs {
                th.attempt(|tx| {
                    for line in 0..SIM_LINES {
                        for w in 0..words {
                            bb(tx.read(bb(line * WORDS_PER_LINE as u32 + w))?);
                        }
                    }
                    Ok(())
                })
                .expect("a lone reader commits");
            }
        })
    };
    let (full, first, empty) = (arm(8), arm(1), arm(0));
    let txs = sc.sim_txs as f64;
    let lines = f64::from(SIM_LINES);
    out.put(
        "sim/read_hit_ns_per_word",
        (full - first) / (txs * 7.0 * lines),
    );
    out.put(
        "sim/read_first_ns_per_line",
        (first - empty) / (txs * lines),
    );
}

// ---- kernels ---------------------------------------------------------------

/// One kernel at the paper's geometry: the `kernels::scalar` reference and the
/// unrolled flavour production calls, timed back to back.
fn bench_kernel(
    sc: &Scale,
    out: &mut Measured,
    name: &str,
    mut scalar: impl FnMut(),
    mut unrolled: impl FnMut(),
) {
    let words = f64::from(SigSpec::PAPER.bits() / 64);
    let s = time_ns(|| (0..sc.kernel_iters).for_each(|_| scalar()));
    let u = time_ns(|| (0..sc.kernel_iters).for_each(|_| unrolled()));
    out.put(
        format!("kernels/{name}_ns_per_word"),
        u / (sc.kernel_iters as f64 * words),
    );
    out.put(format!("kernels/{name}_speedup"), s / u);
}

/// The predicate/fold kernels over dense disjoint operands (no early exit),
/// the masked update kernels over a write-set-shaped operand (three non-zero
/// words, mask computed once outside the timed loop, as `Sig` maintains it).
fn kernels(sc: &Scale, out: &mut Measured) {
    use std::hint::black_box as bb;
    let words = (SigSpec::PAPER.bits() / 64) as usize;
    let dense = |phase: u64| -> Vec<u64> {
        (0..words as u64)
            .map(|i| (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | phase)
            .collect()
    };
    let a = dense(0xAAAA_AAAA_AAAA_AAAA);
    let b: Vec<u64> = a.iter().map(|w| !w).collect();
    let mut sparse = vec![0u64; words];
    for k in 0..3 {
        sparse[k * (words - 1) / 2] = 0x8000_0000_0000_0001u64.rotate_left(k as u32 * 17);
    }
    let mask = scalar::mask_of(&sparse);
    let (mut d1, mut d2) = (dense(0), dense(0));

    bench_kernel(
        sc,
        out,
        "intersect_dense",
        || assert!(!bb(scalar::intersect_any(bb(&a), bb(&b)))),
        || assert!(!bb(unrolled::intersect_any(bb(&a), bb(&b)))),
    );
    bench_kernel(
        sc,
        out,
        "fold_full",
        || assert!(bb(scalar::fold_masked(bb(&a), u64::MAX)) != 0),
        || assert!(bb(unrolled::fold_masked(bb(&a), u64::MAX)) != 0),
    );
    bench_kernel(
        sc,
        out,
        "or_into_masked",
        || scalar::or_into_masked(bb(&mut d1), bb(&sparse), bb(mask)),
        || unrolled::or_into_masked(bb(&mut d2), bb(&sparse), bb(mask)),
    );
    bench_kernel(
        sc,
        out,
        "and_not_masked",
        || assert!(bb(scalar::and_not_masked(bb(&mut d1), bb(&sparse), bb(mask))) == 0),
        || assert!(bb(unrolled::and_not_masked(bb(&mut d2), bb(&sparse), bb(mask))) == 0),
    );
}

// ---- validation and publish: 8 shards vs one -------------------------------

/// A single-shard and an 8-shard ring in one heap, with their summaries.
fn rings() -> (HtmSystem, [(ShardedRing, ShardedSummary); 2]) {
    const HEAP: usize = 1 << 22;
    let cfg = HtmConfig {
        max_threads: CORES,
        ..HtmConfig::default()
    };
    let mut b = HeapBuilder::new(HEAP);
    let arms = [1, SHARDS].map(|shards| {
        let ring = ShardedRing::alloc(&mut b, shards, 1024, SigSpec::PAPER);
        let summaries = ring.new_summary();
        (ring, summaries)
    });
    (HtmSystem::new(cfg, HEAP), arms)
}

/// Wall time, in nanoseconds, of `threads` scoped threads each running `body(t)`.
fn time_threads(threads: usize, body: impl Fn(usize) + Sync) -> f64 {
    time_ns(|| {
        std::thread::scope(|s| {
            for t in 0..threads {
                let body = &body;
                s.spawn(move || body(t));
            }
        })
    })
}

/// No-conflict in-flight validation through the grouped `validate_touched_nt`
/// fast pass the partitioned path runs: the sharded validator pays one group
/// probe per touched shard, the single ring one. Both rings carry the same 48
/// published entries; the read signature collides with none of them.
fn validation(sc: &Scale, out: &mut Measured) {
    let (sys, arms) = rings();
    let spec = SigSpec::PAPER;
    let th = sys.thread(0);
    let mut union = Sig::new(spec);
    for i in 0..VALIDATION_LAG {
        let mut sig = Sig::new(spec);
        for k in 0..3u64 {
            sig.add((50_000 + i * 101 + k * 37) as u32);
        }
        union.union_with(&sig);
        for (ring, summaries) in &arms {
            ring.publish_software_summarized(&th, &sig, summaries);
        }
    }
    let mut rsig = Sig::new(spec);
    for a in 0u32.. {
        let mut probe = Sig::new(spec);
        probe.add(a);
        if !probe.intersects(&union) && !probe.intersects(&rsig) {
            rsig.add(a);
            if rsig.popcount() == 3 {
                break;
            }
        }
    }
    drop(th);

    for validators in [1, CORES] {
        let [single, sharded] = arms.each_ref().map(|(ring, summaries)| {
            let total = time_threads(validators, |t| {
                let th = sys.thread(t);
                for _ in 0..sc.val_iters {
                    let mut times = ShardTimes::new();
                    let v = ring.validate_touched_nt(&th, summaries, &rsig, &mut times);
                    let v = std::hint::black_box(v);
                    assert!(v.result.is_ok() && v.walked_shards == 0);
                }
            });
            total / sc.val_iters as f64
        });
        out.put(
            format!("validation/sharded_ns_per_val_{validators}v"),
            sharded,
        );
        out.put(
            format!("validation/sharded_over_single_{validators}v"),
            sharded / single,
        );
    }
}

/// One hardware publish, retried with the lock-elision spin until it commits;
/// an aborted attempt that already announced itself cancels the announcement.
fn publish_hw(th: &mut HtmThread<'_>, ring: &ShardedRing, summaries: &ShardedSummary, sig: &Sig) {
    loop {
        let mut announced = 0u32;
        let res = th.attempt(|tx| {
            announced = 0;
            let (mask, times) = ring.publish_tx_summarized(tx, sig, summaries)?;
            announced = mask;
            Ok((mask, times))
        });
        match res {
            Ok((mask, times)) => return ring.complete_publish(sig, mask, &times, summaries),
            Err(_) if announced != 0 => ring.cancel_publish(announced, summaries),
            Err(_) => {}
        }
        std::hint::spin_loop();
    }
}

/// Mixed publish with disjoint write sets (thread `t`'s addresses all hash
/// into shard `t` of the 8-shard geometry): thread 0 commits in software (the
/// partitioned path's global commit, holding its ring lock), threads 1.. in
/// hardware (fast-path commits subscribing the lock). On one ring every
/// hardware committer subscribes *the* lock; sharded, disjoint committers
/// touch disjoint locks.
fn publish(sc: &Scale, out: &mut Measured) {
    const SIGS_PER_THREAD: usize = 16;
    const ADDRS_PER_SIG: usize = 12;
    let (sys, arms) = rings();
    let sharded = &arms[1].0;
    // One address per line: each sets a bit of its own.
    let mut addr = 0u32;
    let mut next_in_shard = |shard: usize| loop {
        addr += WORDS_PER_LINE as u32;
        if sharded.shard_of_word(sharded.spec().bit_of(addr) / 64) == shard {
            return addr;
        }
    };
    let sigs: Vec<Vec<Sig>> = (0..CORES)
        .map(|t| {
            let sig = |_| {
                let mut sig = Sig::new(sharded.spec());
                (0..ADDRS_PER_SIG).for_each(|_| sig.add(next_in_shard(t)));
                assert_eq!(sharded.shard_mask(&sig), 1 << t);
                sig
            };
            (0..SIGS_PER_THREAD).map(sig).collect()
        })
        .collect();

    let target = sc.pub_target;
    let run = |arm: usize, threads: usize, already_done: u64| -> f64 {
        let (ring, summaries) = &arms[arm];
        let done = AtomicU64::new(already_done);
        let ns = time_threads(threads, |t| {
            let mut th = sys.thread(t);
            let mut i = 0;
            while done.fetch_add(1, Relaxed) < target {
                let sig = &sigs[t][i % SIGS_PER_THREAD];
                i += 1;
                if t > 0 {
                    publish_hw(&mut th, ring, summaries, sig);
                } else {
                    ring.publish_software_summarized(&th, sig, summaries);
                }
            }
        });
        (target - already_done) as f64 * 1e9 / ns
    };
    for t in [1, 2, 4] {
        // Untimed warm-up: first touch of the rings' heap pages.
        run(0, t, target - target / 8);
        run(1, t, target - target / 8);
        let [single, sharded] = [0, 1].map(|arm| run(arm, t, 0));
        out.put(format!("publish/sharded_pub_per_s_{t}t"), sharded);
        out.put(
            format!("publish/sharded_over_single_{t}t"),
            sharded / single,
        );
    }
}

// ---- virtual N-Reads-M-Writes cells: plan, rescue, ablation ----------------

/// An N-Reads-M-Writes cell shape: parameters, HTM geometry, transactions
/// per core.
type Shape<'a> = (NrmwParams, &'a HtmConfig, usize);

/// Run one virtual cell of `shape` under `algo` and `tm`; record its commits
/// per million work units as row `<name>_tx_per_mwu` and return the run.
fn nrmw_row(
    out: &mut Measured,
    name: &str,
    algo: Algo,
    (p, htm, ops): Shape<'_>,
    tm: TmConfig,
) -> RunResult {
    let (r, _) = run_cell_virtual(
        algo,
        CORES,
        ops,
        htm.clone(),
        tm,
        p.app_words(),
        SchedSpec::default(),
        |rt| micro::init(rt, &p),
        |shared, t| micro::Nrmw::new(shared, t, 64),
    );
    out.put(format!("{name}_tx_per_mwu"), r.virtual_throughput());
    r
}

/// The adaptive abort-profiled planner against pinned static plans. On the
/// capacity shape (32 fine segments of ~3 lines, 64-line budget) `static1`
/// runs every declared segment as its own sub-HTM and `tuned8` the hand-tuned
/// merge width; on the Fig. 3(c) time-limited shape the declared 4x25
/// segmentation *is* the optimum and the adaptive row prices learning that.
/// The adaptive capacity cell also records its global aborts and work units
/// per transaction: signature false positives show up there first.
fn plan(sc: &Scale, out: &mut Measured) {
    let adapt = TmConfig::default;
    let pinned = |g| TmConfig {
        plan_group: Some(g),
        ..TmConfig::default()
    };
    let (p, htm) = capacity_shape();
    let cap = (p, &htm, sc.plan_ops);
    let static1 = nrmw_row(out, "plan/static1", Algo::PartHtm, cap, pinned(1));
    nrmw_row(out, "plan/tuned8", Algo::PartHtm, cap, pinned(8));
    let adaptive = nrmw_row(out, "plan/adaptive", Algo::PartHtm, cap, adapt());
    out.put(
        "plan/adaptive_over_static1",
        adaptive.virtual_throughput() / static1.virtual_throughput(),
    );
    let tx = adaptive.commits as f64;
    out.put(
        "plan/adaptive_global_aborts_per_ktx",
        1000.0 * adaptive.tm.global_aborts as f64 / tx,
    );
    out.put(
        "plan/adaptive_work_units_per_tx",
        adaptive.hw.work_units as f64 / tx,
    );

    let p = NrmwParams {
        array_len: 2_000,
        ..NrmwParams::fig3c()
    };
    let htm = HtmConfig {
        quantum: 20_000,
        ..HtmConfig::default()
    };
    let hint = (p, &htm, sc.hint_ops);
    let fixed = nrmw_row(out, "plan/hint_static", Algo::PartHtm, hint, pinned(1));
    let learnt = nrmw_row(out, "plan/hint_adaptive", Algo::PartHtm, hint, adapt());
    out.put(
        "plan/hint_adaptive_over_static",
        learnt.virtual_throughput() / fixed.virtual_throughput(),
    );
}

/// Splitting vs the global lock per capacity backend: 1200 contiguous reads
/// (~150 lines) overflow every read budget (TSX pinned to 64 lines, POWER 128,
/// limited-set 64), 16 writes fit every write budget. `split` is Part-HTM's
/// partitioned path, `glock` is HTM-GL, which sends the resource failure to
/// the lock (the limited-set backend's spill absorbs it in hardware).
fn rescue(sc: &Scale, out: &mut Measured) {
    let p = NrmwParams {
        array_len: 4_000,
        n_reads: 1_200,
        m_writes: 16,
        work_per_iter: 0,
        segments: 8,
        stride: 1,
    }
    .fine_grained();
    for kind in [BackendKind::Tsx, BackendKind::Power, BackendKind::Limited] {
        let htm = HtmConfig {
            backend: kind,
            read_lines_max: 64,
            ..HtmConfig::default()
        };
        let shape = (p, &htm, sc.rescue_ops);
        for (arm, algo) in [("split", Algo::PartHtm), ("glock", Algo::HtmGl)] {
            let name = format!("rescue/{}_{arm}", kind.name());
            nrmw_row(out, &name, algo, shape, TmConfig::default());
        }
    }
}

/// Part-HTM's design choices on the Fig. 3(b) space-limited cell. At 4 cores
/// its 1250 read lines fit the 2750-line budget, so `default` commits on the
/// fast path and only `nofast` (the figure's Part-HTM-no-fast series) moves
/// it; the partitioned path's own choices — validation after every sub-HTM
/// or only at commit, signature bits (2048 by default; 4096 is the widest the
/// sharded ring takes), sub-HTM retry budget (5) — are ablated with it off.
fn ablation(sc: &Scale, out: &mut Measured) {
    let nofast = |edit: fn(&mut TmConfig)| {
        let mut tm = TmConfig {
            skip_fast: true,
            ..TmConfig::default()
        };
        edit(&mut tm);
        tm
    };
    let htm = HtmConfig {
        read_lines_max: 11_000 / CORES,
        ..HtmConfig::default()
    };
    let shape = (NrmwParams::fig3b(), &htm, sc.ablation_ops);
    for (name, tm) in [
        ("default", TmConfig::default()),
        ("nofast", nofast(|_| ())),
        (
            "nofast_validate_at_commit_only",
            nofast(|tm| tm.validate_every_sub = false),
        ),
        (
            "nofast_sig_512",
            nofast(|tm| tm.sig_spec = SigSpec::new(512)),
        ),
        (
            "nofast_sig_4096",
            nofast(|tm| tm.sig_spec = SigSpec::new(4096)),
        ),
        ("nofast_sub_retries_1", nofast(|tm| tm.sub_retries = 1)),
        ("nofast_sub_retries_20", nofast(|tm| tm.sub_retries = 20)),
    ] {
        nrmw_row(out, &format!("ablation/{name}"), Algo::PartHtm, shape, tm);
    }
}

// ---- server: group commit and admission control ----------------------------

/// Service geometry: 8 shards, room for the preloaded balances plus churn.
const SPEC: ServerSpec = ServerSpec {
    shards: 8,
    slots_per_shard: 1024,
    queue_cap: 64,
};

/// One server cell on a fresh runtime, every key preloaded with a balance
/// large enough that transfers rarely no-op.
fn server_cell(
    htm: &HtmConfig,
    mix: &TrafficMix,
    requests: &[Request],
    batch_max: usize,
    admission: AdmissionSpec,
    mode: &ServeMode,
) -> ServerReport {
    let rt = TmRuntime::new(htm.clone(), TmConfig::default(), CORES, SPEC.app_words());
    let state = ServerState::new(&rt, SPEC);
    let balances: Vec<(u32, u32, u64)> = (0..mix.tenants)
        .flat_map(|t| (0..mix.keys).map(move |k| (t, k, 1_000_000)))
        .collect();
    state.preload(&rt, &balances);
    let opts = ServeOpts {
        batch_max,
        admission,
        ..ServeOpts::default()
    };
    run_server::<PartHtm>(&rt, &state, CORES, requests, mode, &opts)
}

/// Small single-shard KV/queue requests (4 tenants x 512 keys, ~25 % table
/// occupancy), `batch_max: 8` against the `batch_max: 1` oracle.
fn small_mix() -> TrafficMix {
    TrafficMix {
        keys: 512,
        ..TrafficMix::small_only()
    }
}

/// An executor that commits nothing: `run_server` under it times the serve
/// loop alone (pulling, batching, admission, latency accounting).
struct NoopExec<'r>(TmThread<'r>);

impl<'r> TmExecutor<'r> for NoopExec<'r> {
    const NAME: &'static str = "no-op";

    fn new(rt: &'r TmRuntime, thread_id: usize) -> Self {
        Self(TmThread::new(rt, thread_id))
    }

    fn execute<W: Workload>(&mut self, _w: &mut W) -> CommitPath {
        CommitPath::Htm
    }

    fn thread(&self) -> &TmThread<'r> {
        &self.0
    }

    fn thread_mut(&mut self) -> &mut TmThread<'r> {
        &mut self.0
    }
}

/// Group commit on the wall clock: a saturated stream (everything due at
/// t = 0), so goodput is service capacity. The serve loop's own cost is the
/// same stream under [`NoopExec`] with default options on perfbench's two
/// `server_small` workers, in worker time per request.
fn server_batch_wall(sc: &Scale, out: &mut Measured) {
    let (mix, htm, off) = (small_mix(), HtmConfig::default(), AdmissionSpec::off());
    let reqs = gen_requests(&mix, &vec![0u64; sc.small_n], 8001);
    let workers = 2;
    let rt = TmRuntime::new(htm.clone(), TmConfig::default(), workers, SPEC.app_words());
    let state = ServerState::new(&rt, SPEC);
    let opts = ServeOpts::default();
    let noop = run_server::<NoopExec>(&rt, &state, workers, &reqs, &ServeMode::Wall, &opts);
    out.put(
        "server/serve_loop_ns_per_req",
        noop.run.elapsed.as_nanos() as f64 * workers as f64 / reqs.len() as f64,
    );
    let cell = |batch_max| server_cell(&htm, &mix, &reqs, batch_max, off, &ServeMode::Wall);
    let (batched, unbatched) = (cell(8).goodput_wall(), cell(1).goodput_wall());
    out.put("server/batched_req_per_s", batched);
    out.put("server/unbatched_req_per_s", unbatched);
    out.put("server/batch_speedup_wall", batched / unbatched);
}

/// The same comparison on the virtual clock (Poisson arrivals, mean gap 2 wu),
/// plus the per-request counts that say where a wall/virtual gap can live:
/// hardware begins, ring-shard publishes, charged work units, transactions.
fn server_batch_virtual(sc: &Scale, out: &mut Measured) {
    let (mix, htm) = (small_mix(), HtmConfig::default());
    let arrivals = ArrivalProcess::Poisson { mean_gap: 2.0 }.timestamps(sc.small_n / 4, 8002);
    let reqs = gen_requests(&mix, &arrivals, 8002);
    let mode = ServeMode::Virtual(SchedSpec::default());
    let [batched, unbatched] = [("batched", 8), ("unbatched", 1)].map(|(arm, batch_max)| {
        let r = server_cell(&htm, &mix, &reqs, batch_max, AdmissionSpec::off(), &mode);
        let (tm, hw, served) = (&r.run.tm, &r.run.hw, r.served as f64);
        let publishes: u64 = tm.shard_publishes.iter().sum();
        // A request outside a counted batch is a transaction of its own.
        let groups = tm.batch_groups + r.served - tm.batch_reqs;
        for (metric, v) in [
            ("req_per_mwu", r.goodput_virtual()),
            ("p999_wu", r.latency.p999() as f64),
            ("begins_per_req", hw.begins as f64 / served),
            ("publishes_per_req", publishes as f64 / served),
            ("work_units_per_req", hw.work_units as f64 / served),
            ("groups_per_kreq", 1000.0 * groups as f64 / served),
        ] {
            out.put(format!("server/{arm}_{metric}"), v);
        }
        r.goodput_virtual()
    });
    out.put("server/batch_speedup_virt", batched / unbatched);
}

/// Admission control under overload: a hot-key transfer mix under a tight
/// timer quantum (every transfer resource-limited). A saturated stream with
/// the controller on measures the sustainable rate; a Poisson stream at twice
/// that rate then runs with the controller on and with `AdmissionSpec::off()`.
fn server_overload(sc: &Scale, out: &mut Measured) {
    let mix = TrafficMix {
        tenants: 2,
        keys: 64,
        kv_weight: 1,
        queue_weight: 0,
        transfer_weight: 8,
        hot_pct: 90,
        hot_keys: 4,
    };
    let htm = HtmConfig {
        quantum: 6,
        ..HtmConfig::default()
    };
    let wall = |reqs: &[Request], admission| {
        server_cell(&htm, &mix, reqs, 8, admission, &ServeMode::Wall).goodput_wall()
    };
    let sat = wall(
        &gen_requests(&mix, &vec![0u64; sc.overload_n], 8003),
        AdmissionSpec::default(),
    );
    let mean_gap = 1e9 / (2.0 * sat);
    let arrivals = ArrivalProcess::Poisson { mean_gap }.timestamps(sc.overload_n, 8004);
    let reqs = gen_requests(&mix, &arrivals, 8004);
    let (on, off) = (
        wall(&reqs, AdmissionSpec::default()),
        wall(&reqs, AdmissionSpec::off()),
    );
    out.put("server/saturation_req_per_s", sat);
    out.put("server/overload_on_req_per_s", on);
    out.put("server/overload_off_req_per_s", off);
    out.put("server/overload_sat_frac", on / sat);
    out.put("server/admission_gain", on / off);
}

// ---- driver -----------------------------------------------------------------

extern "C" {
    // glibc, which std already links: the calling thread's CPU mask.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread (and the threads it spawns later) to the first CPU
/// it may run on. Failure is ignored: virtual cells are then merely slower.
fn pin_to_one_cpu() {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return;
    }
    let Some(word) = mask.iter().position(|w| *w != 0) else {
        return;
    };
    let mut one = [0u64; 16];
    one[word] = 1 << mask[word].trailing_zeros();
    // SAFETY: `one` is a live buffer of exactly the byte size passed and is
    // only read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
}

/// The bit-reproducible rows, measured on a pinned thread.
fn measure_virtual(sc: &Scale) -> Measured {
    std::thread::scope(|s| {
        s.spawn(|| {
            pin_to_one_cpu();
            let mut out = Measured::default();
            for (name, group) in [
                ("plan", plan as fn(&Scale, &mut Measured)),
                ("rescue", rescue),
                ("server (virtual)", server_batch_virtual),
                ("ablation", ablation),
            ] {
                eprintln!("  [{name}]...");
                group(sc, &mut out);
            }
            out
        })
        .join()
        .expect("virtual groups panicked")
    })
}

/// Every row of the table. The wall groups run one repetition per pass, so a
/// row's repetitions are spread over the whole wall phase and its quartiles
/// see the host's slower drifts, not just back-to-back jitter.
fn measure(sc: &Scale) -> Measured {
    let mut out = Measured::default();
    for rep in 1..=sc.reps {
        eprintln!(
            "  [sim, kernels, validation, publish, server] repetition {rep}/{}...",
            sc.reps
        );
        for group in [
            sim_read,
            kernels,
            validation,
            publish,
            server_batch_wall,
            server_overload,
        ] {
            group(sc, &mut out);
        }
    }
    out.0.extend(measure_virtual(sc).0);
    out
}

fn main() -> ExitCode {
    let (mut smoke, mut path) = (false, "target/microbench.json".to_string());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let out = if arg == "--out" { args.next() } else { None };
        match (arg.as_str(), out) {
            ("--smoke", _) => smoke = true,
            ("--out", Some(p)) => path = p,
            _ => {
                eprintln!("usage: microbench [--smoke] [--out PATH]");
                return ExitCode::from(2);
            }
        }
    }
    let kind = if smoke { "smoke" } else { "full" };
    eprintln!("microbench: {kind} run");
    let sc = if smoke { Scale::smoke() } else { Scale::full() };
    let rows = rows(&measure(&sc));

    println!("microbench results ({kind} run; wall rows: median [q1, q3] of n)");
    for r in &rows {
        let v = r.value;
        print!("{:<48} {:>16.4} {:<6}", r.def.key, v.median, r.def.unit);
        if v.n > 1 {
            print!("  [{:.4}, {:.4}] of {}", v.q1, v.q3, v.n);
        }
        if let Some(floor) = r.def.floor {
            print!("  (claim floor {floor})");
        }
        println!();
    }
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).expect("create the report's directory");
    }
    std::fs::write(&path, render(&rows, smoke)).expect("write the report");
    eprintln!("wrote {path}");

    let misses = floor_misses(&rows);
    let label = if smoke {
        "note (smoke scale, not enforced)"
    } else {
        "FAIL"
    };
    for m in &misses {
        eprintln!("{label}: {m}");
    }
    if smoke || misses.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One smoke run of everything and one more of the virtual groups: the
    /// measurements cover the row table exactly (`rows` panics otherwise), the
    /// virtual rows repeat to the byte, and the file reads back — through
    /// `scripts/bench-rows.sh`, the reader `doc-check.sh` uses — as the rows
    /// that were written.
    #[test]
    fn smoke_rows_repeat_and_round_trip() {
        let sc = Scale::smoke();
        let first = measure(&sc);
        let again = measure_virtual(&sc).0;
        assert!(again.len() > 30, "{} virtual rows", again.len());
        let first_virtual = &first.0[first.0.len() - again.len()..];
        assert_eq!(format!("{first_virtual:?}"), format!("{again:?}"));

        let written = rows(&first);
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let file = root.join("target/microbench-test.json");
        std::fs::create_dir_all(file.parent().unwrap()).unwrap();
        std::fs::write(&file, render(&written, true)).unwrap();
        let read = std::process::Command::new("bash")
            .arg(root.join("scripts/bench-rows.sh"))
            .arg(&file)
            .output()
            .unwrap();
        assert!(read.status.success());
        let read = String::from_utf8(read.stdout).unwrap();
        let read: Vec<(&str, f64)> = read
            .lines()
            .map(|l| l.split_once(' ').unwrap())
            .map(|(key, value)| (key, value.parse().unwrap()))
            .collect();
        assert_eq!(read.len(), written.len());
        for ((key, value), w) in read.iter().zip(&written) {
            assert_eq!(
                (*key, value.to_bits()),
                (w.def.key, w.value.median.to_bits())
            );
        }
    }
}
