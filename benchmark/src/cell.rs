//! The child side: one process runs one cell and prints `K <key> <value>`
//! lines. Three kinds:
//!
//! * `wall`   — end-to-end wall pass: Part-HTM and Part-HTM-O reps,
//!   round-robin, on [`WALL_THREADS`] OS threads, tracing off;
//! * `traced` — per-layer wall pass: untraced / traced / HTM-GL (/ unbatched)
//!   reps round-robin, then the layer probes on the sampled transactions;
//! * `virt`   — one deterministic virtual-clock cell on [`VIRT_CORES`]
//!   simulated cores (always under the tracer, which the virtual clock
//!   cannot see).
//!
//! Every rep builds its runtime from scratch — that is the set-up the
//! `setup_s` metric times — and checks its outputs before it counts.

use crate::probe;
use crate::spec::*;
use crate::stats::Summary;
use crate::sys;
use crate::trace::{self, ThreadTrace, Totals};
use htm_sim::abort::TxResult;
use htm_sim::vclock::{SchedPolicy, SchedSpec};
use htm_sim::{Addr, Heap, HtmStats};
use part_htm_core::api::spin_work;
use part_htm_core::{TmConfig, TmExecutor, TmRuntime, TmStats, TxCtx, Workload};
use std::time::Instant;
use tm_baselines::seq::Sequential;
use tm_harness::loadgen::ArrivalProcess;
use tm_harness::{run_threads, run_threads_virtual, RunResult};
use tm_server::{
    gen_requests, run_server, AdmissionSpec, Op, Request, ServeMode, ServeOpts, ServerReport,
    ServerState,
};
use tm_workloads::micro::{self, Nrmw};

/// Arguments of `perfbench cell`.
pub struct CellArgs {
    pub kind: String,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// `parthtm` | `parthtmo` | `htmgl` (virtual cells).
    pub proto: String,
    /// Mean arrival gap in work units; 0 = saturated / closed loop.
    pub gap: f64,
    pub admission_off: bool,
    /// Pin to the n-th allowed CPU (virtual cells).
    pub pin: Option<usize>,
    pub out_dir: String,
}

thread_local! {
    /// What the cell running on this thread has reported so far.
    static OUT: std::cell::RefCell<Vec<(String, f64)>> = const { std::cell::RefCell::new(Vec::new()) };
}

fn emit(key: &str, v: f64) {
    OUT.with(|o| o.borrow_mut().push((key.to_string(), v)));
}

/// Take everything [`emit`]ted on this thread.
pub fn take_output() -> Vec<(String, f64)> {
    OUT.with(|o| std::mem::take(&mut *o.borrow_mut()))
}

fn emit_summary(key: &str, s: &Summary) {
    emit(key, s.median);
    emit(&format!("{key}.q1"), s.q1);
    emit(&format!("{key}.q3"), s.q3);
    emit(&format!("{key}.n"), s.n as f64);
}

fn sched(seed: u64) -> SchedSpec {
    SchedSpec {
        seed,
        policy: SchedPolicy::MinId,
        forced: Vec::new(),
    }
}

/// One measured repetition of one variant.
#[derive(Clone, Default)]
struct Rep {
    setup_s: f64,
    elapsed_s: f64,
    /// Transactions (library) or requests (server) completed and correct.
    done: u64,
    attempted: u64,
    tm: TmStats,
    hw: HtmStats,
}

impl Rep {
    fn rate(&self) -> f64 {
        self.done as f64 / self.elapsed_s.max(1e-9)
    }
}

/// Run the variants round-robin (so slow host phases hit all of them alike)
/// until `seconds` of measured time have passed and each has three reps.
fn round_robin(variants: &mut [&mut dyn FnMut() -> Rep], seconds: f64) -> Vec<Vec<Rep>> {
    let mut reps: Vec<Vec<Rep>> = vec![Vec::new(); variants.len()];
    let mut measured = 0.0;
    while measured < seconds || reps[0].len() < 3 {
        for (v, out) in variants.iter_mut().zip(&mut reps) {
            let r = v();
            measured += r.elapsed_s;
            out.push(r);
        }
    }
    reps
}

fn rates(reps: &[Rep]) -> Summary {
    Summary::of(reps.iter().map(Rep::rate).collect())
}

fn emit_totals(all: &[&[Rep]]) {
    let attempted: u64 = all.iter().flat_map(|r| r.iter()).map(|r| r.attempted).sum();
    let done: u64 = all.iter().flat_map(|r| r.iter()).map(|r| r.done).sum();
    emit("attempted", attempted as f64);
    emit("failed", (attempted - done.min(attempted)) as f64);
    emit("rss_mb", sys::peak_rss_mb());
}

// ---------------------------------------------------------------- library --

fn lib_runtime(s: &LibSpec, threads: usize) -> (TmRuntime, micro::NrmwShared) {
    let rt = TmRuntime::new(
        s.htm.clone(),
        TmConfig::default(),
        threads,
        s.params.app_words(),
    );
    let shared = micro::init(&rt, &s.params);
    (rt, shared)
}

fn dst_array(rt: &TmRuntime, s: &LibSpec) -> Vec<u64> {
    let words = s.params.array_len * s.params.stride;
    (words..2 * words).map(|i| rt.verify_read(i)).collect()
}

/// The destination array after `threads x ops` transactions, from a
/// `tm_baselines::Sequential` replay. The workload is RNG-free and the
/// threads' destination slices are disjoint, so the final state is a pure
/// function of params x threads x ops — and does not depend on `--seed`.
fn lib_expected(s: &LibSpec, threads: usize, ops: usize) -> Vec<u64> {
    let (rt, shared) = lib_runtime(s, 1);
    for t in 0..threads {
        let mut exec = Sequential::new(&rt, 0);
        let mut w = Nrmw::new(shared, t, NRMW_SLICES);
        for _ in 0..ops {
            w.sample(&mut exec.thread_mut().rng);
            exec.execute(&mut w);
        }
    }
    dst_array(&rt, s)
}

fn lib_rep_of(
    s: &LibSpec,
    rt: &TmRuntime,
    r: &RunResult,
    ops: usize,
    setup_s: f64,
    want: &[u64],
) -> Rep {
    let attempted = (r.threads * ops) as u64;
    // A wrong final array cannot be pinned on single transactions: the whole
    // rep counts as failed.
    let done = if dst_array(rt, s) == want {
        r.commits.min(attempted)
    } else {
        0
    };
    Rep {
        setup_s,
        elapsed_s: r.elapsed.as_secs_f64(),
        done,
        attempted,
        tm: r.tm.clone(),
        hw: r.hw.clone(),
    }
}

fn lib_wall_rep<P: Proto>(s: &LibSpec, want: &[u64]) -> Rep {
    let t0 = Instant::now();
    let (rt, shared) = lib_runtime(s, WALL_THREADS);
    let setup_s = t0.elapsed().as_secs_f64();
    let r = run_threads::<P::Exec<'_>, _, _>(&rt, WALL_THREADS, s.wall_ops, |t| {
        Nrmw::new(shared, t, NRMW_SLICES)
    });
    lib_rep_of(s, &rt, &r, s.wall_ops, setup_s, want)
}

// ----------------------------------------------------------------- server --

/// What one server rep needs beyond the spec.
struct SrvRun<'a> {
    workers: usize,
    n: usize,
    gap: f64,
    seed: u64,
    mode: ServeMode,
    opts: &'a ServeOpts,
    /// Check the KV total against the responses (needs `collect_responses`).
    check_kv: bool,
}

struct SrvOut {
    rep: Rep,
    report: ServerReport,
    last_arrival: u64,
    gen_s: f64,
}

fn srv_rep<P: Proto>(s: &SrvSpec, run: &SrvRun<'_>) -> SrvOut {
    let t0 = Instant::now();
    let rt = TmRuntime::new(
        s.htm.clone(),
        TmConfig::default(),
        run.workers,
        SERVER_SPEC.app_words(),
    );
    let state = ServerState::new(&rt, SERVER_SPEC);
    let mut kv_want = 0u64;
    if s.preload {
        let items: Vec<(u32, u32, u64)> = (0..s.mix.tenants)
            .flat_map(|t| (0..s.mix.keys).map(move |k| (t, k, PRELOAD_BALANCE)))
            .collect();
        state.preload(&rt, &items);
        kv_want = items.len() as u64 * PRELOAD_BALANCE;
    }
    let g0 = Instant::now();
    let arrivals = if run.gap > 0.0 {
        ArrivalProcess::Poisson { mean_gap: run.gap }.timestamps(run.n, run.seed)
    } else {
        vec![0; run.n]
    };
    let reqs: Vec<Request> = gen_requests(&s.mix, &arrivals, run.seed);
    let gen_s = g0.elapsed().as_secs_f64();
    let setup_s = t0.elapsed().as_secs_f64();

    let report = run_server::<P::Exec<'_>>(&rt, &state, run.workers, &reqs, &run.mode, run.opts);

    let mut ok = report.served == reqs.len() as u64;
    if run.check_kv {
        ok &= report.responses.len() == reqs.len();
        for &(seq, resp) in &report.responses {
            match reqs[seq as usize].op {
                Op::Add { delta, .. } => kv_want = kv_want.wrapping_add(delta),
                // A Put answers with the previous value, `enc_opt`-encoded.
                Op::Put { val, .. } => {
                    kv_want = kv_want
                        .wrapping_add(val)
                        .wrapping_sub(resp.saturating_sub(1))
                }
                _ => {}
            }
        }
        ok &= state.kv_total_nt(&rt) == kv_want;
    }
    let rep = Rep {
        setup_s,
        elapsed_s: report.run.elapsed.as_secs_f64(),
        done: if ok { report.served } else { 0 },
        attempted: reqs.len() as u64,
        tm: report.run.tm.clone(),
        hw: report.run.hw.clone(),
    };
    SrvOut {
        rep,
        report,
        last_arrival: arrivals.last().copied().unwrap_or(0),
        gen_s,
    }
}

fn srv_wall_rep<P: Proto>(s: &SrvSpec, seed: u64, opts: &ServeOpts, check_kv: bool) -> SrvOut {
    srv_rep::<P>(
        s,
        &SrvRun {
            workers: WALL_THREADS,
            n: s.wall_n,
            gap: 0.0,
            seed,
            mode: ServeMode::Wall,
            opts,
            check_kv,
        },
    )
}

/// The untimed wall validation rep: responses collected, KV total checked.
fn srv_validation_rep(s: &SrvSpec, seed: u64) -> Rep {
    let opts = ServeOpts {
        collect_responses: true,
        ..ServeOpts::default()
    };
    srv_wall_rep::<PartHtmP>(s, seed, &opts, true).rep
}

// ------------------------------------------------------------- wall cell --

fn cell_wall(a: &CellArgs, spec: &Spec) {
    let (reps, extra) = match spec {
        Spec::Lib(s) => {
            let want = lib_expected(s, WALL_THREADS, s.wall_ops);
            let reps = round_robin(
                &mut [&mut || lib_wall_rep::<PartHtmP>(s, &want), &mut || {
                    lib_wall_rep::<PartHtmOP>(s, &want)
                }],
                a.seconds,
            );
            (reps, Vec::new())
        }
        Spec::Srv(s) => {
            let opts = ServeOpts::default();
            let validation = srv_validation_rep(s, a.seed);
            let reps = round_robin(
                &mut [
                    &mut || srv_wall_rep::<PartHtmP>(s, a.seed, &opts, false).rep,
                    &mut || srv_wall_rep::<PartHtmOP>(s, a.seed, &opts, false).rep,
                ],
                a.seconds,
            );
            (reps, vec![validation])
        }
    };
    emit_summary("wall_tx_per_s", &rates(&reps[0]));
    emit_summary("wall_tx_per_s_o", &rates(&reps[1]));
    let setups = reps.iter().flatten().map(|r| r.setup_s).collect();
    emit_summary("setup_s", &Summary::of(setups));
    emit_totals(&[&reps[0], &reps[1], &extra]);
}

// ---------------------------------------------------------- virtual cell --

/// Metrics that are pure functions of the program's own counters (plus the
/// tracer's counts), so they repeat exactly in a virtual cell. `served` is
/// the requests a server workload answered, `None` for a library workload.
fn emit_count_metrics(tm: &TmStats, hw: &HtmStats, served: Option<u64>, m: &Totals) {
    let tx = tm.commits_total().max(1) as f64;
    let per_tx = |x: u64| x as f64 / tx;
    let per_ktx = |x: u64| 1000.0 * x as f64 / tx;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    emit("htm_sim.begins_per_tx", per_tx(hw.begins));
    emit("htm_sim.commit_ratio", ratio(hw.commits, hw.begins));
    emit(
        "htm_sim.aborts_conflict_per_ktx",
        per_ktx(hw.aborts_conflict),
    );
    emit(
        "htm_sim.aborts_capacity_per_ktx",
        per_ktx(hw.aborts_capacity),
    );
    emit("htm_sim.aborts_timer_per_ktx", per_ktx(hw.aborts_timer));
    emit(
        "htm_sim.aborts_explicit_per_ktx",
        per_ktx(hw.aborts_explicit),
    );
    emit("htm_sim.work_units_per_tx", per_tx(hw.work_units));
    emit(
        "tm_sig.publishes_per_tx",
        per_tx(tm.shard_publishes.iter().sum()),
    );
    emit(
        "tm_sig.validations_per_tx",
        per_tx(tm.shard_validations.iter().sum()),
    );
    emit(
        "tm_sig.val_fast_hit_ratio",
        ratio(tm.val_fast_hits, tm.val_fast_hits + tm.val_fast_misses),
    );
    emit("tm_sig.summary_resets_per_ktx", per_ktx(tm.summary_resets));
    emit(
        "tm_sig.journal_rollbacks_per_ktx",
        per_ktx(tm.journal_rollbacks),
    );
    emit("core.commit_frac_htm", per_tx(tm.commits_htm));
    emit("core.commit_frac_subhtm", per_tx(tm.commits_subhtm));
    emit("core.commit_frac_gl", per_tx(tm.commits_gl));
    emit("core.fast_aborts_per_ktx", per_ktx(tm.fast_aborts));
    emit("core.sub_aborts_per_ktx", per_ktx(tm.sub_aborts));
    emit("core.global_aborts_per_ktx", per_ktx(tm.global_aborts));
    emit("core.planner_demotions_per_ktx", per_ktx(tm.site_demotions));
    emit("core.plan_merges", tm.plan_merges as f64);
    emit("core.plan_splits", tm.plan_splits as f64);
    emit("core.segment_attempts_per_tx", m.per_tx(m.seg_calls));
    emit(
        "core.attempt_useful_ratio",
        ratio(m.seg_useful, m.seg_calls),
    );
    emit("workload.barriers_per_tx", m.per_tx(m.barriers));
    if let Some(served) = served {
        emit("tm_server.batch_width_mean", served as f64 / tx);
        emit(
            "tm_server.groups_per_kreq",
            1000.0 * tx / served.max(1) as f64,
        );
        emit("tm_server.shed_frac", per_tx(tm.shed_commits));
    }
}

fn emit_virt(r: &RunResult, rep: &Rep, m: &Totals, is_server: bool) {
    emit(
        "tx_per_mwu",
        rep.done as f64 * 1e6 / r.makespan.max(1) as f64,
    );
    emit("makespan_wu", r.makespan as f64);
    emit("host_s", r.elapsed.as_secs_f64());
    emit(
        "kwu_per_host_s",
        r.makespan as f64 / 1e3 / r.elapsed.as_secs_f64().max(1e-9),
    );
    emit("exec_mean_wu", m.exec_mean());
    emit("exec_p50_wu", m.exec.p50() as f64);
    emit("exec_p99_wu", m.exec.p99() as f64);
    emit_count_metrics(&r.tm, &r.hw, is_server.then_some(rep.done), m);
    emit_totals(&[std::slice::from_ref(rep)]);
}

fn virt_cell<P: Proto>(a: &CellArgs, spec: &Spec) {
    // The tracer costs no virtual time, so it watches every transaction.
    trace::set_sample_every(1);
    match spec {
        Spec::Lib(s) => {
            let want = lib_expected(s, VIRT_CORES, s.virt_ops);
            let (rt, shared) = lib_runtime(s, VIRT_CORES);
            let (r, _) = run_threads_virtual::<<TracedP<P> as Proto>::Exec<'_>, _, _>(
                &rt,
                VIRT_CORES,
                s.virt_ops,
                sched(a.seed),
                |t| Nrmw::new(shared, t, NRMW_SLICES),
            );
            let rep = lib_rep_of(s, &rt, &r, s.virt_ops, 0.0, &want);
            emit_virt(&r, &rep, &Totals::of(&trace::drain()), false);
        }
        Spec::Srv(s) => {
            let opts = ServeOpts {
                admission: if a.admission_off {
                    AdmissionSpec::off()
                } else {
                    AdmissionSpec::default()
                },
                collect_responses: true,
                ..ServeOpts::default()
            };
            let out = srv_rep::<TracedP<P>>(
                s,
                &SrvRun {
                    workers: VIRT_CORES,
                    n: if a.gap > 0.0 { s.rung_n } else { s.sat_n },
                    gap: a.gap,
                    seed: a.seed,
                    mode: ServeMode::Virtual(sched(a.seed)),
                    opts: &opts,
                    check_kv: true,
                },
            );
            let m = Totals::of(&trace::drain());
            emit("sojourn_p50_wu", out.report.latency.p50() as f64);
            emit("sojourn_p99_wu", out.report.latency.p99() as f64);
            emit("sojourn_mean_wu", out.report.latency.mean());
            emit(
                "exec_wu_per_req",
                m.exec_sum as f64 / out.report.served.max(1) as f64,
            );
            emit("last_arrival_wu", out.last_arrival as f64);
            emit_virt(&out.report.run, &out.rep, &m, true);
        }
    }
}

// ----------------------------------------------------------- traced cell --

/// Uninstrumented context for the workload-body probe: plain heap loads and
/// stores, nothing of the stack in the way.
struct PlainCtx<'h> {
    heap: &'h Heap,
}

impl TxCtx for PlainCtx<'_> {
    #[inline]
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        Ok(self.heap.load(addr))
    }
    #[inline]
    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        self.heap.store(addr, val);
        Ok(())
    }
    #[inline]
    fn work(&mut self, units: u64) -> TxResult<()> {
        spin_work(units);
        Ok(())
    }
}

/// Host nanoseconds one unit of the workload (transaction / request) costs
/// when nothing but its own body runs: what no stack optimisation can remove.
fn plain_ns_per_unit(spec: &Spec, seed: u64) -> f64 {
    match spec {
        Spec::Lib(s) => {
            let (rt, shared) = lib_runtime(s, 1);
            let mut ctx = PlainCtx {
                heap: rt.system().heap(),
            };
            let mut w = Nrmw::new(shared, 0, NRMW_SLICES);
            let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
            let ops = s.wall_ops / 4;
            let t0 = Instant::now();
            for _ in 0..ops {
                w.sample(&mut rng);
                for seg in 0..w.segments() {
                    w.segment(seg, &mut ctx)
                        .expect("plain execution cannot abort");
                }
            }
            t0.elapsed().as_nanos() as f64 / ops as f64
        }
        Spec::Srv(s) => {
            let rt = TmRuntime::new(
                s.htm.clone(),
                TmConfig::default(),
                1,
                SERVER_SPEC.app_words(),
            );
            let state = ServerState::new(&rt, SERVER_SPEC);
            let reqs = gen_requests(&s.mix, &vec![0; s.wall_n / 4], seed);
            let mut ctx = PlainCtx {
                heap: rt.system().heap(),
            };
            let t0 = Instant::now();
            for r in &reqs {
                let v = state
                    .exec_op(&r.op, &mut ctx)
                    .expect("plain execution cannot abort");
                std::hint::black_box(v);
            }
            t0.elapsed().as_nanos() as f64 / reqs.len() as f64
        }
    }
}

/// What one traced rep says about where its time went, per unit
/// (transaction or request) and per thread.
struct TracedRep {
    /// Wall ns per unit per thread: the whole the shares are shares of.
    total: f64,
    /// `execute` span time per unit, and the part inside `segment` spans.
    exec: f64,
    seg: f64,
    units_per_tx: f64,
    accesses: f64,
    begins: f64,
    aborts: f64,
    barriers: f64,
    write_frac: f64,
    publishes: f64,
    val_fast: f64,
    val_walk: f64,
}

fn traced_rep_of(rep: &Rep, m: &Totals, tracer_cost: (f64, f64)) -> TracedRep {
    let units = rep.done.max(1) as f64;
    // Sampled spans stand for all transactions of the rep.
    let scale = m.tx_seen as f64 / m.tx_sampled.max(1) as f64 / units;
    let per_unit = |x: u64| x as f64 / units;
    TracedRep {
        total: WALL_THREADS as f64 * rep.elapsed_s * 1e9 / units,
        exec: m.exec_mean() * m.tx_seen as f64 / units,
        // Less what the tracer itself spent inside the `segment` spans.
        seg: (m.seg_sum as f64
            - m.seg_calls as f64 * tracer_cost.0
            - m.recorded as f64 * tracer_cost.1)
            .max(0.0)
            * scale,
        units_per_tx: units / m.tx_seen.max(1) as f64,
        accesses: per_unit(rep.hw.work_units),
        begins: per_unit(rep.hw.begins),
        aborts: per_unit(rep.hw.aborts_total()),
        barriers: m.barriers as f64 * scale,
        write_frac: m.writes as f64 / m.barriers.max(1) as f64,
        publishes: per_unit(rep.tm.shard_publishes.iter().sum()),
        val_fast: per_unit(rep.tm.val_fast_hits),
        val_walk: per_unit(rep.tm.val_fast_misses),
    }
}

fn median_of(reps: &[TracedRep], f: impl Fn(&TracedRep) -> f64) -> f64 {
    Summary::of(reps.iter().map(f).collect()).median
}

fn cell_traced(a: &CellArgs, spec: &Spec) {
    trace::set_sample_every(64);
    let mut traced_reps: Vec<TracedRep> = Vec::new();
    let mut merged = Totals::default();
    let mut kept: Vec<ThreadTrace> = Vec::new();
    let tracer_cost = trace::self_cost_ns();
    let mut after_traced = |rep: &Rep| {
        let traces = trace::drain();
        merged = Totals::of(&traces);
        traced_reps.push(traced_rep_of(rep, &merged, tracer_cost));
        kept = traces;
    };
    let mut gen_ns_per_req = 0.0;
    let mut batch_speedup = 0.0;

    let reps = match spec {
        Spec::Lib(s) => {
            let want = lib_expected(s, WALL_THREADS, s.wall_ops);
            round_robin(
                &mut [
                    &mut || lib_wall_rep::<PartHtmP>(s, &want),
                    &mut || {
                        let rep = lib_wall_rep::<TracedP<PartHtmP>>(s, &want);
                        after_traced(&rep);
                        rep
                    },
                    &mut || lib_wall_rep::<HtmGlP>(s, &want),
                ],
                a.seconds,
            )
        }
        Spec::Srv(s) => {
            let opts = ServeOpts::default();
            let unbatched = ServeOpts {
                batch_max: 1,
                ..ServeOpts::default()
            };
            let mut gen = Vec::new();
            let reps = round_robin(
                &mut [
                    &mut || {
                        let out = srv_wall_rep::<PartHtmP>(s, a.seed, &opts, false);
                        gen.push(out.gen_s * 1e9 / s.wall_n as f64);
                        out.rep
                    },
                    &mut || {
                        let rep = srv_wall_rep::<TracedP<PartHtmP>>(s, a.seed, &opts, false).rep;
                        after_traced(&rep);
                        rep
                    },
                    &mut || srv_wall_rep::<HtmGlP>(s, a.seed, &opts, false).rep,
                    &mut || srv_wall_rep::<PartHtmP>(s, a.seed, &unbatched, false).rep,
                ],
                a.seconds,
            );
            gen_ns_per_req = Summary::of(gen).median;
            batch_speedup = rates(&reps[0]).median / rates(&reps[3]).median;
            reps
        }
    };
    let untraced = rates(&reps[0]).median;
    let traced = rates(&reps[1]).median;

    // Layer probes on the last traced rep's sampled transactions, against a
    // scratch runtime of the same geometry.
    let txs: Vec<_> = kept
        .iter()
        .flat_map(|t| t.tx_accesses.iter().cloned())
        .collect();
    let (htm, app_words) = match spec {
        Spec::Lib(s) => (s.htm.clone(), s.params.app_words()),
        Spec::Srv(s) => (s.htm.clone(), SERVER_SPEC.app_words()),
    };
    // Same thread count as the traced run: the heap layout, and with it every
    // recorded address, depends on it.
    let scratch = TmRuntime::new(htm, TmConfig::default(), WALL_THREADS, app_words);
    let c = probe::run(&scratch, &txs);
    let plain = plain_ns_per_unit(spec, a.seed);

    let t = &traced_reps;
    let total = median_of(t, |r| r.total);
    // Lower layers' estimated ns per unit, split by where the time sits:
    // inside `segment` spans (barriers) or in the executor's own span.
    let mix =
        |r: &TracedRep, read: f64, write: f64| read * (1.0 - r.write_frac) + write * r.write_frac;
    let htm_barrier = median_of(t, |r| r.accesses * mix(r, c.read_body, c.write_body));
    let htm_self = median_of(t, |r| {
        r.accesses * mix(r, c.read - c.read_body, c.write - c.write_body)
            + r.begins * c.begin_commit
            + r.aborts * (c.abort - c.begin_commit).max(0.0)
    });
    let sig_barrier = median_of(t, |r| r.barriers * c.sig_add);
    let sig_self = median_of(t, |r| {
        r.publishes * c.publish + r.val_fast * c.validate_fast + r.val_walk * c.validate_walk
    });
    let exec_self = median_of(t, |r| r.exec - r.seg);
    let outside = median_of(t, |r| r.total - r.exec);
    let is_server = matches!(spec, Spec::Srv(_));

    let htm_share = (htm_barrier + htm_self) / total;
    let sig_share = (sig_barrier + sig_self) / total;
    let core_share = (exec_self - htm_self - sig_self) / total;
    let workload_share = plain / total;
    let server_share = if is_server { outside / total } else { 0.0 };

    emit("htm_sim.probe_ns_per_read", c.read);
    emit("htm_sim.probe_ns_per_write", c.write);
    emit("htm_sim.probe_ns_per_begin_commit", c.begin_commit);
    emit("htm_sim.probe_ns_per_abort", c.abort);
    emit("htm_sim.est_share", htm_share);
    emit("tm_sig.probe_ns_per_sig_add", c.sig_add);
    emit("tm_sig.probe_ns_per_intersect", c.intersect);
    emit("tm_sig.probe_ns_per_publish", c.publish);
    emit("tm_sig.probe_ns_per_validate_fast", c.validate_fast);
    emit("tm_sig.probe_ns_per_validate_walk", c.validate_walk);
    emit("tm_sig.est_share", sig_share);
    emit("core.execute_ns_p50", merged.exec.p50() as f64);
    emit("core.execute_ns_p99", merged.exec.p99() as f64);
    emit(
        "core.execute_self_ns_per_tx",
        median_of(t, |r| (r.exec - r.seg) * r.units_per_tx),
    );
    emit("core.self_share", core_share);
    emit(
        "workload.segment_ns_per_tx",
        median_of(t, |r| r.seg * r.units_per_tx),
    );
    emit("workload.share", workload_share);
    emit(
        "tm_server.outside_execute_ns_per_req",
        if is_server { outside } else { 0.0 },
    );
    emit("tm_server.share", server_share);
    emit("tm_server.batch_speedup_wall", batch_speedup);
    emit("tm_harness.gen_ns_per_req", gen_ns_per_req);
    emit("tm_harness.trace_overhead_frac", 1.0 - traced / untraced);
    emit(
        "tm_harness.share_sum",
        htm_share + sig_share + core_share + workload_share + server_share,
    );
    emit("baseline.htmgl_wall_tx_per_s", rates(&reps[2]).median);

    let path = std::path::Path::new(&a.out_dir).join(format!("trace-{}.jsonl", a.workload));
    let written =
        std::fs::create_dir_all(&a.out_dir).and_then(|()| trace::write_jsonl(&path, &kept));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    let all: Vec<&[Rep]> = reps.iter().map(Vec::as_slice).collect();
    emit_totals(&all);
}

/// Entry point of `perfbench cell`: run it, print `K <key> <value>` lines.
pub fn run(a: &CellArgs) -> Result<(), String> {
    let spec = spec_of(&a.workload).ok_or_else(|| format!("unknown workload {}", a.workload))?;
    if let Some(slot) = a.pin {
        sys::pin_to_allowed_cpu(slot);
    }
    run_spec(a, &spec)?;
    for (k, v) in take_output() {
        println!("K {k} {v}");
    }
    Ok(())
}

/// Run the cell `a` describes on `spec`, leaving its output for
/// [`take_output`].
pub fn run_spec(a: &CellArgs, spec: &Spec) -> Result<(), String> {
    match (a.kind.as_str(), a.proto.as_str()) {
        ("wall", _) => cell_wall(a, spec),
        ("traced", _) => cell_traced(a, spec),
        ("virt", "parthtm") => virt_cell::<PartHtmP>(a, spec),
        ("virt", "parthtmo") => virt_cell::<PartHtmOP>(a, spec),
        ("virt", "htmgl") => virt_cell::<HtmGlP>(a, spec),
        (kind, proto) => return Err(format!("unknown cell {kind}/{proto}")),
    }
    Ok(())
}
