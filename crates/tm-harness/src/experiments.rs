//! One entry per table and figure of the paper's evaluation (§7), with the
//! workload parameters and per-experiment HTM geometry.

use crate::algo::{run_cell, run_cell_virtual, Algo};
use crate::driver::run_threads_virtual_harvest;
use crate::report::{StatsReport, Table, Unit};
use htm_sim::registry::{AccessKind, DoomCause};
use htm_sim::trace::{Event, Trace};
use htm_sim::vclock::SchedSpec;
use htm_sim::{AbortCode, BackendKind, HtmConfig};
use part_htm_core::planner::EWMA_ONE;
use part_htm_core::{
    PartHtm, PartHtmO, Region, TmConfig, TmExecutor, TmRuntime, TmStats, Workload,
};
use std::collections::BTreeMap;
use tm_baselines::HtmGl;
use tm_workloads::stamp::{genome, intruder, kmeans, labyrinth, ssca2, vacation, yada};
use tm_workloads::{eigen, list, micro};

/// Options common to every experiment invocation.
#[derive(Clone, Debug)]
pub struct ExpOpts {
    /// Thread counts to sweep (default: per experiment, as in the paper's x axes).
    pub threads: Option<Vec<usize>>,
    /// Multiplier on the per-cell transaction count (1.0 = defaults; smaller is
    /// faster and noisier).
    pub scale: f64,
    /// Restrict the algorithm set.
    pub algos: Option<Vec<Algo>>,
    /// Also gather a Table-1-style statistics report (abort causes, commit paths)
    /// per algorithm at the sweep's last thread count, rendered under the series.
    pub stats: bool,
    /// Repetitions per cell; cells report the mean throughput ("All data points are
    /// the average of 5 repeated execution", §7). Default 1 for speed.
    pub reps: usize,
    /// Override `TmConfig::plan_group` for the whole sweep: `Some(false)` pins
    /// the declared per-segment plan (`plan_group: Some(1)`, the paper's
    /// hand-tuned hints), `Some(true)` lets the planner learn merge widths
    /// (`None`), `None` keeps the default. Fast-path demotion is learned
    /// either way.
    pub adaptive: Option<bool>,
    /// The HTM capacity model every cell runs on (`tsx`, the default, or
    /// `power` / `limited`; see docs/backends.md).
    pub backend: BackendKind,
}

impl Default for ExpOpts {
    fn default() -> Self {
        Self {
            threads: None,
            scale: 1.0,
            algos: None,
            stats: false,
            reps: 1,
            adaptive: None,
            backend: BackendKind::Tsx,
        }
    }
}

/// Apply an [`ExpOpts::adaptive`] override to `tm`.
fn pin_plan(tm: &mut TmConfig, adaptive: Option<bool>) {
    if let Some(learn) = adaptive {
        tm.plan_group = if learn { None } else { Some(1) };
    }
}

/// All experiment ids, in paper order.
pub const ALL_IDS: &[&str] = &[
    "table1", "fig3a", "fig3b", "fig3c", "fig4a", "fig4b", "fig5a", "fig5b", "fig5c", "fig5d",
    "fig5e", "fig5f", "fig5g", "fig5h", "fig5i", "fig6a", "fig6b", "vsweep", "explain",
];

/// The paper's micro-benchmark thread axis (up to the 18-core Xeon).
const WIDE_THREADS: &[usize] = &[1, 2, 4, 8, 12, 16, 18];
/// The paper's application thread axis (the 4-core/8-thread Haswell).
const APP_THREADS: &[usize] = &[1, 2, 4, 6, 8];

struct FigSpec {
    id: &'static str,
    title: &'static str,
    unit: Unit,
    threads: Vec<usize>,
    ops: usize,
    algos: Vec<Algo>,
    stats: bool,
    reps: usize,
    adaptive: Option<bool>,
    backend: BackendKind,
}

impl FigSpec {
    fn new(
        id: &'static str,
        title: &'static str,
        unit: Unit,
        opts: &ExpOpts,
        wide: bool,
        base_ops: usize,
    ) -> Self {
        let threads = opts.threads.clone().unwrap_or_else(|| {
            if wide {
                WIDE_THREADS.to_vec()
            } else {
                APP_THREADS.to_vec()
            }
        });
        let algos = opts
            .algos
            .clone()
            .unwrap_or_else(|| Algo::COMPETITORS.to_vec());
        let ops = ((base_ops as f64 * opts.scale) as usize).max(1);
        Self {
            id,
            title,
            unit,
            threads,
            ops,
            algos,
            stats: opts.stats,
            reps: opts.reps.max(1),
            adaptive: opts.adaptive,
            backend: opts.backend,
        }
    }

    fn with_no_fast(mut self) -> Self {
        if !self.algos.contains(&Algo::PartHtmNoFast) {
            self.algos.push(Algo::PartHtmNoFast);
        }
        self
    }
}

/// Generic figure runner: a thread sweep per algorithm, optionally normalised by
/// single-threaded sequential throughput (speed-up figures).
fn figure<S, W>(
    spec: FigSpec,
    htm_for: impl Fn(usize) -> HtmConfig,
    tm: TmConfig,
    app_words_for: impl Fn(usize) -> usize,
    init: impl Fn(&TmRuntime) -> S,
    make: impl Fn(S, usize) -> W + Sync,
) -> Table
where
    S: Copy + Send + Sync,
    W: Workload + Send,
{
    let mut tm = tm;
    pin_plan(&mut tm, spec.adaptive);
    // Wrap the per-experiment geometry so `--backend` routes every cell through
    // the selected capacity model.
    let htm_for = |threads: usize| HtmConfig {
        backend: spec.backend,
        ..htm_for(threads)
    };
    // Mean throughput of one (algo, threads) cell over `reps` fresh runs.
    let mean_cell = |algo: Algo, threads: usize| {
        let mut sum = 0.0;
        let mut last = None;
        for _ in 0..spec.reps {
            let r = run_cell(
                algo,
                threads,
                spec.ops,
                htm_for(threads),
                tm.clone(),
                app_words_for(threads),
                &init,
                &make,
            );
            sum += r.throughput();
            last = Some(r);
        }
        (sum / spec.reps as f64, last.expect("reps >= 1"))
    };

    let denom = if spec.unit == Unit::Speedup {
        mean_cell(Algo::Sequential, 1).0
    } else {
        1.0
    };

    let mut table = Table::new(
        spec.id,
        spec.title,
        spec.unit,
        spec.algos.iter().map(|a| a.name()).collect(),
    );
    let last = *spec.threads.last().expect("at least one thread count");
    for &t in &spec.threads {
        let mut row = Vec::with_capacity(spec.algos.len());
        for &algo in &spec.algos {
            let (mean, last_run) = mean_cell(algo, t);
            row.push(mean / denom);
            if spec.stats && t == last {
                table.reports.push(StatsReport::from_run(&last_run));
            }
        }
        table.push_row(t, row);
    }
    table
}

/// Fig. 3(a): N-Reads-M-Writes, N = M = 10 (everything fits HTM).
pub fn fig3a(opts: &ExpOpts) -> Table {
    let p = micro::NrmwParams::fig3a();
    figure(
        FigSpec::new(
            "fig3a",
            "N-Reads M-Writes, N=M=10, disjoint",
            Unit::Throughput,
            opts,
            true,
            3000,
        ),
        |_t| HtmConfig::default(),
        TmConfig::default(),
        |_t| p.app_words(),
        move |rt| micro::init(rt, &p),
        move |s, t| micro::Nrmw::new(s, t, 64),
    )
}

/// Fig. 3(b): N = array, M = 100 — space-limited transactions. The per-thread
/// transactional read budget shrinks with concurrency (shared-cache pressure),
/// which is the paper's explanation for HTM-GL's collapse past 8 threads.
pub fn fig3b(opts: &ExpOpts) -> Table {
    let p = micro::NrmwParams::fig3b();
    figure(
        FigSpec::new(
            "fig3b",
            "N-Reads M-Writes, N=array (10k scaled), M=100",
            Unit::Throughput,
            opts,
            true,
            60,
        )
        .with_no_fast(),
        |t| HtmConfig {
            read_lines_max: (11_000 / t).max(64),
            ..HtmConfig::default()
        },
        TmConfig::default(),
        |_t| p.app_words(),
        move |rt| micro::init(rt, &p),
        move |s, t| micro::Nrmw::new(s, t, 64),
    )
}

/// Fig. 3(c): 100 x (read, FP work, write) — time-limited transactions, 4 sub-HTM
/// segments of 25 iterations.
pub fn fig3c(opts: &ExpOpts) -> Table {
    let p = micro::NrmwParams::fig3c();
    figure(
        FigSpec::new(
            "fig3c",
            "N-Reads M-Writes, N=M=100 with FP work (time-limited)",
            Unit::Throughput,
            opts,
            false,
            300,
        ),
        |_t| HtmConfig {
            quantum: 40_000,
            ..HtmConfig::default()
        },
        TmConfig::default(),
        |_t| p.app_words(),
        move |rt| micro::init(rt, &p),
        move |s, t| micro::Nrmw::new(s, t, 64),
    )
}

fn list_fig(
    id: &'static str,
    title: &'static str,
    p: list::ListParams,
    base_ops: usize,
    opts: &ExpOpts,
) -> Table {
    figure(
        FigSpec::new(id, title, Unit::Throughput, opts, false, base_ops),
        |_t| HtmConfig::default(),
        TmConfig::default(),
        move |_t| p.app_words(),
        move |rt| list::init(rt, &p),
        move |s, _t| list::ListWorkload::new(s),
    )
}

/// Fig. 4(a): linked list, 1 K elements, 50 % writes.
pub fn fig4a(opts: &ExpOpts) -> Table {
    list_fig(
        "fig4a",
        "Linked list, 1K elements, 50% writes",
        list::ListParams::fig4a(),
        1500,
        opts,
    )
}

/// Fig. 4(b): linked list, 10 K elements, 50 % writes.
pub fn fig4b(opts: &ExpOpts) -> Table {
    list_fig(
        "fig4b",
        "Linked list, 10K elements, 50% writes",
        list::ListParams::fig4b(),
        120,
        opts,
    )
}

/// Fig. 5(a): Kmeans, low contention (speed-up over sequential).
pub fn fig5a(opts: &ExpOpts) -> Table {
    let p = kmeans::KmeansParams::low_contention();
    figure(
        FigSpec::new(
            "fig5a",
            "Kmeans, low contention",
            Unit::Speedup,
            opts,
            false,
            4000,
        ),
        |_t| HtmConfig::default(),
        TmConfig::default(),
        move |_t| p.app_words(),
        move |rt| kmeans::init(rt, &p),
        move |s, _t| kmeans::Kmeans::new(s),
    )
}

/// Fig. 5(b): Kmeans, high contention.
pub fn fig5b(opts: &ExpOpts) -> Table {
    let p = kmeans::KmeansParams::high_contention();
    figure(
        FigSpec::new(
            "fig5b",
            "Kmeans, high contention",
            Unit::Speedup,
            opts,
            false,
            4000,
        ),
        |_t| HtmConfig::default(),
        TmConfig::default(),
        move |_t| p.app_words(),
        move |rt| kmeans::init(rt, &p),
        move |s, _t| kmeans::Kmeans::new(s),
    )
}

/// Fig. 5(c): SSCA2.
pub fn fig5c(opts: &ExpOpts) -> Table {
    let p = ssca2::Ssca2Params::default_scale();
    figure(
        FigSpec::new("fig5c", "SSCA2", Unit::Speedup, opts, false, 8000),
        |_t| HtmConfig::default(),
        TmConfig::default(),
        move |_t| p.app_words(),
        move |rt| ssca2::init(rt, &p),
        move |s, _t| ssca2::Ssca2::new(s),
    )
}

/// Fig. 5(d): Labyrinth (the resource-failure-dominated application, cf. Table 1).
pub fn fig5d(opts: &ExpOpts) -> Table {
    let p = labyrinth::LabyrinthParams::default_scale();
    figure(
        FigSpec::new("fig5d", "Labyrinth", Unit::Speedup, opts, false, 40),
        |_t| HtmConfig {
            interrupt_prob: 5e-6,
            ..HtmConfig::default()
        },
        TmConfig::default(),
        move |_t| p.app_words(),
        move |rt| labyrinth::init(rt, &p),
        move |s, t| labyrinth::Labyrinth::new(s, t as u64 + 1),
    )
}

/// Fig. 5(e): Intruder.
pub fn fig5e(opts: &ExpOpts) -> Table {
    let p = intruder::IntruderParams::default_scale();
    figure(
        FigSpec::new("fig5e", "Intruder", Unit::Speedup, opts, false, 4000),
        |_t| HtmConfig::default(),
        TmConfig::default(),
        move |_t| p.app_words(),
        move |rt| intruder::init(rt, &p),
        move |s, _t| intruder::Intruder::new(s),
    )
}

/// Fig. 5(f): Vacation, low contention.
pub fn fig5f(opts: &ExpOpts) -> Table {
    let p = vacation::VacationParams::low_contention();
    figure(
        FigSpec::new(
            "fig5f",
            "Vacation, low contention",
            Unit::Speedup,
            opts,
            false,
            1200,
        ),
        |_t| HtmConfig::default(),
        TmConfig::default(),
        move |_t| p.app_words(),
        move |rt| vacation::init(rt, &p),
        move |s, _t| vacation::Vacation::new(s),
    )
}

/// Fig. 5(g): Vacation, high contention.
pub fn fig5g(opts: &ExpOpts) -> Table {
    let p = vacation::VacationParams::high_contention();
    figure(
        FigSpec::new(
            "fig5g",
            "Vacation, high contention",
            Unit::Speedup,
            opts,
            false,
            1200,
        ),
        |_t| HtmConfig::default(),
        TmConfig::default(),
        move |_t| p.app_words(),
        move |rt| vacation::init(rt, &p),
        move |s, _t| vacation::Vacation::new(s),
    )
}

/// Fig. 5(h): Yada.
pub fn fig5h(opts: &ExpOpts) -> Table {
    let p = yada::YadaParams::default_scale();
    figure(
        FigSpec::new("fig5h", "Yada", Unit::Speedup, opts, false, 150),
        |_t| HtmConfig::default(),
        TmConfig::default(),
        move |_t| p.app_words(),
        move |rt| yada::init(rt, &p),
        move |s, _t| yada::Yada::new(s),
    )
}

/// Fig. 5(i): Genome.
pub fn fig5i(opts: &ExpOpts) -> Table {
    let p = genome::GenomeParams::default_scale();
    figure(
        FigSpec::new("fig5i", "Genome", Unit::Speedup, opts, false, 3000),
        |_t| HtmConfig::default(),
        TmConfig::default(),
        move |_t| p.app_words(),
        move |rt| genome::init(rt, &p),
        move |s, _t| genome::Genome::new(s),
    )
}

/// Fig. 6(a): EigenBench, 50 % long / 50 % short transactions.
pub fn fig6a(opts: &ExpOpts) -> Table {
    let p = eigen::EigenParams::fig6a();
    figure(
        FigSpec::new(
            "fig6a",
            "EigenBench, 50% long / 50% short",
            Unit::Speedup,
            opts,
            false,
            400,
        ),
        |_t| HtmConfig {
            quantum: 30_000,
            ..HtmConfig::default()
        },
        TmConfig::default(),
        move |t| p.app_words(t.max(1)),
        move |rt| eigen::init(rt, &p),
        move |s, t| eigen::Eigen::new(s, t, 64),
    )
}

/// Fig. 6(b): EigenBench, high contention.
pub fn fig6b(opts: &ExpOpts) -> Table {
    let p = eigen::EigenParams::fig6b();
    figure(
        FigSpec::new(
            "fig6b",
            "EigenBench, high contention (hot array)",
            Unit::Speedup,
            opts,
            false,
            120,
        ),
        |_t| HtmConfig::default(),
        TmConfig::default(),
        move |t| p.app_words(t.max(1)),
        move |rt| eigen::init(rt, &p),
        move |s, t| eigen::Eigen::new(s, t, 64),
    )
}

/// Table 1: abort-cause and commit-path statistics for HTM-GL (row A) vs Part-HTM
/// (row B) on Labyrinth at 4 threads.
pub fn table1(opts: &ExpOpts) -> String {
    let p = labyrinth::LabyrinthParams::default_scale();
    let ops = ((60.0 * opts.scale) as usize).max(1);
    let threads = opts
        .threads
        .as_ref()
        .and_then(|t| t.first().copied())
        .unwrap_or(4);
    let mut tm = TmConfig::default();
    pin_plan(&mut tm, opts.adaptive);
    let mut out = String::new();
    out.push_str(&format!(
        "# table1 — Labyrinth statistics, {threads} threads: HTM-GL (A) vs Part-HTM (B)\n"
    ));
    out.push_str(&StatsReport::header());
    out.push('\n');
    for algo in [Algo::HtmGl, Algo::PartHtm] {
        let r = run_cell(
            algo,
            threads,
            ops,
            // A small per-operation interrupt probability reproduces Table 1's
            // "other" abort column (timer and asynchronous interrupts on long
            // hardware attempts).
            HtmConfig {
                interrupt_prob: 5e-6,
                backend: opts.backend,
                ..HtmConfig::default()
            },
            tm.clone(),
            p.app_words(),
            |rt| labyrinth::init(rt, &p),
            |s, t| labyrinth::Labyrinth::new(s, t as u64 + 1),
        );
        out.push_str(&StatsReport::from_run(&r).render_row());
        out.push('\n');
    }
    out
}

/// `vsweep`: the fig3a workload (N-Reads-M-Writes, N=M=10, disjoint pools) on
/// 1/2/4/8 *simulated* cores under the discrete-event virtual clock. Unlike
/// the wall-clock sweeps — which on a 1-core CI host measure host scheduling
/// noise around a flat line — every cell here is a deterministic function of
/// the schedule spec: conflict resolution, commits and timer aborts happen in
/// virtual-timestamp order, and throughput is commits per million simulated
/// work units. The same numbers reproduce on any host.
pub fn vsweep(opts: &ExpOpts) -> Table {
    let p = micro::NrmwParams::fig3a();
    let threads = opts.threads.clone().unwrap_or_else(|| vec![1, 2, 4, 8]);
    let algos = opts
        .algos
        .clone()
        .unwrap_or_else(|| Algo::COMPETITORS.to_vec());
    let ops = ((150.0 * opts.scale) as usize).max(1);
    let mut tm = TmConfig::default();
    pin_plan(&mut tm, opts.adaptive);
    let mut table = Table::new(
        "vsweep",
        "virtual-time scaling, N-Reads M-Writes N=M=10 disjoint (deterministic)",
        Unit::VirtualThroughput,
        algos.iter().map(|a| a.name()).collect(),
    );
    for &t in &threads {
        let mut row = Vec::with_capacity(algos.len());
        for &algo in &algos {
            // One run per cell: the cell is deterministic, repetitions would
            // reproduce the identical number.
            let (r, _) = run_cell_virtual(
                algo,
                t,
                ops,
                HtmConfig {
                    backend: opts.backend,
                    ..HtmConfig::default()
                },
                tm.clone(),
                p.app_words(),
                SchedSpec::default(),
                |rt| micro::init(rt, &p),
                |s, tid| micro::Nrmw::new(s, tid, 64),
            );
            row.push(r.virtual_throughput());
        }
        table.push_row(t, row);
    }
    table
}

/// perfbench's `nrmw_capacity` shape (`microbench`'s `plan` rows run it too): 768
/// reads + 16 writes in 32 fine-grained segments against a 64-line read
/// budget — every transaction takes the partitioned path. Run with 64 slices
/// per array ([`micro::Nrmw::new`]), like every figure in the tree.
pub fn capacity_shape() -> (micro::NrmwParams, HtmConfig) {
    let params = micro::NrmwParams {
        array_len: 4_000,
        n_reads: 768,
        m_writes: 16,
        work_per_iter: 0,
        segments: 8,
        stride: 1,
    }
    .fine_grained();
    let htm = HtmConfig {
        read_lines_max: 64,
        ..HtmConfig::default()
    };
    (params, htm)
}

/// One aborted hardware attempt of a warm-up: its abort code, the work units
/// it spent and, for a conflict abort, the access that doomed it.
pub type WarmupAttempt = (AbortCode, u64, Option<DoomCause>);

/// A core's warm-up, read from its hardware trace: the attempts that aborted
/// before its first hardware commit (a sub-HTM commit included). `None` when
/// the core never committed in hardware. The trace must not have overflowed
/// before that commit.
pub fn warm_up(trace: &Trace) -> Option<Vec<WarmupAttempt>> {
    let committed = trace.events().any(|ev| matches!(ev, Event::Commit { .. }));
    committed.then(|| {
        trace
            .events()
            .take_while(|ev| !matches!(ev, Event::Commit { .. }))
            .filter_map(|ev| match ev {
                Event::Abort {
                    code, work, cause, ..
                } => Some((*code, *work, *cause)),
                _ => None,
            })
            .collect()
    })
}

/// One `explain` cell: run the capacity shape under `E` with the hardware
/// trace on and append its conflict aborts, tallied by the doomer's region and
/// access kind, to `out`, then each core's warm-up: the hardware attempts that
/// died before its first commit, which set the cell's tail latency; then the
/// planner's state per site.
fn explain_cell<'r, E: TmExecutor<'r>>(
    rt: &'r TmRuntime,
    shared: micro::NrmwShared,
    cores: usize,
    ops: usize,
    out: &mut String,
) {
    let (r, _, traces) = run_threads_virtual_harvest::<E, _, _, _, _>(
        rt,
        cores,
        ops,
        SchedSpec::default(),
        |t| micro::Nrmw::new(shared, t, 64),
        |e| {
            let trace = &e.thread().hw.trace;
            let causes: Vec<DoomCause> = trace
                .events()
                .filter_map(|ev| match ev {
                    Event::Abort { cause, .. } => *cause,
                    _ => None,
                })
                .collect();
            (
                causes,
                warm_up(trace),
                trace.recorded() > trace.len() as u64,
            )
        },
    );
    let mut tally: BTreeMap<(Region, AccessKind), u64> = BTreeMap::new();
    let mut overflowed = false;
    let mut warmups = Vec::new();
    for (causes, warmup, lost) in traces {
        overflowed |= lost;
        for c in causes {
            *tally.entry((rt.region_of(c.line), c.kind)).or_default() += 1;
        }
        warmups.push(warmup);
    }
    let mut rows: Vec<_> = tally.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out.push_str(&format!(
        "## {}: {:.1} tx/Mwu, commits htm/sub-htm/gl {}/{}/{}, sub-HTM aborts {}, global aborts {}, conflict aborts {}\n",
        r.algo,
        r.virtual_throughput(),
        r.tm.commits_htm,
        r.tm.commits_subhtm,
        r.tm.commits_gl,
        r.tm.sub_aborts,
        r.tm.global_aborts,
        r.hw.aborts_conflict,
    ));
    if overflowed {
        out.push_str("(trace ring overflowed: the oldest aborts are missing below)\n");
    }
    out.push_str(&format!("{:<24} {:<9} {:>7}\n", "doomed on", "by a", "aborts"));
    for ((region, kind), n) in rows {
        out.push_str(&format!("{:<24} {:<9} {:>7}\n", region.to_string(), kind.to_string(), n));
    }
    out.push_str("warm-up: aborted attempts before the core's first commit (code, wu, doomed on)\n");
    for (core, warmup) in warmups.iter().enumerate() {
        let Some(warmup) = warmup else {
            out.push_str(&format!("core {core}: no hardware commit\n"));
            continue;
        };
        let attempts: Vec<String> = warmup
            .iter()
            .map(|(code, work, cause)| match cause {
                Some(c) => format!("{code} {work} {}", rt.region_of(c.line)),
                None => format!("{code} {work}"),
            })
            .collect();
        let wu: u64 = warmup.iter().map(|a| a.1).sum();
        out.push_str(&format!("core {core}: {wu} wu: {}\n", attempts.join(", ")));
    }
    explain_planner(rt, &r.tm, out);
}

/// The planner's state after a cell: the run's routing counters, then per
/// site its plan group (seeded from a failed quiet attempt's footprint or
/// learned), its demotion state and its routed exits.
fn explain_planner(rt: &TmRuntime, tm: &TmStats, out: &mut String) {
    let sites: Vec<_> = rt.sites().claimed().collect();
    if sites.is_empty() {
        return;
    }
    out.push_str(&format!(
        "planner: {} demoted tx, {} fast exits to the partitioned path, {} plan merges, {} plan splits\n",
        tm.site_demotions, tm.fallbacks_partitioned, tm.plan_merges, tm.plan_splits,
    ));
    for (site, slot) in sites {
        let group = match slot.seed() {
            0 => format!("group {} (learned)", slot.plan_group()),
            seed => format!("group {} (seeded {seed})", slot.plan_group()),
        };
        let state = if slot.wants_demotion(None) {
            "demoting"
        } else {
            "admitting"
        };
        out.push_str(&format!(
            "site {site}: {group}, limit {}; resource EWMA {}/{EWMA_ONE}, {state}; {} tx, {} routed exits\n",
            slot.plan_limit(),
            slot.resource_ewma(),
            slot.ticks(),
            slot.routed_exits(),
        ));
    }
}

/// `explain`: who aborted whom, on what. The perfbench `nrmw_capacity` shape
/// ([`capacity_shape`]) on simulated cores under the default schedule, with
/// the hardware event trace on: every conflict abort is attributed to the
/// access that doomed it (`htm_sim::registry::DoomCause`), the line mapped to
/// its region of the runtime's layout ([`TmRuntime::region_of`]). Deterministic,
/// so the table is byte-reproducible. `--threads N` sets the core count
/// (default 4), `--scale` the 25 transactions per core, `--algos` picks among
/// Part-HTM, Part-HTM-O and HTM-GL (default all three).
pub fn explain(opts: &ExpOpts) -> String {
    let (p, htm) = capacity_shape();
    let htm = HtmConfig {
        trace_capacity: 1 << 16,
        backend: opts.backend,
        ..htm
    };
    let mut tm = TmConfig::default();
    pin_plan(&mut tm, opts.adaptive);
    let cores = opts
        .threads
        .as_ref()
        .and_then(|t| t.first().copied())
        .unwrap_or(4);
    let ops = ((25.0 * opts.scale) as usize).max(1);
    let mut out = format!(
        "# explain — conflict aborts by region: nrmw_capacity shape, {cores} simulated cores x {ops} tx\n"
    );
    for algo in [Algo::PartHtm, Algo::PartHtmO, Algo::HtmGl] {
        if opts.algos.as_ref().is_some_and(|a| !a.contains(&algo)) {
            continue;
        }
        let rt = TmRuntime::new(htm.clone(), tm.clone(), cores, p.app_words());
        let shared = micro::init(&rt, &p);
        match algo {
            Algo::PartHtm => explain_cell::<PartHtm>(&rt, shared, cores, ops, &mut out),
            Algo::PartHtmO => explain_cell::<PartHtmO>(&rt, shared, cores, ops, &mut out),
            _ => explain_cell::<HtmGl>(&rt, shared, cores, ops, &mut out),
        }
    }
    out
}

/// Run an experiment by id and return its rendered output.
pub fn run_experiment(id: &str, opts: &ExpOpts) -> Option<String> {
    run_experiment_table(id, opts).map(|(out, _)| out)
}

/// Like [`run_experiment`], also returning the figure's [`Table`] (absent for
/// Table 1 and `explain`, whose outputs are reports rather than series tables).
pub fn run_experiment_table(id: &str, opts: &ExpOpts) -> Option<(String, Option<Table>)> {
    match id {
        "table1" => return Some((table1(opts), None)),
        "explain" => return Some((explain(opts), None)),
        _ => {}
    }
    let table = match id {
        "fig3a" => fig3a(opts),
        "fig3b" => fig3b(opts),
        "fig3c" => fig3c(opts),
        "fig4a" => fig4a(opts),
        "fig4b" => fig4b(opts),
        "fig5a" => fig5a(opts),
        "fig5b" => fig5b(opts),
        "fig5c" => fig5c(opts),
        "fig5d" => fig5d(opts),
        "fig5e" => fig5e(opts),
        "fig5f" => fig5f(opts),
        "fig5g" => fig5g(opts),
        "fig5h" => fig5h(opts),
        "fig5i" => fig5i(opts),
        "fig6a" => fig6a(opts),
        "fig6b" => fig6b(opts),
        "vsweep" => vsweep(opts),
        _ => return None,
    };
    Some((table.render(), Some(table)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExpOpts {
        ExpOpts {
            threads: Some(vec![1, 2]),
            scale: 0.02,
            algos: Some(vec![Algo::HtmGl, Algo::PartHtm]),
            stats: false,
            reps: 1,
            adaptive: None,
            backend: BackendKind::Tsx,
        }
    }

    #[test]
    fn fig3a_quick_produces_values() {
        let t = fig3a(&quick());
        assert_eq!(t.threads, vec![1, 2]);
        assert!(t.value(1, "Part-HTM").unwrap() > 0.0);
        assert!(t.value(2, "HTM-GL").unwrap() > 0.0);
    }

    #[test]
    fn fig3b_includes_no_fast_series() {
        let mut o = quick();
        o.threads = Some(vec![1]);
        let t = fig3b(&o);
        assert!(t.col("Part-HTM-no-fast").is_some());
    }

    #[test]
    fn speedup_figure_normalises() {
        let mut o = quick();
        o.threads = Some(vec![1]);
        o.scale = 0.01;
        let t = fig5c(&o);
        // Single-threaded transactional speedup is below 1 (instrumentation cost).
        let v = t.value(1, "Part-HTM").unwrap();
        assert!(v > 0.0 && v < 3.0, "speedup {v} out of plausible range");
    }

    #[test]
    fn table1_renders_both_rows() {
        let o = ExpOpts {
            threads: Some(vec![2]),
            scale: 0.05,
            algos: None,
            stats: false,
            reps: 1,
            adaptive: None,
            backend: BackendKind::Tsx,
        };
        let s = table1(&o);
        assert!(s.contains("HTM-GL"));
        assert!(s.contains("Part-HTM"));
    }

    #[test]
    fn vsweep_is_deterministic_and_non_flat() {
        let o = ExpOpts {
            threads: Some(vec![1, 2]),
            scale: 0.2,
            algos: Some(vec![Algo::PartHtm]),
            stats: false,
            reps: 1,
            adaptive: None,
            backend: BackendKind::Tsx,
        };
        let a = vsweep(&o);
        let b = vsweep(&o);
        let a1 = a.value(1, "Part-HTM").unwrap();
        let a2 = a.value(2, "Part-HTM").unwrap();
        // Bit-identical across invocations (virtual time, fixed spec)...
        assert_eq!(a1, b.value(1, "Part-HTM").unwrap());
        assert_eq!(a2, b.value(2, "Part-HTM").unwrap());
        // ... and the thread axis does something (not scheduling noise
        // around a flat line: simulated cores genuinely overlap work).
        assert_ne!(a1, a2, "1-core and 2-core cells must differ");
        assert!(a1 > 0.0 && a2 > 0.0);
    }

    #[test]
    fn backend_sweep_runs_all_three_models() {
        // The same quick figure under each explicit capacity model: all must
        // complete with non-zero throughput (the constrained models still make
        // progress via splitting / the global-lock fallback).
        let mut o = quick();
        o.threads = Some(vec![2]);
        o.scale = 0.01;
        o.algos = Some(vec![Algo::PartHtm, Algo::HtmGl]);
        for kind in [BackendKind::Tsx, BackendKind::Power, BackendKind::Limited] {
            o.backend = kind;
            let t = fig3a(&o);
            for algo in ["Part-HTM", "HTM-GL"] {
                let v = t.value(2, algo).unwrap();
                assert!(v > 0.0, "{algo} on {} produced no commits", kind.name());
            }
        }
    }

    #[test]
    fn vsweep_backend_cell_is_deterministic() {
        let o = ExpOpts {
            threads: Some(vec![2]),
            scale: 0.1,
            algos: Some(vec![Algo::PartHtm]),
            stats: false,
            reps: 1,
            adaptive: None,
            backend: BackendKind::Power,
        };
        let a = vsweep(&o);
        let b = vsweep(&o);
        assert_eq!(a.value(2, "Part-HTM"), b.value(2, "Part-HTM"));
        assert!(a.value(2, "Part-HTM").unwrap() > 0.0);
    }

    #[test]
    fn run_experiment_dispatch() {
        assert!(run_experiment("nope", &ExpOpts::default()).is_none());
        for id in ALL_IDS {
            // Only check that ids are known; running everything here would be slow.
            assert!(ALL_IDS.contains(id));
        }
    }
}
