//! Segment-planner microbenchmark: the adaptive abort-profiled planner
//! (`TmConfig::adaptive_plan`) against pinned static segmentations, from one
//! binary so the committed before/after numbers (`BENCH_6.json`) are
//! reproducible from this tree alone.
//!
//! Rows:
//!
//! * **capacity-heavy, fine-declared** — an N-Reads-M-Writes transaction that
//!   overflows the HTM read budget as a whole, declared at finest granularity
//!   (32 tiny segments, `NrmwParams::fine_grained`). Three plans:
//!   - `static-1`: `adaptive_plan: false`, `plan_group: 1` — every declared
//!     segment is its own sub-HTM transaction (the paper's semantics when the
//!     programmer's segment count is over-cautious);
//!   - `static-tuned`: `adaptive_plan: false`, `plan_group` pinned to the best
//!     hand-tuned merge width for this geometry;
//!   - `adaptive`: the planner learns the group width from capacity-class
//!     aborts and clean commits at runtime.
//! * **hint-optimal** — the Fig. 3(c) time-limited shape, whose declared 4x25
//!   segmentation is already the hand-computed optimum. The static plan *is*
//!   the best plan; the adaptive row measures the cost of learning that
//!   (merge probes that abort and split back).
//!
//! Usage: `partbench [--smoke] [--json PATH] [--baseline FILE]`
//!   --smoke      ~20x fewer iterations (CI sanity run)
//!   --json P     write machine-readable results to P ("-" for stdout)
//!   --baseline F gate against a previously committed partbench JSON:
//!                >10% regression of the adaptive capacity-heavy row, an
//!                adaptive/static-1 merge speed-up below 1.2x, or the
//!                hint-optimal adaptive row falling more than 8% behind the
//!                hand-tuned static plan, fails (exit 1). The acceptance
//!                target on the hint-optimal row is 5% (the committed
//!                `BENCH_6.json` records the measured ratio); the gate's
//!                extra 3 points absorb host noise in unattended runs.

use htm_sim::HtmConfig;
use part_htm_core::{PartHtm, TmConfig, TmRuntime};
use tm_bench::{baseline_number, emit_json, BenchArgs};
use tm_harness::experiments::capacity_shape;
use tm_harness::{run_threads, RunResult, StatsReport};
use tm_workloads::micro;

/// Worker threads for every row (matches pathbench's end-to-end stage).
const THREADS: usize = 4;
/// Hand-tuned merge width for the capacity-heavy row: 32 fine segments of
/// ~3 cache lines each against a 64-line read budget — groups of 8 (24 lines
/// plus write lines) fit with margin, groups of 16 flirt with the budget.
const TUNED_GROUP: u32 = 8;

struct Scale {
    cap_ops_per_thread: usize,
    opt_ops_per_thread: usize,
}

impl Scale {
    fn full() -> Self {
        Self {
            cap_ops_per_thread: 2_000,
            opt_ops_per_thread: 4_000,
        }
    }
    fn smoke() -> Self {
        Self {
            cap_ops_per_thread: 100,
            opt_ops_per_thread: 200,
        }
    }
}

/// The hint-optimal workload: Fig. 3(c)'s time-limited shape at test scale.
/// 25 iterations x ~600 work units per declared segment sit just under the
/// 20k quantum — the declared segmentation is the optimum.
fn optimal_params() -> micro::NrmwParams {
    micro::NrmwParams {
        array_len: 2_000,
        ..micro::NrmwParams::fig3c()
    }
}

fn optimal_htm() -> HtmConfig {
    HtmConfig {
        quantum: 20_000,
        ..HtmConfig::default()
    }
}

/// One (workload, plan) cell: best of three `PartHtm` runs at [`THREADS`]
/// threads (ops/sec = committed transactions per second).
fn bench_cell(
    p: micro::NrmwParams,
    htm: HtmConfig,
    adaptive: bool,
    plan_group: u32,
    ops_per_thread: usize,
) -> RunResult {
    let cfg = TmConfig {
        adaptive_plan: adaptive,
        plan_group,
        ..TmConfig::default()
    };
    (0..3)
        .map(|_| {
            let rt = TmRuntime::new(htm.clone(), cfg.clone(), THREADS, p.app_words());
            let shared = micro::init(&rt, &p);
            run_threads::<PartHtm, _, _>(&rt, THREADS, ops_per_thread, |t| {
                micro::Nrmw::new(shared, t, 64)
            })
        })
        .max_by(|a, b| a.throughput().total_cmp(&b.throughput()))
        .expect("three runs")
}

fn main() {
    let args = BenchArgs::parse();
    let smoke = args.smoke;
    let scale = if smoke { Scale::smoke() } else { Scale::full() };

    eprintln!("partbench: {} run", args.run_kind());

    // The capacity-heavy workload: Fig. 3(b)'s shape scaled to bench time,
    // then declared at finest granularity. The whole read set (~96 lines)
    // overflows the 64-line budget, so the fast path is futile and the
    // partitioned path carries every transaction; each fine segment alone is
    // ~3 lines.
    let (cap, cap_htm) = capacity_shape();
    eprintln!(
        "  [capacity] {} fine segments, static-1 plan...",
        cap.segments
    );
    let cap_static1 = bench_cell(cap, cap_htm.clone(), false, 1, scale.cap_ops_per_thread);
    eprintln!("  [capacity] static-tuned plan (group {TUNED_GROUP})...");
    let cap_tuned = bench_cell(
        cap,
        cap_htm.clone(),
        false,
        TUNED_GROUP,
        scale.cap_ops_per_thread,
    );
    eprintln!("  [capacity] adaptive planner...");
    let cap_adaptive = bench_cell(cap, cap_htm, true, 1, scale.cap_ops_per_thread);

    let opt = optimal_params();
    eprintln!("  [optimal] {} hand-counted segments, static plan...", opt.segments);
    let opt_static = bench_cell(opt, optimal_htm(), false, 1, scale.opt_ops_per_thread);
    eprintln!("  [optimal] adaptive planner...");
    let opt_adaptive = bench_cell(opt, optimal_htm(), true, 1, scale.opt_ops_per_thread);

    let merge_speedup = cap_adaptive.throughput() / cap_static1.throughput();
    let cap_vs_tuned = cap_adaptive.throughput() / cap_tuned.throughput();
    let opt_ratio = opt_adaptive.throughput() / opt_static.throughput();

    println!("partbench results ({} run)", args.run_kind());
    println!(
        "capacity-heavy   static-1 {:>12.0} tx/s   static-tuned {:>12.0} tx/s   adaptive {:>12.0} tx/s",
        cap_static1.throughput(),
        cap_tuned.throughput(),
        cap_adaptive.throughput()
    );
    println!(
        "                 adaptive vs static-1 {merge_speedup:>6.2}x   vs hand-tuned {cap_vs_tuned:>6.2}x"
    );
    println!(
        "hint-optimal     static   {:>12.0} tx/s   adaptive {:>12.0} tx/s   ratio {opt_ratio:>6.3}",
        opt_static.throughput(),
        opt_adaptive.throughput()
    );
    for (label, r) in [("capacity adaptive", &cap_adaptive), ("optimal adaptive", &opt_adaptive)] {
        let rep = StatsReport::from_run(r);
        if let Some(line) = rep.render_hot_path() {
            println!("[{label}] {line}");
        }
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"partbench\",\n",
            "  \"config\": {{\"smoke\": {}, \"threads\": {}, \"cap_segments\": {}, ",
            "\"tuned_group\": {}, \"opt_segments\": {}}},\n",
            "  \"capacity_heavy\": {{\"static1_ops_per_sec\": {:.0}, ",
            "\"tuned_ops_per_sec\": {:.0}, \"adaptive_ops_per_sec\": {:.0}, ",
            "\"merge_speedup\": {:.3}, \"vs_tuned\": {:.3}, ",
            "\"plan_merges\": {}, \"plan_splits\": {}, \"site_demotions\": {}, ",
            "\"retry_saves\": {}}},\n",
            "  \"hint_optimal\": {{\"static_ops_per_sec\": {:.0}, ",
            "\"adaptive_ops_per_sec\": {:.0}, \"ratio\": {:.3}, ",
            "\"plan_splits\": {}}}\n",
            "}}\n"
        ),
        smoke,
        THREADS,
        cap.segments,
        TUNED_GROUP,
        opt.segments,
        cap_static1.throughput(),
        cap_tuned.throughput(),
        cap_adaptive.throughput(),
        merge_speedup,
        cap_vs_tuned,
        cap_adaptive.tm.plan_merges,
        cap_adaptive.tm.plan_splits,
        cap_adaptive.tm.site_demotions,
        cap_adaptive.tm.adaptive_retry_saves,
        opt_static.throughput(),
        opt_adaptive.throughput(),
        opt_ratio,
        opt_adaptive.tm.plan_splits,
    );

    if let Some(path) = &args.json {
        emit_json(path, &json);
    }

    if let Some(path) = &args.baseline {
        let base = baseline_number(path, "adaptive_ops_per_sec");
        let now = cap_adaptive.throughput();
        let ratio = now / base;
        println!(
            "regression gate: capacity-heavy adaptive {now:.0} vs baseline {base:.0} ({ratio:.2}x)"
        );
        let mut failed = false;
        if ratio < 0.90 {
            eprintln!("FAIL: adaptive capacity-heavy throughput regressed more than 10% vs {path}");
            failed = true;
        }
        if merge_speedup < 1.2 {
            eprintln!(
                "FAIL: adaptive planner only {merge_speedup:.2}x over static-1 (floor 1.2x)"
            );
            failed = true;
        }
        if opt_ratio < 0.92 {
            eprintln!(
                "FAIL: adaptive planner {opt_ratio:.3} of hand-tuned static on the \
                 hint-optimal row (gate floor 0.92; acceptance target 0.95)"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }
}
