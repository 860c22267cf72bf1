//! The competitor set of the evaluation and the per-cell dispatcher.

use crate::driver::{run_threads, run_threads_virtual, RunResult};
use htm_sim::vclock::{SchedSpec, VReport};
use htm_sim::HtmConfig;
use part_htm_core::{PartHtm, PartHtmO, TmConfig, TmRuntime, Workload};
use tm_baselines::{HtmGl, NOrec, NOrecRh, RingStm, Sequential, SpHt};

/// A transactional-memory algorithm under evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    /// RingSTM (STM baseline).
    RingStm,
    /// NOrec (STM baseline).
    NOrec,
    /// Reduced-Hardware NOrec (hybrid baseline).
    NOrecRh,
    /// HTM with global-lock fallback (hardware baseline).
    HtmGl,
    /// Part-HTM (this paper).
    PartHtm,
    /// Part-HTM-O (this paper, opaque).
    PartHtmO,
    /// Part-HTM without the fast path (Fig. 3(b)'s extra series).
    PartHtmNoFast,
    /// Uninstrumented sequential execution (speed-up denominator).
    Sequential,
    /// SpHT (Lev & Maessen): lazy transaction splitting — the §3 comparison point,
    /// available for ablations (not part of the paper's figure legends).
    SpHt,
}

impl Algo {
    /// The competitor set every figure plots (the paper's legend order).
    pub const COMPETITORS: [Algo; 6] = [
        Algo::RingStm,
        Algo::NOrec,
        Algo::NOrecRh,
        Algo::HtmGl,
        Algo::PartHtm,
        Algo::PartHtmO,
    ];

    /// Display name (matches the paper's legends).
    pub fn name(self) -> &'static str {
        match self {
            Algo::RingStm => "RingSTM",
            Algo::NOrec => "NOrec",
            Algo::NOrecRh => "NOrecRH",
            Algo::HtmGl => "HTM-GL",
            Algo::PartHtm => "Part-HTM",
            Algo::PartHtmO => "Part-HTM-O",
            Algo::PartHtmNoFast => "Part-HTM-no-fast",
            Algo::Sequential => "Sequential",
            Algo::SpHt => "SpHT",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Algo> {
        let s = s.to_ascii_lowercase();
        Some(match s.as_str() {
            "ringstm" => Algo::RingStm,
            "norec" => Algo::NOrec,
            "norecrh" => Algo::NOrecRh,
            "htm-gl" | "htmgl" => Algo::HtmGl,
            "part-htm" | "parthtm" => Algo::PartHtm,
            "part-htm-o" | "parthtmo" => Algo::PartHtmO,
            "part-htm-no-fast" | "nofast" => Algo::PartHtmNoFast,
            "sequential" | "seq" => Algo::Sequential,
            "spht" => Algo::SpHt,
            _ => return None,
        })
    }
}

/// Run one experiment cell: build a fresh runtime (fresh heap, fresh metadata),
/// initialise the workload's shared state, and drive `threads x ops_per_thread`
/// transactions under `algo`.
///
/// `init` populates the heap and returns a `Copy` shared-layout handle;
/// `make(shared, thread_id)` builds each thread's workload.
#[allow(clippy::too_many_arguments)]
pub fn run_cell<S, W, I, M>(
    algo: Algo,
    threads: usize,
    ops_per_thread: usize,
    htm: HtmConfig,
    tm: TmConfig,
    app_words: usize,
    init: I,
    make: M,
) -> RunResult
where
    S: Copy + Send + Sync,
    W: Workload + Send,
    I: FnOnce(&TmRuntime) -> S,
    M: Fn(S, usize) -> W + Sync,
{
    run_cell_with(
        algo,
        threads,
        ops_per_thread,
        htm,
        tm,
        app_words,
        init,
        make,
        |_, _| (),
    )
    .0
}

/// [`run_cell`] plus a post-run hook that still sees the runtime and the shared
/// layout — for invariant verification after the measured region (e.g. conserved
/// sums), since the runtime is dropped when the cell finishes.
#[allow(clippy::too_many_arguments)]
pub fn run_cell_with<S, W, I, M, F, R>(
    algo: Algo,
    threads: usize,
    ops_per_thread: usize,
    htm: HtmConfig,
    tm: TmConfig,
    app_words: usize,
    init: I,
    make: M,
    finish: F,
) -> (RunResult, R)
where
    S: Copy + Send + Sync,
    W: Workload + Send,
    I: FnOnce(&TmRuntime) -> S,
    M: Fn(S, usize) -> W + Sync,
    F: FnOnce(&TmRuntime, S) -> R,
{
    let tm = TmConfig {
        skip_fast: tm.skip_fast || algo == Algo::PartHtmNoFast,
        ..tm
    };
    let rt = TmRuntime::new(htm, tm, threads, app_words);
    let shared = init(&rt);
    let factory = |t: usize| make(shared, t);
    let result = match algo {
        Algo::RingStm => run_threads::<RingStm, _, _>(&rt, threads, ops_per_thread, factory),
        Algo::NOrec => run_threads::<NOrec, _, _>(&rt, threads, ops_per_thread, factory),
        Algo::NOrecRh => run_threads::<NOrecRh, _, _>(&rt, threads, ops_per_thread, factory),
        Algo::HtmGl => run_threads::<HtmGl, _, _>(&rt, threads, ops_per_thread, factory),
        Algo::PartHtm | Algo::PartHtmNoFast => {
            let mut r = run_threads::<PartHtm, _, _>(&rt, threads, ops_per_thread, factory);
            r.algo = algo.name();
            r
        }
        Algo::PartHtmO => run_threads::<PartHtmO, _, _>(&rt, threads, ops_per_thread, factory),
        Algo::Sequential => {
            assert_eq!(threads, 1, "Sequential is only meaningful single-threaded");
            run_threads::<Sequential, _, _>(&rt, 1, ops_per_thread, factory)
        }
        Algo::SpHt => run_threads::<SpHt, _, _>(&rt, threads, ops_per_thread, factory),
    };
    let out = finish(&rt, shared);
    (result, out)
}

/// [`run_cell`] under the discrete-event virtual clock (`threads` = simulated
/// cores): scheduling, conflict order and timer aborts are driven by virtual
/// timestamps, so the cell's result — including the returned schedule report —
/// is bit-reproducible from `spec` alone, even on a 1-core host.
#[allow(clippy::too_many_arguments)]
pub fn run_cell_virtual<S, W, I, M>(
    algo: Algo,
    threads: usize,
    ops_per_thread: usize,
    htm: HtmConfig,
    tm: TmConfig,
    app_words: usize,
    spec: SchedSpec,
    init: I,
    make: M,
) -> (RunResult, VReport)
where
    S: Copy + Send + Sync,
    W: Workload + Send,
    I: FnOnce(&TmRuntime) -> S,
    M: Fn(S, usize) -> W + Sync,
{
    let tm = TmConfig {
        skip_fast: tm.skip_fast || algo == Algo::PartHtmNoFast,
        ..tm
    };
    let rt = TmRuntime::new(htm, tm, threads, app_words);
    let shared = init(&rt);
    let factory = |t: usize| make(shared, t);
    let ops = ops_per_thread;
    match algo {
        Algo::RingStm => run_threads_virtual::<RingStm, _, _>(&rt, threads, ops, spec, factory),
        Algo::NOrec => run_threads_virtual::<NOrec, _, _>(&rt, threads, ops, spec, factory),
        Algo::NOrecRh => run_threads_virtual::<NOrecRh, _, _>(&rt, threads, ops, spec, factory),
        Algo::HtmGl => run_threads_virtual::<HtmGl, _, _>(&rt, threads, ops, spec, factory),
        Algo::PartHtm | Algo::PartHtmNoFast => {
            let (mut r, rep) =
                run_threads_virtual::<PartHtm, _, _>(&rt, threads, ops, spec, factory);
            r.algo = algo.name();
            (r, rep)
        }
        Algo::PartHtmO => run_threads_virtual::<PartHtmO, _, _>(&rt, threads, ops, spec, factory),
        Algo::Sequential => {
            assert_eq!(threads, 1, "Sequential is only meaningful single-threaded");
            run_threads_virtual::<Sequential, _, _>(&rt, 1, ops, spec, factory)
        }
        Algo::SpHt => run_threads_virtual::<SpHt, _, _>(&rt, threads, ops, spec, factory),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_sim::abort::TxResult;
    use htm_sim::Addr;
    use part_htm_core::TxCtx;
    use rand::rngs::SmallRng;

    #[derive(Clone, Copy)]
    struct Shared(Addr);

    struct Inc(Addr);
    impl Workload for Inc {
        type Snap = ();
        fn sample(&mut self, _r: &mut SmallRng) {}
        fn segment<C: TxCtx>(&mut self, _s: usize, ctx: &mut C) -> TxResult<()> {
            let v = ctx.read(self.0)?;
            ctx.write(self.0, v + 1)
        }
    }

    #[test]
    fn every_algo_commits_the_same_total() {
        for algo in Algo::COMPETITORS {
            let r = run_cell(
                algo,
                2,
                25,
                HtmConfig::default(),
                TmConfig::default(),
                64,
                |rt| Shared(rt.app(0)),
                |s, _t| Inc(s.0),
            );
            assert_eq!(r.commits, 50, "{}", algo.name());
        }
    }

    #[test]
    fn no_fast_variant_renamed() {
        let r = run_cell(
            Algo::PartHtmNoFast,
            1,
            5,
            HtmConfig::default(),
            TmConfig::default(),
            64,
            |rt| Shared(rt.app(0)),
            |s, _t| Inc(s.0),
        );
        assert_eq!(r.algo, "Part-HTM-no-fast");
        assert_eq!(
            r.tm.commits_subhtm, 5,
            "no-fast must commit on the partitioned path"
        );
    }

    /// Writes 12 one-per-line counters in 4 declared segments — overflows a
    /// tiny L1 write budget, forcing the partitioned path and the planner.
    struct Wide(Addr);
    impl Workload for Wide {
        type Snap = ();
        fn sample(&mut self, _r: &mut SmallRng) {}
        fn segments(&self) -> usize {
            4
        }
        fn segment<C: TxCtx>(&mut self, s: usize, ctx: &mut C) -> TxResult<()> {
            for i in 0..3u32 {
                let addr = self.0 + (s as u32 * 3 + i) * 8;
                let v = ctx.read(addr)?;
                ctx.write(addr, v + 1)?;
            }
            Ok(())
        }
    }

    /// ISSUE 8 acceptance: perturbing *only* `interrupt_prob` (not capacity,
    /// not quantum) must not move the planner's split/demotion counters —
    /// injected interrupts are transient, not resource failures, so they
    /// must not feed the capacity-class profiles.
    #[test]
    fn planner_counters_ignore_interrupt_prob() {
        use htm_sim::vclock::SchedSpec;
        let run = |prob: f64| {
            let htm = HtmConfig {
                l1_sets: 4,
                l1_ways: 2,
                read_lines_max: 24,
                interrupt_prob: prob,
                ..HtmConfig::tiny()
            };
            let (r, _) = run_cell_virtual(
                Algo::PartHtm,
                1,
                60,
                htm,
                TmConfig::default(),
                12 * 8,
                SchedSpec::default(),
                |rt| Shared(rt.app(0)),
                |s, _t| Wide(s.0),
            );
            r
        };
        let base = run(0.0);
        let pert = run(5e-3);
        assert!(
            base.tm.site_demotions > 0 || base.tm.plan_splits > 0,
            "the workload must actually exercise the planner"
        );
        assert!(
            pert.hw.aborts_interrupt > 0,
            "the perturbation must actually inject interrupts"
        );
        assert_eq!(
            pert.tm.plan_splits, base.tm.plan_splits,
            "plan splits moved on an interrupt_prob-only perturbation"
        );
        assert_eq!(
            pert.tm.site_demotions, base.tm.site_demotions,
            "site demotions moved on an interrupt_prob-only perturbation"
        );
    }

    #[test]
    fn parse_roundtrip() {
        for a in Algo::COMPETITORS {
            assert_eq!(Algo::parse(a.name()), Some(a));
        }
        assert_eq!(Algo::parse("nope"), None);
    }
}
