//! Multi-threaded run driver: execute a fixed number of transactions per thread
//! under one executor and merge the statistics.

use htm_sim::vclock::{SchedSpec, VClock, VReport};
use htm_sim::HtmStats;
use part_htm_core::{TmExecutor, TmRuntime, TmStats, Workload};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The outcome of one (algorithm, thread-count) cell.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Algorithm display name.
    pub algo: &'static str,
    /// Worker threads.
    pub threads: usize,
    /// Wall-clock time of the measured region.
    pub elapsed: Duration,
    /// Committed transactions (all threads).
    pub commits: u64,
    /// Virtual-time makespan in work units (0 outside virtual-time mode): the
    /// maximum final core timestamp of the run's [`VClock`].
    pub makespan: u64,
    /// Merged protocol statistics.
    pub tm: TmStats,
    /// Merged hardware statistics.
    pub hw: HtmStats,
}

impl RunResult {
    /// Transactions per second (wall clock; meaningless for virtual runs).
    pub fn throughput(&self) -> f64 {
        self.commits as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Virtual throughput: commits per million simulated work units. The
    /// virtual-time analogue of tx/s — deterministic, host-independent, and
    /// comparable across simulated core counts (the makespan is the slowest
    /// core's finish time, so contention and serialisation show up here
    /// exactly as they would in wall-clock time on real hardware).
    pub fn virtual_throughput(&self) -> f64 {
        self.commits as f64 * 1e6 / (self.makespan.max(1) as f64)
    }
}

/// Run `ops_per_thread` transactions on each of `threads` threads under executor
/// `E`. `factory(thread_id)` builds each thread's workload; sampling uses the
/// executor thread's deterministic RNG.
pub fn run_threads<'r, E, W, F>(
    rt: &'r TmRuntime,
    threads: usize,
    ops_per_thread: usize,
    factory: F,
) -> RunResult
where
    E: TmExecutor<'r>,
    W: Workload + Send,
    F: Fn(usize) -> W + Sync,
{
    assert!(threads <= rt.threads());
    let barrier = Barrier::new(threads);
    let mut tm = TmStats::default();
    let mut hw = HtmStats::default();
    let mut elapsed = Duration::ZERO;

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = &barrier;
                let factory = &factory;
                s.spawn(move || {
                    let mut exec = E::new(rt, t);
                    let mut w = factory(t);
                    barrier.wait();
                    // Each worker times its own measured region; the cell's elapsed
                    // time is the slowest worker's, excluding spawn/join overhead
                    // (which would otherwise distort very fast cells).
                    let t0 = Instant::now();
                    for _ in 0..ops_per_thread {
                        w.sample(&mut exec.thread_mut().rng);
                        exec.execute(&mut w);
                    }
                    let loop_elapsed = t0.elapsed();
                    let th = exec.thread();
                    (th.stats.clone(), th.hw.stats.clone(), loop_elapsed)
                })
            })
            .collect();
        for h in handles {
            let (t_tm, t_hw, t_elapsed) = h.join().expect("worker panicked");
            tm.merge(&t_tm);
            hw.merge(&t_hw);
            elapsed = elapsed.max(t_elapsed);
        }
    });

    RunResult {
        algo: E::NAME,
        threads,
        elapsed,
        commits: tm.commits_total(),
        makespan: 0,
        tm,
        hw,
    }
}

/// [`run_threads`], but under a discrete-event virtual clock: worker `t` is
/// simulated core `t`, all scheduling (conflict order, commit order, timer
/// aborts, injected interrupts) is driven by virtual timestamps, and the run
/// is bit-reproducible from `spec` alone. Returns the merged statistics plus
/// the schedule report (decision trace + commit log + makespan).
///
/// The wall-clock `elapsed` field is still populated but measures host
/// simulation overhead, not performance; use
/// [`RunResult::virtual_throughput`] for comparisons.
pub fn run_threads_virtual<'r, E, W, F>(
    rt: &'r TmRuntime,
    threads: usize,
    ops_per_thread: usize,
    spec: SchedSpec,
    factory: F,
) -> (RunResult, VReport)
where
    E: TmExecutor<'r>,
    W: Workload + Send,
    F: Fn(usize) -> W + Sync,
{
    let (r, report, _) =
        run_threads_virtual_harvest::<E, _, _, _, _>(rt, threads, ops_per_thread, spec, factory, |_| ());
    (r, report)
}

/// [`run_threads_virtual`], also returning `harvest(&executor)` of every
/// worker, in core order, taken after its last transaction — per-thread state
/// the merged statistics do not carry (the hardware event trace, for one).
pub fn run_threads_virtual_harvest<'r, E, W, F, H, X>(
    rt: &'r TmRuntime,
    threads: usize,
    ops_per_thread: usize,
    spec: SchedSpec,
    factory: F,
    harvest: H,
) -> (RunResult, VReport, Vec<X>)
where
    E: TmExecutor<'r>,
    W: Workload + Send,
    F: Fn(usize) -> W + Sync,
    H: Fn(&E) -> X + Sync,
    X: Send,
{
    assert!(threads <= rt.threads());
    let clock = VClock::new(threads, spec);
    let mut tm = TmStats::default();
    let mut hw = HtmStats::default();
    let mut elapsed = Duration::ZERO;
    let mut harvested = Vec::with_capacity(threads);

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let clock = &clock;
                let factory = &factory;
                let harvest = &harvest;
                s.spawn(move || {
                    let mut exec = E::new(rt, t);
                    let mut w = factory(t);
                    // `attach` doubles as the start barrier: it blocks until
                    // every core arrived and this core holds the floor.
                    let guard = clock.attach(t);
                    let t0 = Instant::now();
                    for _ in 0..ops_per_thread {
                        w.sample(&mut exec.thread_mut().rng);
                        exec.execute(&mut w);
                    }
                    let loop_elapsed = t0.elapsed();
                    drop(guard);
                    let th = exec.thread();
                    (th.stats.clone(), th.hw.stats.clone(), loop_elapsed, harvest(&exec))
                })
            })
            .collect();
        for h in handles {
            let (t_tm, t_hw, t_elapsed, x) = h.join().expect("worker panicked");
            tm.merge(&t_tm);
            hw.merge(&t_hw);
            elapsed = elapsed.max(t_elapsed);
            harvested.push(x);
        }
    });

    let report = clock.report();
    (
        RunResult {
            algo: E::NAME,
            threads,
            elapsed,
            commits: tm.commits_total(),
            makespan: report.makespan,
            tm,
            hw,
        },
        report,
        harvested,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_sim::abort::TxResult;
    use htm_sim::Addr;
    use part_htm_core::{PartHtm, TxCtx};
    use rand::rngs::SmallRng;

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
    fn counts_all_commits() {
        let rt = TmRuntime::with_defaults(4, 64);
        let r = run_threads::<PartHtm, _, _>(&rt, 4, 50, |_t| Inc(rt.app(0)));
        assert_eq!(r.commits, 200);
        assert_eq!(rt.verify_read(0), 200);
        assert_eq!(r.algo, "Part-HTM");
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn virtual_mode_conserves_and_reproduces() {
        let mk = || {
            let rt = TmRuntime::with_defaults(2, 64);
            let (r, rep) = run_threads_virtual::<PartHtm, _, _>(
                &rt,
                2,
                20,
                SchedSpec::default(),
                |_t| Inc(rt.app(0)),
            );
            assert_eq!(rt.verify_read(0), 40, "no lost increments");
            assert_eq!(r.commits, 40);
            assert!(r.makespan > 0, "virtual time must advance");
            assert!(r.virtual_throughput() > 0.0);
            (r.makespan, rep.trace_text(), r.hw, r.tm.commits_total())
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b, "same spec must reproduce the run exactly");
    }
}
