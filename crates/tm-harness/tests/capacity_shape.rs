//! The paper's motivating shape on four simulated cores: perfbench's
//! `nrmw_capacity` cell (`benchmark/src/spec.rs`), which is 100 % partitioned
//! path. Before the sub-HTM retry backoff and the doom re-check after a
//! scheduler hand-off, the four symmetric cores re-collided in lockstep on the
//! write-locks signature and 78 % of the commits ended under the global lock.
//! Before signatures were keyed on the cache line, Bloom false positives of
//! the 768-word read signature against peers' publishes cost 18 global aborts
//! and 2 lock commits per 100 transactions, although nobody writes what the
//! shape reads (ROADMAP item 1). Before a partitionable transaction left the
//! fast path on the quiet attempt's `XABORT_NOT_QUIET` abort, core 0 spent
//! four instrumented attempts doomed on the gate word, 2 680 wu, before its
//! first commit.

use htm_sim::vclock::SchedSpec;
use htm_sim::{AbortCode, HtmConfig};
use part_htm_core::{
    PartHtm, PartHtmO, TmConfig, TmExecutor, TmRuntime, Workload, XABORT_NOT_QUIET,
};
use tm_baselines::Sequential;
use tm_harness::experiments::{capacity_shape, warm_up};
use tm_harness::run_threads_virtual_harvest;
use tm_workloads::micro::{self, Nrmw, NrmwParams};

const CORES: usize = 4;
const TXS: usize = 25;
const SLICES: usize = 64;

fn dst_array(rt: &TmRuntime, p: &NrmwParams) -> Vec<u64> {
    let words = p.array_len * p.stride;
    (words..2 * words).map(|i| rt.verify_read(i)).collect()
}

/// Run the shape under `E` on a fresh runtime with the hardware trace on: the
/// result must equal the sequential replay, nothing may leak, the partitioned
/// path must commit every transaction with at most 0.05 global aborts per
/// transaction, and every core's warm-up (the hardware attempts that abort
/// before its first commit) is at most one full hardware attempt plus the
/// 1-wu quiet probe that finds partitioned peers counted.
fn check<'r, E: TmExecutor<'r>>(rt: &'r TmRuntime, want: &[u64], name: &str) {
    let (p, _) = capacity_shape();
    let shared = micro::init(rt, &p);
    let (r, _, warmups) = run_threads_virtual_harvest::<E, _, _, _, _>(
        rt,
        CORES,
        TXS,
        SchedSpec::default(),
        |t| Nrmw::new(shared, t, SLICES),
        |e| warm_up(&e.thread().hw.trace),
    );
    for (core, warmup) in warmups.iter().enumerate() {
        let warmup = warmup
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: core {core} never committed in hardware"));
        let probe = (AbortCode::Explicit(XABORT_NOT_QUIET), 1, None);
        let full = warmup.iter().filter(|&&a| a != probe).count();
        assert!(
            full <= 1 && warmup.len() - full <= 1,
            "{name}: core {core}'s warm-up is more than one full hardware attempt \
             plus the quiet probe: {warmup:?}"
        );
    }

    assert_eq!(r.commits, (CORES * TXS) as u64, "{name}");
    assert_eq!(
        dst_array(rt, &p),
        want,
        "{name}: result equals the sequential replay"
    );
    assert_eq!(
        r.tm.commits_gl, 0,
        "{name}: no commit under the global lock"
    );
    assert!(
        r.tm.global_aborts * 20 <= r.commits,
        "{name}: at most 0.05 global aborts per transaction, got {} in {}",
        r.tm.global_aborts,
        r.commits
    );
    assert_eq!(
        rt.system().nt_read(rt.gate()),
        0,
        "{name}: global lock released, partitioned-path count drained"
    );
    assert_eq!(
        rt.system().live_line_entries(),
        0,
        "{name}: no leaked line entry"
    );
}

#[test]
fn capacity_shape_commits_on_the_partitioned_path_at_four_cores() {
    let (p, htm) = capacity_shape();

    // The threads' destination slices are disjoint, so the final array is a
    // pure function of the shape: replay it sequentially.
    let want = {
        let rt = TmRuntime::new(htm.clone(), TmConfig::default(), 1, p.app_words());
        let shared = micro::init(&rt, &p);
        for t in 0..CORES {
            let mut exec = Sequential::new(&rt, 0);
            let mut w = Nrmw::new(shared, t, SLICES);
            for _ in 0..TXS {
                w.sample(&mut exec.thread_mut().rng);
                exec.execute(&mut w);
            }
        }
        dst_array(&rt, &p)
    };

    let traced = HtmConfig {
        trace_capacity: 1 << 16,
        ..htm
    };
    let rt = || TmRuntime::new(traced.clone(), TmConfig::default(), CORES, p.app_words());
    check::<PartHtm>(&rt(), &want, "Part-HTM");
    check::<PartHtmO>(&rt(), &want, "Part-HTM-O");
}
