//! Differential oracles for the server's two perf mechanisms.
//!
//! * **Batching transparency**: with a single worker, `batch_max = 8` must
//!   produce exactly the responses and final heap state of the unbatched
//!   `batch_max = 1` oracle — the per-shard-FIFO flush rules make group
//!   commit invisible to results (`docs/tm-server.md`).
//! * **Admission transparency**: shedding changes only the commit *path*
//!   (serialized slow path instead of speculative), never the outcome —
//!   controller-on must match controller-off responses exactly.
//! * **Conservation**: under multi-worker transfer-heavy load, the total
//!   balance is conserved whatever the batching/admission configuration.

use htm_sim::HtmConfig;
use part_htm_core::{PartHtm, PartHtmO, TmConfig, TmRuntime};
use proptest::prelude::*;
use tm_server::service::{gen_requests, run_server, ServeMode, ServeOpts, ServerSpec, ServerState};
use tm_server::{AdmissionSpec, TrafficMix};

const SPEC: ServerSpec = ServerSpec {
    shards: 8,
    slots_per_shard: 256,
    queue_cap: 16,
};

fn runtime(threads: usize) -> TmRuntime {
    // A small HTM quantum so wide batches actually hit capacity aborts and
    // exercise the planner's split/demote machinery, not just the fast path.
    let htm = HtmConfig {
        quantum: 160,
        ..HtmConfig::default()
    };
    TmRuntime::new(htm, TmConfig::default(), threads, SPEC.app_words())
}

/// Run one configuration to completion and return (sorted responses, state
/// checksum, served).
fn run_once(
    threads: usize,
    requests: &[tm_server::Request],
    batch_max: usize,
    admission: AdmissionSpec,
    opaque: bool,
) -> (Vec<(u64, u64)>, u64, u64) {
    let rt = runtime(threads);
    let state = ServerState::new(&rt, SPEC);
    state.preload(&rt, &preload_items());
    let opts = ServeOpts {
        batch_max,
        admission,
        collect_responses: true,
    };
    let report = if opaque {
        run_server::<PartHtmO>(&rt, &state, threads, requests, &ServeMode::Wall, &opts)
    } else {
        run_server::<PartHtm>(&rt, &state, threads, requests, &ServeMode::Wall, &opts)
    };
    let mut responses = report.responses.clone();
    responses.sort_unstable();
    assert_eq!(
        report.served,
        requests.len() as u64,
        "open-loop server must serve every request"
    );
    (responses, state.kv_total_nt(&rt), report.served)
}

/// Initial balances so transfers have funds to move.
fn preload_items() -> Vec<(u32, u32, u64)> {
    (0..4u32)
        .flat_map(|tenant| (0..32u32).map(move |key| (tenant, key, 1000)))
        .collect()
}

/// Saturated arrivals: everything due at t=0, so the serve loop exercises
/// full batches and real backlog (deterministic — no timing dependence).
fn saturated(mix: &TrafficMix, n: usize, seed: u64) -> Vec<tm_server::Request> {
    gen_requests(mix, &vec![0u64; n], seed)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Single worker: batched execution is response- and state-equivalent to
    /// the unbatched oracle, for both protocols.
    #[test]
    fn batched_matches_unbatched_oracle(seed in 0u64..1_000_000, opaque in prop_oneof![Just(false), Just(true)]) {
        let mix = TrafficMix::default();
        let reqs = saturated(&mix, 400, seed);
        let batched = run_once(1, &reqs, 8, AdmissionSpec::off(), opaque);
        let oracle = run_once(1, &reqs, 1, AdmissionSpec::off(), opaque);
        prop_assert_eq!(&batched.0, &oracle.0, "responses diverge");
        prop_assert_eq!(batched.1, oracle.1, "final state diverges");
    }

    /// Admission control changes commit paths, never outcomes.
    #[test]
    fn admission_is_outcome_transparent(seed in 0u64..1_000_000) {
        let mix = TrafficMix::default();
        let reqs = saturated(&mix, 400, seed);
        // backlog_min 0 + zero threshold: shed aggressively from the start.
        let aggressive = AdmissionSpec {
            enabled: true,
            backlog_min: 0,
            trouble_threshold: 1,
            occupancy_max: 1,
        };
        let with = run_once(1, &reqs, 8, aggressive, false);
        let without = run_once(1, &reqs, 8, AdmissionSpec::off(), false);
        prop_assert_eq!(&with.0, &without.0, "shedding changed responses");
        prop_assert_eq!(with.1, without.1, "shedding changed final state");
    }
}

/// Multi-worker transfer-only load conserves the total balance exactly, for
/// every batching/admission configuration.
#[test]
fn transfers_conserve_total_balance() {
    let mix = TrafficMix {
        kv_weight: 0,
        queue_weight: 0,
        transfer_weight: 1,
        keys: 32,
        hot_pct: 75,
        hot_keys: 4,
        ..TrafficMix::default()
    };
    let reqs = saturated(&mix, 600, 2024);
    let expected: u64 = preload_items().iter().map(|&(_, _, v)| v).sum();
    for (workers, batch_max, admission) in [
        (1usize, 1usize, AdmissionSpec::off()),
        (4, 8, AdmissionSpec::off()),
        (4, 8, AdmissionSpec::default()),
        (4, 1, AdmissionSpec::default()),
    ] {
        let (_, total, served) = run_once(workers, &reqs, batch_max, admission, false);
        assert_eq!(total, expected, "lost or minted balance");
        assert_eq!(served, reqs.len() as u64);
    }
}

/// The virtual-time server is deterministic: same spec, same requests →
/// identical latency quantiles, makespan, responses and stats.
#[test]
fn virtual_server_is_reproducible() {
    use htm_sim::vclock::SchedSpec;
    use tm_harness::loadgen::ArrivalProcess;

    let run = || {
        let rt = runtime(2);
        let state = ServerState::new(&rt, SPEC);
        state.preload(&rt, &preload_items());
        let arrivals = ArrivalProcess::Poisson { mean_gap: 400.0 }.timestamps(300, 11);
        let reqs = gen_requests(&TrafficMix::default(), &arrivals, 11);
        let opts = ServeOpts {
            collect_responses: true,
            ..ServeOpts::default()
        };
        let mode = ServeMode::Virtual(SchedSpec::default());
        let rep = run_server::<PartHtm>(&rt, &state, 2, &reqs, &mode, &opts);
        let mut responses = rep.responses.clone();
        responses.sort_unstable();
        (
            rep.run.makespan,
            rep.latency.p50(),
            rep.latency.p99(),
            rep.latency.count(),
            responses,
            rep.run.tm.commits_total(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "virtual-time server cell must be reproducible");
    assert!(a.0 > 0, "virtual time must advance");
    assert_eq!(a.3, 300, "every request gets a latency sample");
}

/// Group commit actually batches (mean width > 1) and the stats counters
/// record it.
#[test]
fn batching_stats_are_recorded() {
    let reqs = saturated(&TrafficMix::small_only(), 512, 7);
    let rt = runtime(1);
    let state = ServerState::new(&rt, SPEC);
    let opts = ServeOpts {
        batch_max: 8,
        admission: AdmissionSpec::off(),
        ..ServeOpts::default()
    };
    let rep = run_server::<PartHtm>(&rt, &state, 1, &reqs, &ServeMode::Wall, &opts);
    assert!(rep.run.tm.batch_groups > 0, "no groups formed");
    assert!(
        rep.run.tm.batch_reqs >= 2 * rep.run.tm.batch_groups,
        "batched groups must hold at least 2 requests"
    );
    // Saturated small-op load on one worker should coalesce most requests.
    assert!(
        rep.run.tm.batch_reqs * 2 >= rep.served,
        "batching barely engaged: {} of {} requests",
        rep.run.tm.batch_reqs,
        rep.served
    );
}

/// Shed commits take the slow path and are counted.
#[test]
fn shedding_reaches_the_slow_path() {
    let reqs = saturated(&TrafficMix::default(), 512, 9);
    let rt = runtime(1);
    let state = ServerState::new(&rt, SPEC);
    state.preload(&rt, &preload_items());
    let opts = ServeOpts {
        batch_max: 4,
        // Threshold 0: shed whenever there is any backlog at all, so the
        // slow-path wiring is exercised regardless of how healthy the
        // speculative paths are on this load.
        admission: AdmissionSpec {
            enabled: true,
            backlog_min: 0,
            trouble_threshold: 0,
            occupancy_max: 1,
        },
        ..ServeOpts::default()
    };
    let rep = run_server::<PartHtm>(&rt, &state, 1, &reqs, &ServeMode::Wall, &opts);
    assert!(rep.run.tm.shed_commits > 0, "aggressive controller never shed");
    assert!(
        rep.run.tm.shed_commits <= rep.run.tm.commits_gl,
        "shed commits are a subset of global-lock commits"
    );
}
