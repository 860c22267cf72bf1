//! A transactional key-value service: the `tm-server` front end driven end to
//! end — multi-tenant KV puts/gets/adds, per-tenant queues and cross-shard
//! transfers, every request a Part-HTM transaction, small same-shard requests
//! coalesced by the group-commit batcher and excess arrivals shed to the
//! serialized slow path by the admission controller.
//!
//! The example is deliberately a *thin* wrapper: everything — sharding,
//! batching, admission, latency accounting, the stats snapshot — lives in
//! [`part_htm::server`]; this file only picks a traffic mix, runs the batched
//! server against the unbatched oracle, and checks the results agree (the
//! group-commit transparency argument of `docs/tm-server.md`, executed).
//!
//! ```text
//! cargo run --release --example kv_store
//! ```

use part_htm::core::{PartHtm, TmConfig, TmRuntime};
use part_htm::harness::report::StatsReport;
use part_htm::htm::HtmConfig;
use part_htm::server::service::{run_server, ServeMode, ServeOpts, ServerState};
use part_htm::server::{gen_requests, AdmissionSpec, ServerSpec, TrafficMix};

const WORKERS: usize = 4;
const REQUESTS: usize = 20_000;
const SPEC: ServerSpec = ServerSpec {
    shards: 8,
    slots_per_shard: 512,
    queue_cap: 32,
};

/// Initial balances: 4 tenants x 64 keys so transfers have funds to move.
fn preload_items() -> Vec<(u32, u32, u64)> {
    (0..4u32)
        .flat_map(|tenant| (0..64u32).map(move |key| (tenant, key, 1_000)))
        .collect()
}

/// One server run: fresh runtime and heap, saturated arrivals, the given
/// worker count and batching/admission configuration; `stats` prints the
/// run's merged stats snapshot. Returns (goodput, p99 ns, batched requests,
/// final KV total).
fn serve(
    workers: usize,
    n: usize,
    batch_max: usize,
    admission: AdmissionSpec,
    stats: bool,
) -> (f64, u64, u64, u64) {
    let rt = TmRuntime::new(
        HtmConfig::default(),
        TmConfig::default(),
        workers,
        SPEC.app_words(),
    );
    let state = ServerState::new(&rt, SPEC);
    state.preload(&rt, &preload_items());
    let mix = TrafficMix {
        keys: 64,
        ..TrafficMix::default()
    };
    // Open-loop saturated arrivals: everything due at t=0.
    let reqs = gen_requests(&mix, &vec![0u64; n], 42);
    let opts = ServeOpts {
        batch_max,
        admission,
        ..ServeOpts::default()
    };
    let rep = run_server::<PartHtm>(&rt, &state, workers, &reqs, &ServeMode::Wall, &opts);
    assert_eq!(rep.served, n as u64, "open-loop server serves all");
    if stats {
        print!("{}", StatsReport::from_run(&rep.run).to_json());
    }
    (
        rep.goodput_wall(),
        rep.latency.p99(),
        rep.run.tm.batch_reqs,
        state.kv_total_nt(&rt),
    )
}

fn main() {
    println!(
        "tm-server: {WORKERS} workers, {} shards, {REQUESTS} mixed requests (KV + queue + transfer)\n",
        SPEC.shards
    );

    let (tput_b, p99_b, batched, _) = serve(WORKERS, REQUESTS, 8, AdmissionSpec::default(), true);
    println!();
    let (tput_u, p99_u, _, _) = serve(WORKERS, REQUESTS, 1, AdmissionSpec::off(), false);

    println!(
        "\n{:<26} {:>12} {:>12}",
        "configuration", "req/s", "p99 (ns)"
    );
    println!(
        "{:<26} {:>12.0} {:>12}",
        "batch 8 + admission", tput_b, p99_b
    );
    println!(
        "{:<26} {:>12.0} {:>12}",
        "unbatched oracle", tput_u, p99_u
    );
    println!(
        "\ngroup commit coalesced {batched} of {REQUESTS} requests; speedup {:.2}x",
        tput_b / tput_u
    );

    // Group commit is result-transparent under the per-shard FIFO rules: on a
    // single worker (where cross-worker timing cannot reorder a Put against a
    // cross-shard Transfer) the batched run's final heap state must match the
    // unbatched oracle exactly.
    let (_, _, _, total_b) = serve(1, REQUESTS / 4, 8, AdmissionSpec::default(), false);
    let (_, _, _, total_u) = serve(1, REQUESTS / 4, 1, AdmissionSpec::off(), false);
    assert_eq!(total_b, total_u, "batched run diverged from the oracle");
    println!("OK: batched final state matches the unbatched oracle ({total_b} units).");
}
