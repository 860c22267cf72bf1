//! The single-probe transfer.
//!
//! * **Differential**: `exec_op(Transfer)` probes each key once. Against the
//!   two-lookup transfer it replaced (`get`, then `update` of `from`, then
//!   `update` of `to`, written out below) it must give the same response and
//!   leave the same heap, word for word, on tables small enough that every
//!   probe walks a chain: absent keys, `amount == 0` and `from == to`
//!   included.
//! * **Price**: under the global lock every access costs 1 wu, so a
//!   transfer's hold is its access count plus the lock's acquire and release
//!   (on an empty gate the acquiring CAS also proves the drain). Between two
//!   present keys with no collisions the body is 6 accesses (8 for the
//!   two-lookup transfer).

use htm_sim::vclock::{self, SchedSpec, VClock};
use htm_sim::HtmConfig;
use part_htm_core::ctx::SlowCtx;
use part_htm_core::{
    commit_under_glock, CommitPath, PartHtm, TmConfig, TmExecutor, TmRuntime, TmThread,
};
use proptest::prelude::*;
use tm_baselines::HtmGl;
use tm_server::service::{Op, Request, ServerSpec, ServerState};
use tm_server::ReqGroup;
use tm_workloads::structures::{HeapHashMap, HeapQueue};

/// Two shards of 8 slots over 2 tenants × 4 keys: at most 8 keys can land in
/// one shard, so no table fills, and most probes walk a chain.
const TINY: ServerSpec = ServerSpec {
    shards: 2,
    slots_per_shard: 8,
    queue_cap: 2,
};
const TENANTS: u32 = 2;
const KEYS: u32 = 4;

/// The service's tenant-scoped key.
fn full_key(tenant: u32, key: u32) -> u64 {
    (u64::from(tenant) << 32) | u64::from(key)
}

/// The shard tables of a `spec` service laid out on `rt`, as
/// [`ServerState::new`] lays them out.
fn maps(rt: &TmRuntime, spec: &ServerSpec) -> Vec<HeapHashMap> {
    let shard_words =
        HeapHashMap::words_needed(spec.slots_per_shard) + HeapQueue::words_needed(spec.queue_cap);
    (0..spec.shards)
        .map(|s| HeapHashMap::new(rt.app(s * shard_words), spec.slots_per_shard))
        .collect()
}

/// The two-lookup transfer: read `from`'s balance, then update `from` and
/// `to`, each update probing its key again.
fn reference_transfer(
    maps: &[HeapHashMap],
    ctx: &mut SlowCtx<'_, '_>,
    (tenant, from, to, amount): (u32, u32, u32, u64),
) -> u64 {
    let map = |key| &maps[TINY.shard_of_key(tenant, key) as usize];
    let (kf, kt) = (full_key(tenant, from), full_key(tenant, to));
    let bal = map(from).get(ctx, kf).unwrap().unwrap_or(0);
    if bal < amount {
        return 0;
    }
    map(from).update(ctx, kf, 0, |v| v - amount).unwrap();
    map(to).update(ctx, kt, 0, |v| v + amount).unwrap();
    1
}

fn heap(rt: &TmRuntime) -> Vec<u64> {
    (0..TINY.app_words()).map(|i| rt.verify_read(i)).collect()
}

fn runtime() -> TmRuntime {
    TmRuntime::with_defaults(1, TINY.app_words())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn single_probe_transfer_matches_the_two_lookup_reference(
        preload in proptest::collection::vec((0..TENANTS, 0..KEYS, 0u64..100), 0..8),
        transfers in proptest::collection::vec(
            (0..TENANTS, 0..KEYS, 0..KEYS, prop_oneof![Just(0u64), 0u64..60, 0u64..400]),
            1..16,
        ),
    ) {
        let (rt, ref_rt) = (runtime(), runtime());
        let state = ServerState::new(&rt, TINY);
        state.preload(&rt, &preload);
        let ref_maps = maps(&ref_rt, &TINY);
        let (th, ref_th) = (TmThread::new(&rt, 0), TmThread::new(&ref_rt, 0));
        let mut ctx = SlowCtx { th: &th.hw, mask_values: false };
        let mut ref_ctx = SlowCtx { th: &ref_th.hw, mask_values: false };
        for &(tenant, key, val) in &preload {
            let m = &ref_maps[TINY.shard_of_key(tenant, key) as usize];
            m.insert(&mut ref_ctx, full_key(tenant, key), val).unwrap();
        }
        prop_assert_eq!(heap(&rt), heap(&ref_rt));
        for t @ (tenant, from, to, amount) in transfers {
            let op = Op::Transfer { tenant, from, to, amount };
            let got = state.exec_op(&op, &mut ctx).unwrap();
            let want = reference_transfer(&ref_maps, &mut ref_ctx, t);
            prop_assert_eq!(got, want, "{:?}", op);
            prop_assert_eq!(heap(&rt), heap(&ref_rt), "{:?}", op);
        }
    }
}

/// Keys 1 and 2 of tenant 0 under the default geometry: different shards,
/// each at its home slot.
const FROM: u32 = 1;
const TO: u32 = 2;

fn priced_server(htm: HtmConfig) -> (TmRuntime, ServerState) {
    let spec = ServerSpec::default();
    let rt = TmRuntime::new(htm, TmConfig::default(), 1, spec.app_words());
    let state = ServerState::new(&rt, spec);
    state.preload(&rt, &[(0, FROM, 100), (0, TO, 100)]);
    (rt, state)
}

/// Virtual time `run` takes to serve `op` as a lone request on one core,
/// and the response.
fn price(
    state: &ServerState,
    op: Op,
    run: impl FnOnce(&mut ReqGroup<'_>) -> CommitPath + Send,
) -> (u64, CommitPath, u64) {
    let clock = VClock::new(1, SchedSpec::default());
    std::thread::scope(|s| {
        s.spawn(|| {
            let _core = clock.attach(0);
            let mut g = ReqGroup::new(
                state,
                vec![Request {
                    arrival: 0,
                    seq: 0,
                    op,
                }],
            );
            let t0 = vclock::now().unwrap();
            let path = run(&mut g);
            (vclock::now().unwrap() - t0, path, g.results()[0])
        })
        .join()
        .unwrap()
    })
}

/// One hold of the global lock: the acquire and the release cost 1 wu each.
/// With the lock and the partitioned-path count in two words the hold also
/// paid a drain read, and this subtracted 3.
fn hold_price(op: Op) -> u64 {
    let (rt, state) = priced_server(HtmConfig::default());
    let mut th = TmThread::new(&rt, 0);
    let (wu, path, _) = price(&state, op, |g| commit_under_glock(&mut th, g, false));
    assert_eq!(path, CommitPath::GlobalLock);
    wu - 2
}

const TRANSFER: Op = Op::Transfer {
    tenant: 0,
    from: FROM,
    to: TO,
    amount: 30,
};

#[test]
fn a_present_key_transfer_costs_six_lock_holder_accesses() {
    // Neither key sits on a probe chain: a lookup is 2 accesses.
    let get = |key| Op::Get { tenant: 0, key };
    assert_eq!((hold_price(get(FROM)), hold_price(get(TO))), (2, 2));
    // Probe `from` (2 reads), write its balance; probe `to`, read, write.
    assert_eq!(hold_price(TRANSFER), 6);
    // Insufficient funds: the probe of `from` and nothing else.
    let broke = Op::Transfer {
        tenant: 0,
        from: FROM,
        to: TO,
        amount: 101,
    };
    assert_eq!(hold_price(broke), 2);
}

/// `server_hot`'s shape: at quantum 6 a transfer never fits in hardware, so
/// its first attempt runs into the timer and, with one segment, it commits
/// under the lock at once — Part-HTM and HTM-GL alike. Both cost
/// `6 + 3 + 6` = 15 wu while the hold paid a drain read of a separate
/// partitioned-path counter.
#[test]
fn at_quantum_six_a_transfer_pays_one_timer_abort_and_one_hold() {
    let htm = HtmConfig {
        quantum: 6,
        ..HtmConfig::default()
    };
    let (rt, state) = priced_server(htm.clone());
    let mut e = PartHtm::new(&rt, 0);
    let (wu, path, resp) = price(&state, TRANSFER, |g| e.execute(g));
    assert_eq!((path, resp), (CommitPath::GlobalLock, 1));
    assert_eq!(wu, 6 + 2 + 6, "Part-HTM: the quantum, then one hold");
    let (rt, state) = priced_server(htm);
    let mut e = HtmGl::new(&rt, 0);
    let (wu, path, resp) = price(&state, TRANSFER, |g| e.execute(g));
    assert_eq!((path, resp), (CommitPath::GlobalLock, 1));
    assert_eq!(wu, 6 + 2 + 6, "HTM-GL: the quantum, then one hold");
}
