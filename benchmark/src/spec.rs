//! The fixed part of the benchmark: the four workloads and the metric
//! tables. `BENCHMARK.json` at the repository root mirrors the names, units,
//! directions and bounds below (a unit test keeps the two in step).

use htm_sim::HtmConfig;
use part_htm_core::{PartHtm, PartHtmO, TmExecutor};
use tm_baselines::htm_gl::HtmGl;
use tm_server::{ServerSpec, TrafficMix};
use tm_workloads::micro::NrmwParams;

/// OS threads (library) / workers (server) of every wall-clock cell.
pub const WALL_THREADS: usize = 2;
/// Simulated cores of every virtual cell.
pub const VIRT_CORES: usize = 4;
/// `Nrmw::new`'s slice divisor, as every figure in the tree uses it: each
/// thread owns 1/64th of the arrays whatever the thread count.
pub const NRMW_SLICES: usize = 64;
/// Service geometry (serverbench's): 8 shards, room for preload plus churn.
pub const SERVER_SPEC: ServerSpec = ServerSpec {
    shards: 8,
    slots_per_shard: 1024,
    queue_cap: 64,
};
/// Balance preloaded per key on `server_hot`, so transfers rarely no-op.
pub const PRELOAD_BALANCE: u64 = 1_000_000;

/// A protocol under test, as a type family over the runtime lifetime (the
/// executors borrow their `TmRuntime`).
pub trait Proto {
    type Exec<'r>: TmExecutor<'r>;
}
pub struct PartHtmP;
pub struct PartHtmOP;
pub struct HtmGlP;
impl Proto for PartHtmP {
    type Exec<'r> = PartHtm<'r>;
}
impl Proto for PartHtmOP {
    type Exec<'r> = PartHtmO<'r>;
}
impl Proto for HtmGlP {
    type Exec<'r> = HtmGl<'r>;
}
/// `P` under the benchmark-side tracer.
pub struct TracedP<P>(std::marker::PhantomData<P>);
impl<P: Proto> Proto for TracedP<P> {
    type Exec<'r> = crate::trace::Traced<P::Exec<'r>>;
}

/// N-reads-M-writes library workload: closed loop, fixed op counts.
#[derive(Clone)]
pub struct LibSpec {
    pub params: NrmwParams,
    pub htm: HtmConfig,
    /// Transactions per thread in one wall rep / per core in a virtual cell.
    pub wall_ops: usize,
    pub virt_ops: usize,
}

/// `tm-server` workload: a saturated stream on the wall clock, an open-loop
/// Poisson ladder plus one saturated cell under the virtual clock.
#[derive(Clone)]
pub struct SrvSpec {
    pub mix: TrafficMix,
    pub htm: HtmConfig,
    pub preload: bool,
    /// Requests per wall rep (all due at t = 0).
    pub wall_n: usize,
    /// Requests per ladder rung / in the saturated virtual cell.
    pub rung_n: usize,
    pub sat_n: usize,
    /// Mean inter-arrival gaps of the ladder in work units, slowest first.
    pub gaps: &'static [f64],
    /// The rung latency is reported at.
    pub ref_gap: f64,
    /// A rung passes when its p99 sojourn is at most this many work units
    /// (and the backlog does not grow: makespan <= 1.05 x last arrival).
    pub p99_limit_wu: u64,
}

pub enum Spec {
    Lib(LibSpec),
    Srv(SrvSpec),
}

/// `(name, why)` of the four workloads, in reporting order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "nrmw_fit",
        "10 reads + 10 writes, disjoint: 100% fast path, per-access htm-sim bookkeeping dominates, write-balanced",
    ),
    (
        "nrmw_capacity",
        "768 reads + 16 writes over a 64-line read budget: 100% partitioned path, tm-sig + core dominate, read-heavy",
    ),
    (
        "server_small",
        "short single-shard KV/queue requests: group commit and the serve loop dominate, admission never fires",
    ),
    (
        "server_hot",
        "hot-key transfers, quantum 6: never batch, so conflicts, GL fallback and admission control do the work",
    ),
];

pub fn spec_of(workload: &str) -> Option<Spec> {
    Some(match workload {
        "nrmw_fit" => Spec::Lib(LibSpec {
            params: NrmwParams::fig3a(),
            htm: HtmConfig::default(),
            wall_ops: 250_000,
            virt_ops: 2_000,
        }),
        // partbench's capacity-heavy row. The virtual cell is warm-up
        // inclusive by design: 25 tx/core is where the planner is still
        // learning, which is what the Part-HTM cliff recorded in the README is
        // made of.
        "nrmw_capacity" => Spec::Lib(LibSpec {
            params: NrmwParams {
                array_len: 4_000,
                n_reads: 768,
                m_writes: 16,
                work_per_iter: 0,
                segments: 8,
                stride: 1,
            }
            .fine_grained(),
            htm: HtmConfig {
                read_lines_max: 64,
                ..HtmConfig::default()
            },
            wall_ops: 8_000,
            virt_ops: 25,
        }),
        "server_small" => Spec::Srv(SrvSpec {
            mix: TrafficMix {
                keys: 512,
                ..TrafficMix::small_only()
            },
            htm: HtmConfig::default(),
            preload: false,
            wall_n: 1_000_000,
            rung_n: 20_000,
            sat_n: 20_000,
            gaps: &[8.0, 4.0, 3.0, 2.5, 2.0, 1.5],
            ref_gap: 4.0,
            p99_limit_wu: 40,
        }),
        // serverbench's overload row.
        "server_hot" => Spec::Srv(SrvSpec {
            mix: TrafficMix {
                tenants: 2,
                keys: 64,
                kv_weight: 1,
                queue_weight: 0,
                transfer_weight: 8,
                hot_pct: 90,
                hot_keys: 4,
            },
            htm: HtmConfig {
                quantum: 6,
                ..HtmConfig::default()
            },
            preload: true,
            wall_n: 200_000,
            rung_n: 3_000,
            sat_n: 4_000,
            gaps: &[100.0, 50.0, 33.0, 25.0],
            ref_gap: 50.0,
            p99_limit_wu: 1_000,
        }),
        _ => return None,
    })
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics; every workload reports each one (`--trace 0`).
///
/// The wall bounds are what this host's noise allows (single 0.2 s reps
/// spread +-12%; a run's median of ~25 lands within a few percent); the
/// virtual bounds cover the seed-to-seed spread of the generated request
/// streams — with the seed fixed, virtual values repeat exactly.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_tx_per_s", "1/s", Higher, 0.25),
    e2e("wall_tx_per_s_o", "1/s", Higher, 0.25),
    e2e("virt_tx_per_mwu", "1/Mwu", Higher, 0.1),
    e2e("virt_tx_per_mwu_o", "1/Mwu", Higher, 0.1),
    e2e("virt_speedup_vs_htmgl", "ratio", Higher, 0.1),
    e2e("virt_p50_wu", "wu", Lower, 0.2),
    e2e("virt_p99_wu", "wu", Lower, 0.25),
    e2e("virt_max_rate_per_mwu", "1/Mwu", Higher, 0.1),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
];

/// Per-layer metrics (`--trace 1`); 0 where a layer is not in a workload's
/// path. `probe_*`, `*_ns*` and `*share` come from the traced wall pass,
/// everything else from the counters of the Part-HTM virtual cell, so it
/// repeats exactly for a fixed seed.
pub const PER_LAYER: &[MetricDef] = &[
    layer("htm_sim.begins_per_tx", "count", Lower),
    layer("htm_sim.commit_ratio", "ratio", Higher),
    layer("htm_sim.aborts_conflict_per_ktx", "count", Lower),
    layer("htm_sim.aborts_capacity_per_ktx", "count", Lower),
    layer("htm_sim.aborts_timer_per_ktx", "count", Lower),
    layer("htm_sim.aborts_explicit_per_ktx", "count", Lower),
    layer("htm_sim.work_units_per_tx", "wu", Lower),
    layer("htm_sim.probe_ns_per_read", "ns", Lower),
    layer("htm_sim.probe_ns_per_write", "ns", Lower),
    layer("htm_sim.probe_ns_per_begin_commit", "ns", Lower),
    layer("htm_sim.probe_ns_per_abort", "ns", Lower),
    layer("htm_sim.est_share", "frac", Lower),
    layer("htm_sim.vclock_kwu_per_host_s", "kwu/s", Higher),
    layer("htm_sim.vclock_host_s", "s", Lower),
    layer("tm_sig.publishes_per_tx", "count", Lower),
    layer("tm_sig.validations_per_tx", "count", Lower),
    layer("tm_sig.val_fast_hit_ratio", "ratio", Higher),
    layer("tm_sig.summary_resets_per_ktx", "count", Lower),
    layer("tm_sig.journal_rollbacks_per_ktx", "count", Lower),
    layer("tm_sig.probe_ns_per_sig_add", "ns", Lower),
    layer("tm_sig.probe_ns_per_intersect", "ns", Lower),
    layer("tm_sig.probe_ns_per_publish", "ns", Lower),
    layer("tm_sig.probe_ns_per_validate_fast", "ns", Lower),
    layer("tm_sig.probe_ns_per_validate_walk", "ns", Lower),
    layer("tm_sig.est_share", "frac", Lower),
    layer("core.commit_frac_htm", "frac", Higher),
    layer("core.commit_frac_subhtm", "frac", Higher),
    layer("core.commit_frac_gl", "frac", Lower),
    layer("core.fast_aborts_per_ktx", "count", Lower),
    layer("core.sub_aborts_per_ktx", "count", Lower),
    layer("core.global_aborts_per_ktx", "count", Lower),
    layer("core.planner_demotions_per_ktx", "count", Lower),
    layer("core.plan_merges", "count", Higher),
    layer("core.plan_splits", "count", Lower),
    layer("core.segment_attempts_per_tx", "count", Lower),
    layer("core.attempt_useful_ratio", "ratio", Higher),
    layer("core.execute_ns_p50", "ns", Lower),
    layer("core.execute_ns_p99", "ns", Lower),
    layer("core.execute_self_ns_per_tx", "ns", Lower),
    layer("core.self_share", "frac", Lower),
    layer("workload.segment_ns_per_tx", "ns", Lower),
    layer("workload.barriers_per_tx", "count", Lower),
    layer("workload.share", "frac", Higher),
    layer("tm_server.batch_width_mean", "count", Higher),
    layer("tm_server.groups_per_kreq", "count", Lower),
    layer("tm_server.outside_execute_ns_per_req", "ns", Lower),
    layer("tm_server.share", "frac", Lower),
    layer("tm_server.batch_speedup_wall", "ratio", Higher),
    layer("tm_server.shed_frac", "frac", Lower),
    layer("tm_server.admission_gain_virt", "ratio", Higher),
    layer("tm_server.queue_wait_share", "frac", Lower),
    layer("tm_server.p99_wu.rung0", "wu", Lower),
    layer("tm_server.p99_wu.rung1", "wu", Lower),
    layer("tm_server.p99_wu.rung2", "wu", Lower),
    layer("tm_server.p99_wu.rung3", "wu", Lower),
    layer("tm_server.p99_wu.rung4", "wu", Lower),
    layer("tm_server.p99_wu.rung5", "wu", Lower),
    layer("tm_harness.gen_ns_per_req", "ns", Lower),
    layer("tm_harness.trace_overhead_frac", "frac", Lower),
    layer("tm_harness.share_sum", "frac", Higher),
    layer("baseline.htmgl_virt_tx_per_mwu", "1/Mwu", Higher),
    layer("baseline.htmgl_wall_tx_per_s", "1/s", Higher),
];
