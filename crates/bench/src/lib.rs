//! # tm-bench — the `microbench` row schema
//!
//! `microbench` (`src/bin/microbench.rs`) measures the claims perfbench cannot
//! carry — the ones that need a reference twin or a non-default configuration —
//! and writes them in perfbench's report shape, so `benchmark/run.sh check
//! BENCH.json target/microbench.json` is the one drift gate. This library is
//! that shape: the row table ([`ROWS`]), the order statistics recorded with
//! every value ([`Summary`]), the report writer ([`render`]) and the absolute
//! claim floors ([`floor_misses`]).
//!
//! A row is `group/metric` on one of two clocks. **Virtual** rows come from
//! one `run_threads_virtual` cell: bit-reproducible, bound 0.02. **Wall** rows
//! are medians over interleaved repetitions with their quartiles; the gated
//! ones (bound 0.25) are ratios between two arms timed back to back, the
//! absolute ns / ops-per-second rows beside them carry no bound because this
//! host's 10–40 s speed phases move them by more than any bound worth having.

use Better::{Higher, Lower};
use Clock::{Virtual, Wall};

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    /// Larger is better (throughput, speed-up).
    Higher,
    /// Smaller is better (latency, overhead).
    Lower,
}

/// The clock a row is measured on (the report's `kind`).
#[derive(Clone, Copy, Debug)]
pub enum Clock {
    /// `htm_sim::vclock` work units on 4 simulated cores: about protocol shape.
    Virtual,
    /// Host time: about host cost.
    Wall,
}

impl Clock {
    fn kind(self) -> &'static str {
        match self {
            Virtual => "virtual",
            Wall => "wall",
        }
    }
}

/// One line of the row table.
#[derive(Clone, Copy, Debug)]
pub struct RowDef {
    /// `group/metric`, the way docs cite the row; the report splits it into
    /// its `workload` and `metric` columns.
    pub key: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Clock the value is measured on.
    pub clock: Clock,
    /// Share of the baseline value the row may worsen by before `check` calls
    /// it `worse`; `None` for context rows (`same` / `moved`, never failing).
    pub bound: Option<f64>,
    /// Absolute claim floor, enforced by `microbench` on a full-scale run.
    pub floor: Option<f64>,
}

impl RowDef {
    const fn floor(self, floor: f64) -> Self {
        Self {
            floor: Some(floor),
            ..self
        }
    }
}

type S = &'static str;

const fn row(key: S, unit: S, better: Better, clock: Clock, bound: Option<f64>) -> RowDef {
    RowDef {
        key,
        unit,
        better,
        clock,
        bound,
        floor: None,
    }
}

/// A gated virtual-clock row.
const fn virt(key: S, unit: S, better: Better) -> RowDef {
    row(key, unit, better, Virtual, Some(0.02))
}

/// A gated virtual-clock throughput.
const fn tput(key: S) -> RowDef {
    virt(key, "1/Mwu", Higher)
}

/// A gated wall-clock row: a ratio between two arms timed back to back.
const fn wall(key: S, better: Better) -> RowDef {
    row(key, "ratio", better, Wall, Some(0.25))
}

/// An ungated wall-clock context row.
const fn host(key: S, unit: S, better: Better) -> RowDef {
    row(key, unit, better, Wall, None)
}

/// An ungated per-request count from a virtual cell.
const fn count(key: S, unit: S) -> RowDef {
    row(key, unit, Lower, Virtual, None)
}

/// The row table: every row `microbench` emits, in report order.
pub const ROWS: &[RowDef] = &[
    // The simulator's per-access read path, one thread: a repeat read of a
    // registered line, and a first read with its registration and release.
    host("sim/read_hit_ns_per_word", "ns", Lower),
    host("sim/read_first_ns_per_line", "ns", Lower),
    // The unrolled intersect kernel vs the by-name `kernels::scalar` reference, 2048 bits.
    host("kernels/intersect_dense_ns_per_word", "ns", Lower),
    wall("kernels/intersect_dense_speedup", Higher),
    // No-conflict validation, lag 48: 8 shards vs `ShardedRing` with one.
    host("validation/sharded_ns_per_val_1v", "ns", Lower),
    wall("validation/sharded_over_single_1v", Lower),
    host("validation/sharded_ns_per_val_4v", "ns", Lower),
    wall("validation/sharded_over_single_4v", Lower),
    // The summaries' epoch reset at the default tuning, 2 cores: its cell's
    // throughput and its resets per 1000 commits, gated upward so that a
    // reset path that stops firing reads as worse.
    tput("validation/reset_tx_per_mwu"),
    virt("validation/summary_resets_per_ktx", "count", Higher),
    // Mixed software + hardware disjoint publish: 8 shards vs one.
    host("publish/sharded_pub_per_s_1t", "1/s", Higher),
    wall("publish/sharded_over_single_1t", Higher),
    host("publish/sharded_pub_per_s_2t", "1/s", Higher),
    wall("publish/sharded_over_single_2t", Higher),
    host("publish/sharded_pub_per_s_4t", "1/s", Higher),
    wall("publish/sharded_over_single_4t", Higher),
    // Adaptive planner vs pinned static plans on `capacity_shape()` (with the
    // adaptive cell's global aborts and work per transaction, gated so that
    // signature false positives cannot creep back), and on the Fig. 3(c)
    // shape whose declared segmentation is already optimal.
    tput("plan/static1_tx_per_mwu"),
    tput("plan/tuned8_tx_per_mwu"),
    tput("plan/adaptive_tx_per_mwu"),
    virt("plan/adaptive_over_static1", "ratio", Higher).floor(1.2),
    virt("plan/adaptive_global_aborts_per_ktx", "count", Lower),
    virt("plan/adaptive_work_units_per_tx", "wu", Lower),
    tput("plan/hint_static_tx_per_mwu"),
    tput("plan/hint_adaptive_tx_per_mwu"),
    virt("plan/hint_adaptive_over_static", "ratio", Higher).floor(0.92),
    // Split (Part-HTM) vs the global lock (HTM-GL) per capacity backend.
    tput("rescue/tsx_split_tx_per_mwu"),
    tput("rescue/tsx_glock_tx_per_mwu"),
    tput("rescue/power_split_tx_per_mwu"),
    tput("rescue/power_glock_tx_per_mwu"),
    tput("rescue/limited_split_tx_per_mwu"),
    tput("rescue/limited_glock_tx_per_mwu"),
    // Group commit (`batch_max: 8` vs 1) on both clocks, with the counts the
    // wall/virtual gap is attributed from; admission control at 2x overload.
    host("server/serve_loop_ns_per_req", "ns", Lower),
    host("server/batched_req_per_s", "1/s", Higher),
    host("server/unbatched_req_per_s", "1/s", Higher),
    wall("server/batch_speedup_wall", Higher).floor(1.3),
    tput("server/batched_req_per_mwu"),
    tput("server/unbatched_req_per_mwu"),
    virt("server/batch_speedup_virt", "ratio", Higher),
    virt("server/batched_p999_wu", "wu", Lower),
    virt("server/unbatched_p999_wu", "wu", Lower),
    count("server/batched_begins_per_req", "count"),
    count("server/unbatched_begins_per_req", "count"),
    count("server/batched_publishes_per_req", "count"),
    count("server/unbatched_publishes_per_req", "count"),
    count("server/batched_work_units_per_req", "wu"),
    count("server/unbatched_work_units_per_req", "wu"),
    count("server/batched_groups_per_kreq", "count"),
    count("server/unbatched_groups_per_kreq", "count"),
    host("server/saturation_req_per_s", "1/s", Higher),
    host("server/overload_on_req_per_s", "1/s", Higher),
    host("server/overload_off_req_per_s", "1/s", Higher),
    wall("server/overload_sat_frac", Higher).floor(0.8),
    wall("server/admission_gain", Higher),
    // Part-HTM design choices on the Fig. 3(b) cell. It fits the fast path at
    // 4 cores, so the partitioned-path choices are ablated with it off.
    tput("ablation/default_tx_per_mwu"),
    tput("ablation/nofast_tx_per_mwu"),
    tput("ablation/nofast_validate_at_commit_only_tx_per_mwu"),
    tput("ablation/nofast_sig_512_tx_per_mwu"),
    tput("ablation/nofast_sig_4096_tx_per_mwu"),
    tput("ablation/nofast_sub_retries_1_tx_per_mwu"),
    tput("ablation/nofast_sub_retries_20_tx_per_mwu"),
];

/// Median and quartiles of a sample, by the method perfbench's `check` reads
/// them with (Python's `statistics.quantiles(v, n=4)`, "exclusive").
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// The row's value.
    pub median: f64,
    /// Lower quartile.
    pub q1: f64,
    /// Upper quartile.
    pub q3: f64,
    /// Sample size (1 for a virtual cell).
    pub n: usize,
}

impl Summary {
    /// Summarise a non-empty sample.
    pub fn of(mut v: Vec<f64>) -> Self {
        assert!(v.iter().all(|x| x.is_finite()), "non-finite sample {v:?}");
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let q = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Self {
            median: (v[(n - 1) / 2] + v[n / 2]) / 2.0,
            q1: q(1),
            q3: q(3),
            n,
        }
    }
}

/// What the measurement code hands over: `(row key, sample)` in measurement
/// order.
#[derive(Debug, Default)]
pub struct Measured(pub Vec<(String, Vec<f64>)>);

impl Measured {
    /// Add one value to row `key`'s sample: a virtual cell puts once, a wall
    /// row once per repetition.
    pub fn put(&mut self, key: impl Into<String>, value: f64) {
        let key = key.into();
        match self.0.iter_mut().find(|(k, _)| *k == key) {
            Some((_, sample)) => sample.push(value),
            None => self.0.push((key, vec![value])),
        }
    }
}

/// One report row: its table line and its measured value.
#[derive(Debug)]
pub struct Row {
    /// The table line.
    pub def: &'static RowDef,
    /// Median, quartiles and sample size.
    pub value: Summary,
}

/// Join the measurements to the row table, in table order. A table row nobody
/// measured, or a measurement the table does not list, is a bug in
/// `microbench` and panics naming the row.
pub fn rows(measured: &Measured) -> Vec<Row> {
    for (key, _) in &measured.0 {
        assert!(
            ROWS.iter().any(|d| d.key == key),
            "{key} measured but not in the row table"
        );
    }
    ROWS.iter()
        .map(|def| {
            let found = measured.0.iter().find(|(key, _)| def.key == key);
            let (_, sample) = found.unwrap_or_else(|| panic!("{} not measured", def.key));
            Row {
                def,
                value: Summary::of(sample.clone()),
            }
        })
        .collect()
}

/// The report file: perfbench's shape, one row per line (the layout
/// `scripts/bench-rows.sh` reads).
pub fn render(rows: &[Row], smoke: bool) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            let (d, v) = (r.def, r.value);
            let (workload, metric) = d.key.split_once('/').expect("row keys are group/metric");
            format!(
                "{{\"workload\": \"{}\", \"kind\": \"{}\", \"metric\": \"{}\", \"value\": {}, \
                 \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}, \"n\": {}, \"q1\": {}, \"q3\": {}}}",
                workload,
                d.clock.kind(),
                metric,
                v.median,
                d.unit,
                if d.better == Higher { "higher" } else { "lower" },
                d.bound.map_or("null".to_string(), |b| b.to_string()),
                v.n,
                v.q1,
                v.q3,
            )
        })
        .collect();
    format!(
        "{{\n\"schema\": \"perfbench-report/1\",\n\"claim\": null,\n\"bench\": \"microbench\",\n\
         \"smoke\": {smoke},\n\"rows\": [\n{}\n]\n}}\n",
        lines.join(",\n")
    )
}

/// Rows below their claim floor, each as a message naming the row.
pub fn floor_misses(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .filter_map(|r| {
            let (key, v, floor) = (r.def.key, r.value.median, r.def.floor?);
            (v < floor).then(|| format!("{key} = {v:.3} is below its claim floor {floor}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_table_is_well_formed() {
        for (i, d) in ROWS.iter().enumerate() {
            assert!(
                ROWS[..i].iter().all(|e| e.key != d.key),
                "duplicate row {}",
                d.key
            );
            let (group, metric) = d.key.split_once('/').expect(d.key);
            assert!(
                !group.is_empty() && !metric.is_empty() && !d.unit.is_empty(),
                "{}",
                d.key
            );
            assert!(d.bound.is_none_or(|b| b > 0.0 && b < 1.0), "{}", d.key);
            // A floor is a lower limit on a gated higher-is-better row.
            assert!(
                d.floor.is_none() || (d.better == Higher && d.bound.is_some()),
                "{}",
                d.key
            );
        }
        assert_eq!(ROWS.iter().filter(|d| d.floor.is_some()).count(), 4);
    }

    #[test]
    fn summary_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of((1..=10).map(f64::from).collect());
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        let s = Summary::of(vec![3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Summary::of(vec![7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
    }

    #[test]
    fn a_floor_miss_names_its_row() {
        let def = ROWS
            .iter()
            .find(|d| d.key == "plan/adaptive_over_static1")
            .unwrap();
        let row = |x: f64| Row {
            def,
            value: Summary::of(vec![x]),
        };
        assert!(floor_misses(&[row(1.2), row(1.652)]).is_empty());
        let misses = floor_misses(&[row(1.652), row(1.19)]);
        assert_eq!(misses.len(), 1);
        assert!(
            misses[0].contains("plan/adaptive_over_static1 = 1.190"),
            "{misses:?}"
        );
        assert!(misses[0].contains("1.2"), "{misses:?}");
    }
}
