//! Tests of the benchmark itself (run with `cargo test --release --offline`
//! in `benchmark/`; the root workspace does not know this package).

use crate::cell::{self, CellArgs};
use crate::json::{self, Json};
use crate::spec::{spec_of, Spec, END_TO_END, PER_LAYER, WORKLOADS};

/// `BENCHMARK.json` and the tables in `spec.rs` say the same thing.
#[test]
fn benchmark_json_matches_the_tables() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let j = json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| j.get(key).and_then(Json::as_arr).expect(key).to_vec();
    let s = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);

    let names: Vec<_> = list("workloads").iter().map(|w| s(w, "name")).collect();
    let want: Vec<_> = WORKLOADS.iter().map(|(n, _)| Some(n.to_string())).collect();
    assert_eq!(names, want);

    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let got = list(key);
        assert_eq!(got.len(), table.len(), "{key} length");
        for (g, d) in got.iter().zip(table) {
            assert_eq!(s(g, "name").as_deref(), Some(d.name));
            assert_eq!(s(g, "unit").as_deref(), Some(d.unit), "{}", d.name);
            assert_eq!(
                s(g, "better").as_deref(),
                Some(d.better.as_str()),
                "{}",
                d.name
            );
            if key == "end_to_end" {
                assert_eq!(
                    g.get("bound").and_then(Json::as_f64),
                    Some(d.bound),
                    "{}",
                    d.name
                );
            }
        }
    }
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
}

/// Transactions per core of the scaled-down library cells.
const LIB_TEST_OPS: usize = 4;

/// `nrmw_capacity`'s virtual cell at test scale, straight through the
/// harness with no benchmark wrapper in the way.
fn untraced_capacity_makespan() -> u64 {
    use crate::spec::{NRMW_SLICES, VIRT_CORES};
    let Some(Spec::Lib(s)) = spec_of("nrmw_capacity") else {
        panic!("nrmw_capacity is a library workload");
    };
    let rt = part_htm_core::TmRuntime::new(
        s.htm.clone(),
        part_htm_core::TmConfig::default(),
        VIRT_CORES,
        s.params.app_words(),
    );
    let shared = tm_workloads::micro::init(&rt, &s.params);
    let sched = htm_sim::SchedSpec {
        seed: 11,
        ..htm_sim::SchedSpec::default()
    };
    let (r, _) = tm_harness::run_threads_virtual::<part_htm_core::PartHtm, _, _>(
        &rt,
        VIRT_CORES,
        LIB_TEST_OPS,
        sched,
        |t| tm_workloads::micro::Nrmw::new(shared, t, NRMW_SLICES),
    );
    r.makespan
}

/// A scaled-down virtual cell, minus the keys that measure the host.
fn virt_cell(workload: &str, seed: u64, gap: f64) -> Vec<(String, f64)> {
    let spec = match spec_of(workload).expect("known workload") {
        Spec::Lib(mut s) => {
            s.virt_ops = s.virt_ops.min(LIB_TEST_OPS);
            Spec::Lib(s)
        }
        Spec::Srv(mut s) => {
            s.rung_n = 1_000;
            s.sat_n = 1_000;
            Spec::Srv(s)
        }
    };
    let args = CellArgs {
        kind: "virt".to_string(),
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        proto: "parthtm".to_string(),
        gap,
        admission_off: false,
        pin: None,
        out_dir: String::new(),
    };
    cell::run_spec(&args, &spec).expect("cell runs");
    let mut out = cell::take_output();
    out.retain(|(k, _)| !["host_s", "kwu_per_host_s", "rss_mb"].contains(&k.as_str()));
    assert!(
        out.iter().any(|(k, v)| k == "failed" && *v == 0.0),
        "outputs are correct"
    );
    out
}

/// One test, not several: the tracer's sink is process-wide, so virtual
/// cells must not run side by side in this process.
#[test]
fn virtual_cells_are_a_function_of_the_seed() {
    // `--seed` drives gen_requests, the arrival plan and SchedSpec.seed: the
    // same seed gives the same cell to the last bit, another seed another.
    for (workload, gap) in [("server_small", 4.0), ("server_hot", 0.0)] {
        let a = virt_cell(workload, 11, gap);
        assert_eq!(
            a,
            virt_cell(workload, 11, gap),
            "{workload}: same seed must repeat exactly"
        );
        assert_ne!(
            a,
            virt_cell(workload, 12, gap),
            "{workload}: the seed must matter"
        );
    }
    // The tracer reads the virtual clock and never advances it: an untraced
    // run of the same cell ends at the same virtual instant.
    let traced = virt_cell("nrmw_capacity", 11, 0.0);
    let makespan = traced
        .iter()
        .find(|(k, _)| k == "makespan_wu")
        .expect("makespan")
        .1;
    assert_eq!(makespan, untraced_capacity_makespan() as f64);
    // The library workloads draw nothing from the seed (RNG-free, disjoint,
    // MinId tie-breaks, no injected interrupts): documented as
    // seed-independent, and checked here.
    assert_eq!(
        virt_cell("nrmw_fit", 11, 0.0),
        virt_cell("nrmw_fit", 12, 0.0)
    );
}
