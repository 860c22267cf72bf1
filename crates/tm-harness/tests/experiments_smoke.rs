//! Smoke coverage for every experiment definition: each table/figure runs end to
//! end at miniature scale and produces structurally valid output.

use tm_harness::algo::Algo;
use tm_harness::experiments::{run_experiment, run_experiment_table, ExpOpts, ALL_IDS};

fn tiny_opts() -> ExpOpts {
    ExpOpts {
        threads: Some(vec![1, 2]),
        scale: 0.02,
        algos: Some(vec![Algo::HtmGl, Algo::PartHtm]),
        stats: false,
        reps: 1,
        adaptive: None,
        ..ExpOpts::default()
    }
}

#[test]
fn every_experiment_runs_and_renders() {
    for id in ALL_IDS {
        let out = run_experiment(id, &tiny_opts())
            .unwrap_or_else(|| panic!("experiment {id} unknown"));
        assert!(out.contains(id), "{id}: output must carry its id\n{out}");
        assert!(!out.trim().is_empty());
    }
}

#[test]
fn figures_expose_tables_with_all_cells() {
    let opts = tiny_opts();
    for id in ALL_IDS.iter().filter(|id| !["table1", "explain"].contains(id)) {
        let (_, table) = run_experiment_table(id, &opts).unwrap();
        let t = table.unwrap_or_else(|| panic!("{id}: figure must expose a table"));
        assert_eq!(t.threads, vec![1, 2], "{id}");
        // fig3b appends its extra Part-HTM-no-fast series.
        assert_eq!(&t.algos[..2], ["HTM-GL", "Part-HTM"], "{id}");
        for (row, threads) in t.cells.iter().zip(&t.threads) {
            for (v, algo) in row.iter().zip(&t.algos) {
                assert!(
                    v.is_finite() && *v > 0.0,
                    "{id}: {algo} at {threads} threads produced {v}"
                );
            }
        }
        // CSV round-trips the same data.
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 1 + t.threads.len(), "{id}");
    }
}

#[test]
fn table1_exposes_no_table_but_renders_rows() {
    let opts = ExpOpts {
        threads: Some(vec![2]),
        scale: 0.05,
        algos: None,
        stats: false,
        reps: 1,
        adaptive: None,
        ..ExpOpts::default()
    };
    let (out, table) = run_experiment_table("table1", &opts).unwrap();
    assert!(table.is_none());
    assert!(out.contains("HTM-GL"));
    assert!(out.contains("Part-HTM"));
    assert!(out.contains('%'));
}

#[test]
fn fig3b_no_fast_only_commits_partitioned_or_gl() {
    // The PartHtmNoFast series must never record fast-path commits.
    use htm_sim::HtmConfig;
    use part_htm_core::TmConfig;
    use tm_harness::run_cell;
    use tm_workloads::micro::{self, NrmwParams};

    let p = NrmwParams::fig3a();
    let r = run_cell(
        Algo::PartHtmNoFast,
        2,
        20,
        HtmConfig::default(),
        TmConfig::default(),
        p.app_words(),
        |rt| micro::init(rt, &p),
        |s, t| micro::Nrmw::new(s, t, 64),
    );
    assert_eq!(r.tm.commits_htm, 0);
    assert_eq!(r.commits, 40);
}

#[test]
fn extended_algos_run_the_figures_too() {
    // SpHT is not in the paper's legends but must drive any experiment.
    let opts = ExpOpts {
        threads: Some(vec![2]),
        scale: 0.02,
        algos: Some(vec![Algo::SpHt]),
        stats: true,
        reps: 2,
        adaptive: None,
        ..ExpOpts::default()
    };
    for id in ["fig3a", "fig4a"] {
        let (out, table) = run_experiment_table(id, &opts).unwrap();
        let t = table.unwrap();
        assert_eq!(t.algos, vec!["SpHT"]);
        assert!(t.cells[0].iter().all(|v| *v > 0.0));
        // --stats mode gathered one report per algorithm and rendered it.
        assert_eq!(t.reports.len(), 1);
        assert!(out.contains("statistics at 2 threads"));
    }
}
