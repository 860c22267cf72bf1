//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment|all> [--threads 1,2,4,8] [--scale 0.5] [--algos part-htm,htm-gl]
//!       [--csv DIR] [--stats] [--reps N] [--adaptive on|off] [--backend tsx|power|limited]
//! ```
//!
//! `--adaptive off` pins the static per-declared-segment plan (the paper's
//! hand-tuned hints); `--adaptive on` forces the abort-profiled planner. The
//! default keeps `TmConfig::default()` (adaptive).
//!
//! `--backend` selects the HTM capacity model every cell runs on (see
//! docs/backends.md): `tsx`, the default and the model the recorded figures
//! were produced with; `power`, a flat 64-line write set and 128-line read
//! set; `limited`, a FORTH-style small-set machine with software spill.
//!
//! `--csv DIR` additionally writes one `DIR/<experiment>.csv` per figure, ready for
//! plotting.
//!
//! Experiments: table1, fig3a, fig3b, fig3c, fig4a, fig4b, fig5a..fig5i, fig6a,
//! fig6b, vsweep (deterministic virtual-time scaling table) and explain (who
//! aborted whom on which region, perfbench's `nrmw_capacity` shape). See
//! EXPERIMENTS.md for the recorded paper-vs-measured comparison.

use htm_sim::BackendKind;
use tm_harness::algo::Algo;
use tm_harness::experiments::{run_experiment_table, ExpOpts, ALL_IDS};

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment|all> [--threads 1,2,4] [--scale F] [--algos a,b,c] [--csv DIR] [--stats] [--reps N] [--adaptive on|off] [--backend tsx|power|limited]\n\
         experiments: {}",
        ALL_IDS.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let target = args[0].clone();
    let mut opts = ExpOpts::default();
    let mut csv_dir: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                i += 1;
                let list = args.get(i).unwrap_or_else(|| usage());
                opts.threads = Some(
                    list.split(',')
                        .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                        .collect(),
                );
            }
            "--scale" => {
                i += 1;
                opts.scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--algos" => {
                i += 1;
                let list = args.get(i).unwrap_or_else(|| usage());
                opts.algos = Some(
                    list.split(',')
                        .map(|s| Algo::parse(s.trim()).unwrap_or_else(|| usage()))
                        .collect(),
                );
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(args.get(i).unwrap_or_else(|| usage()).clone());
            }
            "--stats" => {
                opts.stats = true;
            }
            "--reps" => {
                i += 1;
                opts.reps = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--adaptive" => {
                i += 1;
                opts.adaptive = match args.get(i).map(String::as_str) {
                    Some("on") => Some(true),
                    Some("off") => Some(false),
                    _ => usage(),
                };
            }
            "--backend" => {
                i += 1;
                opts.backend = args
                    .get(i)
                    .and_then(|s| BackendKind::parse(s.trim()))
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }

    let ids: Vec<&str> = if target == "all" {
        ALL_IDS.to_vec()
    } else if ALL_IDS.contains(&target.as_str()) {
        vec![target.as_str()]
    } else {
        usage();
    };

    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("cannot create --csv directory");
    }
    for id in ids {
        let started = std::time::Instant::now();
        match run_experiment_table(id, &opts) {
            Some((out, table)) => {
                println!("{out}");
                eprintln!("[{id} took {:.1?}]", started.elapsed());
                if let (Some(dir), Some(t)) = (&csv_dir, table) {
                    let path = format!("{dir}/{id}.csv");
                    std::fs::write(&path, t.to_csv()).expect("cannot write CSV");
                    eprintln!("[wrote {path}]");
                }
            }
            None => eprintln!("unknown experiment {id}"),
        }
    }
}
