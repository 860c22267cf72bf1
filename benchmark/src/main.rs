//! `perfbench` — the repository's one benchmark: four workloads, two clocks
//! (`wall_*` = host time on 2 OS threads, `virt_*` = `htm_sim::vclock` work
//! units on 4 simulated cores), end-to-end metrics with tracing off and
//! per-layer metrics from a separate traced pass. See `README.md`.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1   one run, JSON on the last line
//! perfbench report [--seed N] [--seconds S] [--out FILE]    all workloads, both passes
//!           (both take --deadline S: kill any cell after S seconds instead of its default)
//! perfbench check A.json B.json                             compare two reports
//! perfbench cell ...                                        (internal) one cell, one process
//! ```

mod cell;
mod check;
mod json;
mod probe;
mod spec;
mod stats;
mod sys;
mod trace;

use spec::{MetricDef, Spec, END_TO_END, PER_LAYER, WORKLOADS};
use stats::Summary;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use sys::{CellError, CellOut};

const DEFAULT_SEED: u64 = 11;
const DEFAULT_SECONDS: f64 = 10.0;
/// A whole run must end within the contract's 180 s; cells started late get
/// what is left of this.
const RUN_BUDGET: Duration = Duration::from_secs(170);

/// `--key value` pairs after the subcommand.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_string(), v.clone());
    }
    Ok(out)
}

fn flag<T: std::str::FromStr>(
    f: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match f.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for --{key}: {v:?}")),
    }
}

/// Where traces and reports go: `out/` next to `run.sh`.
fn out_dir() -> String {
    let base = std::env::var("PERFBENCH_DIR").unwrap_or_else(|_| "benchmark".to_string());
    format!("{base}/out")
}

/// One cell to run: label, `perfbench cell` arguments, deadline. Replicas
/// of a cell share its label and differ in the seed they derive.
struct Job {
    label: String,
    args: Vec<String>,
    deadline: Duration,
}

/// Replicas of the server's reference-rung and saturated virtual cells: a
/// p99 over 3 000 requests, or a saturated run that does or does not hit a
/// lock convoy, moves by 10-20% from one generated stream to the next; the
/// median of three streams moves by half of that.
const REPLICAS: u64 = 3;

/// A cell's name within a run: what its replicas share and results are
/// looked up by.
fn cell_label(kind: &str, proto: &str, gap: f64, admission_off: bool) -> String {
    let adm = if admission_off { "/admission-off" } else { "" };
    format!("{kind}/{proto}/gap{gap}{adm}")
}

struct Ctx<'a> {
    workload: &'a str,
    seed: u64,
    seconds: f64,
    /// `--deadline`: overrides every cell's default deadline.
    deadline: Option<Duration>,
    started: Instant,
}

impl Ctx<'_> {
    fn job(&self, kind: &str, proto: &str, gap: f64, admission_off: bool) -> Job {
        self.replica(kind, proto, gap, admission_off, 0)
    }

    fn replica(&self, kind: &str, proto: &str, gap: f64, admission_off: bool, k: u64) -> Job {
        let deadline = self.deadline.unwrap_or(match kind {
            "virt" if self.workload == "nrmw_capacity" => Duration::from_secs(90),
            "virt" => Duration::from_secs(60),
            _ => Duration::from_secs_f64(self.seconds * 4.0 + 60.0),
        });
        let mut args: Vec<String> = [
            ("--kind", kind.to_string()),
            ("--workload", self.workload.to_string()),
            ("--seed", self.seed.wrapping_add(k * 1_000_003).to_string()),
            ("--seconds", self.seconds.to_string()),
            ("--proto", proto.to_string()),
            ("--gap", gap.to_string()),
            ("--out-dir", out_dir()),
        ]
        .into_iter()
        .flat_map(|(k, v)| [k.to_string(), v])
        .collect();
        if admission_off {
            args.extend(["--admission".to_string(), "off".to_string()]);
        }
        Job {
            label: cell_label(kind, proto, gap, admission_off),
            args,
            deadline,
        }
    }

    /// Run `jobs` on `par` workers, each pinning its cells to its own CPU
    /// when `pin` is set. Results come back in job order.
    fn run_jobs(
        &self,
        jobs: Vec<Job>,
        par: usize,
        pin: bool,
    ) -> Vec<(String, Result<CellOut, CellError>)> {
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<Result<CellOut, CellError>>>> =
            Mutex::new(jobs.iter().map(|_| None).collect());
        std::thread::scope(|s| {
            for worker in 0..par.max(1) {
                let (next, results, jobs) = (&next, &results, &jobs);
                s.spawn(move || loop {
                    // Relaxed: the counter only hands out indices.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { return };
                    let left = RUN_BUDGET.saturating_sub(self.started.elapsed());
                    let mut args = job.args.clone();
                    if pin {
                        args.extend(["--pin".to_string(), worker.to_string()]);
                    }
                    let r = sys::spawn_cell(&args, job.deadline.min(left))
                        .map_err(|e| CellError::Failed(e.to_string()))
                        .and_then(sys::Cell::wait);
                    results.lock().expect("job results")[i] = Some(r);
                });
            }
        });
        let results = results.into_inner().expect("job results");
        jobs.into_iter()
            .zip(results)
            .map(|(j, r)| (j.label, r.expect("every job ran")))
            .collect()
    }
}

/// The result of one `--workload W --trace T` run.
struct Outcome {
    /// `(metric, value)` in table order.
    metrics: Vec<(&'static MetricDef, f64)>,
    /// Quartiles of the metrics that are medians over reps (wall metrics).
    summaries: BTreeMap<&'static str, Summary>,
    attempted: u64,
    failed: u64,
    /// Cells that were killed or crashed; non-empty means exit non-zero.
    broken: Vec<String>,
}

impl Outcome {
    /// (attempted - completed-and-correct) / attempted; a cell killed at its
    /// deadline makes it 1.
    fn failed_frac(&self) -> f64 {
        if self.broken.is_empty() {
            self.failed as f64 / self.attempted.max(1) as f64
        } else {
            1.0
        }
    }
}

fn get(c: Option<&CellOut>, key: &str) -> f64 {
    c.and_then(|c| c.get(key)).copied().unwrap_or(0.0)
}

fn summary_of(c: Option<&CellOut>, key: &str) -> Summary {
    Summary {
        median: get(c, key),
        q1: get(c, &format!("{key}.q1")),
        q3: get(c, &format!("{key}.q3")),
        n: get(c, &format!("{key}.n")) as usize,
    }
}

/// One cell out of its replicas: counts add up, memory is the largest, host
/// time adds up, every other key is the median.
fn merge_replicas(reps: &[&CellOut]) -> CellOut {
    let mut out = CellOut::new();
    for key in reps.iter().flat_map(|r| r.keys()) {
        let vals: Vec<f64> = reps.iter().filter_map(|r| r.get(key)).copied().collect();
        let v = match key.as_str() {
            "attempted" | "failed" | "host_s" => vals.iter().sum(),
            "rss_mb" => vals.iter().copied().fold(0.0, f64::max),
            _ => Summary::of(vals).median,
        };
        out.insert(key.clone(), v);
    }
    out
}

/// What `run` and `report` share.
struct RunOpts {
    seed: u64,
    seconds: f64,
    deadline: Option<Duration>,
}

impl RunOpts {
    fn parse(f: &BTreeMap<String, String>) -> Result<Self, String> {
        let seconds: f64 = flag(f, "seconds", DEFAULT_SECONDS)?;
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err(format!("--seconds must be in (0, 60], not {seconds}"));
        }
        let deadline = f
            .get("deadline")
            .map(|d| {
                let secs = d
                    .parse()
                    .map_err(|_| format!("bad value for --deadline: {d:?}"))?;
                Duration::try_from_secs_f64(secs).map_err(|e| format!("--deadline {d}: {e}"))
            })
            .transpose()?;
        Ok(Self {
            seed: flag(f, "seed", DEFAULT_SEED)?,
            seconds,
            deadline,
        })
    }
}

/// Run one workload, one pass.
fn run_workload(workload: &str, opts: &RunOpts, traced: bool) -> Result<Outcome, String> {
    let spec = spec::spec_of(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let ctx = Ctx {
        workload,
        seed: opts.seed,
        seconds: opts.seconds,
        deadline: opts.deadline,
        started: Instant::now(),
    };

    // The wall cell runs alone; the virtual cells (deterministic whatever
    // the host does) then share the CPUs, one pinned cell per CPU.
    let wall_kind = if traced { "traced" } else { "wall" };
    let wall = ctx.run_jobs(vec![ctx.job(wall_kind, "parthtm", 0.0, false)], 1, false);

    let gaps: &[f64] = match &spec {
        Spec::Lib(_) => &[],
        Spec::Srv(s) => s.gaps,
    };
    // (protocol, gap, admission off) of every virtual cell, longest first so
    // the workers finish together.
    let mut virt_cells = vec![("parthtm", 0.0, false)];
    virt_cells.extend(gaps.iter().map(|&g| ("parthtm", g, false)));
    virt_cells.push(("htmgl", 0.0, false));
    if !traced {
        virt_cells.push(("parthtmo", 0.0, false));
    } else if matches!(spec, Spec::Srv(_)) {
        virt_cells.push(("parthtm", 0.0, true));
    }
    let jobs = virt_cells
        .iter()
        .flat_map(|&(proto, gap, off)| {
            let replicated = match &spec {
                Spec::Srv(s) => gap == 0.0 || gap == s.ref_gap,
                // The library cells do not depend on the seed.
                Spec::Lib(_) => false,
            };
            let n = if replicated { REPLICAS } else { 1 };
            (0..n).map(move |k| (proto, gap, off, k))
        })
        .map(|(proto, gap, off, k)| ctx.replica("virt", proto, gap, off, k))
        .collect();
    let virt = ctx.run_jobs(jobs, sys::nproc().min(4), true);

    let mut out = Outcome {
        metrics: Vec::new(),
        summaries: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        broken: Vec::new(),
    };
    let mut replicas: BTreeMap<&str, Vec<&CellOut>> = BTreeMap::new();
    for (label, r) in wall.iter().chain(&virt) {
        match r {
            Ok(c) => replicas.entry(label).or_default().push(c),
            Err(e) => {
                // A cell that did not finish completed nothing.
                out.attempted += 1;
                out.failed += 1;
                out.broken.push(format!("{workload}: cell {label} {e}"));
            }
        }
    }
    let cells: BTreeMap<&str, CellOut> = replicas
        .into_iter()
        .map(|(label, reps)| (label, merge_replicas(&reps)))
        .collect();
    for c in cells.values() {
        out.attempted += get(Some(c), "attempted") as u64;
        out.failed += get(Some(c), "failed") as u64;
    }
    let cell = |kind: &str, proto: &str, gap: f64, off: bool| {
        cells.get(cell_label(kind, proto, gap, off).as_str())
    };
    let wall_c = cell(wall_kind, "parthtm", 0.0, false);
    let sat = cell("virt", "parthtm", 0.0, false);
    let htmgl = cell("virt", "htmgl", 0.0, false);
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    if traced {
        // Count metrics of the Part-HTM virtual cell, timing metrics of the
        // traced wall cell; both already carry their final names.
        for c in [sat, wall_c].into_iter().flatten() {
            for def in PER_LAYER {
                if let Some(&v) = c.get(def.name) {
                    values.insert(def.name, v);
                }
            }
        }
        values.insert("htm_sim.vclock_host_s", get(sat, "host_s"));
        values.insert("htm_sim.vclock_kwu_per_host_s", get(sat, "kwu_per_host_s"));
        values.insert("baseline.htmgl_virt_tx_per_mwu", get(htmgl, "tx_per_mwu"));
        if let Spec::Srv(s) = &spec {
            for (def, &g) in PER_LAYER
                .iter()
                .filter(|d| d.name.starts_with("tm_server.p99_wu.rung"))
                .zip(s.gaps)
            {
                values.insert(
                    def.name,
                    get(cell("virt", "parthtm", g, false), "sojourn_p99_wu"),
                );
            }
            let at_ref = cell("virt", "parthtm", s.ref_gap, false);
            let sojourn = get(at_ref, "sojourn_mean_wu");
            values.insert(
                "tm_server.queue_wait_share",
                ratio(sojourn - get(at_ref, "exec_wu_per_req"), sojourn),
            );
            let off = cell("virt", "parthtm", 0.0, true);
            values.insert(
                "tm_server.admission_gain_virt",
                ratio(get(sat, "tx_per_mwu"), get(off, "tx_per_mwu")),
            );
        }
        out.metrics = PER_LAYER
            .iter()
            .map(|d| (d, values.get(d.name).copied().unwrap_or(0.0)))
            .collect();
    } else {
        let sat_o = cell("virt", "parthtmo", 0.0, false);
        let tx_per_mwu = get(sat, "tx_per_mwu");
        for key in ["setup_s", "wall_tx_per_s", "wall_tx_per_s_o"] {
            values.insert(key, get(wall_c, key));
            out.summaries.insert(key, summary_of(wall_c, key));
        }
        values.insert("virt_tx_per_mwu", tx_per_mwu);
        values.insert("virt_tx_per_mwu_o", get(sat_o, "tx_per_mwu"));
        values.insert(
            "virt_speedup_vs_htmgl",
            ratio(tx_per_mwu, get(htmgl, "tx_per_mwu")),
        );
        match &spec {
            // Closed loop: latency is the transaction's own `execute` span,
            // and the highest sustainable rate is the saturated throughput.
            Spec::Lib(_) => {
                values.insert("virt_p50_wu", get(sat, "exec_p50_wu"));
                values.insert("virt_p99_wu", get(sat, "exec_p99_wu"));
                values.insert("virt_max_rate_per_mwu", tx_per_mwu);
            }
            Spec::Srv(s) => {
                let at_ref = cell("virt", "parthtm", s.ref_gap, false);
                values.insert("virt_p50_wu", get(at_ref, "sojourn_p50_wu"));
                values.insert("virt_p99_wu", get(at_ref, "sojourn_p99_wu"));
                let max_rate = s
                    .gaps
                    .iter()
                    .filter(|&&g| {
                        let c = cell("virt", "parthtm", g, false);
                        c.is_some()
                            && get(c, "failed") == 0.0
                            && get(c, "sojourn_p99_wu") <= s.p99_limit_wu as f64
                            && get(c, "makespan_wu") <= 1.05 * get(c, "last_arrival_wu")
                    })
                    .map(|g| 1e6 / g)
                    .fold(0.0, f64::max);
                values.insert("virt_max_rate_per_mwu", max_rate);
            }
        }
        let rss = cells
            .values()
            .map(|c| get(Some(c), "rss_mb"))
            .fold(0.0, f64::max);
        values.insert("peak_rss_mb", rss);
        out.metrics = END_TO_END
            .iter()
            .map(|d| (d, values.get(d.name).copied().unwrap_or(0.0)))
            .collect();
    }
    Ok(out)
}

fn print_outcome(workload: &str, o: &Outcome) {
    for (def, v) in &o.metrics {
        // The paper's ordering is Part-HTM >= HTM-GL. The cost model is
        // unvalidated on silicon, so the ordering is all that is compared.
        let note = match (def.name, *v >= 1.0) {
            ("virt_speedup_vs_htmgl", true) => "  ✓ paper's ordering",
            ("virt_speedup_vs_htmgl", false) => "  ✗ paper's ordering",
            _ => "",
        };
        println!(
            "{workload:<14} {:<40} {v:>18.6} {}{note}",
            def.name, def.unit
        );
    }
    println!(
        "{workload:<14} {:<40} {:>18.6} frac  ({} of {} failed)",
        "ops_failed_frac",
        o.failed_frac(),
        o.failed,
        o.attempted
    );
}

/// The contract's result line.
fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(d, v)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json::quote(d.name),
                json::quote(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn cmd_run(f: &BTreeMap<String, String>) -> Result<ExitCode, String> {
    let workload = f.get("workload").ok_or("--workload is required")?;
    let opts = RunOpts::parse(f)?;
    let traced = match flag(f, "trace", 0u8)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    let o = run_workload(workload, &opts, traced)?;
    print_outcome(workload, &o);
    if !o.broken.is_empty() {
        for b in &o.broken {
            eprintln!("perfbench: {b}");
        }
        return Ok(ExitCode::FAILURE);
    }
    if o.metrics.iter().any(|(_, v)| !v.is_finite()) {
        return Err("a metric is not a finite number".to_string());
    }
    println!("{}", result_json(&o));
    Ok(ExitCode::SUCCESS)
}

/// All four workloads, both passes, one report file.
fn cmd_report(f: &BTreeMap<String, String>) -> Result<ExitCode, String> {
    let opts = RunOpts::parse(f)?;
    let (seed, seconds) = (opts.seed, opts.seconds);
    let path = f
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("{}/report.json", out_dir()));
    let mut rows = Vec::new();
    let mut broken = Vec::new();
    for (workload, why) in WORKLOADS {
        println!("# {workload}: {why}");
        for traced in [false, true] {
            let o = run_workload(workload, &opts, traced)?;
            print_outcome(workload, &o);
            let kind = if traced { "per_layer" } else { "end_to_end" };
            for (d, v) in &o.metrics {
                let mut row = format!(
                    "{{\"workload\": {}, \"kind\": \"{kind}\", \"metric\": {}, \"value\": {v}, \"unit\": {}, \"better\": \"{}\"",
                    json::quote(workload),
                    json::quote(d.name),
                    json::quote(d.unit),
                    d.better.as_str()
                );
                if !traced {
                    row += &format!(", \"bound\": {}", d.bound);
                }
                if let Some(s) = o.summaries.get(d.name) {
                    row += &format!(", \"n\": {}, \"q1\": {}, \"q3\": {}", s.n, s.q1, s.q3);
                }
                rows.push(row + "}");
            }
            rows.push(format!(
                "{{\"workload\": {}, \"kind\": \"{kind}\", \"metric\": \"ops_failed_frac\", \"value\": {}, \"unit\": \"frac\", \"better\": \"lower\", \"bound\": 0}}",
                json::quote(workload),
                o.failed_frac()
            ));
            broken.extend(o.broken);
        }
    }
    let host: Vec<String> = sys::host_fingerprint()
        .into_iter()
        .map(|(k, v)| format!("{}: {}", json::quote(k), json::quote(&v)))
        .collect();
    let text = format!(
        "{{\n\"schema\": \"perfbench-report/1\",\n\"claim\": null,\n\"seed\": {seed},\n\"seconds\": {seconds},\n\"host\": {{{}}},\n\"rows\": [\n{}\n]\n}}\n",
        host.join(", "),
        rows.join(",\n")
    );
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
    println!("# report written to {path}");
    for b in &broken {
        eprintln!("perfbench: {b}");
    }
    Ok(if broken.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_cell(f: &BTreeMap<String, String>) -> Result<ExitCode, String> {
    let args = cell::CellArgs {
        kind: flag(f, "kind", String::new())?,
        workload: flag(f, "workload", String::new())?,
        seed: flag(f, "seed", DEFAULT_SEED)?,
        seconds: flag(f, "seconds", DEFAULT_SECONDS)?,
        proto: flag(f, "proto", "parthtm".to_string())?,
        gap: flag(f, "gap", 0.0)?,
        admission_off: f.get("admission").is_some_and(|v| v == "off"),
        pin: f
            .get("pin")
            .map(|p| p.parse().map_err(|_| "bad --pin"))
            .transpose()?,
        out_dir: flag(f, "out-dir", out_dir())?,
    };
    cell::run(&args)?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("cell") => flags(&args[1..]).and_then(|f| cmd_cell(&f)),
        Some("report") => flags(&args[1..]).and_then(|f| cmd_report(&f)),
        Some("check") => match &args[1..] {
            [a, b] => check::run(a, b),
            _ => Err("usage: perfbench check A.json B.json".to_string()),
        },
        _ => flags(&args).and_then(|f| cmd_run(&f)),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
