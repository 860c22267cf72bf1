//! Sharded-ring microbenchmark: the global-commit publish throughput that the
//! address-region sharding of PR 4 targets, measured against the single global
//! ring it replaced, from one binary so the committed before/after numbers
//! (`BENCH_4.json`) are reproducible from this tree alone.
//!
//! Stages:
//!
//! * **mixed publish throughput** (the headline) — committers with *disjoint*
//!   write sets (thread `t`'s addresses all hash into shard `t` of the 8-shard
//!   geometry): one software committer (a partitioned-path global commit,
//!   which holds the ring lock) beside hardware committers (fast-path commits,
//!   which subscribe the ring lock and retry on abort with the standard
//!   lock-elision spin). On the **single** ring every hardware committer
//!   subscribes *the* lock, so whenever the software committer parks inside
//!   its critical section (on a 1-core host: whenever it is preempted there)
//!   all hardware publishers burn their time slices on doomed attempts; on the
//!   **sharded** ring disjoint committers touch disjoint shard locks and the
//!   dooming disappears. This is the protocol's coexistence cost — fast-path
//!   and partitioned-path commits sharing one serialisation point — which is
//!   exactly what the sharding removes;
//! * **software-only publish** — the same sweep with every committer
//!   publishing in software. Reported for transparency: the ring lock spins
//!   with `yield_now`, so on a 1-core host lock hand-off costs almost nothing
//!   and this stage shows ~1.0x regardless of sharding (the win needs either
//!   real parallelism or lock-subscribing hardware committers);
//! * **no-conflict validation** — in-flight validation of a disjoint read
//!   signature against rings carrying a timestamp lag, through the grouped
//!   `validate_touched_nt` fast pass the partitioned path runs in production:
//!   the sharded validator pays one group probe per *touched* shard, the
//!   single ring pays one — the sharding tax on the validation path, reported
//!   so regressions are visible next to the publish win.
//!
//! Usage: `ringbench [--smoke] [--density N/D] [--interval K] [--json PATH]
//!                    [--baseline FILE]`
//!   --smoke      ~20x fewer iterations (CI sanity run)
//!   --density N/D  initial density threshold of the summary controller
//!                  (default 1/3)
//!   --interval K initial publishes-between-density-checks (default 256)
//!   --json P     write machine-readable results to P ("-" for stdout)
//!   --baseline F compare the sharded 4-thread mixed publish ops/sec (and, if
//!                the baseline records it, the no-conflict validation
//!                overhead) against a previously committed ringbench JSON;
//!                exit 1 on a >10% publish regression or a >2x validation-
//!                overhead blow-up

use htm_sim::{HeapBuilder, HtmConfig, HtmSystem};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;
use tm_bench::{emit_json, json_number, BenchArgs};
use tm_sig::{ShardTimes, ShardedRing, ShardedSummary, Sig, SigSpec, SummaryTuning};

/// Shard count of the sharded configuration (the `TmConfig::ring_shards`
/// default).
const SHARDS: usize = 8;
/// Committer thread counts swept in the publish stages.
const PUB_THREADS: [usize; 3] = [1, 2, 4];
/// Addresses per published write signature. Sized like a partitioned-path
/// write set that saw a handful of sub-transactions (cf. Fig. 3's workloads);
/// also sets how long a software publish holds its shard lock.
const ADDRS_PER_SIG: usize = 12;
/// Distinct signatures each publisher rotates through (spreads the entry/
/// summary traffic like real commits do, instead of re-publishing one sig).
const SIGS_PER_THREAD: usize = 16;
/// Published entries of timestamp lag the validation stage walks past.
const VALIDATION_LAG: u64 = 48;
/// Shared heap: two ring variants at 1024 entries/shard (~320 B/entry for the
/// 2048-bit geometry) plus scratch.
const HEAP: usize = 1 << 22;

struct Scale {
    /// Total publishes per thread count (shared across the threads).
    pub_target: u64,
    val_iters: u64,
}

impl Scale {
    fn full() -> Self {
        Self {
            pub_target: 240_000,
            val_iters: 100_000,
        }
    }
    fn smoke() -> Self {
        Self {
            pub_target: 12_000,
            val_iters: 5_000,
        }
    }
}

/// Both ring configurations in one heap, plus their summaries.
struct Fixture {
    sys: HtmSystem,
    single: ShardedRing,
    sharded: ShardedRing,
    single_sum: ShardedSummary,
    sharded_sum: ShardedSummary,
}

fn fixture(tuning: SummaryTuning) -> Fixture {
    let cfg = HtmConfig {
        max_threads: *PUB_THREADS.iter().max().unwrap(),
        ..HtmConfig::default()
    };
    let sys = HtmSystem::new(cfg, HEAP);
    let mut b = HeapBuilder::new(HEAP);
    let single = ShardedRing::alloc(&mut b, 1, 1024, SigSpec::PAPER);
    let sharded = ShardedRing::alloc(&mut b, SHARDS, 1024, SigSpec::PAPER);
    let single_sum = single.new_summary_tuned(tuning);
    let sharded_sum = sharded.new_summary_tuned(tuning);
    Fixture {
        sys,
        single,
        sharded,
        single_sum,
        sharded_sum,
    }
}

/// Per-thread write signatures whose addresses all hash into shard
/// `t` of `ring` — the disjoint-write-set regime where sharding should win.
fn disjoint_sigs(ring: &ShardedRing, threads: usize) -> Vec<Vec<Sig>> {
    let spec = ring.spec();
    let mut addr = 0u32;
    let mut next_in_shard = |s: usize| -> u32 {
        loop {
            addr += 1;
            if ring.shard_of_word(spec.bit_of(addr) / 64) == s {
                return addr;
            }
        }
    };
    (0..threads)
        .map(|t| {
            (0..SIGS_PER_THREAD)
                .map(|_| {
                    let mut sig = Sig::new(spec);
                    for _ in 0..ADDRS_PER_SIG {
                        sig.add(next_in_shard(t));
                    }
                    sig
                })
                .collect()
        })
        .collect()
}

/// One hardware publish, retried with the standard lock-elision spin until it
/// commits: attempt, and on any abort (a software committer holding a
/// subscribed shard lock, or a timestamp-line conflict with a concurrent
/// hardware publisher) cancel the announcement if one was made and retry.
fn publish_hw(
    th: &mut htm_sim::HtmThread<'_>,
    ring: &ShardedRing,
    summaries: &ShardedSummary,
    sig: &Sig,
) {
    loop {
        let mut announced = 0u32;
        let res = th.attempt(|tx| {
            announced = 0;
            let (mask, times) = ring.publish_tx_summarized(tx, sig, summaries)?;
            announced = mask;
            Ok((mask, times))
        });
        match res {
            Ok((mask, times)) => {
                ring.complete_publish(sig, mask, &times, summaries);
                return;
            }
            Err(_) => {
                if announced != 0 {
                    ring.cancel_publish(announced, summaries);
                }
                std::hint::spin_loop();
            }
        }
    }
}

/// Publish throughput (total publishes/sec across `threads` committers, best
/// of 3) of `ring` under the given per-thread signature sets. With `mixed`,
/// thread 0 commits in software (the partitioned path's global commit) and
/// threads 1.. commit in hardware (fast-path commits subscribing the shard
/// locks); otherwise every thread commits in software. All threads share one
/// publish budget of `target` total operations so the measurement window ends
/// for everyone at once.
fn bench_publish(
    f: &Fixture,
    ring: &ShardedRing,
    summaries: &ShardedSummary,
    sigs: &[Vec<Sig>],
    threads: usize,
    target: u64,
    mixed: bool,
) -> f64 {
    let mut best = u64::MAX;
    // Rep 0 is a warm-up (first touch of the ring's heap pages, scheduler
    // settling) and is not counted.
    for rep in 0..4 {
        let done = AtomicU64::new(if rep == 0 { target - target / 8 } else { 0 });
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for (t, my_sigs) in sigs.iter().enumerate().take(threads) {
                let (sys, done) = (&f.sys, &done);
                s.spawn(move || {
                    let mut th = sys.thread(t);
                    let mut i = 0usize;
                    while done.fetch_add(1, Relaxed) < target {
                        let sig = &my_sigs[i % SIGS_PER_THREAD];
                        i += 1;
                        if mixed && t > 0 {
                            publish_hw(&mut th, ring, summaries, sig);
                        } else {
                            ring.publish_software_summarized(&th, sig, summaries);
                        }
                    }
                });
            }
        });
        if rep > 0 {
            best = best.min(t0.elapsed().as_nanos() as u64);
        }
    }
    target as f64 / (best as f64 / 1e9)
}

/// No-conflict validation cost (ns/validation, single validator, best of 3)
/// after `VALIDATION_LAG` publishes landed in `ring`. The measured path is
/// the non-advancing `validate_touched_nt` (the grouped fast pass the
/// partitioned path runs in production: zero simulated-heap reads, window
/// restarting from 0 every iteration so the Bloom/group probe actually
/// decides each call).
fn bench_validation(
    f: &Fixture,
    ring: &ShardedRing,
    summaries: &ShardedSummary,
    iters: u64,
) -> f64 {
    let th = f.sys.thread(0);
    // Lag publishes spread across the whole geometry so every shard of the
    // sharded configuration carries entries.
    let mut union = Sig::new(ring.spec());
    for i in 0..VALIDATION_LAG {
        let mut sig = Sig::new(ring.spec());
        for k in 0..3u64 {
            sig.add((50_000 + i * 101 + k * 37) as u32);
        }
        union.union_with(&sig);
        ring.publish_software_summarized(&th, &sig, summaries);
    }
    // A reader of three addresses colliding with no published entry, so every
    // validation is conflict-free (the common case the fast path serves).
    let mut rsig = Sig::new(ring.spec());
    let mut found = 0u32;
    for a in 0u32.. {
        let mut probe = Sig::new(ring.spec());
        probe.add(a);
        if !probe.intersects(&union) && !probe.intersects(&rsig) {
            rsig.add(a);
            found += 1;
            if found == 3 {
                break;
            }
        }
    }

    // Sanity: the summary fast path must decide this workload on every shard.
    {
        let mut times = ShardTimes::new();
        let v = ring.validate_touched_nt(&th, summaries, &rsig, &mut times);
        assert!(v.result.is_ok());
        assert_eq!(v.walked_shards, 0, "summary fast path missed");
    }

    let mut best = u64::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            let mut times = ShardTimes::new();
            let v = ring.validate_touched_nt(&th, summaries, &rsig, &mut times);
            assert!(std::hint::black_box(v).result.is_ok());
        }
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best as f64 / iters as f64
}

fn main() {
    let args = BenchArgs::parse();
    let smoke = args.smoke;
    let mut tuning = SummaryTuning::default();
    if let Some(spec) = args.value("--density") {
        let (n, d) = spec
            .split_once('/')
            .unwrap_or_else(|| panic!("--density {spec}: expected N/D"));
        tuning.density_num = n.parse().expect("--density numerator");
        tuning.density_den = d.parse().expect("--density denominator");
    }
    if let Some(interval) = args.parsed("--interval") {
        tuning.check_interval = interval;
    }
    let scale = if smoke { Scale::smoke() } else { Scale::full() };

    eprintln!(
        "ringbench: {} run (density {}/{}, interval {})",
        args.run_kind(),
        tuning.density_num,
        tuning.density_den,
        tuning.check_interval
    );

    let f = fixture(tuning);
    let max_threads = *PUB_THREADS.iter().max().unwrap();
    let sigs = disjoint_sigs(&f.sharded, max_threads);

    // Sanity: the per-thread shard sets really are disjoint singletons.
    for (t, my_sigs) in sigs.iter().enumerate() {
        for sig in my_sigs {
            assert_eq!(f.sharded.shard_mask(sig), 1 << t, "thread {t} sig leaked");
            assert_eq!(f.single.shard_mask(sig), 1, "single ring has one shard");
        }
    }

    let run_sweep = |mixed: bool| -> Vec<(usize, f64, f64)> {
        let kind = if mixed { "mixed sw+hw" } else { "software" };
        PUB_THREADS
            .iter()
            .map(|&t| {
                eprintln!("  [publish/{kind}] {t} thread(s), single ring...");
                let single = bench_publish(
                    &f,
                    &f.single,
                    &f.single_sum,
                    &sigs,
                    t,
                    scale.pub_target,
                    mixed,
                );
                eprintln!("  [publish/{kind}] {t} thread(s), {SHARDS}-shard ring...");
                let sharded = bench_publish(
                    &f,
                    &f.sharded,
                    &f.sharded_sum,
                    &sigs,
                    t,
                    scale.pub_target,
                    mixed,
                );
                (t, single, sharded)
            })
            .collect()
    };

    let mixed = run_sweep(true);
    let sw_only = run_sweep(false);

    eprintln!("  [validate] no-conflict, single vs sharded...");
    let vf = fixture(tuning);
    let val_single = bench_validation(&vf, &vf.single, &vf.single_sum, scale.val_iters);
    let val_sharded = bench_validation(&vf, &vf.sharded, &vf.sharded_sum, scale.val_iters);

    println!("ringbench results ({} run)", if smoke { "smoke" } else { "full" });
    for &(t, single, sharded) in &mixed {
        println!(
            "publish mixed {t}t        {single:>12.3e} op/s {sharded:>12.3e} op/s   {:>6.2}x   (single / {SHARDS}-shard)",
            sharded / single
        );
    }
    for &(t, single, sharded) in &sw_only {
        println!(
            "publish sw-only {t}t      {single:>12.3e} op/s {sharded:>12.3e} op/s   {:>6.2}x   (single / {SHARDS}-shard)",
            sharded / single
        );
    }
    println!(
        "validation 1t           {val_single:>10.1} ns {val_sharded:>10.1} ns   {:>+5.1}%   (single / {SHARDS}-shard)",
        (val_sharded / val_single - 1.0) * 100.0
    );

    let sharded_4t = mixed
        .iter()
        .find(|&&(t, _, _)| t == max_threads)
        .map(|&(_, _, s)| s)
        .unwrap();

    let sweep_json = |rows: &[(usize, f64, f64)]| -> String {
        rows.iter()
            .map(|&(t, single, sharded)| {
                format!(
                    concat!(
                        "    {{\"threads\": {}, \"single_ops_per_sec\": {:.0}, ",
                        "\"sharded_ops_per_sec\": {:.0}, \"speedup\": {:.3}}}"
                    ),
                    t,
                    single,
                    sharded,
                    sharded / single
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"ringbench\",\n",
            "  \"config\": {{\"smoke\": {}, \"sig_bits\": {}, \"shards\": {}, ",
            "\"addrs_per_sig\": {}, \"sigs_per_thread\": {}, \"validation_lag\": {}}},\n",
            "  \"publish_mixed_disjoint\": [\n{}\n  ],\n",
            "  \"publish_software_disjoint\": [\n{}\n  ],\n",
            "  \"validation_no_conflict\": {{\"single_ns_per_val\": {:.1}, ",
            "\"sharded_ns_per_val\": {:.1}, \"overhead_pct\": {:.2}}},\n",
            "  \"sharded_{}t_ops_per_sec\": {:.0}\n",
            "}}\n"
        ),
        smoke,
        SigSpec::PAPER.bits(),
        SHARDS,
        ADDRS_PER_SIG,
        SIGS_PER_THREAD,
        VALIDATION_LAG,
        sweep_json(&mixed),
        sweep_json(&sw_only),
        val_single,
        val_sharded,
        (val_sharded / val_single - 1.0) * 100.0,
        max_threads,
        sharded_4t,
    );

    if let Some(path) = &args.json {
        emit_json(path, &json);
    }

    if let Some(path) = &args.baseline {
        let blob =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--baseline {path}: {e}"));
        let key = format!("sharded_{max_threads}t_ops_per_sec");
        let base = json_number(&blob, &key)
            .unwrap_or_else(|| panic!("--baseline {path}: no \"{key}\" field"));
        let ratio = sharded_4t / base;
        println!(
            "regression gate: sharded mixed publish {max_threads}t {sharded_4t:.0} vs baseline {base:.0} ({ratio:.2}x)"
        );
        if ratio < 0.90 {
            eprintln!("FAIL: sharded publish throughput regressed more than 10% vs {path}");
            std::process::exit(1);
        }
        // Validation-overhead gate: only when the baseline recorded the same
        // stage (older BENCH files predate it at this key granularity).
        if let (Some(base_single), Some(base_sharded)) = (
            json_number(&blob, "single_ns_per_val"),
            json_number(&blob, "sharded_ns_per_val"),
        ) {
            let base_ratio = base_sharded / base_single;
            let now_ratio = val_sharded / val_single;
            println!(
                "regression gate: sharded/single validation {now_ratio:.2}x vs baseline {base_ratio:.2}x"
            );
            if now_ratio > base_ratio * 2.0 {
                eprintln!(
                    "FAIL: sharded validation overhead blew up more than 2x vs {path}"
                );
                std::process::exit(1);
            }
        }
    }
}
