//! Memory-layout microbenchmark: the word kernels and cache-line padding of
//! the layout speed pass, measured from one binary so the
//! committed before/after numbers (`BENCH_5.json`) are reproducible from this
//! tree alone.
//!
//! Stages:
//!
//! * **kernel ns/word** — the 4-wide-unrolled kernels
//!   (`tm_sig::kernels::unrolled`) against the scalar loops they replaced
//!   (`tm_sig::kernels::scalar`), at 2048 / 4096 / 8192 signature bits.
//!   The headline row is `intersect_dense` — the signature-intersection walk
//!   behind ring validation and summary probes, over two disjoint dense
//!   signatures (no early exit) — where the 4-wide reduce replaces a branch
//!   per word with a branch per chunk. `fold_full` (the unmasked emptiness
//!   fold) wins even bigger. `or_sparse` and `and_not_sparse` carry a
//!   write-set-shaped operand (a handful of non-zero words) through the
//!   kernels production calls for that shape — `or_into_masked` /
//!   `and_not_masked` (`Sig::union_with` / `Sig::subtract`), guided by the
//!   operand's non-zero-word mask, which `Sig` maintains and the stage
//!   computes once outside the timed loop.
//! * **false-sharing A/B** — four threads hammering per-thread counters that
//!   are either packed into one cache line (`[AtomicU64; 4]`, every increment
//!   invalidates the neighbours' line) or padded one-per-line
//!   (`CacheAligned<AtomicU64>`, the layout every per-thread structure in this
//!   tree uses). On a multi-core host the padded layout wins by the coherence
//!   miss cost; on a single-core host (CI) both layouts run at the same speed
//!   and the stage only checks padding costs nothing.
//!
//! Usage: `membench [--smoke] [--json PATH] [--baseline FILE]`
//!   --smoke      ~20x fewer iterations (CI sanity run)
//!   --json P     write machine-readable results to P ("-" for stdout)
//!   --baseline F compare against a previously committed membench JSON;
//!                exit 1 when the unrolled 2048-bit `intersect_dense` kernel
//!                runs >2x the baseline ns/word, or when the padded/packed
//!                counter ratio collapses below half the baseline's (a
//!                false-sharing blow-up in a padded structure)
use htm_sim::CacheAligned;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;
use tm_bench::{baseline_number, emit_json, BenchArgs};
use tm_sig::kernels::{scalar, unrolled};

/// Signature sizes swept by the kernel stage, in bits (words = bits / 64).
/// 2048 is the paper geometry (`SigSpec::PAPER`); 8192 is heap-backed.
const KERNEL_BITS: [usize; 3] = [2048, 4096, 8192];
/// Threads in the false-sharing stage (the paper's Haswell core count).
const FS_THREADS: usize = 4;
/// Non-zero words in the write-set-shaped sparse operand.
const SPARSE_WORDS: usize = 3;

struct Scale {
    kernel_iters: u64,
    fs_iters: u64,
}

impl Scale {
    fn full() -> Self {
        Self {
            kernel_iters: 200_000,
            fs_iters: 2_000_000,
        }
    }
    fn smoke() -> Self {
        Self {
            kernel_iters: 10_000,
            fs_iters: 100_000,
        }
    }
}

/// Best-of-3 wall time for `f()`, in nanoseconds.
fn best_of<F: FnMut()>(mut f: F) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best
}

/// Dense pattern with every word non-zero; `phase` decorrelates operands.
fn dense(words: usize, phase: u64) -> Vec<u64> {
    (0..words as u64)
        .map(|i| (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | phase)
        .collect()
}

/// Write-set-shaped operand: [`SPARSE_WORDS`] non-zero words spread across the
/// slice (a real partitioned-path write signature hashes a handful of
/// addresses into as many words), everything else zero so whole 4-word chunks
/// qualify for the unrolled kernels' chunk skip.
fn sparse(words: usize) -> Vec<u64> {
    let mut v = vec![0u64; words];
    for k in 0..SPARSE_WORDS {
        let i = (k * (words - 1)) / (SPARSE_WORDS - 1).max(1);
        v[i] = 0x8000_0000_0000_0001u64.rotate_left((k * 17) as u32);
    }
    v
}

struct KernelRow {
    bits: usize,
    kernel: &'static str,
    scalar_ns: f64,
    unrolled_ns: f64,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        self.scalar_ns / self.unrolled_ns
    }
}

/// One kernel, both flavours, at one geometry. `run(scalar)` executes the
/// whole measured loop body `iters` times. Returns ns/word per flavour.
fn bench_kernel(
    bits: usize,
    kernel: &'static str,
    iters: u64,
    mut run: impl FnMut(bool),
) -> KernelRow {
    let words = (bits / 64) as u64;
    let mut ns = |is_scalar: bool| {
        best_of(|| {
            for _ in 0..iters {
                run(is_scalar);
            }
        }) as f64
            / (iters * words) as f64
    };
    let scalar_ns = ns(true);
    let unrolled_ns = ns(false);
    KernelRow {
        bits,
        kernel,
        scalar_ns,
        unrolled_ns,
    }
}

fn bench_kernels(scale: &Scale) -> Vec<KernelRow> {
    let mut rows = Vec::new();
    for &bits in &KERNEL_BITS {
        eprintln!("  [kernels] {bits} bits...");
        let words = bits / 64;
        let a = dense(words, 0xAAAA_AAAA_AAAA_AAAA);
        let b: Vec<u64> = a.iter().map(|w| !w).collect(); // disjoint, dense
        let sp = sparse(words);
        let iters = scale.kernel_iters;

        // `dst` is dense, so the operands' shared mask is `sp`'s own.
        let sp_mask = scalar::mask_of(&sp);

        let mut dst = dense(words, 0);
        rows.push(bench_kernel(bits, "or_sparse", iters, |s| {
            let (d, src) = (std::hint::black_box(&mut dst), std::hint::black_box(&sp));
            let m = std::hint::black_box(sp_mask);
            if s {
                scalar::or_into_masked(d, src, m);
            } else {
                unrolled::or_into_masked(d, src, m);
            }
        }));

        rows.push(bench_kernel(bits, "intersect_dense", iters, |s| {
            let (x, y) = (std::hint::black_box(&a), std::hint::black_box(&b));
            let hit = if s {
                scalar::intersect_any(x, y)
            } else {
                unrolled::intersect_any(x, y)
            };
            assert!(!std::hint::black_box(hit));
        }));

        let mut dst = dense(words, 0);
        rows.push(bench_kernel(bits, "and_not_sparse", iters, |s| {
            let (d, src) = (std::hint::black_box(&mut dst), std::hint::black_box(&sp));
            let m = std::hint::black_box(sp_mask);
            let emptied = if s {
                scalar::and_not_masked(d, src, m)
            } else {
                unrolled::and_not_masked(d, src, m)
            };
            assert!(std::hint::black_box(emptied) == 0);
        }));

        rows.push(bench_kernel(bits, "fold_full", iters, |s| {
            let w = std::hint::black_box(&a);
            let acc = if s {
                scalar::fold_masked(w, u64::MAX)
            } else {
                unrolled::fold_masked(w, u64::MAX)
            };
            assert!(std::hint::black_box(acc) != 0);
        }));
    }
    rows
}

/// Four threads incrementing per-thread counters `iters` times each; the
/// counters either share one cache line (`padded == false`) or get a line
/// apiece. Returns total increments/sec.
fn bench_false_sharing(scale: &Scale, padded: bool) -> f64 {
    let iters = scale.fs_iters;
    let packed: Vec<AtomicU64> = (0..FS_THREADS).map(|_| AtomicU64::new(0)).collect();
    let lined: Vec<CacheAligned<AtomicU64>> = (0..FS_THREADS)
        .map(|_| CacheAligned::new(AtomicU64::new(0)))
        .collect();
    let mut best_ns = u64::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in 0..FS_THREADS {
                let (packed, lined) = (&packed, &lined);
                s.spawn(move || {
                    if padded {
                        let c = &lined[t];
                        for _ in 0..iters {
                            c.fetch_add(1, Relaxed);
                        }
                    } else {
                        let c = &packed[t];
                        for _ in 0..iters {
                            c.fetch_add(1, Relaxed);
                        }
                    }
                });
            }
        });
        best_ns = best_ns.min(t0.elapsed().as_nanos() as u64);
    }
    (FS_THREADS as u64 * iters) as f64 * 1e9 / best_ns as f64
}

fn main() {
    let args = BenchArgs::parse();
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };

    eprintln!("membench: {} run", args.run_kind());

    let kernels = bench_kernels(&scale);

    eprintln!("  [false-sharing] {FS_THREADS} threads, packed line...");
    let packed_ops = bench_false_sharing(&scale, false);
    eprintln!("  [false-sharing] {FS_THREADS} threads, padded lines...");
    let padded_ops = bench_false_sharing(&scale, true);
    let fs_ratio = padded_ops / packed_ops;

    println!("membench results ({} run)", args.run_kind());
    println!("                                     scalar     unrolled     speedup");
    for r in &kernels {
        println!(
            "{:<16} {:>5} bits   {:>10.3} ns {:>10.3} ns   {:>6.2}x   (ns/word)",
            r.kernel,
            r.bits,
            r.scalar_ns,
            r.unrolled_ns,
            r.speedup()
        );
    }
    println!(
        "counters {FS_THREADS}t       {packed_ops:>12.3e} op/s {padded_ops:>12.3e} op/s   {fs_ratio:>6.2}x   (packed / padded)"
    );
    let headline = kernels
        .iter()
        .find(|r| r.kernel == "intersect_dense" && r.bits == 2048)
        .unwrap();

    let kernel_json: Vec<String> = kernels
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"bits\": {}, \"kernel\": \"{}\", \"scalar_ns_per_word\": {:.4}, ",
                    "\"unrolled_ns_per_word\": {:.4}, \"speedup\": {:.3}}}"
                ),
                r.bits,
                r.kernel,
                r.scalar_ns,
                r.unrolled_ns,
                r.speedup()
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"membench\",\n",
            "  \"config\": {{\"smoke\": {}, \"fs_threads\": {}, \"sparse_words\": {}}},\n",
            "  \"kernels\": [\n{}\n  ],\n",
            "  \"headline_2048\": {{\"intersect_unrolled_ns_per_word\": {:.4}, ",
            "\"intersect_speedup_2048\": {:.3}}},\n",
            "  \"false_sharing\": {{\"packed_ops_per_sec\": {:.0}, ",
            "\"padded_ops_per_sec\": {:.0}, \"padded_over_packed\": {:.3}}}\n",
            "}}\n"
        ),
        args.smoke,
        FS_THREADS,
        SPARSE_WORDS,
        kernel_json.join(",\n"),
        headline.unrolled_ns,
        headline.speedup(),
        packed_ops,
        padded_ops,
        fs_ratio,
    );

    if let Some(path) = &args.json {
        emit_json(path, &json);
    }

    if let Some(path) = &args.baseline {
        let base_ns = baseline_number(path, "intersect_unrolled_ns_per_word");
        let now_ns = headline.unrolled_ns;
        println!(
            "regression gate: intersect_dense 2048-bit {now_ns:.4} ns/word vs baseline {base_ns:.4} ({:.2}x)",
            now_ns / base_ns
        );
        if now_ns > base_ns * 2.0 {
            eprintln!("FAIL: unrolled intersect_dense kernel regressed more than 2x vs {path}");
            std::process::exit(1);
        }
        let base_fs = baseline_number(path, "padded_over_packed");
        println!("regression gate: padded/packed counters {fs_ratio:.3} vs baseline {base_fs:.3}");
        if fs_ratio < base_fs * 0.5 {
            eprintln!(
                "FAIL: padded counters collapsed vs packed (false-sharing blow-up) vs {path}"
            );
            std::process::exit(1);
        }
    }
}
