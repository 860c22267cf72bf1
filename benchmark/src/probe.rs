//! Layer probes: price the lower layers that cannot be split from outside
//! inside `execute`. The sampled transactions' recorded address lists are
//! replayed through the raw public primitives of each layer —
//! `HtmThread::attempt` + `HtmTx::{read, write}` for `htm_sim`, `Sig::add` /
//! `intersects` and `ShardedRing::publish_software_summarized` /
//! `validate_summarized_nt` for `tm_sig` — on one thread, uncontended. The
//! unit costs are then multiplied by the traced run's own counts; the result
//! is an *estimate* of each layer's share, and is labelled as one.

use crate::trace::Access;
use htm_sim::AbortCode;
use part_htm_core::TmRuntime;
use std::time::{Duration, Instant};
use tm_sig::{ShardTimes, Sig};

/// Each probe loops over the sampled set until it has run this long.
const MIN_PROBE: Duration = Duration::from_millis(8);

/// Host nanoseconds per primitive operation.
#[derive(Default, Debug)]
pub struct Costs {
    /// Per access, begin/commit work it causes included ...
    pub read: f64,
    pub write: f64,
    /// ... and the part of it spent inside the transaction body.
    pub read_body: f64,
    pub write_body: f64,
    pub begin_commit: f64,
    pub abort: f64,
    pub sig_add: f64,
    pub intersect: f64,
    /// Per shard touched by a software publish.
    pub publish: f64,
    /// Per shard decided by the summary fast pass / by an entry walk.
    pub validate_fast: f64,
    pub validate_walk: f64,
}

/// Run `pass` (which returns how many operations it performed) until
/// [`MIN_PROBE`] has elapsed; nanoseconds per operation.
fn ns_per_op(mut pass: impl FnMut() -> u64) -> f64 {
    let t0 = Instant::now();
    let mut ops = 0u64;
    while t0.elapsed() < MIN_PROBE {
        ops += pass();
    }
    t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Median cost of an `Instant::now()` pair, subtracted from singly timed calls.
fn timer_overhead_ns() -> f64 {
    let mut v: Vec<u64> = (0..1001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2] as f64
}

/// Price the primitives on `rt` (a scratch runtime of the workload's
/// geometry: the probes write to its application region) by replaying
/// `txs`, each a list of per-segment access lists.
pub fn run(rt: &TmRuntime, txs: &[Vec<Vec<Access>>]) -> Costs {
    let mut th = rt.system().thread(0);
    let mut c = Costs::default();

    // ---- htm_sim ----------------------------------------------------------
    // The replay unit is what the program runs as one hardware transaction:
    // the whole transaction where that fits the hardware (the fast path), its
    // single segments where it does not (the partitioned path).
    let mut units: Vec<Vec<Access>> = Vec::new();
    for tx in txs {
        let whole: Vec<Access> = tx.iter().flatten().copied().collect();
        let fits = th
            .attempt(|t| {
                for &(addr, w) in &whole {
                    if w {
                        t.write(addr, 1)?;
                    } else {
                        t.read(addr)?;
                    }
                }
                Ok(())
            })
            .is_ok();
        if fits {
            units.push(whole);
        } else {
            units.extend(tx.iter().cloned());
        }
    }
    units.retain(|u| !u.is_empty());
    if units.is_empty() {
        return c;
    }
    c.begin_commit = ns_per_op(|| {
        for _ in 0..256 {
            let _ = th.attempt(|_| Ok(()));
        }
        256
    });
    c.abort = ns_per_op(|| {
        for _ in 0..256 {
            let _ = th.attempt(|tx| Err::<(), AbortCode>(tx.xabort(1)));
        }
        256
    });
    // Replay only the reads, then only the writes, timing the body apart
    // from begin + commit: the program pays the first inside its `segment`
    // spans and the second (which grows with the lines touched) in the
    // executor's own time. The same loop with no accesses at all is the
    // zero both are measured from, so the timer calls cancel out.
    // Returns (body ns, whole ns, accesses) per attempt.
    let mut replay = |writes: Option<bool>| {
        let (mut body, mut whole) = (0u128, 0u128);
        let (mut accesses, mut attempts) = (0u64, 0u64);
        let started = Instant::now();
        while started.elapsed() < MIN_PROBE {
            for unit in &units {
                let t0 = Instant::now();
                let mut tx = th.begin();
                let t1 = Instant::now();
                let mut alive = true;
                for &(addr, w) in unit.iter().filter(|a| Some(a.1) == writes) {
                    accesses += 1;
                    let r = if w {
                        tx.write(addr, 1)
                    } else {
                        tx.read(addr).map(drop)
                    };
                    if r.is_err() {
                        alive = false;
                        break;
                    }
                }
                body += t1.elapsed().as_nanos();
                if alive {
                    let _ = tx.commit();
                } else {
                    drop(tx);
                }
                whole += t0.elapsed().as_nanos();
                attempts += 1;
            }
        }
        let n = attempts.max(1) as f64;
        (body as f64 / n, whole as f64 / n, accesses as f64 / n)
    };
    let (body0, whole0, _) = replay(None);
    let mut per_access = |writes: bool| {
        let (body, whole, n) = replay(Some(writes));
        if n == 0.0 {
            return (0.0, 0.0);
        }
        let in_body = ((body - body0) / n).max(0.0);
        (in_body, ((whole - whole0) / n).max(in_body))
    };
    (c.read_body, c.read) = per_access(false);
    (c.write_body, c.write) = per_access(true);

    // ---- tm_sig: signatures ---------------------------------------------
    let spec = rt.config().sig_spec;
    let mut scratch = Sig::new(spec);
    c.sig_add = ns_per_op(|| {
        let mut n = 0;
        for tx in txs {
            scratch.clear();
            for &(addr, _) in tx.iter().flatten() {
                scratch.add(addr);
                n += 1;
            }
        }
        std::hint::black_box(&scratch);
        n
    });
    let sig_of = |tx: &Vec<Vec<Access>>, writes: bool| {
        let mut s = Sig::new(spec);
        for &(addr, _) in tx.iter().flatten().filter(|a| a.1 == writes) {
            s.add(addr);
        }
        s
    };
    let rsigs: Vec<Sig> = txs.iter().map(|t| sig_of(t, false)).collect();
    let wsigs: Vec<Sig> = txs.iter().map(|t| sig_of(t, true)).collect();
    c.intersect = ns_per_op(|| {
        let mut hits = 0u64;
        for (i, r) in rsigs.iter().enumerate() {
            hits += u64::from(r.intersects(&wsigs[(i + 1) % wsigs.len()]));
        }
        std::hint::black_box(hits);
        rsigs.len() as u64
    });

    // ---- tm_sig: ring publish and validation ----------------------------
    let ring = rt.sharded_ring();
    let summaries = rt.summaries();
    let overhead = timer_overhead_ns();
    // Fast pass first, while the summaries are clean: nothing was published
    // since the window opened, so every touched shard is decided without a
    // walk.
    let (mut fast_ns, mut fast_shards) = (0.0, 0u64);
    let (mut walk_ns, mut walk_shards) = (0.0, 0u64);
    let mut validate = |rsig: &Sig, times: &mut ShardTimes| {
        let t0 = Instant::now();
        let v = ring.validate_summarized_nt(&th, summaries, rsig, times);
        let ns = (t0.elapsed().as_nanos() as f64 - overhead).max(0.0);
        // A call that walked any shard is booked as a walk over all the
        // shards it decided: the walk dominates it.
        if v.walked_shards == 0 {
            fast_ns += ns;
            fast_shards += u64::from(v.fast_shards.count_ones());
        } else {
            walk_ns += ns;
            walk_shards += u64::from((v.fast_shards | v.walked_shards).count_ones());
        }
    };
    let t0 = Instant::now();
    while t0.elapsed() < MIN_PROBE {
        for r in rsigs.iter().filter(|r| !r.is_empty()) {
            let mut times = ShardTimes::new();
            ring.timestamps_nt(&th, &mut times);
            validate(r, &mut times);
        }
    }
    let writers: Vec<&Sig> = wsigs.iter().filter(|w| !w.is_empty()).collect();
    if !writers.is_empty() {
        let (mut pub_ns, mut pub_shards) = (0.0, 0u64);
        let t0 = Instant::now();
        while t0.elapsed() < MIN_PROBE {
            for (i, r) in rsigs.iter().enumerate().filter(|(_, r)| !r.is_empty()) {
                // One commit lands inside the validator's window, the way a
                // concurrent committer's would.
                let mut times = ShardTimes::new();
                ring.timestamps_nt(&th, &mut times);
                let w = writers[i % writers.len()];
                let p0 = Instant::now();
                let (mask, _) = ring.publish_software_summarized(&th, w, summaries);
                pub_ns += (p0.elapsed().as_nanos() as f64 - overhead).max(0.0);
                pub_shards += u64::from(mask.count_ones());
                validate(r, &mut times);
            }
        }
        c.publish = pub_ns / pub_shards.max(1) as f64;
    }
    c.validate_fast = fast_ns / fast_shards.max(1) as f64;
    c.validate_walk = walk_ns / walk_shards.max(1) as f64;
    c
}
