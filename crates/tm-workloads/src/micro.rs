//! N-Reads-M-Writes (RSTM's configurable micro-benchmark; Fig. 3 of the paper).
//!
//! Each transaction reads `n_reads` elements from a source array and writes
//! `m_writes` elements of a destination array. Accesses are **disjoint** across
//! threads (each thread owns a slice of both arrays), so aborts come from resource
//! limits and metadata effects, not data contention — exactly what Fig. 3 isolates.
//!
//! The three configurations of the paper:
//!
//! * Fig. 3(a): `n = m = 10` — everything fits in HTM; measures instrumentation
//!   overhead on the fast path.
//! * Fig. 3(b): `n = ARRAY`, `m = 100` — space-limited transactions (the read set
//!   outgrows the transactional read budget as per-thread cache share shrinks).
//! * Fig. 3(c): `n = m = 100`, with floating-point computation between each
//!   read-modify-write — time-limited transactions (the quantum, not the footprint,
//!   kills them). Partitioned into 4 sub-transactions of 25 iterations, as in the
//!   paper.

use htm_sim::abort::TxResult;
use htm_sim::Addr;
use part_htm_core::{TmRuntime, TxCtx, Workload};
use rand::rngs::SmallRng;
use rand::Rng;

/// Configuration of the N-Reads-M-Writes workload.
#[derive(Clone, Copy, Debug)]
pub struct NrmwParams {
    /// Elements per array (the paper uses 100 k).
    pub array_len: usize,
    /// Reads per transaction.
    pub n_reads: usize,
    /// Writes per transaction.
    pub m_writes: usize,
    /// Work units of computation between each read and its write (Fig. 3(c)'s
    /// floating-point block); 0 for the pure-memory variants.
    pub work_per_iter: u64,
    /// Number of static segments for the partitioned path.
    pub segments: usize,
    /// Stride in words between consecutive elements. 8 puts every element on its
    /// own cache line (the paper's arrays are element-per-line to avoid false
    /// sharing between threads).
    pub stride: usize,
}

impl NrmwParams {
    /// Fig. 3(a): N = M = 10.
    pub fn fig3a() -> Self {
        Self {
            array_len: 100_000,
            n_reads: 10,
            m_writes: 10,
            work_per_iter: 0,
            segments: 2,
            stride: 8,
        }
    }

    /// Fig. 3(b): N = array, M = 100 — scaled 10x down (10 k reads) so a simulated
    /// data point completes in reasonable wall-clock time; the capacity relationship
    /// (reads far exceed the write budget, and exceed the read budget once per-core
    /// cache share shrinks) is preserved by the harness's cache scaling.
    pub fn fig3b() -> Self {
        Self {
            array_len: 10_000,
            n_reads: 10_000,
            m_writes: 100,
            work_per_iter: 0,
            segments: 16,
            stride: 1,
        }
    }

    /// Fig. 3(c): 100 iterations of read-compute-write; 4 segments of 25 iterations
    /// ("each sub-HTM transaction executes 25 of those iterations").
    pub fn fig3c() -> Self {
        Self {
            array_len: 100_000,
            n_reads: 100,
            m_writes: 100,
            work_per_iter: 600,
            segments: 4,
            stride: 8,
        }
    }

    /// Words of application memory needed: two arrays.
    pub fn app_words(&self) -> usize {
        2 * self.array_len * self.stride
    }

    /// The same workload declared at finest segment granularity: 4x the
    /// segments (capped at one iteration/read per segment). Merging adjacent
    /// segments is always legal for this workload — segments are just even
    /// chunks of one loop — so the finer declaration gives the adaptive
    /// planner room to pick the grouping at runtime instead of trusting the
    /// hand count (`docs/adaptive-partitioner.md`).
    pub fn fine_grained(self) -> Self {
        Self {
            segments: (self.segments * 4).min(self.n_reads.max(1)),
            ..self
        }
    }
}

/// Shared layout: the two arrays.
#[derive(Clone, Copy, Debug)]
pub struct NrmwShared {
    src: Addr,
    dst: Addr,
    params: NrmwParams,
}

/// Initialise the arrays (source holds its index, destination zero).
pub fn init(rt: &TmRuntime, params: &NrmwParams) -> NrmwShared {
    let src = rt.app(0);
    let dst = rt.app(params.array_len * params.stride);
    for i in 0..params.array_len {
        rt.system()
            .heap()
            .store(src + (i * params.stride) as Addr, i as u64);
    }
    NrmwShared {
        src,
        dst,
        params: *params,
    }
}

/// Per-thread N-Reads-M-Writes workload over the thread's disjoint slice.
pub struct Nrmw {
    shared: NrmwShared,
    /// This thread's slice of the arrays: `[lo, lo + slice)` element indices.
    lo: usize,
    slice: usize,
    /// Rotating offset so successive transactions touch different elements.
    offset: usize,
}

impl Nrmw {
    /// Build the workload for `thread_id` of `threads`.
    pub fn new(shared: NrmwShared, thread_id: usize, threads: usize) -> Self {
        let slice = shared.params.array_len / threads;
        assert!(slice >= shared.params.n_reads.min(shared.params.array_len / threads));
        Self {
            shared,
            lo: thread_id * slice,
            slice,
            offset: 0,
        }
    }

    #[inline]
    fn src_addr(&self, elem: usize) -> Addr {
        self.shared.src + (elem * self.shared.params.stride) as Addr
    }

    #[inline]
    fn dst_addr(&self, elem: usize) -> Addr {
        self.shared.dst + (elem * self.shared.params.stride) as Addr
    }

    /// Element in this thread's disjoint slice (write targets; Fig. 3(c) iterates
    /// read-compute-write over these).
    #[inline]
    fn elem(&self, i: usize) -> usize {
        self.lo + (self.offset + i) % self.slice
    }

    /// Element anywhere in the shared source array (reads conflict with nothing:
    /// the destination slices are disjoint and the source is never written).
    #[inline]
    fn global_elem(&self, i: usize) -> usize {
        (self.lo + self.offset + i) % self.shared.params.array_len
    }
}

impl Workload for Nrmw {
    type Snap = ();

    fn sample(&mut self, _rng: &mut SmallRng) {
        // Disjoint by construction; just rotate the window.
        self.offset = (self.offset + 17) % self.slice;
    }

    fn segments(&self) -> usize {
        self.shared.params.segments
    }

    fn profiled_resource_limited(&self) -> Option<bool> {
        // The compute-heavy variant (Fig. 3(c)) statically exceeds the HTM quantum:
        // the profiler routes it to the partitioned path directly. The space-bound
        // variants depend on the deployment's cache share, so the executor adapts.
        if self.shared.params.work_per_iter > 0 {
            Some(true)
        } else {
            None
        }
    }

    fn site(&self) -> u32 {
        // One abort profile per transaction shape: the compute-heavy
        // (time-limited) shape and the pure-memory shape have different HTM
        // appetites.
        u32::from(self.shared.params.work_per_iter > 0)
    }

    fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
        let p = &self.shared.params;
        if p.work_per_iter > 0 {
            // Fig. 3(c) shape: `n` iterations of read-compute-write on the same
            // element index, split evenly across segments.
            let iters = p.n_reads;
            let per = iters.div_ceil(p.segments);
            let start = seg * per;
            let end = (start + per).min(iters);
            for i in start..end {
                let e = self.elem(i);
                let v = ctx.read(self.src_addr(e))?;
                ctx.work(p.work_per_iter)?;
                ctx.write(self.dst_addr(e), v + 1)?;
            }
            return Ok(());
        }
        // Pure-memory shape: reads (over the whole shared source array) spread over
        // the segments, writes (to the thread's disjoint destination slice) in the
        // last one.
        let per_reads = p.n_reads.div_ceil(p.segments);
        let rstart = seg * per_reads;
        let rend = (rstart + per_reads).min(p.n_reads);
        let mut acc = 0u64;
        for i in rstart..rend {
            acc = acc.wrapping_add(ctx.read(self.src_addr(self.global_elem(i)))?);
        }
        if seg == p.segments - 1 {
            for i in 0..p.m_writes {
                let e = self.elem(i);
                ctx.write(
                    self.dst_addr(e),
                    acc.wrapping_add(i as u64) & ((1 << 62) - 1),
                )?;
            }
        }
        Ok(())
    }
}

/// Accounts of the [`Scatter`] workload, one cache line each. Account `i`
/// sits in L1 set `(base line + i) % 64`, so the 32 accounts with equal
/// `i % 64` share one set of the default 8-way geometry.
pub const SCATTER_ACCOUNTS: usize = 2048;
const SCATTER_SETS: usize = 64;
/// Accounts one [`Scatter`] transaction writes, all in one L1 set: more than
/// its eight ways, so the fast path overflows and the partitioned path's
/// software commit (where summary density is policed) runs.
pub const SCATTER_WRITES: usize = 12;
/// Balances live modulo 2^62 (application values must fit in 63 bits).
pub const SCATTER_MOD: u64 = 1 << 62;

/// The epoch-reset workload: adds one random delta to each of
/// [`SCATTER_WRITES`] accounts of one L1 set, one account per segment. The
/// deltas sum to zero modulo [`SCATTER_MOD`], so the sum of all
/// [`SCATTER_ACCOUNTS`] accounts modulo `SCATTER_MOD` is conserved. Twelve
/// fresh lines per commit cross the default summary-reset threshold within a
/// few hundred commits.
pub struct Scatter {
    base: Addr,
    accounts: [usize; SCATTER_WRITES],
    deltas: [u64; SCATTER_WRITES],
}

impl Scatter {
    /// The workload over accounts starting at `base`, one per 8 words.
    pub fn new(base: Addr) -> Self {
        Self {
            base,
            accounts: [0; SCATTER_WRITES],
            deltas: [0; SCATTER_WRITES],
        }
    }
}

impl Workload for Scatter {
    type Snap = ();

    fn sample(&mut self, rng: &mut SmallRng) {
        let set = rng.gen_range(0..SCATTER_SETS);
        let per_set = SCATTER_ACCOUNTS / SCATTER_SETS;
        let mut picked = 0u64;
        for k in 0..SCATTER_WRITES {
            let mut j = rng.gen_range(0..per_set);
            while picked & (1 << j) != 0 {
                j = (j + 1) % per_set;
            }
            picked |= 1 << j;
            self.accounts[k] = set + j * SCATTER_SETS;
        }
        let mut sum = 0u64;
        for d in &mut self.deltas[..SCATTER_WRITES - 1] {
            *d = rng.gen_range(0..SCATTER_MOD);
            sum = (sum + *d) % SCATTER_MOD;
        }
        self.deltas[SCATTER_WRITES - 1] = (SCATTER_MOD - sum) % SCATTER_MOD;
    }

    fn segments(&self) -> usize {
        SCATTER_WRITES
    }

    fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
        let a = self.base + (self.accounts[seg] * 8) as Addr;
        let v = ctx.read(a)?;
        ctx.write(a, (v + self.deltas[seg]) % SCATTER_MOD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use part_htm_core::{CommitPath, PartHtm, TmConfig, TmExecutor};
    use rand::SeedableRng;
    use tm_baselines::HtmGl;

    #[test]
    fn fig3a_fits_fast_path() {
        let p = NrmwParams {
            array_len: 1000,
            ..NrmwParams::fig3a()
        };
        let rt = TmRuntime::with_defaults(2, p.app_words());
        let shared = init(&rt, &p);
        let mut e = PartHtm::new(&rt, 0);
        let mut w = Nrmw::new(shared, 0, 2);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..20 {
            w.sample(&mut rng);
            assert_eq!(e.execute(&mut w), CommitPath::Htm);
        }
    }

    #[test]
    fn fig3b_reads_exceed_budget_and_partition() {
        // Shrink to test scale: 800 reads with a 256-line read budget.
        let p = NrmwParams {
            array_len: 1600,
            n_reads: 800,
            m_writes: 16,
            work_per_iter: 0,
            segments: 8,
            stride: 1,
        };
        let htm = htm_sim::HtmConfig {
            read_lines_max: 64,
            ..htm_sim::HtmConfig::default()
        };
        let rt = TmRuntime::new(htm, TmConfig::default(), 2, p.app_words());
        let shared = init(&rt, &p);
        let mut e = PartHtm::new(&rt, 0);
        let mut w = Nrmw::new(shared, 0, 2);
        let mut rng = SmallRng::seed_from_u64(1);
        w.sample(&mut rng);
        assert_eq!(e.execute(&mut w), CommitPath::SubHtm);

        // HTM-GL can only serialise it.
        let mut g = HtmGl::new(&rt, 1);
        let mut w1 = Nrmw::new(shared, 1, 2);
        w1.sample(&mut rng);
        assert_eq!(g.execute(&mut w1), CommitPath::GlobalLock);
    }

    #[test]
    fn fig3c_time_limited_partitions() {
        let p = NrmwParams {
            array_len: 2000,
            ..NrmwParams::fig3c()
        };
        let htm = htm_sim::HtmConfig {
            quantum: 20_000,
            ..htm_sim::HtmConfig::default()
        };
        let rt = TmRuntime::new(htm, TmConfig::default(), 1, p.app_words());
        let shared = init(&rt, &p);
        let mut e = PartHtm::new(&rt, 0);
        let mut w = Nrmw::new(shared, 0, 1);
        let mut rng = SmallRng::seed_from_u64(1);
        w.sample(&mut rng);
        // 100 iterations x ~600 units > 20k quantum; 25 per segment fits.
        assert_eq!(e.execute(&mut w), CommitPath::SubHtm);
    }

    #[test]
    fn disjoint_slices_do_not_overlap() {
        let p = NrmwParams {
            array_len: 1000,
            ..NrmwParams::fig3a()
        };
        let threads = 4;
        let mut seen = std::collections::HashSet::new();
        for t in 0..threads {
            let shared = NrmwShared {
                src: 0,
                dst: p.array_len as Addr,
                params: p,
            };
            let w = Nrmw::new(shared, t, threads);
            for i in 0..w.slice {
                assert!(seen.insert(w.lo + i), "element {} owned twice", w.lo + i);
            }
        }
    }
}
