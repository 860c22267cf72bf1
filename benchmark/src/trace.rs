//! Benchmark-side tracing: spans and counts recorded *around* the calls into
//! each layer, from outside the program under test.
//!
//! Three wrappers slot into the public generic seams unchanged:
//!
//! * [`Traced<E>`] wraps any [`TmExecutor`]: span `core.execute` around
//!   `execute`/`execute_shed`, so `run_threads::<Traced<PartHtm>, _, _>` and
//!   `run_server::<Traced<PartHtm>>` work as they are;
//! * [`TracedWorkload`] wraps the workload handed to `execute`: span
//!   `workload.segment` per `segment()` call, which also makes retries
//!   countable from outside (the executor calls `segment` once per attempt);
//! * [`CountingCtx`] wraps the `TxCtx` handed to `segment`: barrier counts and
//!   the address list the layer probes replay.
//!
//! Only every [`sample_every`]-th transaction of a thread is wrapped; half a
//! period later one more is timed *unwrapped* (a "light" sample: its
//! `execute` span carries none of the wrappers' own cost); the others go
//! straight to the inner executor. Span clocks are virtual work
//! units when the thread is attached to a `vclock` (reading it never advances
//! it, so a traced virtual cell is bit-identical to an untraced one) and wall
//! nanoseconds otherwise.

use htm_sim::abort::TxResult;
use htm_sim::{vclock, Addr};
use part_htm_core::{CommitPath, TmExecutor, TmRuntime, TmThread, TxCtx, Workload};
use rand::rngs::SmallRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use tm_harness::loadgen::LatencyHisto;

/// Sampled transactions per thread whose spans and address lists are kept
/// (the aggregates below keep counting past it).
const KEEP_TX: usize = 512;

static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(64);
static SINK: Mutex<Vec<ThreadTrace>> = Mutex::new(Vec::new());

/// Trace every `n`-th transaction of each thread (64 on the wall clock; 1 in
/// virtual cells, where the wrapper costs no simulated time).
pub fn set_sample_every(n: u64) {
    SAMPLE_EVERY.store(n.max(1), Ordering::Relaxed);
}

/// The sampling period in force.
pub fn sample_every() -> u64 {
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

/// Take every finished thread's trace (executors flush on drop).
pub fn drain() -> Vec<ThreadTrace> {
    std::mem::take(
        &mut *SINK
            .lock()
            .expect("no tracer panics while holding the sink"),
    )
}

/// Span clock: virtual work units when attached to a virtual clock, else
/// nanoseconds since the first call in this process.
#[inline]
fn now() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    vclock::now().unwrap_or_else(|| EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64)
}

/// One recorded span. `parent` indexes the same thread's span list.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<u32>,
    /// Thread-local transaction sequence number.
    pub tx: u64,
}

/// One access of a sampled transaction's committing attempt.
pub type Access = (Addr, bool);

/// Counts and span sums, of one thread or (merged) of all of them.
#[derive(Default)]
pub struct Totals {
    /// Transactions executed / sampled.
    pub tx_seen: u64,
    pub tx_sampled: u64,
    /// `execute` span lengths: of the light samples where there are any, else
    /// of the wrapped ones (virtual cells, where wrapping costs nothing).
    pub exec: LatencyHisto,
    pub exec_sum: u64,
    pub exec_n: u64,
    /// Sum of `segment` span lengths over sampled transactions (all attempts).
    pub seg_sum: u64,
    /// `segment()` calls seen / segments in the committing attempts.
    pub seg_calls: u64,
    pub seg_useful: u64,
    /// Barriers recorded inside those calls, aborted attempts included.
    pub recorded: u64,
    /// Barriers (reads + writes) and writes in the committing attempts.
    pub barriers: u64,
    pub writes: u64,
}

impl Totals {
    /// All threads' totals folded together.
    pub fn of(traces: &[ThreadTrace]) -> Self {
        let mut m = Totals::default();
        for t in traces.iter().map(|t| &t.totals) {
            m.tx_seen += t.tx_seen;
            m.tx_sampled += t.tx_sampled;
            m.exec.merge(&t.exec);
            m.exec_sum += t.exec_sum;
            m.exec_n += t.exec_n;
            m.seg_sum += t.seg_sum;
            m.seg_calls += t.seg_calls;
            m.seg_useful += t.seg_useful;
            m.recorded += t.recorded;
            m.barriers += t.barriers;
            m.writes += t.writes;
        }
        m
    }

    fn record_exec(&mut self, span: u64) {
        self.exec.record(span);
        self.exec_sum += span;
        self.exec_n += 1;
    }

    /// `x` per sampled transaction.
    pub fn per_tx(&self, x: u64) -> f64 {
        x as f64 / self.tx_sampled.max(1) as f64
    }

    /// Mean `execute` span.
    pub fn exec_mean(&self) -> f64 {
        self.exec_sum as f64 / self.exec_n.max(1) as f64
    }
}

/// Everything one executor thread recorded.
#[derive(Default)]
pub struct ThreadTrace {
    pub thread: usize,
    pub totals: Totals,
    /// Spans of the first [`KEEP_TX`] sampled transactions.
    pub spans: Vec<Span>,
    /// Per-segment access lists of the same transactions' committing attempts.
    pub tx_accesses: Vec<Vec<Vec<Access>>>,
}

/// Scratch state lent to the workload wrapper for one sampled transaction.
#[derive(Default)]
struct Scratch {
    accesses: Vec<Access>,
    /// Per declared segment: the access range and span of its *last* call.
    last: Vec<(usize, usize)>,
    seg_spans: Vec<(u64, u64)>,
}

/// Executor wrapper; see the module docs.
pub struct Traced<E> {
    inner: E,
    trace: ThreadTrace,
    scratch: Scratch,
    every: u64,
}

/// `execute` or, for a request the admission controller shed, `execute_shed`.
fn call<'r, E: TmExecutor<'r>, W: Workload>(e: &mut E, shed: bool, w: &mut W) -> CommitPath {
    if shed {
        e.execute_shed(w)
    } else {
        e.execute(w)
    }
}

impl<E> Traced<E> {
    fn run<'r, W: Workload>(&mut self, w: &mut W, shed: bool) -> CommitPath
    where
        E: TmExecutor<'r>,
    {
        let t = &mut self.trace.totals;
        t.tx_seen += 1;
        match sample(t.tx_seen, self.every) {
            Sample::Skip => return call(&mut self.inner, shed, w),
            Sample::Light => {
                let t0 = now();
                let path = call(&mut self.inner, shed, w);
                t.record_exec(now() - t0);
                return path;
            }
            Sample::Full => {}
        }
        let s = &mut self.scratch;
        s.accesses.clear();
        s.last.clear();
        s.seg_spans.clear();
        let mut tw = TracedWorkload {
            inner: w,
            s: &mut *s,
        };
        let t0 = now();
        let path = call(&mut self.inner, shed, &mut tw);
        let t1 = now();

        t.tx_sampled += 1;
        if self.every == 1 {
            t.record_exec(t1 - t0);
        }
        t.seg_calls += s.seg_spans.len() as u64;
        t.recorded += s.accesses.len() as u64;
        t.seg_useful += s.last.len() as u64;
        t.seg_sum += s.seg_spans.iter().map(|&(a, b)| b - a).sum::<u64>();
        let committed = || s.last.iter().map(|&(a, b)| &s.accesses[a..b]);
        for seg in committed() {
            t.barriers += seg.len() as u64;
            t.writes += seg.iter().filter(|a| a.1).count() as u64;
        }
        let (tx, kept) = (t.tx_seen, &mut self.trace);
        if kept.tx_accesses.len() < KEEP_TX {
            let parent = kept.spans.len() as u32;
            let span = |name, (start, end), parent| Span {
                name,
                start,
                end,
                parent,
                tx,
            };
            kept.spans.push(span("core.execute", (t0, t1), None));
            kept.spans.extend(
                s.seg_spans
                    .iter()
                    .map(|&se| span("workload.segment", se, Some(parent))),
            );
            kept.tx_accesses
                .push(committed().map(<[Access]>::to_vec).collect());
        }
        path
    }
}

/// What to do with a thread's `n`-th transaction under period `every`.
enum Sample {
    Full,
    Light,
    Skip,
}

fn sample(n: u64, every: u64) -> Sample {
    match n % every {
        0 => Sample::Full,
        r if r == every / 2 => Sample::Light,
        _ => Sample::Skip,
    }
}

impl<'r, E: TmExecutor<'r>> TmExecutor<'r> for Traced<E> {
    const NAME: &'static str = E::NAME;

    fn new(rt: &'r TmRuntime, thread_id: usize) -> Self {
        Self {
            inner: E::new(rt, thread_id),
            trace: ThreadTrace {
                thread: thread_id,
                ..ThreadTrace::default()
            },
            scratch: Scratch::default(),
            every: sample_every(),
        }
    }

    fn execute<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        self.run(w, false)
    }

    fn execute_shed<W: Workload>(&mut self, w: &mut W) -> CommitPath {
        self.run(w, true)
    }

    fn thread(&self) -> &TmThread<'r> {
        self.inner.thread()
    }

    fn thread_mut(&mut self) -> &mut TmThread<'r> {
        self.inner.thread_mut()
    }
}

impl<E> Drop for Traced<E> {
    fn drop(&mut self) {
        // A poisoned sink means another tracer already panicked; losing this
        // thread's trace then is harmless and `drop` must not panic.
        if let Ok(mut sink) = SINK.lock() {
            sink.push(std::mem::take(&mut self.trace));
        }
    }
}

/// Workload wrapper for one sampled transaction; forwards everything and
/// records a span plus the access list per `segment()` call.
pub struct TracedWorkload<'a, W> {
    inner: &'a mut W,
    s: &'a mut Scratch,
}

impl<W: Workload> Workload for TracedWorkload<'_, W> {
    type Snap = W::Snap;

    fn sample(&mut self, rng: &mut SmallRng) {
        self.inner.sample(rng)
    }
    fn segments(&self) -> usize {
        self.inner.segments()
    }
    fn software_segment(&self, seg: usize) -> bool {
        self.inner.software_segment(seg)
    }
    fn is_irrevocable(&self) -> bool {
        self.inner.is_irrevocable()
    }
    fn profiled_resource_limited(&self) -> Option<bool> {
        self.inner.profiled_resource_limited()
    }
    fn site(&self) -> u32 {
        self.inner.site()
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
    fn snapshot(&self) -> Self::Snap {
        self.inner.snapshot()
    }
    fn restore(&mut self, s: Self::Snap) {
        self.inner.restore(s)
    }
    fn after_commit(&mut self) {
        self.inner.after_commit()
    }

    fn segment<C: TxCtx>(&mut self, seg: usize, ctx: &mut C) -> TxResult<()> {
        let from = self.s.accesses.len();
        let t0 = now();
        let r = self.inner.segment(
            seg,
            &mut CountingCtx {
                inner: ctx,
                accesses: &mut self.s.accesses,
            },
        );
        self.s.seg_spans.push((t0, now()));
        if self.s.last.len() <= seg {
            self.s.last.resize(seg + 1, (0, 0));
        }
        self.s.last[seg] = (from, self.s.accesses.len());
        r
    }
}

/// `TxCtx` wrapper: records each barrier, then forwards it.
pub struct CountingCtx<'a, C> {
    inner: &'a mut C,
    accesses: &'a mut Vec<Access>,
}

impl<C: TxCtx> TxCtx for CountingCtx<'_, C> {
    #[inline]
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        self.accesses.push((addr, false));
        self.inner.read(addr)
    }
    #[inline]
    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        self.accesses.push((addr, true));
        self.inner.write(addr, val)
    }
    #[inline]
    fn work(&mut self, units: u64) -> TxResult<()> {
        self.inner.work(units)
    }
    #[inline]
    fn nt_work(&mut self, units: u64) -> TxResult<()> {
        self.inner.nt_work(units)
    }
}

/// What the tracer itself adds to a `segment` span, in nanoseconds: per
/// `segment()` call (one clock read falls inside the span) and per recorded
/// barrier (one `Vec::push`). Measured here, subtracted by the reader.
pub fn self_cost_ns() -> (f64, f64) {
    const N: u32 = 100_000;
    let t0 = Instant::now();
    for _ in 0..N {
        std::hint::black_box(now());
    }
    let per_call = t0.elapsed().as_nanos() as f64 / f64::from(N);
    let mut v: Vec<Access> = Vec::new();
    let t0 = Instant::now();
    for i in 0..N {
        std::hint::black_box(&mut v).push((i, false));
    }
    (per_call, t0.elapsed().as_nanos() as f64 / f64::from(N))
}

/// Write the kept (wall-clock) spans as JSON lines:
/// `{name, start_ns, end_ns, parent, tx, thread}`.
pub fn write_jsonl(path: &std::path::Path, traces: &[ThreadTrace]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in traces {
        for s in &t.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"tx\":{},\"thread\":{}}}",
                s.name, s.start, s.end, s.tx, t.thread
            )?;
        }
    }
    out.flush()
}
