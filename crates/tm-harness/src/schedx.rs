//! `schedx` — the deterministic schedule explorer.
//!
//! Built on [`htm_sim::vclock`]: a scenario is a small multi-core protocol
//! exercise run under the virtual clock with its invariants checked after the
//! run; a schedule is a `(seed, policy, forced-prefix)` spec; the explorer
//! enumerates forced prefixes depth-first to visit **every** schedule that
//! differs from the default in the first `depth` decision points (bounded
//! exhaustive exploration), or samples seeds under the `Seeded` policy.
//!
//! A violated invariant serialises to a tiny replay artifact
//! ([`artifact_text`]) that [`parse_artifact`] + [`run_scenario`] re-run to
//! the exact same interleaving — see `docs/virtual-time.md` for the format.

use htm_sim::vclock::{SchedPolicy, SchedSpec, VClock, VReport};
use htm_sim::{BackendKind, HtmConfig, HtmSystem};
use part_htm_core::ctx::SlowCtx;
use part_htm_core::{
    batch_site, PartHtm, TmConfig, TmRuntime, TmThread, TxCtx, Workload, GATE_COUNT, GATE_LOCK,
};
use rand::rngs::SmallRng;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use tm_sig::SigSpec;
use tm_workloads::structures::{transfer, HeapHashMap};

use crate::driver::run_threads_virtual;

/// Exploration bounds (Kani-RFC style: explicit, and reported when hit).
#[derive(Clone, Copy, Debug)]
pub struct Bounds {
    /// Decision depth: every schedule differing from the default in the first
    /// `depth` decision points is visited.
    pub depth: usize,
    /// Hard cap on executed schedules; hitting it sets
    /// [`Explored::truncated`].
    pub max_schedules: usize,
}

impl Default for Bounds {
    fn default() -> Self {
        Self {
            depth: 3,
            max_schedules: 64,
        }
    }
}

/// A schedule that broke a scenario invariant, with everything needed to
/// re-run it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Scenario name (see [`SCENARIOS`]).
    pub scenario: String,
    /// The exact schedule: re-running the scenario under this spec reproduces
    /// the violation bit-exactly.
    pub spec: SchedSpec,
    /// What broke (one line).
    pub message: String,
}

/// Outcome of an [`explore`] or [`sample`] sweep.
#[derive(Clone, Debug)]
pub struct Explored {
    /// Schedules actually executed.
    pub explored: usize,
    /// True when `max_schedules` stopped the sweep before the frontier was
    /// exhausted — coverage is then partial and the caller must say so.
    pub truncated: bool,
    /// First invariant violation found, if any (the sweep stops at the first).
    pub violation: Option<Violation>,
}

/// The scenario registry: `(name, simulated cores, description)`.
///
/// `order-canary` is deliberately schedule-*dependent* — its "invariant"
/// (core 0 commits first) is false under some interleavings. It exists to
/// prove the explorer finds schedule-sensitive outcomes and to exercise the
/// artifact/replay round trip; it is excluded from the CI `--bounded` set.
pub const SCENARIOS: &[(&str, usize, &str)] = &[
    (
        "counter2",
        2,
        "2-core Part-HTM shared-counter conflict over the packed line table",
    ),
    (
        "planner",
        2,
        "capacity-heavy multi-segment Part-HTM: partitioned path + segment planner",
    ),
    (
        "ring-epoch",
        2,
        "write-heavy Part-HTM on a tiny sharded ring with epoch summary resets",
    ),
    (
        "power-split",
        2,
        "Part-HTM on the POWER backend: a scan over the read budget, split into sub-HTMs",
    ),
    (
        "server-batch",
        2,
        "tm-server-shaped group commit: width-classed batch of per-request segments + hot line",
    ),
    (
        "server-transfer",
        2,
        "tm-server-shaped transfers under the global lock at quantum 6, KV gets on the fast path",
    ),
    (
        "gate-drain",
        3,
        "a lock holder announces over an in-flight partitioned transaction, drains it; a late entrant backs off",
    ),
    (
        "lock-sig-convoy",
        3,
        "3 symmetric partitioned writers locking bits on one write-locks line: no lockstep convoy",
    ),
    (
        "order-canary",
        2,
        "schedule-dependent canary (commit order); violated by design at depth >= 2",
    ),
];

/// The scenarios the CI `--bounded` gate runs (all invariants must hold on
/// every explored schedule).
pub const BOUNDED_SET: &[&str] = &[
    "counter2",
    "planner",
    "ring-epoch",
    "power-split",
    "server-batch",
    "server-transfer",
    "gate-drain",
    "lock-sig-convoy",
];

/// Increment `addr` once per transaction (single segment).
struct Inc(htm_sim::Addr);

impl Workload for Inc {
    type Snap = ();
    fn sample(&mut self, _r: &mut SmallRng) {}
    fn segment<C: TxCtx>(&mut self, _s: usize, ctx: &mut C) -> htm_sim::abort::TxResult<()> {
        let v = ctx.read(self.0)?;
        ctx.write(self.0, v + 1)
    }
}

/// Increment `LINES` one-per-line counters in `SEGS` declared segments —
/// wide enough to blow a tiny L1 write budget and force the partitioned
/// path and the segment planner.
struct WideInc {
    base: htm_sim::Addr,
}

impl WideInc {
    const LINES: u32 = 12;
    const SEGS: usize = 4;
}

impl Workload for WideInc {
    type Snap = ();
    fn sample(&mut self, _r: &mut SmallRng) {}
    fn segments(&self) -> usize {
        Self::SEGS
    }
    fn segment<C: TxCtx>(&mut self, s: usize, ctx: &mut C) -> htm_sim::abort::TxResult<()> {
        let per = Self::LINES as usize / Self::SEGS;
        for i in 0..per {
            let addr = self.base + ((s * per + i) as u32) * 8;
            let v = ctx.read(addr)?;
            ctx.write(addr, v + 1)?;
        }
        Ok(())
    }
}

/// A group-commit batch shaped like the tm-server batcher's output: `WIDTH`
/// single-request segments against one shard's slot range plus a shared hot
/// line, declared under the same width-classed planner site the server uses
/// ([`batch_site`]). Two cores replay the batch against the *same* shard, so
/// every interleaving of segment commits, hot-line conflicts and planner
/// decisions is a schedule decision point; the invariant is the batch's
/// all-or-nothing arithmetic (per-slot and hot-line sums both conserved).
struct BatchGroup {
    base: htm_sim::Addr,
}

impl BatchGroup {
    /// Requests per group (the `ServeOpts` default batch width is 8; 4 keeps
    /// the bounded frontier small while landing in a distinct width class).
    const WIDTH: usize = 4;
}

impl Workload for BatchGroup {
    type Snap = ();
    fn sample(&mut self, _r: &mut SmallRng) {}
    fn segments(&self) -> usize {
        Self::WIDTH
    }
    fn site(&self) -> u32 {
        batch_site(0, 0, Self::WIDTH as u32)
    }
    fn segment<C: TxCtx>(&mut self, s: usize, ctx: &mut C) -> htm_sim::abort::TxResult<()> {
        // One "request": bump this request's slot, then the shard-hot line.
        let slot = self.base + (s as u32) * 8;
        let v = ctx.read(slot)?;
        ctx.write(slot, v + 1)?;
        let hot = self.base + (Self::WIDTH as u32) * 8;
        let h = ctx.read(hot)?;
        ctx.write(hot, h + 1)
    }
}

/// The `tm-server` request pair at the heart of `server_hot`: core 0 moves
/// balances between `KEYS` preloaded accounts spread over two shard tables
/// with the service's single-probe [`transfer`], core 1 reads them with
/// [`HeapHashMap::get`]. Under a quantum of 6 work units a transfer (6
/// accesses plus its subscriptions) never fits in hardware and, having one
/// segment, commits under the global lock; a get (2 accesses) fits and runs
/// on the fast path beside it, subscribed to the lock the holder writes past.
struct ServerTransfer {
    maps: [HeapHashMap; 2],
    core: usize,
    n: u64,
}

impl ServerTransfer {
    const KEYS: u64 = 4;
    const SLOTS: usize = 8;
    const BALANCE: u64 = 100;
    const AMOUNT: u64 = 30;

    fn maps(rt: &TmRuntime) -> [HeapHashMap; 2] {
        let words = HeapHashMap::words_needed(Self::SLOTS);
        [0, 1].map(|m| HeapHashMap::new(rt.app(m * words), Self::SLOTS))
    }

    fn account(&self, i: u64) -> (&HeapHashMap, u64) {
        let key = i % Self::KEYS;
        (&self.maps[key as usize % 2], key)
    }

    /// Non-transactional sum of every stored balance.
    fn total_nt(rt: &TmRuntime) -> u64 {
        (0..2 * Self::SLOTS)
            .filter(|&s| rt.verify_read(s * 8) != 0)
            .map(|s| rt.verify_read(s * 8 + 1))
            .sum()
    }
}

impl Workload for ServerTransfer {
    type Snap = ();
    fn sample(&mut self, _r: &mut SmallRng) {
        self.n += 1;
    }
    fn segment<C: TxCtx>(&mut self, _s: usize, ctx: &mut C) -> htm_sim::abort::TxResult<()> {
        let (m, key) = self.account(self.n);
        if self.core == 0 {
            transfer(ctx, (m, key), self.account(self.n + 1), Self::AMOUNT)?;
        } else {
            std::hint::black_box(m.get(ctx, key)?);
        }
        Ok(())
    }
}

/// One of three *symmetric* partitioned-path writers over disjoint data: scan
/// a core-private block in read-only segments, then bump the block's counters
/// in the last one — whose sub-HTM commit validates against, and then locks
/// bits in, the global write-locks signature. The scenario's 512-bit
/// signature is exactly one cache line, so that line is the only thing the
/// three cores share: identical closed loops that reach it at the same
/// virtual instant doom one another there, and if every retry re-collides
/// they burn their retry budgets in lockstep and convoy onto the global lock
/// (ROADMAP item 1's `nrmw_capacity` cliff in miniature).
struct ConvoyWriter {
    /// This core's private block: `LINES` one-per-line counters.
    base: htm_sim::Addr,
}

impl ConvoyWriter {
    const LINES: u32 = 4;
    const SEGS: usize = 3;
    /// Words between two cores' blocks.
    const BLOCK_WORDS: usize = Self::LINES as usize * 8;
}

impl Workload for ConvoyWriter {
    type Snap = ();
    fn sample(&mut self, _r: &mut SmallRng) {}
    fn segments(&self) -> usize {
        Self::SEGS
    }
    fn segment<C: TxCtx>(&mut self, s: usize, ctx: &mut C) -> htm_sim::abort::TxResult<()> {
        for i in 0..Self::LINES {
            let addr = self.base + i * 8;
            let v = ctx.read(addr)?;
            if s + 1 == Self::SEGS {
                ctx.write(addr, v + 1)?;
            }
        }
        Ok(())
    }
}

/// The slow-path gate under its three protocol steps at once. Core 0 runs a
/// multi-segment bank transfer on the partitioned path. Core 1 arrives while
/// it is in flight with an irrevocable transfer, so it must commit under the
/// lock by announcing the lock bit over a non-zero count and draining it.
/// Core 2 starts a partitioned transfer as the lock is announced: it backs
/// out (of the lock bit it sees before or after its increment) and retries
/// once the holder releases. Every transaction moves money between accounts
/// on distinct lines, so the bank's total is conserved.
struct GateDrain<'r> {
    rt: &'r TmRuntime,
    core: usize,
    /// Virtual time this core waits before its transaction starts.
    arrive: u64,
    /// What the cores observed, shared.
    seen: &'r GateSeen,
}

/// The `gate-drain` observations.
#[derive(Default)]
struct GateSeen {
    /// The holder arrived while the count was non-zero (the announce branch).
    over_count: AtomicBool,
    /// The holder is inside its body.
    in_body: AtomicBool,
    /// Broken steps: a holder body entered with the lock bit clear or the
    /// count non-zero, or a partitioned segment ran beside a holder body.
    bad: AtomicU64,
}

impl GateDrain<'_> {
    const ACCOUNTS: usize = 6;
    const BALANCE: u64 = 100;
    const SEGS: usize = 3;
    /// When core 1 reaches the lock: core 0 is counted in by then.
    const HOLDER_ARRIVES: u64 = 10;

    fn account(&self, i: usize) -> htm_sim::Addr {
        self.rt.app(i * 8)
    }

    /// The gate by a raw load: no simulated access, so no peer runs between
    /// this core's last access and the check. The holder checks it where its
    /// body starts only: later in the body an entrant that read the gate
    /// before the lock was taken may count itself in for one access while it
    /// backs out.
    fn raw_gate(&self) -> u64 {
        self.rt.system().heap().load(self.rt.gate())
    }

    fn total_nt(rt: &TmRuntime) -> u64 {
        (0..Self::ACCOUNTS).map(|i| rt.verify_read(i * 8)).sum()
    }
}

impl Workload for GateDrain<'_> {
    type Snap = ();
    fn sample(&mut self, _r: &mut SmallRng) {
        htm_sim::vclock::charge(std::mem::take(&mut self.arrive));
        if self.core == 1 && self.raw_gate() & GATE_COUNT != 0 {
            self.seen.over_count.store(true, Ordering::Relaxed);
        }
    }
    fn segments(&self) -> usize {
        if self.core == 1 {
            1
        } else {
            Self::SEGS
        }
    }
    fn is_irrevocable(&self) -> bool {
        self.core == 1
    }
    fn segment<C: TxCtx>(&mut self, s: usize, ctx: &mut C) -> htm_sim::abort::TxResult<()> {
        // Core 0 moves money up its half of the bank, core 2 up the other
        // half, and the holder from the first account to the last.
        let (from, to) = match self.core {
            1 => (0, Self::ACCOUNTS - 1),
            c => {
                let base = if c == 0 { 0 } else { Self::ACCOUNTS / 2 };
                (base + s, base + (s + 1) % (Self::ACCOUNTS / 2))
            }
        };
        let (from, to) = (self.account(from), self.account(to));
        let seen = self.seen;
        if self.core == 1 {
            if self.raw_gate() != GATE_LOCK {
                seen.bad.fetch_add(1, Ordering::Relaxed);
            }
            seen.in_body.store(true, Ordering::Relaxed);
        } else if seen.in_body.load(Ordering::Relaxed) {
            seen.bad.fetch_add(1, Ordering::Relaxed);
        }
        let f = ctx.read(from)?;
        let t = ctx.read(to)?;
        ctx.write(from, f - 1)?;
        ctx.write(to, t + 1)?;
        if self.core == 1 {
            seen.in_body.store(false, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// Read past the POWER read budget in `SEGS` declared segments, then
/// increment `HOT` shared counters in the last one. The whole transaction
/// overflows the budget, so it is rescued by the partitioned path; conflicts
/// on the hot lines between sub-HTMs are decision points.
struct PowerScan {
    base: htm_sim::Addr,
}

impl PowerScan {
    /// POWER read budget is 128 lines; 140 guarantees a capacity abort.
    const LINES: u32 = 140;
    const SEGS: usize = 4;
    const HOT: u32 = 4;
}

impl Workload for PowerScan {
    type Snap = ();
    fn sample(&mut self, _r: &mut SmallRng) {}
    fn segments(&self) -> usize {
        Self::SEGS
    }
    fn segment<C: TxCtx>(&mut self, s: usize, ctx: &mut C) -> htm_sim::abort::TxResult<()> {
        let per = Self::LINES / Self::SEGS as u32;
        let mut sum = 0u64;
        for i in s as u32 * per..(s as u32 + 1) * per {
            sum = sum.wrapping_add(ctx.read(self.base + i * 8)?);
        }
        std::hint::black_box(sum);
        if s + 1 == Self::SEGS {
            for i in 0..Self::HOT {
                let a = self.base + i * 8;
                let v = ctx.read(a)?;
                ctx.write(a, v + 1)?;
            }
        }
        Ok(())
    }
}

/// Check the post-run invariants common to every Part-HTM scenario: conserved
/// per-word sums, global lock released, no in-flight transactions, no leaked
/// conflict-table entries.
fn check_clean(rt: &TmRuntime, words: &[(usize, u64)], out: &mut Vec<String>) {
    for &(i, expect) in words {
        let got = rt.verify_read(i);
        if got != expect {
            out.push(format!("word {i}: expected {expect}, found {got} (lost or phantom update)"));
        }
    }
    let gate = rt.system().nt_read(rt.gate());
    if gate & GATE_LOCK != 0 {
        out.push(format!("global lock still held (gate {gate:#x})"));
    }
    if gate & GATE_COUNT != 0 {
        out.push(format!(
            "partitioned-path count not drained (gate {gate:#x})"
        ));
    }
    let live = rt.system().live_line_entries();
    if live != 0 {
        out.push(format!("{live} conflict-table entries leaked"));
    }
}

/// Run one scenario under one schedule. `Ok` carries the schedule report and
/// a canonical digest (decision trace + statistics) for byte-exact
/// determinism comparisons; `Err` is a one-line invariant-violation message.
pub fn run_scenario(name: &str, spec: &SchedSpec) -> Result<(VReport, String), String> {
    match name {
        "counter2" => {
            let rt = TmRuntime::new(
                HtmConfig::tiny(),
                TmConfig::default(),
                2,
                64,
            );
            let a0 = rt.app(0);
            let (r, rep) =
                run_threads_virtual::<PartHtm, _, _>(&rt, 2, 6, spec.clone(), |_t| Inc(a0));
            let mut bad = Vec::new();
            if r.commits != 12 {
                bad.push(format!("expected 12 commits, got {}", r.commits));
            }
            check_clean(&rt, &[(0, 12)], &mut bad);
            finish(name, r, rep, bad)
        }
        "planner" => {
            let htm = HtmConfig {
                l1_sets: 4,
                l1_ways: 2,
                read_lines_max: 24,
                ..HtmConfig::tiny()
            };
            let rt = TmRuntime::new(htm, TmConfig::default(), 2, (WideInc::LINES as usize) * 8);
            let base = rt.app(0);
            let (r, rep) =
                run_threads_virtual::<PartHtm, _, _>(&rt, 2, 4, spec.clone(), |_t| WideInc {
                    base,
                });
            let mut bad = Vec::new();
            if r.commits != 8 {
                bad.push(format!("expected 8 commits, got {}", r.commits));
            }
            let words: Vec<(usize, u64)> =
                (0..WideInc::LINES as usize).map(|i| (i * 8, 8)).collect();
            check_clean(&rt, &words, &mut bad);
            finish(name, r, rep, bad)
        }
        "ring-epoch" => {
            let tm = TmConfig {
                ring_entries: 16,
                ring_shards: 2,
                summary_check_interval: 4,
                ..TmConfig::default()
            };
            let rt = TmRuntime::new(HtmConfig::tiny(), tm, 2, 64);
            let a0 = rt.app(0);
            let (r, rep) =
                run_threads_virtual::<PartHtm, _, _>(&rt, 2, 8, spec.clone(), |_t| Inc(a0));
            let mut bad = Vec::new();
            if r.commits != 16 {
                bad.push(format!("expected 16 commits, got {}", r.commits));
            }
            check_clean(&rt, &[(0, 16)], &mut bad);
            finish(name, r, rep, bad)
        }
        "power-split" => {
            let htm = HtmConfig {
                backend: BackendKind::Power,
                ..HtmConfig::default()
            };
            let rt = TmRuntime::new(htm, TmConfig::default(), 2, (PowerScan::LINES as usize) * 8);
            let base = rt.app(0);
            let (r, rep) =
                run_threads_virtual::<PartHtm, _, _>(&rt, 2, 3, spec.clone(), |_t| PowerScan {
                    base,
                });
            let mut bad = Vec::new();
            if r.commits != 6 {
                bad.push(format!("expected 6 commits, got {}", r.commits));
            }
            let words: Vec<(usize, u64)> =
                (0..PowerScan::HOT as usize).map(|i| (i * 8, 6)).collect();
            check_clean(&rt, &words, &mut bad);
            finish(name, r, rep, bad)
        }
        "server-batch" => {
            let rt = TmRuntime::new(
                HtmConfig::tiny(),
                TmConfig::default(),
                2,
                (BatchGroup::WIDTH + 1) * 8,
            );
            let base = rt.app(0);
            let (r, rep) =
                run_threads_virtual::<PartHtm, _, _>(&rt, 2, 4, spec.clone(), |_t| BatchGroup {
                    base,
                });
            let mut bad = Vec::new();
            if r.commits != 8 {
                bad.push(format!("expected 8 commits, got {}", r.commits));
            }
            // Each committed group bumps every slot once and the hot line
            // WIDTH times — a torn group shows up as a skewed sum.
            let mut words: Vec<(usize, u64)> =
                (0..BatchGroup::WIDTH).map(|i| (i * 8, 8)).collect();
            words.push((BatchGroup::WIDTH * 8, 8 * BatchGroup::WIDTH as u64));
            check_clean(&rt, &words, &mut bad);
            finish(name, r, rep, bad)
        }
        "server-transfer" => {
            const OPS: usize = 4;
            let htm = HtmConfig {
                quantum: 6,
                ..HtmConfig::default()
            };
            let words = 2 * HeapHashMap::words_needed(ServerTransfer::SLOTS);
            let rt = TmRuntime::new(htm, TmConfig::default(), 2, words);
            let maps = ServerTransfer::maps(&rt);
            {
                let th = TmThread::new(&rt, 0);
                let mut ctx = SlowCtx {
                    th: &th.hw,
                    mask_values: false,
                };
                for key in 0..ServerTransfer::KEYS {
                    maps[key as usize % 2]
                        .insert(&mut ctx, key, ServerTransfer::BALANCE)
                        .expect("slow-path preload cannot abort");
                }
            }
            let (r, rep) =
                run_threads_virtual::<PartHtm, _, _>(&rt, 2, OPS, spec.clone(), |core| {
                    ServerTransfer { maps, core, n: 0 }
                });
            let mut bad = Vec::new();
            if r.commits != 2 * OPS as u64 {
                bad.push(format!("expected {} commits, got {}", 2 * OPS, r.commits));
            }
            if r.tm.commits_gl < OPS as u64 {
                bad.push(format!(
                    "{} commits under the global lock: some of the {OPS} transfers did not take it",
                    r.tm.commits_gl
                ));
            }
            let total = ServerTransfer::total_nt(&rt);
            let expect = ServerTransfer::KEYS * ServerTransfer::BALANCE;
            if total != expect {
                bad.push(format!("total balance {total}, expected {expect} (lost or phantom update)"));
            }
            check_clean(&rt, &[], &mut bad);
            finish(name, r, rep, bad)
        }
        "gate-drain" => {
            let tm = TmConfig {
                skip_fast: true,
                ..TmConfig::default()
            };
            let rt = TmRuntime::new(HtmConfig::default(), tm, 3, GateDrain::ACCOUNTS * 8);
            for i in 0..GateDrain::ACCOUNTS {
                rt.setup_write(i * 8, GateDrain::BALANCE);
            }
            let seen = GateSeen::default();
            let (r, rep) = run_threads_virtual::<PartHtm, _, _>(&rt, 3, 1, spec.clone(), |core| {
                GateDrain {
                    rt: &rt,
                    core,
                    // Core 2 reads the gate as core 1 announces the lock.
                    arrive: if core == 0 { 0 } else { GateDrain::HOLDER_ARRIVES },
                    seen: &seen,
                }
            });
            let mut bad = Vec::new();
            if r.commits != 3 || r.tm.commits_gl == 0 {
                bad.push(format!(
                    "expected 3 commits, the holder's under the lock; got {} ({} under the lock)",
                    r.commits, r.tm.commits_gl
                ));
            }
            let broken = seen.bad.load(Ordering::Relaxed);
            if broken != 0 {
                bad.push(format!(
                    "{broken} lock-holder body steps beside a counted or unlocked gate"
                ));
            }
            let total = GateDrain::total_nt(&rt);
            let expect = GateDrain::ACCOUNTS as u64 * GateDrain::BALANCE;
            if total != expect {
                bad.push(format!("total balance {total}, expected {expect} (lost or phantom update)"));
            }
            if !seen.over_count.load(Ordering::Relaxed) {
                bad.push("the holder found no partitioned transaction to drain".to_string());
            }
            check_clean(&rt, &[], &mut bad);
            finish(name, r, rep, bad)
        }
        "lock-sig-convoy" => {
            const CORES: usize = 3;
            const OPS: usize = 6;
            let tm = TmConfig {
                // 512 bits = 8 words: the whole write-locks signature is one line.
                sig_spec: SigSpec::new(512),
                skip_fast: true,
                ..TmConfig::default()
            };
            let rt = TmRuntime::new(
                HtmConfig::default(),
                tm,
                CORES,
                CORES * ConvoyWriter::BLOCK_WORDS,
            );
            let (r, rep) =
                run_threads_virtual::<PartHtm, _, _>(&rt, CORES, OPS, spec.clone(), |t| {
                    ConvoyWriter {
                        base: rt.app(t * ConvoyWriter::BLOCK_WORDS),
                    }
                });
            let mut bad = Vec::new();
            if r.commits != (CORES * OPS) as u64 {
                bad.push(format!("expected {} commits, got {}", CORES * OPS, r.commits));
            }
            // Disjoint data: contention on the lock line may cost retries, and
            // an unlucky schedule one trip to the lock — never a convoy.
            if r.tm.commits_gl > 1 {
                bad.push(format!(
                    "{} commits under the global lock (lockstep convoy on the write-locks line)",
                    r.tm.commits_gl
                ));
            }
            let words: Vec<(usize, u64)> = (0..CORES * ConvoyWriter::LINES as usize)
                .map(|i| (i * 8, OPS as u64))
                .collect();
            check_clean(&rt, &words, &mut bad);
            let locks = rt.write_locks().snapshot_nt(&rt.system().thread(0));
            if !locks.is_empty() {
                bad.push("write-locks signature not released".to_string());
            }
            finish(name, r, rep, bad)
        }
        "order-canary" => {
            // Raw HtmSystem, one single-op commit per core. The "invariant"
            // is that core 0's commit lands first — true under the MinId
            // default, false once the explorer forces the tie the other way
            // at the commit's decision point (depth 2).
            let sys = HtmSystem::new(HtmConfig::tiny(), 64);
            let clock = VClock::new(2, spec.clone());
            std::thread::scope(|s| {
                for t in 0..2usize {
                    let clock = &clock;
                    let sys = &sys;
                    s.spawn(move || {
                        let _g = clock.attach(t);
                        let mut th = sys.thread(t);
                        th.attempt(|tx| tx.write((t as u32) * 8, 1)).unwrap();
                    });
                }
            });
            let rep = clock.report();
            let mut bad = Vec::new();
            match rep.commit_log.first() {
                Some(&(core, _)) if core != 0 => {
                    bad.push(format!("core {core} committed before core 0"));
                }
                None => bad.push("no commits recorded".to_string()),
                _ => {}
            }
            if bad.is_empty() {
                let digest = format!("{}canary", rep.trace_text());
                Ok((rep, digest))
            } else {
                Err(bad.join("; "))
            }
        }
        other => Err(format!("unknown scenario '{other}'")),
    }
}

/// Fold a finished Part-HTM scenario run into the `run_scenario` result shape.
fn finish(
    _name: &str,
    r: crate::driver::RunResult,
    rep: VReport,
    bad: Vec<String>,
) -> Result<(VReport, String), String> {
    if bad.is_empty() {
        let digest = format!(
            "{}makespan={} tm={:?} hw={:?}",
            rep.trace_text(),
            r.makespan,
            r.tm,
            r.hw
        );
        Ok((rep, digest))
    } else {
        Err(bad.join("; "))
    }
}

/// Bounded-depth exhaustive exploration: depth-first over forced prefixes,
/// visiting every schedule that differs from the `MinId` default in the first
/// [`Bounds::depth`] decision points. Stops at the first violation.
pub fn explore(scenario: &str, seed: u64, bounds: Bounds) -> Explored {
    let mut stack: Vec<Vec<u8>> = vec![Vec::new()];
    let mut explored = 0usize;
    while let Some(prefix) = stack.pop() {
        if explored >= bounds.max_schedules {
            return Explored {
                explored,
                truncated: true,
                violation: None,
            };
        }
        let spec = SchedSpec {
            seed,
            policy: SchedPolicy::MinId,
            forced: prefix.clone(),
        };
        explored += 1;
        match run_scenario(scenario, &spec) {
            Err(message) => {
                return Explored {
                    explored,
                    truncated: false,
                    violation: Some(Violation {
                        scenario: scenario.to_string(),
                        spec,
                        message,
                    }),
                }
            }
            Ok((report, _)) => {
                // Children: for every decision index `i` beyond this node's
                // explicit prefix, re-run with the observed choices 0..i
                // pinned and decision `i` flipped to each alternative. Every
                // child ends in a non-default choice and its parent is
                // recovered by stripping it plus trailing defaults, so the
                // stateless DFS visits each bounded-depth schedule exactly
                // once.
                let upto = bounds.depth.min(report.decisions.len());
                for i in prefix.len()..upto {
                    let d = report.decisions[i];
                    for alt in 1..d.candidates {
                        let mut child: Vec<u8> =
                            report.decisions[..i].iter().map(|p| p.chosen).collect();
                        child.push(alt);
                        stack.push(child);
                    }
                }
            }
        }
    }
    Explored {
        explored,
        truncated: false,
        violation: None,
    }
}

/// Seeded schedule sampling: `n` runs under [`SchedPolicy::Seeded`] with
/// seeds `seed0..seed0+n`. Complements [`explore`] past the exhaustive
/// horizon.
pub fn sample(scenario: &str, seed0: u64, n: usize) -> Explored {
    for k in 0..n {
        let spec = SchedSpec {
            seed: seed0.wrapping_add(k as u64),
            policy: SchedPolicy::Seeded,
            forced: Vec::new(),
        };
        if let Err(message) = run_scenario(scenario, &spec) {
            return Explored {
                explored: k + 1,
                truncated: false,
                violation: Some(Violation {
                    scenario: scenario.to_string(),
                    spec,
                    message,
                }),
            };
        }
    }
    Explored {
        explored: n,
        truncated: false,
        violation: None,
    }
}

/// Serialise a violation to the replay artifact format (`schedx-artifact v1`).
pub fn artifact_text(v: &Violation) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "schedx-artifact v1");
    let _ = writeln!(s, "scenario: {}", v.scenario);
    let _ = writeln!(s, "seed: {}", v.spec.seed);
    let _ = writeln!(
        s,
        "policy: {}",
        match v.spec.policy {
            SchedPolicy::MinId => "minid",
            SchedPolicy::Seeded => "seeded",
        }
    );
    let prefix: Vec<String> = v.spec.forced.iter().map(|c| c.to_string()).collect();
    let _ = writeln!(s, "prefix: {}", prefix.join(","));
    let _ = writeln!(s, "violation: {}", v.message);
    s
}

/// Parse a replay artifact produced by [`artifact_text`].
pub fn parse_artifact(text: &str) -> Result<Violation, String> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some("schedx-artifact v1") {
        return Err("not a schedx-artifact v1 file".to_string());
    }
    let mut scenario = None;
    let mut seed = 0u64;
    let mut policy = SchedPolicy::MinId;
    let mut forced = Vec::new();
    let mut message = String::new();
    for line in lines {
        let Some((key, val)) = line.split_once(':') else {
            continue;
        };
        let val = val.trim();
        match key.trim() {
            "scenario" => scenario = Some(val.to_string()),
            "seed" => seed = val.parse().map_err(|e| format!("bad seed: {e}"))?,
            "policy" => {
                policy = match val {
                    "minid" => SchedPolicy::MinId,
                    "seeded" => SchedPolicy::Seeded,
                    other => return Err(format!("bad policy '{other}'")),
                }
            }
            "prefix" => {
                forced = val
                    .split(',')
                    .filter(|p| !p.is_empty())
                    .map(|p| p.trim().parse().map_err(|e| format!("bad prefix: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "violation" => message = val.to_string(),
            _ => {}
        }
    }
    Ok(Violation {
        scenario: scenario.ok_or("missing scenario")?,
        spec: SchedSpec {
            seed,
            policy,
            forced,
        },
        message,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ISSUE 8 acceptance: two identical invocations produce byte-identical
    /// schedule traces and statistics, for every CI scenario.
    #[test]
    fn same_spec_same_digest_for_every_scenario() {
        for &(name, _, _) in SCENARIOS {
            let spec = SchedSpec::default();
            let a = run_scenario(name, &spec).expect(name);
            let b = run_scenario(name, &spec).expect(name);
            assert_eq!(a.1, b.1, "{name}: digests differ across identical runs");
        }
    }

    /// The tier-1-pinned bounded-depth exhaustive run: a 2-thread
    /// packed-line-table conflict, every schedule to depth 2, all invariants
    /// hold on all of them.
    #[test]
    fn counter2_bounded_exhaustive_holds() {
        let out = explore(
            "counter2",
            0,
            Bounds {
                depth: 2,
                max_schedules: 64,
            },
        );
        assert!(out.violation.is_none(), "violation: {:?}", out.violation);
        assert!(!out.truncated, "depth-2 frontier must fit the budget");
        assert!(
            out.explored > 1,
            "a 2-core conflict must hit schedule decisions (got {})",
            out.explored
        );
    }

    /// Replay round trip: the explorer finds the order-canary's
    /// schedule-dependent violation, the artifact serialises it, and the
    /// parsed artifact re-runs to the *same* failure.
    #[test]
    fn order_canary_violation_replays_exactly() {
        let out = explore("order-canary", 0, Bounds::default());
        let v = out
            .violation
            .expect("depth-3 exploration must flip the canary's commit order");
        let text = artifact_text(&v);
        let parsed = parse_artifact(&text).expect("round trip");
        assert_eq!(parsed.scenario, v.scenario);
        assert_eq!(parsed.spec.forced, v.spec.forced);
        let replayed = run_scenario(&parsed.scenario, &parsed.spec)
            .expect_err("replaying the failing schedule must fail again");
        assert_eq!(replayed, v.message, "replay must reproduce the same failure");
    }

    /// Schedules that pass the canary exist too (the default one), so the
    /// canary is genuinely schedule-dependent, not merely broken.
    #[test]
    fn order_canary_passes_under_default_schedule() {
        assert!(run_scenario("order-canary", &SchedSpec::default()).is_ok());
    }

    #[test]
    fn seeded_sampling_covers_ci_scenarios() {
        for name in BOUNDED_SET {
            let out = sample(name, 100, 3);
            assert!(out.violation.is_none(), "{name}: {:?}", out.violation);
        }
    }

    /// `server-transfer` exercises what it names: under the default schedule
    /// every transfer commits under the global lock and every get on the
    /// fast path beside it.
    #[test]
    fn server_transfer_locks_transfers_beside_fast_gets() {
        let (_, digest) = run_scenario("server-transfer", &SchedSpec::default()).unwrap();
        for field in ["commits_htm: 4,", "commits_subhtm: 0,", "commits_gl: 4,"] {
            assert!(digest.contains(field), "{field} not in {digest}");
        }
    }

    /// `gate-drain` exercises what it names under the default schedule: the
    /// two partitioned transfers commit on the sub-HTM path and the holder's
    /// under the lock, after announcing over core 0 and draining it (the
    /// scenario checks that itself).
    #[test]
    fn gate_drain_holder_drains_two_partitioned_transfers() {
        let (_, digest) = run_scenario("gate-drain", &SchedSpec::default()).unwrap();
        for field in ["commits_htm: 0,", "commits_subhtm: 2,", "commits_gl: 1,"] {
            assert!(digest.contains(field), "{field} not in {digest}");
        }
    }

    #[test]
    fn artifact_rejects_garbage() {
        assert!(parse_artifact("hello").is_err());
        assert!(parse_artifact("schedx-artifact v1\nseed: x\n").is_err());
    }
}
