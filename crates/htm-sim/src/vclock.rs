//! Discrete-event virtual clock: deterministic multi-core scheduling on one host
//! core.
//!
//! The simulator already accounts time — every transactional operation charges
//! *work units* ([`crate::HtmTx::work_used`]). This module turns that accounting
//! into a scheduler: each simulated core owns a virtual timestamp, exactly one
//! core (the one with the smallest timestamp among runnable cores) executes at a
//! time, and charging work advances the executing core's clock. Conflicts,
//! commits and timer aborts are thereby ordered by *virtual* time instead of
//! host preemption, so a thread sweep on a 1-core CI host produces the same
//! deterministic interleaving — and the same statistics — on every run.
//!
//! ## Schedule points
//!
//! The only nondeterminism in a virtual-time run is the *tie*: two or more
//! runnable cores sharing the minimum timestamp. Each tie is a **decision
//! point**; the scheduler resolves it with, in order of precedence:
//!
//! 1. the next entry of the forced prefix ([`SchedSpec::forced`], replay),
//! 2. the policy — [`SchedPolicy::MinId`] (lowest core id, the deterministic
//!    default) or [`SchedPolicy::Seeded`] (a draw from the run-seeded RNG).
//!
//! Every decision is recorded (candidate count + chosen index), so a schedule
//! is fully described by `(seed, policy, prefix)` — a few bytes, not a trace of
//! every memory access. The `schedx` explorer in `tm-harness` enumerates
//! prefixes to visit every schedule up to a bounded depth and replays a failing
//! one exactly.
//!
//! ## Execution model
//!
//! Worker threads [`VClock::attach`] one core each; attach blocks until all
//! cores arrived (a barrier) and the scheduler granted this core the floor.
//! While a core holds the floor the other runnable cores' timestamps are
//! frozen, so the handing-over bound (`run_until` = minimum timestamp of the
//! other runnable cores) is constant: charges that keep the core strictly below
//! the bound skip the scheduler lock entirely — exact semantics, hot-path cost
//! of one thread-local add and compare. Reaching the bound (equality *is* a
//! tie) re-enters the scheduler.
//!
//! Spin loops must not busy-wait the host while the peer they wait for is gated
//! by the scheduler: [`yield_now`] advances the yielding core *to* the bound
//! (a spin-wait consumes exactly the time until someone else can act) and
//! reschedules, which guarantees global progress — any loop that either charges
//! or virtually yields keeps virtual time advancing.
//!
//! Code outside a virtual-time run is unaffected: every hook in this module is
//! a no-op (one relaxed atomic load) when the calling thread is not attached.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Maximum cores per clock (bounded by the fixed candidate buffer; well above
/// [`crate::registry::MAX_THREADS`]).
pub const MAX_CORES: usize = 64;
/// Decisions retained in the trace; the count keeps growing past the cap.
const TRACE_CAP: usize = 1 << 16;
/// Commits retained in the commit log; the count keeps growing past the cap.
const COMMIT_CAP: usize = 1 << 20;

/// Tie-break policy at schedule decision points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Deterministic default: the lowest core id among the tied candidates.
    MinId,
    /// A draw from the run-seeded RNG ([`SchedSpec::seed`]) — deterministic for
    /// a given seed, different across seeds (bounded schedule *sampling*).
    Seeded,
}

/// A complete schedule description: seed, policy, and a forced decision prefix.
///
/// Two runs of the same program under the same spec produce byte-identical
/// decision traces, commit logs and statistics.
#[derive(Clone, Debug)]
pub struct SchedSpec {
    /// Seeds the [`SchedPolicy::Seeded`] tie-breaker and the per-core
    /// interrupt RNGs ([`interrupt_draw`]).
    pub seed: u64,
    /// Tie-break policy after the forced prefix is exhausted.
    pub policy: SchedPolicy,
    /// Forced choices for the first `forced.len()` decision points: entry `i`
    /// is an index into decision `i`'s candidate list (taken modulo the
    /// candidate count, so stale prefixes stay well-defined).
    pub forced: Vec<u8>,
}

impl Default for SchedSpec {
    fn default() -> Self {
        Self {
            seed: 0,
            policy: SchedPolicy::MinId,
            forced: Vec::new(),
        }
    }
}

/// One recorded schedule decision: `chosen` of `candidates` tied cores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Number of cores tied at the minimum timestamp (always >= 2).
    pub candidates: u8,
    /// Index of the chosen core within the ascending-id candidate list.
    pub chosen: u8,
}

/// What a finished virtual-time run looked like.
#[derive(Clone, Debug, Default)]
pub struct VReport {
    /// The run's makespan: the maximum final core timestamp. This is the
    /// virtual-time analogue of wall-clock elapsed time.
    pub makespan: u64,
    /// The decision trace (first [`struct@Decision`] entries up to an internal cap).
    pub decisions: Vec<Decision>,
    /// Total decisions made (may exceed `decisions.len()` past the cap).
    pub n_decisions: u64,
    /// `(core, virtual time)` per hardware commit, in commit order (capped).
    pub commit_log: Vec<(usize, u64)>,
    /// Total commits noted (may exceed `commit_log.len()` past the cap).
    pub n_commits: u64,
}

impl VReport {
    /// Canonical text rendering of the decision trace — byte-comparable across
    /// runs ("two identical invocations produce byte-identical traces").
    pub fn trace_text(&self) -> String {
        let mut out = String::with_capacity(self.decisions.len() * 8 + 32);
        out.push_str(&format!(
            "decisions={} commits={} makespan={}\n",
            self.n_decisions, self.n_commits, self.makespan
        ));
        for (i, d) in self.decisions.iter().enumerate() {
            out.push_str(&format!("{i}:{}/{}\n", d.chosen, d.candidates));
        }
        out
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    NotArrived,
    Runnable,
    Done,
}

struct CoreState {
    time: u64,
    status: Status,
}

struct VState {
    cores: Vec<CoreState>,
    /// The core currently holding the floor (`None` before start / after end).
    current: Option<usize>,
    spec: SchedSpec,
    /// Tie-break RNG for [`SchedPolicy::Seeded`].
    rng: SmallRng,
    decisions: Vec<Decision>,
    n_decisions: u64,
    commit_log: Vec<(usize, u64)>,
    n_commits: u64,
}

struct Inner {
    state: Mutex<VState>,
    cv: Condvar,
}

/// Pick the next core to run: minimum timestamp among runnable cores, ties
/// resolved by forced prefix / policy and recorded as a decision.
fn pick_next(st: &mut VState) -> Option<usize> {
    let mut min_t = u64::MAX;
    let mut n: usize = 0;
    let mut cand = [0usize; MAX_CORES];
    for (i, c) in st.cores.iter().enumerate() {
        if c.status == Status::Runnable {
            if c.time < min_t {
                min_t = c.time;
                n = 0;
            }
            if c.time == min_t {
                cand[n] = i;
                n += 1;
            }
        }
    }
    if n == 0 {
        return None;
    }
    let chosen = if n == 1 {
        0
    } else {
        let pick = if (st.n_decisions as usize) < st.spec.forced.len() {
            (st.spec.forced[st.n_decisions as usize] as usize) % n
        } else {
            match st.spec.policy {
                SchedPolicy::MinId => 0,
                SchedPolicy::Seeded => st.rng.gen_range(0..n as u32) as usize,
            }
        };
        if st.decisions.len() < TRACE_CAP {
            st.decisions.push(Decision {
                candidates: n as u8,
                chosen: pick as u8,
            });
        }
        st.n_decisions += 1;
        pick
    };
    Some(cand[chosen])
}

/// Minimum timestamp of the runnable cores other than `me` (frozen while `me`
/// holds the floor), or `u64::MAX` when `me` is the only runnable core.
fn run_until_for(st: &VState, me: usize) -> u64 {
    st.cores
        .iter()
        .enumerate()
        .filter(|&(i, c)| i != me && c.status == Status::Runnable)
        .map(|(_, c)| c.time)
        .min()
        .unwrap_or(u64::MAX)
}

/// The calling thread's binding to a clock core.
struct Handle {
    inner: Arc<Inner>,
    core: usize,
    /// Local mirror of this core's timestamp (flushed to shared state on every
    /// scheduler entry).
    time: u64,
    /// Enter the scheduler once `time >= run_until` (equality is a tie).
    run_until: u64,
    /// Per-core RNG for injected-interrupt draws — part of the schedule spec,
    /// so `--replay` reproduces injected interrupts bit-exactly.
    irng: SmallRng,
}

thread_local! {
    static CURRENT: RefCell<Option<Handle>> = const { RefCell::new(None) };
}

/// Process-wide count of attached cores: lets the hot-path hooks skip even the
/// thread-local lookup when no virtual-time run exists anywhere.
static ATTACHED: AtomicUsize = AtomicUsize::new(0);

/// Flush the local timestamp, reschedule, and block until this core holds the
/// floor again.
fn sync(h: &mut Handle) {
    let inner = Arc::clone(&h.inner);
    let mut st = inner.state.lock().unwrap();
    st.cores[h.core].time = h.time;
    st.current = pick_next(&mut st);
    if st.current != Some(h.core) {
        inner.cv.notify_all();
        while st.current != Some(h.core) {
            st = inner.cv.wait(st).unwrap();
        }
    }
    h.run_until = run_until_for(&st, h.core);
}

/// A discrete-event virtual clock coordinating `cores` worker threads.
///
/// Construct with [`VClock::new`], hand a reference to each worker, have every
/// worker call [`VClock::attach`] exactly once, and read the [`VReport`] with
/// [`VClock::report`] after the workers joined.
pub struct VClock {
    inner: Arc<Inner>,
    cores: usize,
    seed: u64,
}

impl VClock {
    /// A clock for exactly `cores` simulated cores under schedule `spec`.
    pub fn new(cores: usize, spec: SchedSpec) -> Self {
        assert!(
            (1..=MAX_CORES).contains(&cores),
            "cores must be in 1..={MAX_CORES}"
        );
        let seed = spec.seed;
        let rng = SmallRng::seed_from_u64(seed ^ 0x7EA1_5EED_C0DE_C10C);
        Self {
            inner: Arc::new(Inner {
                state: Mutex::new(VState {
                    cores: (0..cores)
                        .map(|_| CoreState {
                            time: 0,
                            status: Status::NotArrived,
                        })
                        .collect(),
                    current: None,
                    spec,
                    rng,
                    decisions: Vec::new(),
                    n_decisions: 0,
                    commit_log: Vec::new(),
                    n_commits: 0,
                }),
                cv: Condvar::new(),
            }),
            cores,
            seed,
        }
    }

    /// Number of cores this clock schedules.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Bind the calling thread to `core` and block until every core arrived
    /// and the scheduler granted this core the floor. The returned guard
    /// detaches on drop (including panic unwinds), marking the core done so
    /// the remaining cores keep running.
    ///
    /// # Panics
    ///
    /// If `core` is out of range, already attached, or the calling thread is
    /// already bound to a clock.
    pub fn attach(&self, core: usize) -> CoreGuard {
        assert!(core < self.cores, "core {core} out of range");
        let mut st = self.inner.state.lock().unwrap();
        assert!(
            st.cores[core].status == Status::NotArrived,
            "core {core} attached twice"
        );
        st.cores[core].status = Status::Runnable;
        if st.cores.iter().all(|c| c.status != Status::NotArrived) {
            // Last arriver releases the barrier and makes decision 0.
            st.current = pick_next(&mut st);
            self.inner.cv.notify_all();
        }
        while st.current != Some(core) {
            st = self.inner.cv.wait(st).unwrap();
        }
        let run_until = run_until_for(&st, core);
        drop(st);
        let h = Handle {
            inner: Arc::clone(&self.inner),
            core,
            time: 0,
            run_until,
            irng: SmallRng::seed_from_u64(
                self.seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1A7E_11A7,
            ),
        };
        CURRENT.with(|c| {
            let mut b = c.borrow_mut();
            assert!(b.is_none(), "thread already bound to a virtual clock");
            *b = Some(h);
        });
        ATTACHED.fetch_add(1, Ordering::SeqCst);
        CoreGuard {
            inner: Arc::clone(&self.inner),
            core,
        }
    }

    /// Snapshot the run's report. Call after the worker threads joined; calling
    /// mid-run yields a consistent-but-partial view.
    pub fn report(&self) -> VReport {
        let st = self.inner.state.lock().unwrap();
        VReport {
            makespan: st.cores.iter().map(|c| c.time).max().unwrap_or(0),
            decisions: st.decisions.clone(),
            n_decisions: st.n_decisions,
            commit_log: st.commit_log.clone(),
            n_commits: st.n_commits,
        }
    }
}

/// Detaches the calling thread's core on drop (see [`VClock::attach`]).
pub struct CoreGuard {
    inner: Arc<Inner>,
    core: usize,
}

impl Drop for CoreGuard {
    fn drop(&mut self) {
        let h = CURRENT.with(|c| c.borrow_mut().take());
        let final_time = h.map(|h| h.time).unwrap_or(0);
        ATTACHED.fetch_sub(1, Ordering::SeqCst);
        let mut st = self.inner.state.lock().unwrap();
        st.cores[self.core].time = st.cores[self.core].time.max(final_time);
        st.cores[self.core].status = Status::Done;
        // Only hand the floor over if we held it (a panicking core that never
        // got the floor must not preempt the one that has it).
        if st.current == Some(self.core) || st.current.is_none() {
            st.current = pick_next(&mut st);
        }
        self.inner.cv.notify_all();
    }
}

/// True when the calling thread is attached to a virtual clock.
pub fn is_attached() -> bool {
    ATTACHED.load(Ordering::Relaxed) != 0 && CURRENT.with(|c| c.borrow().is_some())
}

/// Advance the calling core's virtual time by `units`. No-op when the thread
/// is not attached. May block (hand the floor to another core).
///
/// Returns whether the charge re-entered the scheduler — the only point at
/// which another core can have run, and so the only point at which state a
/// peer may change (a transaction's doom flag) needs re-checking. Constant
/// `false` when the thread is not attached.
#[inline]
pub fn charge(units: u64) -> bool {
    if ATTACHED.load(Ordering::Relaxed) == 0 {
        return false;
    }
    CURRENT.with(|c| match c.borrow_mut().as_mut() {
        Some(h) => {
            h.time = h.time.saturating_add(units);
            let handed_over = h.time >= h.run_until;
            if handed_over {
                sync(h);
            }
            handed_over
        }
        None => false,
    })
}

/// Virtual yield: the calling core concedes the floor, advancing its clock to
/// the point where another core can act (a spin-wait costs exactly the time
/// until the peer proceeds). Falls back to [`std::thread::yield_now`] when the
/// thread is not attached — spin loops call this unconditionally.
pub fn yield_now() {
    if ATTACHED.load(Ordering::Relaxed) != 0 {
        let handled = CURRENT.with(|c| {
            if let Some(h) = c.borrow_mut().as_mut() {
                let bump = h.time.saturating_add(1);
                h.time = if h.run_until == u64::MAX {
                    bump
                } else {
                    bump.max(h.run_until)
                };
                if h.time >= h.run_until {
                    sync(h);
                }
                true
            } else {
                false
            }
        });
        if handled {
            return;
        }
    }
    std::thread::yield_now();
}

/// The calling core's current virtual time, or `None` when the thread is not
/// attached. Read-only — unlike [`charge`] it never advances the clock or
/// hands over the floor, so pacing loops (e.g. an open-loop load generator
/// comparing arrival timestamps against "now") can poll it freely.
#[inline]
pub fn now() -> Option<u64> {
    if ATTACHED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|c| c.borrow().as_ref().map(|h| h.time))
}

/// A uniform `[0, 1)` draw from the calling core's schedule-seeded interrupt
/// RNG, or `None` when the thread is not attached (callers fall back to their
/// own RNG). Routing injected interrupts through this makes them part of the
/// schedule: replaying a `(seed, policy, prefix)` spec reproduces them
/// bit-exactly.
pub fn interrupt_draw() -> Option<f64> {
    if ATTACHED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|c| c.borrow_mut().as_mut().map(|h| h.irng.gen::<f64>()))
}

/// Record a hardware commit at the calling core's current virtual time.
/// No-op when the thread is not attached.
pub fn note_commit() {
    if ATTACHED.load(Ordering::Relaxed) == 0 {
        return;
    }
    CURRENT.with(|c| {
        if let Some(h) = c.borrow_mut().as_mut() {
            let mut st = h.inner.state.lock().unwrap();
            if st.commit_log.len() < COMMIT_CAP {
                st.commit_log.push((h.core, h.time));
            }
            st.n_commits += 1;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_runs_unimpeded() {
        let clock = VClock::new(1, SchedSpec::default());
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = clock.attach(0);
                for _ in 0..100 {
                    charge(3);
                }
                note_commit();
            });
        });
        let r = clock.report();
        assert_eq!(r.makespan, 300);
        assert_eq!(r.n_decisions, 0, "one core never ties");
        assert_eq!(r.commit_log, vec![(0, 300)]);
    }

    #[test]
    fn unattached_hooks_are_noops() {
        assert!(!is_attached());
        assert!(!charge(10), "off the clock a charge never hands over");
        yield_now();
        note_commit();
        assert_eq!(interrupt_draw(), None);
    }

    #[test]
    fn min_id_breaks_the_initial_tie() {
        let clock = VClock::new(2, SchedSpec::default());
        std::thread::scope(|s| {
            for t in 0..2 {
                let clock = &clock;
                s.spawn(move || {
                    let _g = clock.attach(t);
                    charge(1);
                    note_commit();
                });
            }
        });
        let r = clock.report();
        assert_eq!(r.commit_log[0].0, 0, "MinId schedules core 0 first");
        assert!(r.n_decisions >= 1);
        assert_eq!(r.decisions[0], Decision { candidates: 2, chosen: 0 });
    }

    #[test]
    fn forced_prefix_flips_the_commit_order() {
        // Decision 0 gives core 1 the first charge; decision 1 (the tie at
        // time 1, where both cores' next actions start) keeps core 1 on the
        // floor so its post-charge action — the commit — runs first.
        let spec = SchedSpec {
            forced: vec![1, 1],
            ..SchedSpec::default()
        };
        let clock = VClock::new(2, spec);
        std::thread::scope(|s| {
            for t in 0..2 {
                let clock = &clock;
                s.spawn(move || {
                    let _g = clock.attach(t);
                    charge(1);
                    note_commit();
                });
            }
        });
        let r = clock.report();
        assert_eq!(r.commit_log[0].0, 1, "forced prefix schedules core 1 first");
        assert_eq!(r.decisions[0], Decision { candidates: 2, chosen: 1 });
    }
}
