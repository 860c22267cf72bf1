//! Overload admission control: shed excess arrivals straight to the
//! serialized slow path instead of letting speculative retries convoy the
//! ring shards.
//!
//! The failure mode this prevents is the service-scale lemming effect: under
//! sustained overload every conflict-aborted retry burns backoff spins and
//! anti-lemming global-lock waits, the ring shards convoy behind in-flight
//! publishes, and the served rate *collapses* below the hardware's actual
//! capacity — the server does strictly more work per committed request
//! exactly when it has the least slack. Shedding the excess to
//! [`part_htm_core::TmExecutor::execute_shed`] (one serialized global-lock
//! pass, no speculative attempt, no backoff) keeps the speculative paths at
//! their healthy operating point and degrades tail latency gracefully
//! instead.
//!
//! The controller is a per-worker probe/backoff loop fed by three signals,
//! all already exported by the runtime (nothing is added to the hot paths):
//!
//! 1. **backlog** — requests pulled from the arrival stream but not yet
//!    served. Below [`AdmissionSpec::backlog_min`] the server is keeping up
//!    and everything is admitted; shedding only ever applies to *excess*
//!    arrivals.
//! 2. **capacity/conflict trouble EWMA** — per admitted group, one
//!    fixed-point EWMA sample of "this group saw a capacity-class hardware
//!    abort or fell off the fast path" (deltas of
//!    [`htm_sim::HtmStats::aborts_capacity`] and the commit path). Shed
//!    groups are not sampled — they say nothing about the speculative
//!    path — but each shed decays the EWMA slightly, so the controller
//!    periodically re-probes speculation instead of latching shut.
//! 3. **slow-path occupancy** — the global lock observed held plus the ring
//!    shards' in-flight publish occupancy
//!    ([`tm_sig::RingSummary::inflight_publishes`]); high occupancy counts
//!    as a trouble sample even if this worker's own groups still commit.

use part_htm_core::{CommitPath, TmRuntime, TmThread, GATE_LOCK};

/// Fixed-point one for the trouble EWMA (like the planner's profiles).
pub const EWMA_ONE: u32 = 1024;
/// EWMA smoothing shift for trouble samples (α = 1/8).
const EWMA_SHIFT: u32 = 3;
/// Recovery decay applied per *shed* group (α = 1/32): a fully latched
/// controller re-probes the speculative path after a few dozen sheds.
const RECOVER_SHIFT: u32 = 5;

/// Construction-time tuning of the admission controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionSpec {
    /// Master switch: `false` pins the no-controller baseline (every request
    /// admitted to the speculative paths) — the differential oracle the
    /// `microbench` overload rows are measured against.
    pub enabled: bool,
    /// Admit everything while the per-worker backlog is at or below this
    /// (the server is keeping up; there is no excess to shed).
    pub backlog_min: u64,
    /// Trouble-EWMA threshold (fixed point over [`EWMA_ONE`]): with backlog
    /// above `backlog_min`, shed while the EWMA is at or above this.
    pub trouble_threshold: u32,
    /// Ring-occupancy trouble trigger: total in-flight publishes across the
    /// ring shards at or above this counts as a trouble sample.
    pub occupancy_max: u64,
}

impl Default for AdmissionSpec {
    fn default() -> Self {
        Self {
            enabled: true,
            backlog_min: 32,
            trouble_threshold: EWMA_ONE / 4,
            occupancy_max: 6,
        }
    }
}

impl AdmissionSpec {
    /// The no-controller baseline (admit everything).
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// Per-worker admission controller state. See the module docs for the
/// control loop.
pub struct Admission {
    spec: AdmissionSpec,
    /// Trouble EWMA in `0..=EWMA_ONE`.
    ewma: u32,
    /// Capacity-class abort total (`aborts_capacity + aborts_timer` — the
    /// planner's capacity class) at the last observation.
    last_capacity: u64,
    /// Decisions taken (admitted + shed).
    decisions: u64,
    /// Requests shed.
    shed: u64,
}

impl Admission {
    /// A controller with no observed history (EWMA 0: admit-biased).
    pub fn new(spec: AdmissionSpec) -> Self {
        Self {
            spec,
            ewma: 0,
            last_capacity: 0,
            decisions: 0,
            shed: 0,
        }
    }

    /// The current trouble EWMA (diagnostics).
    pub fn trouble(&self) -> u32 {
        self.ewma
    }

    /// Requests this controller shed so far.
    pub fn shed_total(&self) -> u64 {
        self.shed
    }

    /// Total in-flight publish occupancy across the runtime's ring shards
    /// plus a large bias when the global lock is observed held — the
    /// "slow-path occupancy" input.
    pub fn occupancy(th: &TmThread<'_>) -> u64 {
        let rt: &TmRuntime = th.rt;
        let summaries = rt.summaries();
        let mut inflight = 0;
        for s in 0..summaries.shard_count() {
            inflight += summaries.shard(s).inflight_publishes();
        }
        if th.hw.nt_read(rt.gate()) & GATE_LOCK != 0 {
            inflight += 4;
        }
        inflight
    }

    /// Decide one group's fate before execution: `true` = admit to the
    /// speculative paths, `false` = shed to the serialized slow path.
    /// `backlog` is the worker's pulled-but-unserved request count.
    pub fn admit(&mut self, backlog: u64, th: &TmThread<'_>) -> bool {
        self.decisions += 1;
        if !self.spec.enabled || backlog <= self.spec.backlog_min {
            return true;
        }
        // Overloaded. Occupancy pressure counts as trouble even before this
        // worker's own groups degrade.
        if Self::occupancy(th) >= self.spec.occupancy_max {
            self.bump(true);
        }
        if self.ewma >= self.spec.trouble_threshold {
            // Shedding: decay toward re-probing the speculative path.
            self.ewma -= self.ewma >> RECOVER_SHIFT;
            self.shed += 1;
            return false;
        }
        true
    }

    /// Feed back an *admitted* group's outcome: the commit path plus the
    /// capacity-class abort delta (cache-geometry overflows *and* timer
    /// quanta — the same class the planner demotes on) since the last
    /// observation.
    pub fn observe(&mut self, path: CommitPath, th: &TmThread<'_>) {
        let caps = th.hw.stats.aborts_capacity + th.hw.stats.aborts_timer;
        let trouble = caps > self.last_capacity || path == CommitPath::GlobalLock;
        self.last_capacity = caps;
        self.bump(trouble);
    }

    fn bump(&mut self, sample: bool) {
        let target: i64 = if sample { EWMA_ONE as i64 } else { 0 };
        let old = self.ewma as i64;
        self.ewma = (old + ((target - old) >> EWMA_SHIFT)).clamp(0, EWMA_ONE as i64) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_controller_admits_everything() {
        let rt = TmRuntime::with_defaults(1, 64);
        let th = TmThread::new(&rt, 0);
        let mut a = Admission::new(AdmissionSpec::off());
        for _ in 0..100 {
            assert!(a.admit(u64::MAX, &th));
        }
        assert_eq!(a.shed_total(), 0);
    }

    #[test]
    fn sheds_only_under_backlog_and_trouble() {
        let rt = TmRuntime::with_defaults(1, 64);
        let th = TmThread::new(&rt, 0);
        let mut a = Admission::new(AdmissionSpec::default());
        // No backlog: admitted regardless of trouble history.
        for _ in 0..20 {
            a.bump(true);
        }
        assert!(a.admit(0, &th));
        // Backlog + trouble: shed.
        assert!(!a.admit(1000, &th));
        assert!(a.shed_total() >= 1);
        // Sustained shedding decays the EWMA until speculation is re-probed.
        let mut admitted = false;
        for _ in 0..200 {
            if a.admit(1000, &th) {
                admitted = true;
                break;
            }
        }
        assert!(admitted, "controller latched shut: no re-probe");
    }

    #[test]
    fn observe_tracks_paths() {
        let rt = TmRuntime::with_defaults(1, 64);
        let th = TmThread::new(&rt, 0);
        let mut a = Admission::new(AdmissionSpec::default());
        for _ in 0..20 {
            a.observe(CommitPath::GlobalLock, &th);
        }
        assert!(a.trouble() > EWMA_ONE / 2, "GL commits are trouble");
        for _ in 0..40 {
            a.observe(CommitPath::Htm, &th);
        }
        assert!(a.trouble() < EWMA_ONE / 8, "clean fast commits recover");
    }
}
