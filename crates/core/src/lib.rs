//! # part-htm-core — the Part-HTM and Part-HTM-O protocols
//!
//! Part-HTM (§4–§5 of the paper) is a hybrid TM that rescues transactions aborted by
//! best-effort HTM's **resource limitations** (capacity and time). Its three-path
//! design:
//!
//! 1. **Fast path** ([`PartHtm`] first tries the whole transaction as a single,
//!    lightly instrumented hardware transaction);
//! 2. **Partitioned path** (on a resource failure, the transaction is re-executed as
//!    a sequence of small *sub-HTM* transactions glued together by a software
//!    framework of Bloom-filter signatures, a global ring, a write-locks signature
//!    and a value-based undo log);
//! 3. **Slow path** (a single global lock, only for irrevocable transactions and
//!    pathological contention).
//!
//! [`PartHtmO`] is the opacity-preserving variant (§5.5): encounter-time lock
//! detection through *address-embedded write locks* (a stolen bit co-located with the
//! datum) and global-timestamp subscription at every sub-HTM begin.
//!
//! The crate also defines the protocol-agnostic execution interface shared with the
//! baselines: [`Workload`], [`TxCtx`], [`TmExecutor`], [`TmRuntime`] and
//! [`TmThread`].

#![deny(missing_docs)]

pub mod api;
pub mod ctx;
mod exec;
pub mod opaque;
pub mod parthtm;
pub mod planner;
pub mod runtime;
pub mod stats;
pub mod undo;

pub use api::{
    spin_work, CommitPath, TmExecutor, TxCtx, Workload, LOCK_BIT, VALUE_MASK, XABORT_GLOCK,
    XABORT_LOCKED, XABORT_NOT_QUIET, XABORT_TS_CHANGED, XABORT_UNDO_FULL,
};
pub use exec::{
    commit_under_glock, fast_retries, hw_attempt, run_all, subscribe_gate, wait_glock_released,
    PartExec, BACKOFF_UNITS, FAST_RETRIES, PART_RETRIES,
};
pub use opaque::PartHtmO;
pub use parthtm::PartHtm;
pub use planner::{batch_site, build_plan, FastRoute, PlanStep, SiteTable};
pub use runtime::{Region, SigKind, TmConfig, TmRuntime, TmThread, GATE_COUNT, GATE_LOCK};
pub use stats::TmStats;
