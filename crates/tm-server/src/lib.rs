//! # tm-server — a batched group-commit transactional service
//!
//! A multi-tenant sharded KV/queue service front-end for the Part-HTM
//! runtime, sized for the regime the paper's closed-loop figures cannot
//! show: *open-loop* load, where arrivals keep coming whether or not the
//! hardware keeps up. Every request executes as a Part-HTM transaction;
//! two mechanisms manage the best-effort HTM resource limitation at
//! service scale:
//!
//! * **group commit** ([`batch`]) — per-worker coalescing of small
//!   same-shard requests into one planner-declared multi-segment
//!   transaction, amortizing the fixed per-transaction costs (HTM
//!   begin/commit, the executor's routing and planner bookkeeping, the
//!   subscription reads; not a ring publish — with no partitioned-path peer
//!   active the quiet fast path never publishes) across up to `batch_max`
//!   requests, while the width-classed planner sites let PR 7's abort
//!   profiler split an over-wide batch back apart on capacity aborts;
//! * **admission control** ([`admission`]) — a probe/backoff controller
//!   fed by capacity-abort EWMAs and ring-shard occupancy that sheds
//!   excess arrivals straight to the serialized slow path
//!   ([`part_htm_core::TmExecutor::execute_shed`]) instead of letting
//!   speculative retries convoy the service under overload.
//!
//! The [`service`] module holds the heap layout, request vocabulary, the
//! per-worker serve loop and the multi-worker front-end ([`run_server`]),
//! which runs under the wall clock or the deterministic virtual clock and
//! reports sojourn-latency histograms ([`tm_harness::loadgen`]) next to the
//! usual protocol statistics. `batch_max = 1` and [`AdmissionSpec::off`]
//! pin the unbatched / no-controller differential oracles; the
//! `microbench` binary's `server` rows measure both mechanisms against them.
//!
//! See `docs/tm-server.md` for the request lifecycle and the batching
//! equivalence argument.

#![deny(missing_docs)]

pub mod admission;
pub mod batch;
pub mod service;

pub use admission::{Admission, AdmissionSpec};
pub use batch::{Batcher, ReqGroup};
pub use service::{
    gen_requests, run_server, Op, Request, ServeMode, ServeOpts, ServerReport, ServerSpec,
    ServerState, TrafficMix,
};
