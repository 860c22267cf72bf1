//! # tm-baselines — the competitor protocols of the Part-HTM evaluation (§7)
//!
//! * [`HtmGl`] — best-effort HTM with the default global-lock fallback: 5 hardware
//!   retries, then mutual exclusion. The industry-standard baseline.
//! * [`NOrec`] — Dalessandro/Spear/Scott's STM: a single global sequence lock with
//!   value-based validation; minimal metadata, commit-time write-back.
//! * [`RingStm`] — Spear/Michael/von Praun's STM: Bloom-filter signatures validated
//!   against a global ring of committed write signatures (Part-HTM borrows its ring
//!   from this design, so both share the same ring geometry, as in the paper's setup).
//! * [`NOrecRh`] — Matveev/Shavit's Reduced-Hardware NOrec: a [`NOrec`] whose
//!   transactions try pure HTM first, and whose software writer commit (sequence
//!   check + write-back + sequence bump) executes inside a small hardware
//!   transaction; NOrec's own software commit is the final fallback.
//! * [`SpHt`] — Lev/Maessen's Split Hardware Transactions: the lazy
//!   transaction-splitting alternative of the paper's §3.
//! * [`Sequential`] — uninstrumented single-threaded execution, the denominator of
//!   the paper's speedup figures (Figs. 5 and 6).
//!
//! All executors run against the same [`part_htm_core::TmRuntime`] and implement
//! [`part_htm_core::TmExecutor`], so the harness swaps protocols freely. Each
//! idiom is written once: the hardware attempts go through
//! `HtmThread::attempt` (the gate-subscribed ones through
//! [`part_htm_core::hw_attempt`] or [`part_htm_core::subscribe_gate`]) under
//! `core`'s uninstrumented [`part_htm_core::ctx::RawCtx`], and NOrecRH reuses
//! NOrec's speculative run, software commit and inevitable mode. The
//! anti-lemming policy (never retry in hardware while a lock is held) is applied
//! throughout, as the paper prescribes.

/// Calibrated cost (in [`part_htm_core::spin_work`] units) of one instrumented STM
/// *read* beyond the raw memory access.
///
/// On real hardware an HTM access is a plain cached load (~1 ns) while an
/// instrumented STM read multiplies that several-fold (NOrec: load + sequence-lock
/// load + value-log append; RingSTM: Bloom-filter update + ring poll). In the
/// simulator, both worlds' accesses otherwise cost similar *wall* time (the
/// simulator's own bookkeeping dominates), which would invert the paper's premise
/// that "hardware transactions are much faster than their software version" (§1).
/// These constants restore the hardware:software per-access cost ratio; see
/// DESIGN.md ("simulator calibration") and EXPERIMENTS.md.
pub const STM_READ_COST: u64 = 96;

/// Calibrated cost of one instrumented STM *write* beyond the raw buffering
/// (redo-log insertion is cheaper than a validated read).
pub const STM_WRITE_COST: u64 = 48;

/// Calibrated cost of one *plain* (uninstrumented) memory access in the
/// [`Sequential`] baseline. On real hardware a sequential access and a
/// hardware-transactional access are the same cached load; in the simulator a
/// transactional access carries bookkeeping that a raw `Heap::load` does not, so
/// the sequential denominator must be charged the same amount for speed-ups to be
/// meaningful (see DESIGN.md "Simulator calibration").
pub const PLAIN_ACCESS_COST: u64 = 16;

pub mod htm_gl;
pub mod norec;
pub mod norec_rh;
pub mod redo;
pub mod ringstm;
pub mod seq;
pub mod spht;

pub use htm_gl::HtmGl;
pub use norec::NOrec;
pub use norec_rh::NOrecRh;
pub use redo::RedoLog;
pub use ringstm::RingStm;
pub use seq::Sequential;
pub use spht::SpHt;
