//! # tm-sig — signature metadata substrate
//!
//! Part-HTM tracks transactional accesses with *cache-aligned Bloom-filter
//! signatures* instead of classical address/value read- and write-sets (§5.1 of the
//! paper): 2048-bit bit-arrays (4 cache lines) with a single hash function. This
//! crate provides:
//!
//! * [`SigSpec`] — geometry (bit count, at most 64 words) and the
//!   address-to-bit hash;
//! * [`Sig`] — a signature value held in ordinary software memory (used by the
//!   software framework: in-flight validation, lock release);
//! * [`HeapSig`] — a handle to a signature resident in the simulated heap, with
//!   transactional accessors (used *inside* hardware transactions, where signature
//!   updates consume HTM capacity and produce the false-conflict behaviour the paper
//!   analyses) and strongly atomic non-transactional accessors (used by the software
//!   framework);
//! * [`Ring`] — the RingSTM-style ring of committed write signatures used for
//!   in-flight validation, with both a hardware (in-HTM) and a software publish path
//!   and the plain entry walk, plus [`RingSummary`] — the host-side summary
//!   signature backing the validation fast passes, reset by flipping between
//!   two banks (no reader registers anywhere; see `docs/ring-sharding.md` §5);
//! * [`ShardedRing`] — the ring split into N address-region shards (keyed by
//!   signature word range), each with its own lock, timestamp and summary, so
//!   disjoint-region commits stop serialising on one global word (see
//!   `docs/ring-sharding.md`);
//! * [`SigJournal`] — the word-level undo journal that makes sub-HTM segment retries
//!   allocation- and clone-free;
//! * [`kernels`] — 4-wide-unrolled `u64` word kernels backing every signature
//!   hot loop, with the original scalar loops kept as the reference the
//!   kernel tests and `microbench` compare against; [`CacheAligned`] — the
//!   cache-line padding wrapper disciplining the shared layouts (see
//!   `docs/mem-layout.md`).

#![deny(missing_docs)]

pub mod align;
pub mod heap_sig;
pub mod journal;
pub mod kernels;
pub mod ring;
pub mod sharded;
pub mod sig;
pub mod spec;

pub use align::{CacheAligned, CACHE_LINE};
pub use heap_sig::HeapSig;
pub use journal::{CloneSaved, SigJournal, SigSlot};
pub use ring::{FastMiss, Ring, RingSummary, RingValidationError, SummaryTuning};
pub use sharded::{
    ShardTimes, ShardedRing, ShardedSummary, ShardedValidation, MAX_RING_SHARDS,
};
pub use sig::Sig;
pub use spec::SigSpec;
