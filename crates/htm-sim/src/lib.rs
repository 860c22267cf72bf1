//! # htm-sim — a best-effort hardware transactional memory simulator
//!
//! This crate is the hardware substrate of the Part-HTM reproduction. It models the
//! contract of Intel TSX Restricted Transactional Memory (RTM) as described in §2 of
//! the paper, without requiring TSX-capable silicon:
//!
//! * **Word-addressable shared heap** ([`heap::Heap`]): all transactional state — the
//!   application's data *and* the TM protocol's metadata — lives in one array of
//!   64-bit words. An address ([`Addr`]) is a word index; a cache line is
//!   [`WORDS_PER_LINE`] consecutive words (64 bytes).
//! * **Eager, line-granular conflict detection** ([`line_table::LineTable`]):
//!   requester-wins semantics mirroring MESI invalidation, implemented lock-free as
//!   one packed `AtomicU64` per line (56-bit reader bitmap + writer byte, CAS
//!   updates). A transactional or non-transactional access that conflicts with an
//!   active hardware transaction *dooms* that transaction; the victim observes the
//!   doom at its next operation or at commit. This also provides TSX's *strong
//!   atomicity*.
//! * **Capacity limits** ([`cache::L1Model`]): written lines must fit a simulated
//!   set-associative L1 data cache (default 64 sets x 8 ways = 32 KB); evictions of
//!   written lines abort with [`AbortCode::Capacity`]. Read lines have a separate,
//!   larger budget, reflecting TSX's ability to track evicted read-set lines beyond L1.
//! * **Time limits**: every transactional operation costs virtual *work units*;
//!   reaching the configured quantum aborts with [`AbortCode::Timer`], modelling the
//!   timer interrupt that bounds how long a hardware transaction can run.
//! * **Virtual time** ([`vclock`]): an optional discrete-event multi-core clock.
//!   When threads attach to a [`vclock::VClock`], the same work-unit accounting
//!   becomes a global virtual timeline: cores advance deterministically in
//!   timestamp order, spin loops yield virtual time instead of host time, and
//!   ties between cores are seeded, recordable, and replayable schedule
//!   decisions — the substrate for the `schedx` schedule explorer.
//! * **Explicit aborts**: [`txn::HtmTx::xabort`] mirrors `_xabort(code)`.
//!
//! The simulator is *logically* faithful: which transactions commit, which abort, and
//! why, follows the TSX contract. It makes no claim about absolute nanoseconds.
//!
//! ## Quick example
//!
//! ```
//! use htm_sim::{HtmConfig, HtmSystem, AbortCode};
//!
//! let sys = HtmSystem::new(HtmConfig::default(), 1024);
//! let mut thread = sys.thread(0);
//!
//! // A hardware transaction that increments word 0.
//! let mut tx = thread.begin();
//! let r = (|| {
//!     let v = tx.read(0)?;
//!     tx.write(0, v + 1)?;
//!     Ok::<(), AbortCode>(())
//! })();
//! assert!(r.is_ok());
//! tx.commit().unwrap();
//! assert_eq!(sys.nt_read(0), 1);
//! ```

pub mod abort;
pub mod align;
pub mod backend;
pub mod cache;
pub mod config;
pub mod heap;
pub mod line_table;
pub mod line_table_ref;
pub mod registry;
pub mod stats;
pub mod system;
pub mod trace;
pub mod txn;
pub mod util;
pub mod vclock;

pub use abort::AbortCode;
pub use align::{CacheAligned, CACHE_LINE};
pub use backend::{BackendKind, CapacityModel};
pub use config::HtmConfig;
pub use heap::{Addr, Heap, HeapBuilder, Line, WORDS_PER_LINE, WORDS_PER_LINE_SHIFT};
pub use stats::HtmStats;
pub use system::{HtmSystem, HtmThread};
pub use txn::HtmTx;
pub use vclock::{SchedPolicy, SchedSpec, VClock, VReport};

/// Convert a word address to the cache line that holds it.
#[inline(always)]
pub fn line_of(addr: Addr) -> Line {
    addr >> WORDS_PER_LINE_SHIFT
}
