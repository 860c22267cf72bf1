//! Allocation-count regression guards for the two host hot paths.
//!
//! * **Server**: serving a saturated `server_small`-shaped stream in wall
//!   mode with default options makes a number of heap allocations that does
//!   not depend on the request count — the batcher pools its group buffers
//!   and the worker streams are sized up front.
//! * **Simulator**: once warm, a hardware transaction attempt of ten reads
//!   and ten writes allocates nothing — the write buffer, the touched-line
//!   list and the capacity model are reused.
//!
//! A counting global allocator sees every thread of the process, so each
//! test holds one lock from start to end, and a count is the least of three
//! runs: the test harness's own thread allocates when the other test ends,
//! possibly inside a measured run.

use htm_sim::{HtmConfig, HtmSystem};
use part_htm_core::{PartHtm, TmConfig, TmRuntime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};
use tm_server::service::{gen_requests, run_server, ServeMode, ServeOpts, ServerSpec, ServerState};
use tm_server::TrafficMix;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed atomic with no other effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: forwarded verbatim (the caller upholds `alloc`'s contract).
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Serializes the tests in this binary.
static MEASURE: Mutex<()> = Mutex::new(());

/// Hold [`MEASURE`] (a failed test elsewhere must not fail this one).
fn exclusive() -> MutexGuard<'static, ()> {
    MEASURE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Allocations (and reallocations) made while `f` runs, the least of three
/// runs.
fn allocations(mut f: impl FnMut()) -> u64 {
    (0..3)
        .map(|_| {
            let before = ALLOCS.load(Relaxed);
            f();
            ALLOCS.load(Relaxed) - before
        })
        .min()
        .expect("three runs")
}

/// perfbench's `server_small` service geometry and traffic.
const SPEC: ServerSpec = ServerSpec {
    shards: 8,
    slots_per_shard: 1024,
    queue_cap: 64,
};

fn small_mix() -> TrafficMix {
    TrafficMix {
        keys: 512,
        ..TrafficMix::small_only()
    }
}

/// Allocations of a saturated wall-mode `run_server` over `n` requests on
/// two workers, default options (runtime and stream built outside).
fn serve_allocations(n: usize) -> u64 {
    let requests = gen_requests(&small_mix(), &vec![0; n], 11);
    let rt = TmRuntime::new(
        HtmConfig::default(),
        TmConfig::default(),
        2,
        SPEC.app_words(),
    );
    let state = ServerState::new(&rt, SPEC);
    let opts = ServeOpts::default();
    allocations(|| {
        let report = run_server::<PartHtm>(&rt, &state, 2, &requests, &ServeMode::Wall, &opts);
        assert_eq!(report.served, n as u64);
    })
}

#[test]
fn serving_allocates_independently_of_the_request_count() {
    let _only = exclusive();
    let small = serve_allocations(10_000);
    let large = serve_allocations(100_000);
    assert!(
        large.abs_diff(small) <= 8,
        "10 000 requests: {small} allocations; 100 000 requests: {large}"
    );
}

#[test]
fn a_warm_hardware_transaction_allocates_nothing() {
    let _only = exclusive();
    let sys = HtmSystem::new(HtmConfig::default(), 1 << 16);
    let mut th = sys.thread(0);
    // Ten reads and ten writes on distinct lines, moving through the heap so
    // every attempt touches lines it has not touched before.
    let attempt = |th: &mut htm_sim::HtmThread<'_>, i: u32| {
        let base = (i % 256) * 160;
        th.attempt(|tx| {
            for k in 0..10 {
                tx.read(base + k * 8)?;
            }
            for k in 10..20 {
                tx.write(base + k * 8, u64::from(i))?;
            }
            Ok(())
        })
        .expect("a lone 20-line transaction commits");
    };
    for i in 0..256 {
        attempt(&mut th, i);
    }
    let n = allocations(|| (0..10_000).for_each(|i| attempt(&mut th, i)));
    assert_eq!(n, 0, "10 000 warm attempts allocated {n} times");
}
