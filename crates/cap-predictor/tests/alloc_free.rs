//! The predictor hot path does not touch the heap: once a predictor is
//! built, `Session::run` allocates a small constant (the session's own
//! bookkeeping) and nothing per load. Load Buffer histories live in one
//! arena per LB and the gap pipe's queues are sized up front, so filling,
//! evicting and repairing table entries never allocate.
//!
//! Counting is per thread, so tests running in parallel do not see each
//! other's allocations.

use cap_predictor::drive::Session;
use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
use cap_trace::suites::Suite;
use cap_trace::Trace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's pointer, layout and size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's pointer and layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made on this thread while `f` runs.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Allocations a session may make regardless of trace length: a gapped
/// session's pipe sizes its two queues once.
const SESSION_CONSTANT: u64 = 2;

/// Runs `make()`'s predictor over `trace` at `gap` twice — a warm-up from
/// construction, then a measured run on the warmed tables — and checks
/// both runs stay within the session constant.
fn assert_allocation_free(make: fn() -> HybridPredictor, gap: usize, trace: &Trace) {
    let mut p = make();
    let (cold, cold_allocs) = allocations_during(|| Session::new(&mut p).gap(gap).run(trace));
    assert_eq!(cold.loads as usize, trace.load_count());
    let (_, warm_allocs) = allocations_during(|| Session::new(&mut p).gap(gap).run(trace));
    for (what, n) in [("cold", cold_allocs), ("warm", warm_allocs)] {
        assert!(
            n <= SESSION_CONSTANT,
            "{what} gap-{gap} run over {} loads made {n} allocations (at most {SESSION_CONSTANT})",
            trace.load_count()
        );
    }
}

fn catalog_traces() -> Vec<Trace> {
    // An INT trace and an MM trace: linked structures (CAP-heavy, LB
    // churn) and strided media loops.
    [Suite::Int, Suite::Mm]
        .iter()
        .map(|suite| suite.traces()[0].generate(20_000))
        .collect()
}

#[test]
fn paper_default_hybrid_allocates_nothing_per_load() {
    for trace in catalog_traces() {
        assert_allocation_free(|| HybridPredictor::new(HybridConfig::paper_default()), 0, &trace);
    }
}

#[test]
fn pipelined_hybrid_at_gap_8_allocates_nothing_per_load() {
    for trace in catalog_traces() {
        assert_allocation_free(|| HybridPredictor::new(HybridConfig::paper_pipelined()), 8, &trace);
    }
}
