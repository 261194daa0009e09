//! A `#[global_allocator]` that counts each thread's heap allocations and
//! live bytes, for tests that bound how often a code path allocates or how
//! much heap it holds at its peak. Counts are per thread so the test
//! harness's own threads never leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed. Signed: a block
    /// allocated on another thread may be freed here.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since the last reset.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Adds `bytes` (negative for a free) to the thread's live bytes, and one
/// to its allocation count if `alloc`.
fn count(bytes: i64, alloc: bool) {
    // A const-initialised `Cell` has no destructor, so this never
    // allocates and stays usable while the thread exits.
    if alloc {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64, true);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64, true);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64, true);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64), false);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (reallocations included) the calling thread makes
/// while `f` runs.
#[allow(dead_code)] // each test binary reads the measurements it needs
pub fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// The most heap bytes the calling thread held while `f` ran, above what
/// it held when `f` started.
#[allow(dead_code)] // each test binary reads the measurements it needs
pub fn peak_live_bytes_during(f: impl FnOnce()) -> u64 {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    f();
    (PEAK.with(Cell::get) - start).max(0) as u64
}

/// What `f` returns, and the heap bytes the calling thread still holds
/// once it has returned, above what it held when `f` started: the bytes
/// the returned value keeps alive, when `f` leaves nothing else behind.
#[allow(dead_code)] // each test binary reads the measurements it needs
pub fn retained_bytes_during<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let start = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get) - start)
}
