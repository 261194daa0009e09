//! A counting global allocator: every heap allocation made by the process
//! passes through [`CountingAlloc`], which forwards to the system allocator
//! and keeps three relaxed counters — allocations made, bytes live, and the
//! live high-water mark. They feed the `allocs` and `peak_heap_mib`
//! metrics and the trace-export allocation count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The system allocator with allocation, live-byte and peak counters.
///
/// The counters publish no other data, so `Relaxed` ordering suffices;
/// readers take them between measured sections on the same thread.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn grew(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter updates touch
// only atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s
        // contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s
        // contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A reallocation is one more trip to the allocator.
            ALLOCS.fetch_add(1, Relaxed);
            let old = layout.size() as u64;
            let new = new_size as u64;
            if new >= old {
                grew(new - old);
            } else {
                LIVE.fetch_sub(old - new, Relaxed);
            }
        }
        p
    }
}

/// Allocations (including reallocations) made so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Heap bytes currently live.
pub fn live() -> u64 {
    LIVE.load(Relaxed)
}

/// Allocation counts of one measured section: allocations made and the
/// peak live heap above the live size at its start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section {
    /// Allocations made inside the section.
    pub allocs: u64,
    /// Peak live bytes above the section's starting live size.
    pub peak_bytes: u64,
}

/// Runs `f` and returns its result with the allocation counts it caused.
///
/// Sections nest: the high-water mark restarts at the current live size for
/// `f`, and afterwards keeps the larger of `f`'s peak and the one reached
/// before, so an enclosing section still sees peaks from before this one.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Section) {
    let live0 = live();
    let outer_peak = PEAK.swap(live0, Relaxed);
    let allocs0 = allocs();
    let r = f();
    let inner_peak = PEAK.fetch_max(outer_peak, Relaxed);
    let section = Section {
        allocs: allocs() - allocs0,
        peak_bytes: inner_peak.saturating_sub(live0),
    };
    (r, section)
}
