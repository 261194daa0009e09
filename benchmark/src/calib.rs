//! Steadying the end-to-end timings against the host.
//!
//! On a shared host the same code runs up to ~1.5× slower for tens of
//! seconds at a time, whatever the program does; a run's median cannot
//! average that away, because the whole run falls into one phase. So every
//! timed section is bracketed by a fixed piece of reference work that
//! belongs to the benchmark, not to the program, and the section's time is
//! scaled by [`REFERENCE_S`] over the mean of the two reference timings
//! around it. The result reads as seconds on a host where the reference
//! takes [`REFERENCE_S`]; a change to the program moves the section, not
//! the reference.
//!
//! Separately, [`keep_heap`] stops the C allocator from handing freed
//! memory back to the kernel between repetitions.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Keeps freed heap memory in the process: no `mmap`-backed allocations,
/// no trimming of the heap top. A repetition then reuses the pages the
/// previous one touched. Without this, whether a repetition's large
/// buffers land on pages the kernel (and under it, the hypervisor) must
/// provide afresh varies from repetition to repetition, and moved
/// `fleet-zipf` repetitions between ≈2.8 s and ≈3.4 s at one seed on a
/// steady host. Peak live heap is counted by [`crate::alloc`] either way.
///
/// Only glibc has these knobs; elsewhere this does nothing.
pub fn keep_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_MAX: i32 = -4;
        // SAFETY: `mallopt` only sets allocator parameters; both are
        // documented glibc parameters with in-range values, and it is
        // called before the benchmark starts any other thread.
        unsafe {
            mallopt(M_MMAP_MAX, 0);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

/// Seconds the reference work takes on the measuring host in its faster
/// phases (2 vCPU VM at 2.1 GHz). Normalised timings are expressed at this
/// speed. Changing it rescales every timing, so it stays fixed.
pub const REFERENCE_S: f64 = 0.028;

/// The reference work, the simulator's own mix in miniature: an event
/// queue (a B-tree fed fixed pseudo-random keys in arrival order, popping
/// the earliest after every second insert), then a sort and ordered
/// lookups — allocation, branches and pointer chasing. Returns a checksum
/// so none of it is optimised away.
fn reference_work() -> u64 {
    const N: usize = 200_000;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys: Vec<u64> = (0..N)
        .map(|_| {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let mut queue = BTreeMap::new();
    let mut acc = 0;
    for (i, &k) in keys.iter().enumerate() {
        queue.insert(k, i as u64);
        if i % 2 == 1 {
            acc ^= queue.pop_first().map_or(0, |(_, v)| v);
        }
    }
    keys.sort_unstable();
    keys.iter().rev().step_by(3).fold(acc, |acc, k| {
        acc ^ queue.range(..k).next_back().map_or(0, |(_, &v)| v)
    })
}

/// Seconds one run of [`reference_work`] takes now.
fn reference_s() -> f64 {
    let t = Instant::now();
    black_box(reference_work());
    t.elapsed().as_secs_f64()
}

/// One timed section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Timing {
    /// Wall-clock seconds.
    pub raw_s: f64,
    /// Host-normalised seconds.
    pub norm_s: f64,
    /// The reference timing taken right after the section.
    pub reference_s: f64,
}

/// Times consecutive sections, each bracketed by reference timings; a
/// section shares its leading reference with the previous section's
/// trailing one.
#[derive(Debug)]
pub(crate) struct Clock {
    last_reference_s: f64,
}

impl Clock {
    /// Starts a clock with one reference timing.
    pub(crate) fn new() -> Clock {
        Clock {
            last_reference_s: reference_s(),
        }
    }

    /// Runs `f` and returns its result with its timing.
    pub(crate) fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timing) {
        let t = Instant::now();
        let r = f();
        let raw_s = t.elapsed().as_secs_f64();
        let after = reference_s();
        let norm_s = raw_s * 2.0 * REFERENCE_S / (self.last_reference_s + after);
        self.last_reference_s = after;
        let timing = Timing {
            raw_s,
            norm_s,
            reference_s: after,
        };
        (r, timing)
    }
}
