#![deny(missing_docs)]

//! Deterministic parallelism for the experiment harness.
//!
//! The paper's evaluation replays millions of discrete events across dozens
//! of independent experiments, replications and parameter sweeps — an
//! embarrassingly parallel shape. This crate provides the one primitive the
//! harness needs: [`par_map`], an *ordered* parallel map whose output is
//! byte-identical to the serial `items.map(f).collect()` no matter how many
//! worker threads run it.
//!
//! Parallelism stays coarse: an item is a whole simulation run (an
//! experiment, a sweep point, a replication). One run never spans threads —
//! even a sharded multi-GPU run advances its device groups on the calling
//! thread, because its lockstep windows are shorter than a thread hand-off.
//!
//! # The determinism rule
//!
//! Parallel results may never depend on scheduling. Two obligations follow:
//!
//! 1. **Fork-per-item randomness.** Each item must derive its randomness
//!    from its own key (its index, seed or parameters) — e.g. by forking a
//!    fresh `DetRng` per replication — never from shared mutable state.
//! 2. **Key-ordered merge.** Results are written into a slot indexed by the
//!    item's position and only merged (reduced, concatenated, printed) in
//!    that order on the calling thread.
//!
//! [`par_map`] enforces the second rule structurally; the first is a
//! contract on the closure (upheld throughout this repo — simulation runs
//! take an explicit seed and share nothing mutable).
//!
//! ```
//! let squares = simpar::par_map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable capping the worker pool, mirrored by the harness
/// binaries' `--jobs` flag.
pub const JOBS_ENV: &str = "OLYMPIAN_JOBS";

/// The worker count [`par_map`] uses: the `OLYMPIAN_JOBS` environment
/// variable when set to a positive integer, otherwise all available cores.
pub fn max_jobs() -> usize {
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    default_jobs()
}

/// The hardware parallelism fallback (all available cores, at least 1).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on up to [`max_jobs`] threads, returning results
/// in item order. Equivalent to
/// `items.iter().enumerate().map(|(i, x)| f(i, x)).collect()` — including
/// byte-identical output when `f` follows the fork-per-item rule — but with
/// wall-clock close to the longest single item at sufficient parallelism.
///
/// # Panics
///
/// Propagates the first panic raised by `f` (after all workers stop).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_jobs(max_jobs(), items, f)
}

/// [`par_map`] with an explicit worker cap (for `--jobs N` plumbing and for
/// the serial-vs-parallel determinism tests, which compare `jobs = 1`
/// against `jobs = N`).
///
/// # Panics
///
/// Propagates the first panic raised by `f` (after all workers stop).
pub fn par_map_jobs<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = jobs.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }

    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    // Hand out one slot (a disjoint &mut) per item via a mutexed iterator of
    // raw parts; items are claimed with an atomic cursor so finished workers
    // steal remaining work instead of idling behind a static partition.
    let slot_ptrs: Vec<SlotPtr<R>> = slots
        .iter_mut()
        .map(|s| SlotPtr(s as *mut Option<R>))
        .collect();
    let cursor = AtomicUsize::new(0);
    let panic_box: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let f = &f;
            let cursor = &cursor;
            let slot_ptrs = &slot_ptrs;
            let panic_box = &panic_box;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    return;
                }
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, &items[i])))
                {
                    // SAFETY: each index is claimed exactly once (the atomic
                    // cursor never repeats a value below items.len()), so no
                    // two threads write the same slot, and the scope
                    // guarantees the writes finish before `slots` is read.
                    Ok(r) => {
                        let slot = slot_ptrs[i].0;
                        unsafe { *slot = Some(r) }
                    }
                    Err(p) => {
                        panic_box.lock().unwrap().get_or_insert(p);
                        // Stop claiming further work.
                        cursor.store(items.len(), Ordering::Relaxed);
                        return;
                    }
                }
            });
        }
    });

    if let Some(p) = panic_box.into_inner().unwrap() {
        std::panic::resume_unwind(p);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every slot written"))
        .collect()
}

/// A raw slot pointer that may cross threads; safety argument at the single
/// write site.
struct SlotPtr<R>(*mut Option<R>);
unsafe impl<R: Send> Send for SlotPtr<R> {}
unsafe impl<R: Send> Sync for SlotPtr<R> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..257).collect();
        let f = |_: usize, &x: &u64| format!("{:x}", x.wrapping_mul(0x9E3779B97F4A7C15));
        assert_eq!(par_map_jobs(1, &items, f), par_map_jobs(8, &items, f));
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[5u32], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn more_items_than_workers() {
        let items: Vec<usize> = (0..97).collect();
        let out = par_map_jobs(3, &items, |i, _| i);
        assert_eq!(out, items);
    }

    #[test]
    fn jobs_env_parsing() {
        // Only exercise the pure fallback here; the env var itself is
        // process-global and covered by the harness integration test.
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn propagates_panics() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_jobs(4, &items, |_, &x| {
                if x == 13 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err());
    }
}
