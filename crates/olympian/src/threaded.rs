//! Cooperative gang scheduling on **real OS threads** — the mechanism of
//! paper §3.4 outside the simulator.
//!
//! The discrete-event engine models gang suspension; this module *performs*
//! it: each job is a gang of `std::thread` workers, the yield hook parks
//! them on a condition variable, and a token rotated by cost accumulation
//! decides which gang may drive the (mutex-serialized) GPU stand-in.
//!
//! Used by the `live_gang` example and integration tests to show that the
//! cooperative mechanism — suspend every CPU thread of one DNN job, resume
//! another's, at node boundaries — works with real synchronization
//! primitives, not just in simulation.
//!
//! ```
//! use olympian::threaded::{GangPool, GangWorkload};
//! use std::time::Duration;
//!
//! let pool = GangPool::fair(500); // quantum: 500 cost units
//! let outcome = pool.run(vec![
//!     GangWorkload::new(40, 25, 2), // 40 nodes × 25 cost units, 2 threads
//!     GangWorkload::new(40, 25, 2),
//! ]);
//! assert_eq!(outcome.finish_order.len(), 2);
//! assert!(outcome.switches >= 2);
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Identifier of a gang (one job) in a threaded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GangId(pub usize);

/// Workload of one gang: a sequence of simulated GPU nodes.
#[derive(Debug, Clone)]
pub struct GangWorkload {
    /// Number of nodes to execute.
    pub nodes: u32,
    /// Cost charged per node (also its simulated device time in µs/10).
    pub node_cost: u64,
    /// Gang width: number of OS threads executing this job.
    pub threads: u32,
    /// Scheduling weight: consecutive quanta granted per turn (≥ 1).
    pub weight: u32,
}

impl GangWorkload {
    /// Creates a unit-weight workload.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero.
    pub fn new(nodes: u32, node_cost: u64, threads: u32) -> Self {
        assert!(nodes > 0 && node_cost > 0 && threads > 0, "empty gang workload");
        GangWorkload {
            nodes,
            node_cost,
            threads,
            weight: 1,
        }
    }

    /// Sets the scheduling weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero.
    pub fn with_weight(mut self, weight: u32) -> Self {
        assert!(weight > 0, "weight must be at least 1");
        self.weight = weight;
        self
    }
}

/// Results of a threaded run.
#[derive(Debug, Clone)]
pub struct GangOutcome {
    /// Gangs in the order they finished.
    pub finish_order: Vec<GangId>,
    /// Wall-clock finish time of each gang (indexed by gang id).
    pub finish_times: Vec<Duration>,
    /// Number of token rotations.
    pub switches: u64,
}

#[derive(Debug)]
struct TokenState {
    token: usize,
    live: Vec<bool>,
    cumulated: Vec<u64>,
    weights: Vec<u32>,
    quanta_this_turn: u32,
}

/// A cooperative gang scheduler over real threads.
#[derive(Debug)]
pub struct GangPool {
    quantum_cost: u64,
}

impl GangPool {
    /// Fair (round-robin) gang scheduling with the given cost quantum.
    ///
    /// # Panics
    ///
    /// Panics if `quantum_cost` is zero.
    pub fn fair(quantum_cost: u64) -> Self {
        assert!(quantum_cost > 0, "quantum must be positive");
        GangPool { quantum_cost }
    }

    /// Runs the workloads to completion, one gang of threads each,
    /// cooperatively sharing the simulated device.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty or a worker thread panics.
    pub fn run(&self, workloads: Vec<GangWorkload>) -> GangOutcome {
        assert!(!workloads.is_empty(), "no gangs to run");
        let n = workloads.len();
        let state = Arc::new((
            Mutex::new(TokenState {
                token: 0,
                live: vec![true; n],
                cumulated: vec![0; n],
                weights: workloads.iter().map(|w| w.weight).collect(),
                quanta_this_turn: 0,
            }),
            Condvar::new(),
        ));
        let device = Arc::new(Mutex::new(())); // the serial "GPU"
        let switches = Arc::new(AtomicU64::new(0));
        let finish_order = Arc::new(Mutex::new(Vec::<GangId>::new()));
        let start = Instant::now();
        let quantum = self.quantum_cost;

        let mut handles = Vec::new();
        let mut finish_slots: Vec<Arc<Mutex<Duration>>> = Vec::new();
        for (gang_idx, wl) in workloads.into_iter().enumerate() {
            let next_node = Arc::new(AtomicUsize::new(0));
            let done_nodes = Arc::new(AtomicUsize::new(0));
            let finish_slot = Arc::new(Mutex::new(Duration::ZERO));
            finish_slots.push(Arc::clone(&finish_slot));
            for _ in 0..wl.threads {
                let state = Arc::clone(&state);
                let device = Arc::clone(&device);
                let switches = Arc::clone(&switches);
                let finish_order = Arc::clone(&finish_order);
                let next_node = Arc::clone(&next_node);
                let done_nodes = Arc::clone(&done_nodes);
                let finish_slot = Arc::clone(&finish_slot);
                let wl = wl.clone();
                handles.push(std::thread::spawn(move || {
                    loop {
                        let node = next_node.fetch_add(1, Ordering::Relaxed);
                        if node >= wl.nodes as usize {
                            return;
                        }
                        // --- scheduler.yield(): park while not holding the
                        // token (Algorithm 2 line 12).
                        {
                            let (lock, cv) = &*state;
                            let mut s = lock.lock().unwrap();
                            while s.token != gang_idx {
                                s = cv.wait(s).unwrap();
                            }
                        }
                        // --- compute(node): occupy the serial device.
                        {
                            let _gpu = device.lock().unwrap();
                            spin_for(Duration::from_micros(wl.node_cost / 10));
                        }
                        // --- cost accounting + quantum expiry
                        // (Algorithm 2 lines 14-18).
                        {
                            let (lock, cv) = &*state;
                            let mut s = lock.lock().unwrap();
                            s.cumulated[gang_idx] += wl.node_cost;
                            if s.cumulated[gang_idx] >= quantum && s.token == gang_idx {
                                s.cumulated[gang_idx] -= quantum;
                                s.quanta_this_turn += 1;
                                // Weighted turns: keep the token until the
                                // gang has consumed `weight` quanta.
                                if s.quanta_this_turn >= s.weights[gang_idx] {
                                    rotate(&mut s, n);
                                    switches.fetch_add(1, Ordering::Relaxed);
                                    cv.notify_all();
                                }
                            }
                        }
                        // --- completion bookkeeping
                        let done = done_nodes.fetch_add(1, Ordering::AcqRel) + 1;
                        if done == wl.nodes as usize {
                            *finish_slot.lock().unwrap() = start.elapsed();
                            finish_order.lock().unwrap().push(GangId(gang_idx));
                            let (lock, cv) = &*state;
                            let mut s = lock.lock().unwrap();
                            s.live[gang_idx] = false;
                            if s.token == gang_idx {
                                rotate(&mut s, n);
                                switches.fetch_add(1, Ordering::Relaxed);
                            }
                            cv.notify_all();
                        }
                    }
                }));
            }
        }
        for h in handles {
            h.join().expect("gang worker panicked");
        }
        let finish_times = finish_slots.iter().map(|s| *s.lock().unwrap()).collect();
        GangOutcome {
            finish_order: Arc::try_unwrap(finish_order)
                .expect("all workers joined")
                .into_inner()
                .expect("finish-order lock unpoisoned"),
            finish_times,
            switches: switches.load(Ordering::Relaxed),
        }
    }
}

/// Advances the token to the next live gang after the current holder and
/// starts a fresh turn.
fn rotate(s: &mut TokenState, n: usize) {
    s.quanta_this_turn = 0;
    for step in 1..=n {
        let candidate = (s.token + step) % n;
        if s.live[candidate] {
            s.token = candidate;
            return;
        }
    }
    // No live gang: leave the token parked; nobody will wait on it.
}

fn spin_for(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_gangs_finish() {
        let pool = GangPool::fair(100);
        let outcome = pool.run(vec![
            GangWorkload::new(20, 20, 2),
            GangWorkload::new(20, 20, 2),
            GangWorkload::new(20, 20, 2),
        ]);
        assert_eq!(outcome.finish_order.len(), 3);
        assert!(outcome.switches >= 3, "switches {}", outcome.switches);
        for t in &outcome.finish_times {
            assert!(*t > Duration::ZERO);
        }
    }

    #[test]
    fn fair_gangs_finish_close_together() {
        // 50 µs of spin per node and 20 ms per gang: an OS time slice or a
        // condvar wake-up on a loaded host is noise against the token's
        // rotation, not the whole run.
        let pool = GangPool::fair(5_000);
        let outcome = pool.run(vec![
            GangWorkload::new(400, 500, 2),
            GangWorkload::new(400, 500, 2),
        ]);
        let a = outcome.finish_times[0].as_secs_f64();
        let b = outcome.finish_times[1].as_secs_f64();
        let ratio = a.max(b) / a.min(b).max(1e-9);
        assert!(ratio < 1.6, "finish ratio {ratio}");
    }

    #[test]
    fn single_gang_runs_without_switch_partners() {
        let pool = GangPool::fair(50);
        let outcome = pool.run(vec![GangWorkload::new(10, 10, 1)]);
        assert_eq!(outcome.finish_order, vec![GangId(0)]);
    }

    #[test]
    fn weighted_gang_finishes_proportionally_sooner() {
        // Real threads under a parallel test harness are noisy: retry a few
        // times and require the weighted gang to win with a visible margin
        // at least once (it wins by ~0.67 in isolation).
        let mut best = f64::MAX;
        for _ in 0..5 {
            let pool = GangPool::fair(100);
            let outcome = pool.run(vec![
                GangWorkload::new(200, 30, 2).with_weight(3),
                GangWorkload::new(200, 30, 2),
            ]);
            let heavy = outcome.finish_times[0].as_secs_f64();
            let light = outcome.finish_times[1].as_secs_f64();
            best = best.min(heavy / light);
            if best < 0.92 {
                return;
            }
        }
        panic!("weighted gang never finished clearly sooner: best ratio {best}");
    }

    #[test]
    #[should_panic(expected = "no gangs")]
    fn empty_run_panics() {
        GangPool::fair(10).run(Vec::new());
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn zero_quantum_panics() {
        GangPool::fair(0);
    }
}
