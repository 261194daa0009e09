//! The serving engine's event queue: a near/far pair of binary heaps.
//!
//! The engine's pending set is shallow and short-sighted. The paper's
//! heterogeneous run never has more than 10 events pending, and all but
//! about one in 2,700 of its schedules land less than [`NEAR`] (≈1 ms)
//! after the last popped instant: kernel completions, launch overheads,
//! quantum expiries. At that depth a binary heap's `O(log n)` is a few
//! compares within one or two cache lines, cheaper than a bucketed
//! structure's bookkeeping.
//!
//! A single heap does badly only with the other kind of event: run
//! deadlines hundreds of milliseconds out, think times, and open-loop
//! arrivals, which a fleet schedules up front (12,025 of them), so every
//! hot-path push and pop would sift through thousands of entries that are
//! nowhere near due. Those go to a second heap, and a pop takes the
//! smaller of the two heads.
//!
//! # Ordering contract
//!
//! Identical to [`BaselineEventQueue`](crate::BaselineEventQueue): pops
//! come in non-decreasing time order and FIFO among same-instant ties.
//! Every event carries a packed `(time << 64) | seq` key, and both heaps
//! order by it. Which heap an event sits in decides only how fast it is
//! found, never when it pops: keys are unique, so the pop sequence is the
//! baseline heap's, which the property suite enforces.

use crate::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Events due less than this many nanoseconds (≈1 ms) after the last
/// popped instant go to the near heap; the rest go to the far heap.
pub const NEAR: u64 = 1 << 20;

/// Entries reserved in each heap up front: above the paper runs' peak
/// pending count, so their hot loop never grows a heap.
const RESERVED: usize = 1024;

#[derive(Debug)]
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key is on top.
        other.key.cmp(&self.key)
    }
}

/// The near/far binary-heap event queue.
///
/// Same ordering contract and deterministic pop sequence as
/// [`BaselineEventQueue`](crate::BaselineEventQueue).
///
/// ```
/// use simtime::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(7), 'b');
/// q.schedule(SimTime::from_nanos(7), 'c');
/// q.schedule(SimTime::from_nanos(3), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Events due less than [`NEAR`] after `last` when scheduled.
    near: BinaryHeap<Entry<E>>,
    /// Every other event.
    far: BinaryHeap<Entry<E>>,
    /// Instant of the last pop, ns.
    last: u64,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            near: BinaryHeap::with_capacity(RESERVED),
            far: BinaryHeap::with_capacity(RESERVED),
            last: 0,
            seq: 0,
        }
    }

    /// Schedules `event` to fire at instant `at`. An instant before the
    /// last pop is tolerated and pops in key order like any other.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let ns = at.as_nanos();
        let entry = Entry {
            key: (u128::from(ns) << 64) | u128::from(self.seq),
            event,
        };
        self.seq += 1;
        if ns < self.last.saturating_add(NEAR) {
            self.near.push(entry);
        } else {
            self.far.push(entry);
        }
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let near_first = match (self.near.peek(), self.far.peek()) {
            (Some(n), Some(f)) => n.key < f.key,
            (near, _) => near.is_some(),
        };
        let e = if near_first {
            self.near.pop()
        } else {
            self.far.pop()
        }?;
        self.last = (e.key >> 64) as u64;
        Some((SimTime::from_nanos(self.last), e.event))
    }

    /// The instant of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let key = |h: &BinaryHeap<Entry<E>>| h.peek().map(|e| e.key);
        let min = match (key(&self.near), key(&self.far)) {
            (Some(n), Some(f)) => n.min(f),
            (n, f) => n.or(f)?,
        };
        Some(SimTime::from_nanos((min >> 64) as u64))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near.len() + self.far.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.near.is_empty() && self.far.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BaselineEventQueue, DetRng, SimDuration};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_nanos(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn schedule_at_the_popped_instant_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        // Same instant as the popped event, later seq: still pops, after
        // any earlier same-time entries.
        q.schedule(SimTime::from_nanos(100), "b");
        q.schedule(SimTime::from_nanos(100), "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.is_empty());
    }

    #[test]
    fn far_events_round_trip_through_the_far_heap() {
        let mut q = EventQueue::new();
        let far = SimTime::ZERO + SimDuration::from_secs(120);
        let farther = SimTime::ZERO + SimDuration::from_secs(240);
        q.schedule(far, "far");
        q.schedule(SimTime::from_nanos(50), "near");
        q.schedule(farther, "farther");
        assert_eq!((q.near.len(), q.far.len()), (1, 2));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(50)));
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap(), (far, "far"));
        assert_eq!(q.pop().unwrap(), (farther, "farther"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn the_near_edge_is_relative_to_the_last_pop() {
        let mut q = EventQueue::new();
        let last = 5 * NEAR + 123;
        q.schedule(SimTime::from_nanos(last), 0);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(last), 0)));
        // One nanosecond inside the edge is near; the edge itself and past
        // it are far. Scheduled latest-first, they still pop in time order.
        for (id, at) in [(3, last + NEAR + 1), (2, last + NEAR), (1, last + NEAR - 1)] {
            q.schedule(SimTime::from_nanos(at), id);
        }
        assert_eq!((q.near.len(), q.far.len()), (1, 2));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn a_tie_split_across_the_heaps_pops_fifo() {
        let mut q = EventQueue::new();
        let t = 3 * NEAR;
        // Scheduled while `t` is far...
        q.schedule(SimTime::from_nanos(t), "far first");
        q.schedule(SimTime::from_nanos(t), "far second");
        q.schedule(SimTime::from_nanos(t - 10), "step");
        // ...and again once a pop has brought it near.
        q.schedule(SimTime::from_nanos(2 * NEAR + 1), "closer");
        assert_eq!(q.pop().unwrap().1, "closer");
        q.schedule(SimTime::from_nanos(t), "near third");
        assert_eq!((q.near.len(), q.far.len()), (1, 3));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["step", "far first", "far second", "near third"]);
        // And the other way round: a far copy first, then a near one once
        // a pop has moved the edge past it.
        q.schedule(SimTime::from_nanos(t + 6), "near");
        q.schedule(SimTime::from_nanos(t + 5 + NEAR), "far");
        q.schedule(SimTime::from_nanos(t + 5 + NEAR), "far too");
        assert_eq!(q.pop().unwrap().1, "near");
        q.schedule(SimTime::from_nanos(t + 5 + NEAR), "near after");
        assert_eq!((q.near.len(), q.far.len()), (1, 2));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["far", "far too", "near after"]);
    }

    #[test]
    fn matches_baseline_on_random_interleavings() {
        for case in 0..32u64 {
            let mut rng = DetRng::new(0xA11E ^ case);
            let mut queue: EventQueue<u64> = EventQueue::new();
            let mut slow: BaselineEventQueue<u64> = BaselineEventQueue::new();
            let mut now = 0u64;
            for step in 0..600u64 {
                if rng.next_f64() < 0.6 || queue.is_empty() {
                    // Mix of same-instant ties, short horizons, both sides
                    // of the near edge and far-future outliers.
                    let at = now
                        + match rng.range_u64(0, 10) {
                            0..=3 => rng.range_u64(0, 20),
                            4..=6 => rng.range_u64(0, 1 << 14),
                            7..=8 => rng.range_u64(0, 1 << 22),
                            _ => rng.range_u64(0, 1 << 40),
                        };
                    queue.schedule(SimTime::from_nanos(at), step);
                    slow.schedule(SimTime::from_nanos(at), step);
                } else {
                    let got = queue.pop();
                    assert_eq!(got, slow.pop(), "case {case} step {step}");
                    now = got.expect("non-empty").0.as_nanos();
                }
                assert_eq!(
                    queue.peek_time(),
                    slow.peek_time(),
                    "case {case} step {step}"
                );
                assert_eq!(queue.len(), slow.len());
            }
            while !queue.is_empty() {
                assert_eq!(queue.pop(), slow.pop(), "case {case} drain");
            }
            assert!(slow.is_empty());
        }
    }

    /// The queue and the baseline heap driven in lockstep. Every operation
    /// checks the pop against the oracle, then `peek_time` and `len`.
    struct Lockstep {
        queue: EventQueue<(u64, u8)>,
        slow: BaselineEventQueue<(u64, u8)>,
        next_id: u64,
    }

    impl Lockstep {
        fn new() -> Self {
            Lockstep {
                queue: EventQueue::new(),
                slow: BaselineEventQueue::new(),
                next_id: 0,
            }
        }

        fn schedule(&mut self, at_ns: u64, kind: u8) {
            let e = (self.next_id, kind);
            self.next_id += 1;
            self.queue.schedule(SimTime::from_nanos(at_ns), e);
            self.slow.schedule(SimTime::from_nanos(at_ns), e);
            self.check();
        }

        /// Pops the earliest event as `(time ns, kind)`.
        fn pop(&mut self) -> Option<(u64, u8)> {
            let got = self.queue.pop();
            assert_eq!(got, self.slow.pop());
            self.check();
            got.map(|(at, (_, kind))| (at.as_nanos(), kind))
        }

        fn check(&self) {
            assert_eq!(
                self.queue.peek_time(),
                self.slow.peek_time(),
                "after id {}",
                self.next_id
            );
            assert_eq!(self.queue.len(), self.slow.len());
        }
    }

    #[test]
    fn fleet_pattern_matches_baseline() {
        // An open-loop fleet: 12,000 arrivals 100 µs apart, all scheduled up
        // front, so all but the first few sit in the far heap. Every arrival
        // starts a run with a 500 ms deadline (far) and a chain of
        // short-horizon kernel completions (near).
        const ARRIVAL: u8 = 0;
        const KERNEL: u8 = 1;
        const DEADLINE: u8 = 2;
        let mut rng = DetRng::new(0xF1EE7);
        let mut q = Lockstep::new();
        for i in 0..12_000u64 {
            q.schedule(i * 100_000, ARRIVAL);
        }
        let mut popped = [0u64; 3];
        while let Some((now, kind)) = q.pop() {
            popped[kind as usize] += 1;
            match kind {
                ARRIVAL => {
                    q.schedule(now + 500_000_000, DEADLINE);
                    for _ in 0..rng.range_u64(1, 3) {
                        q.schedule(now + rng.range_u64(0, 1_000_000), KERNEL);
                    }
                }
                KERNEL if rng.next_f64() < 0.5 => {
                    q.schedule(now + rng.range_u64(2_000, 300_000), KERNEL);
                }
                _ => {}
            }
        }
        assert_eq!(popped[ARRIVAL as usize], 12_000);
        assert_eq!(popped[DEADLINE as usize], 12_000);
        assert!(popped[KERNEL as usize] > 20_000, "{popped:?}");
    }
}
