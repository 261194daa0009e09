//! The reference pending-event set of the discrete-event simulator.
//!
//! [`BaselineEventQueue`] is the original binary-heap implementation of the
//! ordering contract every event queue here keeps: events pop in
//! non-decreasing time order, FIFO among same-instant ties. The engine runs
//! on [`EventQueue`](crate::EventQueue); this queue is the oracle the
//! property suite checks it against.

use crate::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The original binary-heap event queue, kept as the comparison oracle.
///
/// The property suite checks it against a sorted-stable reference and the
/// [`EventQueue`](crate::EventQueue) against it: non-decreasing time
/// order, FIFO among same-instant ties.
#[derive(Debug)]
pub struct BaselineEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> Default for BaselineEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BaselineEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BaselineEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at instant `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// The instant of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}
