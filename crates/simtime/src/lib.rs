#![deny(missing_docs)]

//! Virtual-time foundations for the Olympian discrete-event simulator.
//!
//! The whole reproduction runs on a *virtual* clock so that every experiment
//! is deterministic given a seed and finishes in milliseconds of wall time
//! regardless of how many seconds of simulated GPU time it covers.
//!
//! Three building blocks live here:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution instants and spans,
//!   newtypes so they can never be confused with wall-clock values.
//! * [`TimingWheel`] — a total-ordered pending-event set with deterministic
//!   FIFO tie-breaking for simultaneous events.
//! * [`DetRng`] — a small, self-contained SplitMix64-based PRNG with the
//!   handful of distributions the simulator needs (uniform, normal,
//!   lognormal). Self-contained so that simulation results can never drift
//!   with a `rand` upgrade.
//!
//! # Example
//!
//! ```
//! use simtime::{SimDuration, SimTime, TimingWheel};
//!
//! let mut q: TimingWheel<&str> = TimingWheel::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(5), "later");
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(1), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "sooner");
//! assert_eq!(t, SimTime::from_nanos(1_000));
//! ```

mod queue;
mod rng;
mod time;
mod wheel;

pub use queue::BaselineEventQueue;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
pub use wheel::TimingWheel;

/// Union of possibly-overlapping `[start, end)` intervals, used to measure
/// "GPU duration" exactly as the paper defines it (Figure 5): the total time
/// during which *at least one* node of a job occupies the GPU.
///
/// ```
/// use simtime::{IntervalUnion, SimTime};
///
/// let mut u = IntervalUnion::new();
/// u.add(SimTime::from_nanos(0), SimTime::from_nanos(10));
/// u.add(SimTime::from_nanos(5), SimTime::from_nanos(20)); // overlaps
/// u.add(SimTime::from_nanos(30), SimTime::from_nanos(40)); // disjoint
/// assert_eq!(u.total().as_nanos(), 30);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalUnion {
    /// Sorted, coalesced, disjoint intervals.
    spans: Vec<(SimTime, SimTime)>,
}

impl IntervalUnion {
    /// Creates an empty union.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the half-open interval `[start, end)`, merging overlaps.
    ///
    /// Empty or inverted intervals (`end <= start`) are ignored.
    pub fn add(&mut self, start: SimTime, end: SimTime) {
        if end <= start {
            return;
        }
        // Find insertion point and merge with any overlapping neighbours.
        let mut lo = start;
        let mut hi = end;
        let i = self.spans.partition_point(|&(_, e)| e < lo);
        let mut j = i;
        while j < self.spans.len() && self.spans[j].0 <= hi {
            lo = lo.min(self.spans[j].0);
            hi = hi.max(self.spans[j].1);
            j += 1;
        }
        self.spans.splice(i..j, std::iter::once((lo, hi)));
    }

    /// Total covered duration.
    pub fn total(&self) -> SimDuration {
        self.spans
            .iter()
            .fold(SimDuration::ZERO, |acc, &(s, e)| acc + (e - s))
    }

    /// Number of disjoint spans after coalescing.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Iterates over the coalesced disjoint spans in time order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, SimTime)> + '_ {
        self.spans.iter().copied()
    }

    /// Returns true if no interval has been added.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Removes all intervals.
    pub fn clear(&mut self) {
        self.spans.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_union_merges_overlaps() {
        let mut u = IntervalUnion::new();
        u.add(SimTime::from_nanos(10), SimTime::from_nanos(20));
        u.add(SimTime::from_nanos(15), SimTime::from_nanos(25));
        assert_eq!(u.span_count(), 1);
        assert_eq!(u.total().as_nanos(), 15);
    }

    #[test]
    fn interval_union_keeps_disjoint_spans() {
        let mut u = IntervalUnion::new();
        u.add(SimTime::from_nanos(0), SimTime::from_nanos(5));
        u.add(SimTime::from_nanos(10), SimTime::from_nanos(15));
        assert_eq!(u.span_count(), 2);
        assert_eq!(u.total().as_nanos(), 10);
    }

    #[test]
    fn interval_union_adjacent_spans_coalesce() {
        let mut u = IntervalUnion::new();
        u.add(SimTime::from_nanos(0), SimTime::from_nanos(5));
        u.add(SimTime::from_nanos(5), SimTime::from_nanos(10));
        assert_eq!(u.span_count(), 1);
        assert_eq!(u.total().as_nanos(), 10);
    }

    #[test]
    fn interval_union_ignores_empty() {
        let mut u = IntervalUnion::new();
        u.add(SimTime::from_nanos(5), SimTime::from_nanos(5));
        u.add(SimTime::from_nanos(9), SimTime::from_nanos(3));
        assert!(u.is_empty());
        assert_eq!(u.total(), SimDuration::ZERO);
    }

    #[test]
    fn interval_union_bridging_span_merges_all() {
        let mut u = IntervalUnion::new();
        u.add(SimTime::from_nanos(0), SimTime::from_nanos(5));
        u.add(SimTime::from_nanos(10), SimTime::from_nanos(15));
        u.add(SimTime::from_nanos(20), SimTime::from_nanos(25));
        u.add(SimTime::from_nanos(4), SimTime::from_nanos(21));
        assert_eq!(u.span_count(), 1);
        assert_eq!(u.total().as_nanos(), 25);
    }

    #[test]
    fn interval_union_clear() {
        let mut u = IntervalUnion::new();
        u.add(SimTime::from_nanos(0), SimTime::from_nanos(5));
        u.clear();
        assert!(u.is_empty());
    }
}
