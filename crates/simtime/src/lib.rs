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
//! * [`EventQueue`] — the total-ordered pending-event set, a near/far pair
//!   of binary heaps, with deterministic FIFO tie-breaking for simultaneous
//!   events.
//! * [`DetRng`] — a small, self-contained SplitMix64-based PRNG with the
//!   handful of distributions the simulator needs (uniform, normal,
//!   lognormal). Self-contained so that simulation results can never drift
//!   with a `rand` upgrade.
//!
//! # Example
//!
//! ```
//! use simtime::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(5), "later");
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(1), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "sooner");
//! assert_eq!(t, SimTime::from_nanos(1_000));
//! ```

mod event_queue;
mod queue;
mod rng;
mod time;

pub use event_queue::{EventQueue, NEAR};
pub use queue::BaselineEventQueue;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};

/// The name [`EventQueue`] had while it was a timing wheel. The benchmark
/// package, a workspace of its own, still names its event-queue replay and
/// that replay's `simtime.wheel.*` metrics after it; the alias goes when
/// they are renamed.
pub type TimingWheel<E> = EventQueue<E>;
