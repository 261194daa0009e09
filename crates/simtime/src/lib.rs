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
