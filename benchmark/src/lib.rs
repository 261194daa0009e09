//! End-to-end and per-layer benchmark of the Olympian serving simulator on
//! the workloads the repository ships: the paper's heterogeneous run, the
//! fleet figure scaled up, a lifecycle/fault/control-plane mix, and the
//! fully observed paper run with its post-processing.
//!
//! Everything here calls the simulator's public API only. Per-layer costs
//! come from timing wrappers around the trait objects the benchmark passes
//! in ([`probe`]) and from replays of a run's recorded streams through one
//! layer at a time ([`replay`]). End-to-end timings are normalised for the
//! host's speed at the time ([`calib`]).

pub mod alloc;
pub mod calib;
pub mod digest;
pub mod measure;
pub mod probe;
pub mod replay;
pub mod workload;
