#![deny(missing_docs)]

//! Umbrella crate for the Olympian reproduction workspace.
//!
//! Re-exports every workspace crate under one roof so that the root-level
//! integration tests (`tests/`) and runnable examples (`examples/`) can pull
//! the whole stack in through a single dependency.
//!
//! The interesting code lives in the member crates:
//!
//! * [`simtime`] — virtual clock and discrete-event machinery
//! * [`dataflow`] — dataflow graphs and the cost-model API
//! * [`models`] — the calibrated 7-model DNN zoo
//! * [`gpusim`] — the simulated GPU device and driver
//! * [`serving`] — the TF-Serving-equivalent middleware
//! * [`olympian`] — the paper's contribution: profiler + scheduler + policies
//! * [`metrics`] — statistics and table rendering for experiments
//! * [`trace`] — deterministic structured tracing and Chrome-trace export

pub use dataflow;
pub use gpusim;
pub use metrics;
pub use models;
pub use olympian;
pub use serving;
pub use simtime;
pub use trace;
