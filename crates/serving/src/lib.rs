#![deny(missing_docs)]

//! The model-serving middleware: a faithful simulation of TF-Serving's
//! execution model on the virtual clock.
//!
//! # Execution model (paper §2, Algorithm 1)
//!
//! Every client runs a sequence of `Session::Run` invocations ("jobs"). A
//! job is executed by a *gang* of CPU worker threads drawn from a shared
//! pool: threads pop ready nodes off the job's BFS queue, execute CPU nodes
//! inline, and manage GPU nodes by submitting a kernel to the driver and
//! blocking until it completes. The simulated GPU driver is a FIFO that has
//! no idea which job a kernel belongs to — exactly the property that makes
//! vanilla TF-Serving's finish times unpredictable (Figure 3).
//!
//! # The scheduler hook surface (paper §3, Algorithm 2)
//!
//! Olympian's extension points appear here as the [`Scheduler`] trait:
//! a yield check before every node ([`Scheduler::may_run`]), a cost update
//! after every GPU node ([`Scheduler::on_gpu_node_done`]), and
//! register/deregister around each job. The baseline [`FifoScheduler`]
//! implements the trait as no-ops, giving stock TF-Serving behaviour; the
//! `olympian` crate provides the real scheduler.
//!
//! # Managed models
//!
//! Versioned load/unload ([`lifecycle`]) and multi-device serving
//! ([`cluster`]) share one engine path: every managed model is served by a
//! fleet of per-device lifecycle managers. Lifecycle = one-device `Static`
//! fleet, no reconfiguration — [`EngineConfig::with_lifecycle`] is sugar
//! for [`EngineConfig::with_cluster`] over the configured device.
//!
//! ```
//! use serving::{run_experiment, ClientSpec, EngineConfig, FifoScheduler};
//!
//! let cfg = EngineConfig::default();
//! let clients = vec![ClientSpec::new(models::mini::tiny(4), 2)];
//! let report = run_experiment(&cfg, clients, &mut FifoScheduler::new());
//! assert!(report.clients[0].is_finished());
//! ```

pub mod attrib {
    //! Re-export of the latency-attribution crate: phase decomposition,
    //! cross-request critical paths and run-diff blame over the trace a
    //! run captured, consumed via [`RunReport::attribution`].
    //!
    //! [`RunReport::attribution`]: crate::RunReport::attribution
    pub use ::attrib::*;
}
pub mod batching;
mod client;
pub mod cluster {
    //! Re-export of the fleet-orchestration crate: heterogeneous device
    //! placement, cost-aware request routing and two-cadence min-cost-flow
    //! reconfiguration, consumed via [`EngineConfig::with_cluster`].
    //!
    //! [`EngineConfig::with_cluster`]: crate::EngineConfig::with_cluster
    pub use ::cluster::*;
}
mod config;
pub mod control {
    //! Re-export of the control-plane crate: deadline-aware scheduling
    //! support, the burn-rate degradation ladder and online recalibration
    //! consumed via [`EngineConfig::with_control`].
    //!
    //! [`EngineConfig::with_control`]: crate::EngineConfig::with_control
    pub use ::controlplane::*;
}
mod engine;
pub mod faults {
    //! Re-export of the fault-injection crate: plans, retry policies and
    //! circuit breakers consumed via [`EngineConfig::with_faults`].
    //!
    //! [`EngineConfig::with_faults`]: crate::EngineConfig::with_faults
    pub use ::faults::*;
}
pub mod lifecycle {
    //! Re-export of the model-lifecycle crate: versioned registries,
    //! memory-budgeted residency and canary rollouts consumed via
    //! [`EngineConfig::with_lifecycle`] (a one-device fleet) or per device
    //! via [`EngineConfig::with_cluster`].
    //!
    //! [`EngineConfig::with_lifecycle`]: crate::EngineConfig::with_lifecycle
    //! [`EngineConfig::with_cluster`]: crate::EngineConfig::with_cluster
    pub use ::lifecycle::*;
}
mod report;
mod scheduler;
pub mod telemetry;
pub mod tsdb {
    //! Re-export of the embedded time-series store: tiered downsampling
    //! over telemetry, the query layer, the persistent run catalog and
    //! dashboard rendering, consumed via [`RunReport::tsdb`].
    //!
    //! [`RunReport::tsdb`]: crate::RunReport::tsdb
    pub use ::tsdb::*;
}
pub mod trace;
pub mod workload;

pub use client::ClientSpec;
pub use config::EngineConfig;
pub use engine::run_experiment;
pub use report::{ClientOutcome, ClientReport, RunReport};
pub use scheduler::{
    ClientId, FifoScheduler, JobCtx, JobId, RegisterError, Scheduler, SchedulerProbe, Verdict,
};
pub use telemetry::{TelemetryConfig, TelemetryReport};
pub use trace::{SwitchReason, TraceConfig, TraceMode};
