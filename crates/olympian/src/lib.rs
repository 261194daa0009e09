#![deny(missing_docs)]

//! **Olympian** — the paper's contribution: fair, weighted and prioritized
//! GPU time-slicing for a DNN serving system, built from two mechanisms:
//!
//! 1. **Offline profiling** ([`profiler`], [`profile`]): per-`(model, batch)`
//!    profiles of node costs (`C_j`, TensorFlow cost-model units) and GPU
//!    duration (`D_j`). The *cost-accumulation rate* `C_j / D_j` converts a
//!    target quantum `Q` into a per-job cost threshold
//!    `T_j = Q · C_j / D_j` that can be checked online at zero cost
//!    (paper §3.3). *Overhead-Q curves* map an operator's overhead tolerance
//!    to the smallest acceptable `Q` (Figure 8).
//! 2. **Cooperative co-scheduling** ([`scheduler`], [`policy`]): a token,
//!    rotated by the active policy whenever the holder's accumulated cost
//!    crosses its threshold, decides which job's gang of CPU threads may
//!    proceed; everyone else parks in the yield hook (paper §3.4,
//!    Algorithm 2).
//!
//! The [`threaded`] module demonstrates the same cooperative gang mechanism
//! on real OS threads with condition variables.
//!
//! ```
//! use olympian::{OlympianScheduler, Profiler, ProfileStore, RoundRobin};
//! use serving::{run_experiment, ClientSpec, EngineConfig};
//! use simtime::SimDuration;
//! use std::sync::Arc;
//!
//! let cfg = EngineConfig::default();
//! let model = models::mini::small(4);
//! let mut store = ProfileStore::new();
//! store.insert(Profiler::new(&cfg).profile(&model));
//!
//! let mut sched = OlympianScheduler::new(
//!     Arc::new(store),
//!     Box::new(RoundRobin::new()),
//!     SimDuration::from_micros(200),
//! );
//! let clients = vec![ClientSpec::new(model.clone(), 2); 3];
//! let report = run_experiment(&cfg, clients, &mut sched);
//! assert!(report.all_finished());
//! assert!(report.switch_count > 0);
//! ```

pub mod deadline;
pub mod lifecycle;
pub mod multi;
pub mod oracle;
pub mod policy;
pub mod profile;
pub mod profiler;
pub mod scheduler;
pub mod threaded;

pub use deadline::{DeadlineMode, DeadlinePolicy};
pub use lifecycle::StoreBinder;
pub use multi::MultiGpuScheduler;
pub use oracle::StoreCostOracle;
pub use policy::{Lottery, Policy, Priority, RoundRobin, WeightedFair};
pub use profile::{ModelProfile, ProfileStore};
pub use profiler::{LinearCostModel, OverheadQCurve, Profiler};
pub use scheduler::OlympianScheduler;
