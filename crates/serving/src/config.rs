//! Engine configuration.

use gpusim::DeviceProfile;
use simtime::SimDuration;

/// Configuration of one serving-engine run.
///
/// Defaults model the paper's primary platform (GTX 1080 Ti host with an
/// i7-8700) and TF-Serving 1.2's threading behaviour.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The (first) GPU to simulate.
    pub device: DeviceProfile,
    /// Additional GPUs in the server (paper §7 future work: multi-GPU
    /// serving). Clients are placed on the device with the most free
    /// memory at admission.
    pub extra_devices: Vec<DeviceProfile>,
    /// Master seed; every run with the same seed, config and workload is
    /// bit-identical.
    pub seed: u64,
    /// Size of the shared CPU worker-thread pool. TF-Serving sizes this from
    /// the OS thread budget; it is the resource Olympian exhausts first for
    /// some models (§4.3 of the paper).
    pub pool_size: u32,
    /// Maximum gang width: CPU threads a single job may hold at once.
    pub max_gang: u32,
    /// Minimum *effective* gang width drawn per (run, client) in baseline
    /// mode — models OS scheduling nondeterminism: a client whose threads
    /// get scheduled less aggressively keeps fewer kernels in flight and
    /// falls behind (the Figure 3 spread). Set equal to `max_gang` to
    /// disable the variation.
    pub min_effective_gang: u32,
    /// CPU time a gang thread spends submitting one kernel.
    pub launch_overhead: SimDuration,
    /// Relative jitter (σ) on CPU work durations.
    pub cpu_jitter: f64,
    /// Relative spread (lognormal σ) of each client's per-run submission
    /// latency factor — one ingredient of baseline unpredictability.
    pub submit_latency_spread: f64,
    /// Relative spread (lognormal σ) of each client's per-run GPU-driver
    /// arbitration bias. This is the dominant source of the Figure 3
    /// finish-time spread: the driver favours some CUDA contexts over
    /// others, differently in every run. Irrelevant under Olympian, where
    /// only one job has kernels queued at a time.
    pub driver_bias_spread: f64,
    /// Latency of a token hand-off: waking the granted gang's condition
    /// variable plus the pipeline refill bubble on the GPU. This is the
    /// per-switch price that makes overhead fall with larger quanta
    /// (Figure 8).
    pub switch_latency: SimDuration,
    /// TensorFlow's CUPTI cost profiler running *online* inflates every
    /// node execution by this fraction (the paper measures 21–29%, Figure
    /// 6); 0, the default, is the profiler off.
    pub profiling_inflation: f64,
    /// Queued admission: when a client's memory does not fit, wait for
    /// memory instead of rejecting (TF-Serving's reject-on-OOM is the
    /// default, false). Semantics: first-fit on arrival — a client that
    /// fits is admitted immediately — with FIFO retry among waiters as
    /// memory frees.
    pub queue_admission: bool,
    /// Structured-trace capture (see [`crate::trace`]). Off by default:
    /// traces of full-scale experiments hold millions of events, and the
    /// off mode keeps the hot path branch-cheap.
    pub trace: trace::TraceConfig,
    /// Live telemetry capture (see [`crate::telemetry`]). Off by default;
    /// when off the engine pays one predicted branch per event, the same
    /// discipline as the tracer.
    pub telemetry: telemetry::TelemetryConfig,
    /// Deterministic fault injection and recovery, run by
    /// [`faults::Recovery`]. `None` by default: each fault hook is then one
    /// predicted branch, as with tracing and telemetry.
    pub faults: Option<faults::FaultConfig>,
    /// The closed-loop control plane, run by [`controlplane::ControlLoop`]:
    /// the burn-rate degradation ladder, laxity cancellation and online
    /// profile recalibration. `None` by default.
    pub control: Option<controlplane::ControlConfig>,
    /// Model lifecycle and fleet orchestration, run by [`cluster::Fleet`]:
    /// one lifecycle manager and memory budget per device, a per-arrival
    /// router and an optional min-cost-flow reconfiguration loop. Set it
    /// with [`with_cluster`](Self::with_cluster), which derives the device
    /// list, or [`with_lifecycle`](Self::with_lifecycle) for one device.
    /// `None` by default: clients carry pre-loaded models and admission is
    /// the classic one-shot memory check.
    pub cluster: Option<cluster::ClusterConfig>,
    /// Hard cap on simulated events — a watchdog against scheduling bugs.
    pub max_events: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            device: DeviceProfile::gtx_1080_ti(),
            extra_devices: Vec::new(),
            seed: 1,
            pool_size: 200,
            max_gang: 4,
            min_effective_gang: 4,
            launch_overhead: SimDuration::from_micros(5),
            cpu_jitter: 0.05,
            submit_latency_spread: 0.10,
            driver_bias_spread: 0.25,
            switch_latency: SimDuration::from_micros(80),
            profiling_inflation: 0.0,
            queue_admission: false,
            trace: trace::TraceConfig::off(),
            telemetry: telemetry::TelemetryConfig::off(),
            faults: None,
            control: None,
            cluster: None,
            max_events: 500_000_000,
        }
    }
}

impl EngineConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty, gang bounds are inverted or zero, or any
    /// spread is negative.
    pub fn validate(&self) {
        assert!(self.pool_size > 0, "worker pool must be non-empty");
        assert!(self.max_gang > 0, "gang width must be at least 1");
        assert!(
            (1..=self.max_gang).contains(&self.min_effective_gang),
            "min effective gang must be in 1..=max_gang"
        );
        assert!(self.cpu_jitter >= 0.0, "negative cpu jitter");
        assert!(self.submit_latency_spread >= 0.0, "negative submit spread");
        assert!(self.driver_bias_spread >= 0.0, "negative bias spread");
        assert!(self.profiling_inflation >= 0.0, "negative inflation");
        assert!(self.max_events > 0, "event watchdog must be positive");
        self.telemetry.validate();
        if let Some(f) = &self.faults {
            f.validate();
        }
        if let Some(ctl) = &self.control {
            ctl.validate();
        }
        if let Some(cc) = &self.cluster {
            assert!(
                self.extra_devices.len() + 1 == cc.devices.len(),
                "cluster mode derives the device list from the cluster config; use with_cluster"
            );
            cc.validate();
        }
    }

    /// A copy with a different seed (for multi-run experiments).
    pub fn with_seed(&self, seed: u64) -> EngineConfig {
        EngineConfig { seed, ..self.clone() }
    }

    /// A copy with `n` identical GPUs (clones of `device`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_device_count(&self, n: usize) -> EngineConfig {
        assert!(n > 0, "need at least one device");
        EngineConfig {
            extra_devices: vec![self.device.clone(); n - 1],
            ..self.clone()
        }
    }

    /// Total number of simulated GPUs.
    pub fn device_count(&self) -> usize {
        1 + self.extra_devices.len()
    }

    /// A copy with trace capture configured (see [`crate::trace`]).
    pub fn with_trace(&self, trace: trace::TraceConfig) -> EngineConfig {
        EngineConfig { trace, ..self.clone() }
    }

    /// A copy with live telemetry configured (see [`crate::telemetry`]).
    pub fn with_telemetry(&self, telemetry: telemetry::TelemetryConfig) -> EngineConfig {
        EngineConfig { telemetry, ..self.clone() }
    }

    /// A copy with fault injection and recovery configured (see [`faults`]).
    pub fn with_faults(&self, faults: faults::FaultConfig) -> EngineConfig {
        EngineConfig { faults: Some(faults), ..self.clone() }
    }

    /// A copy with model-lifecycle management configured (see
    /// [`crate::lifecycle`]): clients naming a managed model are routed to
    /// its serving version at issue time instead of carrying their own
    /// weights. This is a one-device fleet on `device` with the `Static`
    /// router and reconfiguration off.
    ///
    /// # Panics
    ///
    /// Panics if the config has extra devices; use
    /// [`with_cluster`](Self::with_cluster) for a fleet.
    pub fn with_lifecycle(&self, lifecycle: lifecycle::LifecycleConfig) -> EngineConfig {
        assert!(
            self.extra_devices.is_empty(),
            "lifecycle management assumes a single device; use with_cluster for a fleet"
        );
        self.with_cluster(
            cluster::ClusterConfig::new(vec![self.device.clone()], lifecycle)
                .with_policy(cluster::RouterPolicy::Static)
                .with_reconfigure(false),
        )
    }

    /// A copy with fleet orchestration configured (see [`crate::cluster`]):
    /// the engine instantiates one GPU per profile in the cluster config,
    /// each with its own lifecycle manager and memory budget, routes every
    /// arriving run by the cluster's router policy and, when enabled, runs
    /// the periodic min-cost-flow reconfiguration loop. The engine's device
    /// list is derived from the cluster's profiles.
    ///
    /// # Panics
    ///
    /// Panics if the cluster config has no devices.
    pub fn with_cluster(&self, cluster: cluster::ClusterConfig) -> EngineConfig {
        assert!(!cluster.devices.is_empty(), "cluster needs at least one device");
        EngineConfig {
            device: cluster.devices[0].clone(),
            extra_devices: cluster.devices[1..].to_vec(),
            cluster: Some(cluster),
            ..self.clone()
        }
    }

    /// A copy with the closed-loop control plane configured (see
    /// [`controlplane`]): the engine runs a periodic control tick that
    /// drives the degradation ladder, cancels laxity-negative runs early
    /// and recalibrates drifting profiles in place.
    pub fn with_control(&self, control: controlplane::ControlConfig) -> EngineConfig {
        EngineConfig { control: Some(control), ..self.clone() }
    }

    /// A copy with the online cost profiler enabled (Figure 6's condition),
    /// inflating every node execution by `inflation`.
    pub fn with_online_profiling(&self, inflation: f64) -> EngineConfig {
        EngineConfig { profiling_inflation: inflation, ..self.clone() }
    }

    /// A copy with baseline nondeterminism disabled — used when profiling
    /// offline, where the paper gives the job an idle, exclusive GPU.
    pub fn quiescent(&self) -> EngineConfig {
        EngineConfig {
            min_effective_gang: self.max_gang,
            submit_latency_spread: 0.0,
            driver_bias_spread: 0.0,
            cpu_jitter: 0.0,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        EngineConfig::default().validate();
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let a = EngineConfig::default();
        let b = a.with_seed(99);
        assert_eq!(b.seed, 99);
        assert_eq!(b.pool_size, a.pool_size);
    }

    #[test]
    fn quiescent_removes_noise() {
        let q = EngineConfig::default().quiescent();
        assert_eq!(q.min_effective_gang, q.max_gang);
        assert_eq!(q.submit_latency_spread, 0.0);
        assert_eq!(q.driver_bias_spread, 0.0);
        assert_eq!(q.cpu_jitter, 0.0);
        q.validate();
    }

    #[test]
    fn with_cluster_derives_the_device_list() {
        let cc = cluster::ClusterConfig::new(
            vec![DeviceProfile::gtx_1080_ti(), DeviceProfile::titan_x()],
            lifecycle::LifecycleConfig::new(lifecycle::DeploymentPlan::new()),
        );
        let cfg = EngineConfig::default().with_cluster(cc);
        assert_eq!(cfg.device_count(), 2);
        assert_eq!(cfg.device.name(), "gtx-1080-ti");
        assert_eq!(cfg.extra_devices[0].name(), "titan-x");
        cfg.validate();
    }

    #[test]
    fn with_lifecycle_is_a_one_device_static_fleet() {
        let lc = lifecycle::LifecycleConfig::new(lifecycle::DeploymentPlan::new());
        let cfg = EngineConfig::default().with_lifecycle(lc);
        let cc = cfg.cluster.as_ref().expect("lifecycle arms the fleet");
        assert_eq!(cc.devices.len(), 1);
        assert_eq!(cc.devices[0].name(), cfg.device.name());
        assert_eq!(cc.policy, cluster::RouterPolicy::Static);
        assert!(!cc.reconfigure);
        assert_eq!(cfg.device_count(), 1);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "assumes a single device")]
    fn with_lifecycle_rejects_extra_devices() {
        let lc = lifecycle::LifecycleConfig::new(lifecycle::DeploymentPlan::new());
        let _ = EngineConfig::default().with_device_count(2).with_lifecycle(lc);
    }

    #[test]
    #[should_panic(expected = "gang width")]
    fn zero_gang_rejected() {
        let c = EngineConfig {
            max_gang: 0,
            ..EngineConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "min effective gang")]
    fn inverted_gang_bounds_rejected() {
        let base = EngineConfig::default();
        let c = EngineConfig {
            min_effective_gang: base.max_gang + 1,
            ..base
        };
        c.validate();
    }
}
