//! Fleet orchestration: placement, cost-aware routing, and two-cadence
//! reconfiguration for a simulated multi-device serving cluster.
//!
//! The single-pool engine becomes a fleet by instantiating N heterogeneous
//! [`gpusim::DeviceProfile`]s, each paired with its own
//! [`lifecycle`] manager and memory budget; the managers share the run's
//! one [`lifecycle::DeploymentTable`]. Two control cadences operate on
//! top, mirroring the MCFP mixture-of-agents split:
//!
//! * **per-arrival routing (δt1)** — every run is stamped on arrival and
//!   sent to the device with the lowest estimated completion cost: the
//!   drain latency of already-queued work plus the device's price, which
//!   is the PCIe transfer when the model is not resident there plus the
//!   profile-scaled execute time ([`Fleet::price_ns`]);
//! * **periodic reconfiguration (δt2)** — on every `ClusterTick` the
//!   observed per-model demand window is matched against per-device
//!   capacity by an exact integer min-cost flow ([`flow::solve`]) whose
//!   arc costs are the same prices, and the resulting placement is
//!   materialized as load/drain/migrate commands ([`Step`]) through the
//!   per-device lifecycle managers, which enforce the byte budgets.
//!
//! [`Fleet`] runs both cadences for one run of the serving engine.
//!
//! Everything is deterministic: costs are integer nanoseconds (the only
//! float is the IEEE-exact speed division in [`scaled_execute_ns`]), ties
//! break to the lowest device index, and no output depends on hash-map
//! iteration order.

#![deny(missing_docs)]

use gpusim::DeviceProfile;
use lifecycle::LifecycleConfig;
use simtime::SimDuration;

mod fleet;
pub mod flow;

pub use fleet::{ClientRoute, Fleet, Issued, Routed, Step};
pub use flow::{solve, FlowAssignment, FlowProblem, FlowWorkspace};

/// How the router picks a device for an arriving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Cheapest-completion routing: minimize queued + transfer + execute.
    CostAware,
    /// Static hash placement: model `m` always runs on device
    /// `m % devices` — the baseline the fleet experiment beats.
    Static,
}

/// Configuration for the simulated fleet, consumed via
/// `EngineConfig::with_cluster`.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Device profiles, one per fleet member; index is the device id.
    pub devices: Vec<DeviceProfile>,
    /// Versioned-model registry + load bandwidth shared by every
    /// per-device lifecycle manager.
    pub lifecycle: LifecycleConfig,
    /// Reconfiguration cadence (δt2) — the `ClusterTick` period.
    pub tick: SimDuration,
    /// Routing policy (δt1).
    pub policy: RouterPolicy,
    /// Whether the min-cost-flow reconfiguration loop runs at all; off
    /// leaves the startup placement frozen (used for baselines).
    pub reconfigure: bool,
}

impl ClusterConfig {
    /// A fleet over `devices` serving the models in `lifecycle`, with
    /// cost-aware routing, reconfiguration on, and a 50 ms tick.
    pub fn new(devices: Vec<DeviceProfile>, lifecycle: LifecycleConfig) -> Self {
        ClusterConfig {
            devices,
            lifecycle,
            tick: SimDuration::from_millis(50),
            policy: RouterPolicy::CostAware,
            reconfigure: true,
        }
    }

    /// Sets the reconfiguration cadence.
    pub fn with_tick(mut self, tick: SimDuration) -> Self {
        self.tick = tick;
        self
    }

    /// Sets the routing policy.
    pub fn with_policy(mut self, policy: RouterPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables or disables the reconfiguration loop.
    pub fn with_reconfigure(mut self, on: bool) -> Self {
        self.reconfigure = on;
        self
    }

    /// Checks the configuration.
    ///
    /// # Panics
    ///
    /// Panics on an empty device list, a zero tick, or an invalid
    /// lifecycle configuration.
    pub fn validate(&self) {
        assert!(!self.devices.is_empty(), "cluster needs at least one device");
        assert!(self.tick > SimDuration::ZERO, "cluster tick must be positive");
        self.lifecycle.validate();
    }
}

/// Scales a base-profile execute time onto a device: `base_ns /
/// speed_factor`, rounded down. A single IEEE f64 division and truncation
/// — bit-identical on every platform and run.
pub fn scaled_execute_ns(base_ns: u64, speed_factor: f64) -> u64 {
    debug_assert!(speed_factor > 0.0, "speed factor must be positive");
    (base_ns as f64 / speed_factor) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifecycle::DeploymentPlan;

    fn empty_lifecycle() -> LifecycleConfig {
        LifecycleConfig::new(DeploymentPlan::new())
    }

    #[test]
    fn scaled_execute_is_exact_division() {
        assert_eq!(scaled_execute_ns(1_220_000, 1.22), 1_000_000);
        assert_eq!(scaled_execute_ns(1_000_000, 1.0), 1_000_000);
        // Same inputs, same bits: rerun stability of the lone float op.
        assert_eq!(scaled_execute_ns(999_999, 1.22), scaled_execute_ns(999_999, 1.22));
    }

    #[test]
    fn config_builders_compose() {
        let cfg = ClusterConfig::new(
            vec![DeviceProfile::gtx_1080_ti(), DeviceProfile::titan_x()],
            empty_lifecycle(),
        )
        .with_tick(SimDuration::from_millis(10))
        .with_policy(RouterPolicy::Static)
        .with_reconfigure(false);
        assert_eq!(cfg.devices.len(), 2);
        assert_eq!(cfg.tick, SimDuration::from_millis(10));
        assert_eq!(cfg.policy, RouterPolicy::Static);
        assert!(!cfg.reconfigure);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_fleet_is_rejected() {
        ClusterConfig::new(Vec::new(), empty_lifecycle()).validate();
    }

    #[test]
    #[should_panic(expected = "tick must be positive")]
    fn zero_tick_is_rejected() {
        ClusterConfig::new(vec![DeviceProfile::gtx_1080_ti()], empty_lifecycle())
            .with_tick(SimDuration::ZERO)
            .validate();
    }
}
