//! The benchmark's fleet-zipf fleet at any arrival count: 24 rebadged
//! mini-tiny models with 32 MiB of weights on 2× GTX 1080 Ti + Titan X,
//! cost-aware routing, a 5 ms reconfiguration tick, FIFO scheduling, a
//! sampled trace and, when `telemetry` is set, 1 ms telemetry. Arrivals
//! are 100 µs apart, one single-run session each, and draw their model
//! from a Zipf(1.2) law whose hot set rotates 7 positions at the midpoint.

use lifecycle::{DeploymentPlan, LifecycleConfig, ModelDeployment};
use serving::cluster::{ClusterConfig, RouterPolicy};
use serving::{workload, ClientSpec, EngineConfig, TelemetryConfig, TraceConfig};
use simtime::{SimDuration, SimTime};
use std::sync::Arc;

/// Models in the fleet's catalog.
const MODELS: usize = 24;

/// The fleet's engine configuration and its `arrivals` clients.
pub fn zipf_fleet(arrivals: usize, telemetry: bool) -> (EngineConfig, Vec<ClientSpec>) {
    let tiny = models::mini::tiny(4);
    let zoo: Vec<models::LoadedModel> = (0..MODELS)
        .map(|i| {
            models::LoadedModel::from_parts(
                format!("zoo-{i:02}"),
                None,
                tiny.batch(),
                Arc::clone(tiny.graph()),
                32 << 20,
                tiny.activation_bytes(),
            )
        })
        .collect();
    let mut plan = DeploymentPlan::new();
    for m in &zoo {
        plan = plan.with_model(ModelDeployment::new(m.name(), m.clone()));
    }
    let devices = vec![
        gpusim::DeviceProfile::gtx_1080_ti(),
        gpusim::DeviceProfile::gtx_1080_ti(),
        gpusim::DeviceProfile::titan_x(),
    ];
    let cc = ClusterConfig::new(devices, LifecycleConfig::new(plan))
        .with_tick(SimDuration::from_millis(5))
        .with_policy(RouterPolicy::CostAware)
        .with_reconfigure(true);
    let tc = if telemetry {
        TelemetryConfig::enabled(SimDuration::from_millis(1))
    } else {
        TelemetryConfig::off()
    };
    let cfg = EngineConfig::default()
        .with_cluster(cc)
        .with_trace(TraceConfig::sampled())
        .with_telemetry(tc);
    let picks = workload::zipf_models(arrivals, MODELS, 1.2, arrivals / 2, 7, 1);
    let spacing = SimDuration::from_micros(100);
    let times = workload::uniform_arrivals(arrivals, spacing, SimTime::ZERO);
    let clients = picks
        .into_iter()
        .zip(times)
        .map(|(m, at)| ClientSpec::new(zoo[m].clone(), 1).with_start(at))
        .collect();
    (cfg, clients)
}
