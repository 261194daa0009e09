//! The two-device fleet shared by the fleet and attribution tests: a
//! churning four-service zoo on two devices of different speeds, each
//! fitting two weight sets, under the cost-aware or static router.

use lifecycle::{DeploymentPlan, LifecycleConfig, ModelDeployment};
use olympian::{MultiGpuScheduler, Policy, ProfileStore, RoundRobin, StoreBinder};
use serving::cluster::{ClusterConfig, RouterPolicy};
use serving::{ClientSpec, EngineConfig};
use simtime::{SimDuration, SimTime};
use std::sync::Arc;

/// Services in the zoo.
pub const SERVICES: usize = 4;
/// Clients in the workload.
const CLIENTS: usize = 24;
/// Batch size of every service.
pub const BATCH: u64 = 4;
/// Weight bytes of every service version.
const WEIGHTS: u64 = 16 << 20;
/// Scheduling quantum on every device.
const QUANTUM: SimDuration = SimDuration::from_micros(200);

/// `svc-{i}`: the small mini graph at `batch` with 16 MiB of weights.
pub fn service(i: usize, batch: u64) -> models::LoadedModel {
    let m = models::mini::small(batch);
    models::LoadedModel::from_parts(
        format!("svc-{i}"),
        None,
        batch,
        Arc::clone(m.graph()),
        WEIGHTS,
        m.activation_bytes(),
    )
}

/// Two devices, speeds 1.0 and 1.25, each fitting two weight sets and
/// every client's activations.
fn devices() -> Vec<gpusim::DeviceProfile> {
    let memory = 2 * WEIGHTS + CLIENTS as u64 * service(0, BATCH).activation_bytes() + (64 << 10);
    vec![
        gpusim::DeviceProfile::custom("lab0", 1.0, memory, 8, 0.0),
        gpusim::DeviceProfile::custom("lab1", 1.25, memory, 8, 0.0),
    ]
}

/// The four-service fleet with calibrated per-version profiles bound into
/// `store`, 2 ms reconfiguration ticks and queued admission.
pub fn fleet_cfg(seed: u64, policy: RouterPolicy, store: &Arc<ProfileStore>) -> EngineConfig {
    let base = EngineConfig::default().with_seed(seed);
    let mut plan = DeploymentPlan::new();
    for i in 0..SERVICES {
        plan = plan.with_model(ModelDeployment::new(format!("svc-{i}"), service(i, BATCH)));
    }
    let binder = StoreBinder::calibrate(&base, &plan, Arc::clone(store));
    let lc = LifecycleConfig::new(plan).with_binder(binder);
    let cc = ClusterConfig::new(devices(), lc)
        .with_tick(SimDuration::from_millis(2))
        .with_policy(policy);
    EngineConfig { queue_admission: true, ..base.with_cluster(cc) }
}

/// Client `i` runs six batches of `svc-(i % 4)`, starting 20 µs after its
/// predecessor, with 300 µs of think time between batches.
pub fn clients() -> Vec<ClientSpec> {
    (0..CLIENTS)
        .map(|i| {
            ClientSpec::new(service(i % SERVICES, BATCH), 6)
                .with_start(SimTime::from_micros(20 * i as u64))
                .with_think_time(SimDuration::from_micros(300))
        })
        .collect()
}

/// Olympian on every device with `policy`, at a 200 µs quantum.
pub fn multi(store: Arc<ProfileStore>, policy: fn() -> Box<dyn Policy>) -> MultiGpuScheduler {
    MultiGpuScheduler::new(store, policy, QUANTUM)
}

/// Round-robin fair sharing.
pub fn round_robin() -> Box<dyn Policy> {
    Box::new(RoundRobin::new())
}
