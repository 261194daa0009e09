//! End-to-end checks of a two-device fleet under the Olympian scheduler:
//! every session of a churning four-service zoo finishes on every seed
//! (one device unloading a version must not retire the profile another
//! device still serves), and the fleet survives faults and the control
//! plane in every combination of router, fault plan and control loop.

mod common;

use lifecycle::{DeploymentPlan, LifecycleConfig, ModelDeployment};
use olympian::{
    DeadlinePolicy, MultiGpuScheduler, Policy, ProfileStore, Profiler, RoundRobin, StoreBinder,
    StoreCostOracle,
};
use serving::cluster::{ClusterConfig, RouterPolicy};
use serving::control::ControlConfig;
use serving::faults::{FaultConfig, FaultPlan};
use serving::{run_experiment, ClientOutcome, ClientSpec, EngineConfig, RunReport, TraceConfig};
use simtime::{SimDuration, SimTime};
use std::sync::Arc;
use telemetry::{BurnWindows, SloSpec, TelemetryConfig};

const SERVICES: usize = 4;
const CLIENTS: usize = 24;
const BATCH: u64 = 4;
const WEIGHTS: u64 = 16 << 20;
const QUANTUM: SimDuration = SimDuration::from_micros(200);

/// `svc-{i}`: the small mini graph at `batch` with 16 MiB of weights.
fn service(i: usize, batch: u64) -> models::LoadedModel {
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
fn fleet_cfg(seed: u64, policy: RouterPolicy, store: &Arc<ProfileStore>) -> EngineConfig {
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
fn clients() -> Vec<ClientSpec> {
    (0..CLIENTS)
        .map(|i| {
            ClientSpec::new(service(i % SERVICES, BATCH), 6)
                .with_start(SimTime::from_micros(20 * i as u64))
                .with_think_time(SimDuration::from_micros(300))
        })
        .collect()
}

fn multi(store: Arc<ProfileStore>, policy: fn() -> Box<dyn Policy>) -> MultiGpuScheduler {
    MultiGpuScheduler::new(store, policy, QUANTUM)
}

fn round_robin() -> Box<dyn Policy> {
    Box::new(RoundRobin::new())
}

fn edf() -> Box<dyn Policy> {
    Box::new(DeadlinePolicy::edf())
}

/// Clients whose outcome is `Stalled` or a scheduler rejection.
fn lost(report: &RunReport) -> Vec<(usize, &ClientOutcome)> {
    report
        .clients
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            matches!(c.outcome, ClientOutcome::Stalled | ClientOutcome::RejectedByScheduler(_))
        })
        .map(|(i, c)| (i, &c.outcome))
        .collect()
}

#[test]
fn every_session_finishes_while_devices_trade_versions() {
    for seed in 1..=12 {
        let store = Arc::new(ProfileStore::new());
        let cfg = fleet_cfg(seed, RouterPolicy::CostAware, &store);
        let report = run_experiment(&cfg, clients(), &mut multi(store, round_robin));
        let unfinished: Vec<(usize, &ClientOutcome)> = report
            .clients
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_finished())
            .map(|(i, c)| (i, &c.outcome))
            .collect();
        assert!(unfinished.is_empty(), "seed {seed}: {unfinished:?}");
    }
}

/// The fault plan of the matrix: transient kernel and reservation
/// failures, a 2x slowdown over [2, 6) ms and a stall over [8, 9) ms.
fn faults() -> FaultConfig {
    let ms = SimTime::from_millis;
    FaultConfig::new(
        FaultPlan::new()
            .with_kernel_failures(0.02)
            .with_alloc_failures(0.05)
            .with_slowdown(2.0, ms(2), ms(6))
            .with_stall(ms(8), ms(9)),
    )
}

/// Profiles the Degraded rung's halved batch under both the service and
/// its version-1 name, and the service at the full batch for the laxity
/// oracle. Version profiles at the full batch stay with the binder.
fn seed_store(cfg: &EngineConfig) -> Arc<ProfileStore> {
    let divisor = ControlConfig::new().batch_divisor;
    let profiler = Profiler::new(cfg);
    let mut store = ProfileStore::new();
    for i in 0..SERVICES {
        let full = profiler.profile(&service(i, BATCH));
        let mut half = profiler.profile(&service(i, (BATCH / divisor).max(1)));
        store.insert(full);
        store.insert(half.clone());
        half.model = format!("svc-{i}@v1");
        store.insert(half);
    }
    Arc::new(store)
}

fn matrix_cell(policy: RouterPolicy, faulted: bool, controlled: bool) -> RunReport {
    let base = EngineConfig::default();
    let store = seed_store(&base);
    let mut cfg = fleet_cfg(1, policy, &store).with_trace(TraceConfig::sampled());
    let mut telemetry = TelemetryConfig::enabled(SimDuration::from_micros(500))
        .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 });
    for i in 0..SERVICES {
        telemetry =
            telemetry.with_slo(SloSpec::new(format!("svc-{i}"), SimDuration::from_millis(8), 0.05));
    }
    cfg = cfg.with_telemetry(telemetry);
    if faulted {
        cfg = cfg.with_faults(faults());
    }
    if controlled {
        let oracle = StoreCostOracle::new(Arc::clone(&store));
        cfg = cfg.with_control(ControlConfig::new().with_cost(oracle));
    }
    let clients: Vec<ClientSpec> =
        clients().into_iter().map(|c| c.with_run_deadline(SimDuration::from_millis(60))).collect();
    run_experiment(&cfg, clients, &mut multi(store, edf))
}

#[test]
fn fleet_survives_faults_and_control_in_every_combination() {
    for policy in [RouterPolicy::CostAware, RouterPolicy::Static] {
        for faulted in [false, true] {
            for controlled in [false, true] {
                let cell = format!("{policy:?} faults={faulted} control={controlled}");
                let report = matrix_cell(policy, faulted, controlled);
                assert_eq!(lost(&report), vec![], "{cell}");
                common::assert_counters_match_trace(&report);
                let counter = |name| report.telemetry.counter(name).unwrap_or(0);
                assert_eq!(counter("faults_kernel") > 0, faulted, "{cell}: fault plan");
                assert_eq!(counter("control_transitions") > 0, controlled, "{cell}: ladder");
                let again = matrix_cell(policy, faulted, controlled);
                let (first, second) = (format!("{report:?}"), format!("{again:?}"));
                assert_eq!(first, second, "{cell} is not deterministic");
            }
        }
    }
}
