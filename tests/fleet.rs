//! End-to-end checks of a two-device fleet under the Olympian scheduler:
//! every session of a churning four-service zoo finishes on every seed
//! (one device unloading a version must not retire the profile another
//! device still serves), the fleet survives faults and the control plane
//! in every combination of router, fault plan and control loop, and quiet
//! laxity windows decide like walking every tick in each of them.

mod common;
mod fleet_setup;

use common::Uncached;
use fleet_setup::{clients, fleet_cfg, multi, round_robin, service, BATCH, SERVICES};
use olympian::{DeadlinePolicy, Policy, ProfileStore, Profiler, StoreCostOracle};
use serving::cluster::RouterPolicy;
use serving::control::{ControlConfig, CostOracle};
use serving::faults::{FaultConfig, FaultPlan};
use serving::{run_experiment, ClientOutcome, ClientSpec, EngineConfig, RunReport, TraceConfig};
use simtime::{SimDuration, SimTime};
use std::sync::Arc;
use telemetry::{BurnWindows, SloSpec, TelemetryConfig};

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

/// Builds a cell's cost oracle over its store.
type Oracle = fn(Arc<ProfileStore>) -> Arc<dyn CostOracle>;

/// The store's own oracle, which reports its epoch.
fn store_oracle(store: Arc<ProfileStore>) -> Arc<dyn CostOracle> {
    StoreCostOracle::new(store)
}

/// One cell of the matrix, every run due `deadline` after it registers,
/// with the control loop bound to the oracle `control` builds, if any.
fn matrix_cell(
    policy: RouterPolicy,
    faulted: bool,
    control: Option<Oracle>,
    deadline: SimDuration,
) -> RunReport {
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
    if let Some(oracle) = control {
        cfg = cfg.with_control(ControlConfig::new().with_cost(oracle(Arc::clone(&store))));
    }
    let clients: Vec<ClientSpec> =
        clients().into_iter().map(|c| c.with_run_deadline(deadline)).collect();
    run_experiment(&cfg, clients, &mut multi(store, edf))
}

#[test]
fn fleet_survives_faults_and_control_in_every_combination() {
    for policy in [RouterPolicy::CostAware, RouterPolicy::Static] {
        for faulted in [false, true] {
            for controlled in [false, true] {
                let cell = format!("{policy:?} faults={faulted} control={controlled}");
                let control = controlled.then_some(store_oracle as Oracle);
                let report = matrix_cell(policy, faulted, control, SimDuration::from_millis(60));
                assert_eq!(lost(&report), vec![], "{cell}");
                common::assert_counters_match_trace(&report);
                let counter = |name| report.telemetry.counter(name).unwrap_or(0);
                assert_eq!(counter("faults_kernel") > 0, faulted, "{cell}: fault plan");
                assert_eq!(counter("control_transitions") > 0, controlled, "{cell}: ladder");
                let again = matrix_cell(policy, faulted, control, SimDuration::from_millis(60));
                let (first, second) = (format!("{report:?}"), format!("{again:?}"));
                assert_eq!(first, second, "{cell} is not deterministic");
            }
        }
    }
}

/// Skipping the laxity walk on quiet ticks changes no decision where run
/// registrations, Degraded re-registrations at shrunk batch hints and the
/// store epoch's moves on version binds interleave: at a 10 ms run
/// deadline, each controlled cell of the matrix reports the same bytes
/// under the store's oracle as under one without an epoch, whose ticks
/// all walk. Each cell cancels runs on laxity, shrinks batch hints, steps
/// the ladder and loads versions.
#[test]
fn quiet_laxity_windows_decide_exactly_across_lifecycle_faults_and_routers() {
    let deadline = SimDuration::from_millis(10);
    let walking: Oracle = |store| Arc::new(Uncached::new(store));
    for policy in [RouterPolicy::CostAware, RouterPolicy::Static] {
        for faulted in [false, true] {
            let cell = format!("{policy:?} faults={faulted}");
            let quiet = matrix_cell(policy, faulted, Some(store_oracle), deadline);
            let counter = |name| quiet.telemetry.counter(name).unwrap_or(0);
            for name in [
                "control_laxity_cancels",
                "control_batch_shrinks",
                "control_transitions",
                "versions_loaded",
            ] {
                assert!(counter(name) > 0, "{cell}: no {name}");
            }
            let walked = matrix_cell(policy, faulted, Some(walking), deadline);
            assert_eq!(format!("{quiet:?}"), format!("{walked:?}"), "{cell}");
        }
    }
}
