//! Sharded runs against the classic engine, against themselves, and
//! against pinned digests.
//!
//! The sharded runner's contract (see `serving::shard`): one device routes
//! to the classic engine byte-for-byte, and a multi-device run advances
//! one group engine per device in lockstep windows on the calling thread,
//! so every rendered artifact — `RunReport` debug, Chrome trace JSON,
//! telemetry JSON-lines — is a pure function of the inputs. The checks
//! below cover both schedulers with faults, lifecycle and full tracing on,
//! whether the cells run on 1 or 4 `simpar` jobs, and pin the three-device
//! renderings, one of them with a worker donated at a window barrier, so
//! sharded output cannot move silently.

use models::LoadedModel;
use olympian::{OlympianScheduler, ProfileStore, Profiler, RoundRobin, StoreBinder};
use serving::faults::{FaultConfig, FaultPlan};
use serving::lifecycle::{DeploymentPlan, LifecycleConfig, ModelDeployment};
use serving::{
    run_experiment, run_sharded_experiment, ClientSpec, EngineConfig, FifoScheduler, RunReport,
    Scheduler, TraceConfig,
};
use simtime::{SimDuration, SimTime};
use std::sync::Arc;

const QUANTUM: SimDuration = SimDuration::from_micros(200);

/// Renders every export surface the checks compare.
fn render(r: &RunReport) -> String {
    format!(
        "REPORT {r:?}\nCHROME {}\nTELEMETRY {}",
        r.chrome_trace_json(),
        r.telemetry_jsonl()
    )
}

/// 64-bit FNV-1a of a rendering, as 16 hex digits.
fn fnv1a(s: &str) -> String {
    let hash = s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

fn faults() -> FaultConfig {
    let plan = FaultPlan::new()
        .with_kernel_failures(0.02)
        .with_slowdown(2.0, SimTime::from_millis(1), SimTime::from_millis(2));
    FaultConfig::new(plan)
}

/// Rebadges a mini-zoo model as a named service (lifecycle deployments
/// and clients must agree on the model name).
fn service(name: &str) -> LoadedModel {
    let m = models::mini::tiny(4);
    LoadedModel::from_parts(
        name,
        None,
        m.batch(),
        Arc::clone(m.graph()),
        m.weights_bytes(),
        m.activation_bytes(),
    )
}

/// The full-stack single-group cell: faults, lifecycle, tracing and
/// telemetry all on, one device. Runs through the sharded entry point or
/// straight through `run_experiment`; each call builds fresh inputs, since
/// the lifecycle binder writes to its profile store during a run.
fn full_stack_cell(olympian: bool, sharded: bool) -> String {
    let services = ["svc-0", "svc-1", "svc-2"];
    let mut plan = DeploymentPlan::new();
    for name in services {
        plan = plan.with_model(ModelDeployment::new(name.to_string(), service(name)));
    }
    let mut cfg = EngineConfig { seed: 23, ..EngineConfig::default() }
        .with_trace(TraceConfig::full())
        .with_telemetry(serving::TelemetryConfig::enabled(SimDuration::from_micros(500)))
        .with_faults(faults());
    let store = Arc::new(ProfileStore::new());
    let binder = StoreBinder::calibrate(&cfg, &plan, Arc::clone(&store));
    cfg = cfg.with_lifecycle(LifecycleConfig::new(plan).with_binder(binder));
    let clients: Vec<ClientSpec> = services
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut spec = ClientSpec::new(service(name), 2);
            spec.start_at = SimTime::from_micros(100 * i as u64);
            spec.think_time = SimDuration::from_micros(300);
            spec
        })
        .collect();
    let make = factory(olympian, &store);
    let report = if sharded {
        run_sharded_experiment(&cfg, clients, &*make)
    } else {
        run_experiment(&cfg, clients, make(0).as_mut())
    };
    render(&report)
}

/// The multi-group cell: three devices, faults on, full tracing — three
/// group engines advancing in lockstep windows.
fn multi_device_cell(olympian: bool) -> String {
    let base = EngineConfig::default();
    let cfg = EngineConfig {
        seed: 41,
        extra_devices: vec![base.device.clone(), base.device.clone()],
        ..base
    }
    .with_trace(TraceConfig::full())
    .with_faults(faults());
    let model = models::mini::tiny(4);
    let mut store = ProfileStore::new();
    store.insert(Profiler::new(&cfg).profile(&model));
    let store = Arc::new(store);
    let clients: Vec<ClientSpec> = (0..6).map(|_| ClientSpec::new(model.clone(), 2)).collect();
    let report = run_sharded_experiment(&cfg, clients, &*factory(olympian, &store));
    render(&report)
}

/// Three devices sharing a three-worker pool under FIFO, one light group
/// and two heavy ones: every gang competes for its group's one worker, so
/// when the light group drains, its donated worker reaches a starving
/// group at a window barrier.
fn starved_cell() -> String {
    let base = EngineConfig::default();
    let cfg = EngineConfig {
        seed: 43,
        pool_size: 3,
        extra_devices: vec![base.device.clone(), base.device.clone()],
        ..base
    }
    .with_trace(TraceConfig::full());
    let model = models::mini::tiny(4);
    // Placement deals identical models round-robin, so client i joins
    // group i % 3.
    let clients: Vec<ClientSpec> = (0..9)
        .map(|i| ClientSpec::new(model.clone(), if i % 3 == 0 { 1 } else { 4 }))
        .collect();
    let report = run_sharded_experiment(&cfg, clients, &|_g| {
        Box::new(FifoScheduler::new()) as Box<dyn Scheduler>
    });
    render(&report)
}

fn factory(
    olympian: bool,
    store: &Arc<ProfileStore>,
) -> Box<dyn Fn(usize) -> Box<dyn Scheduler> + Sync + '_> {
    if olympian {
        Box::new(move |_g| {
            Box::new(OlympianScheduler::new(
                Arc::clone(store),
                Box::new(RoundRobin::new()),
                QUANTUM,
            )) as Box<dyn Scheduler>
        })
    } else {
        Box::new(|_g| Box::new(FifoScheduler::new()) as Box<dyn Scheduler>)
    }
}

#[test]
fn full_stack_single_group_matches_run_experiment() {
    for olympian in [false, true] {
        assert_eq!(
            full_stack_cell(olympian, true),
            full_stack_cell(olympian, false),
            "sharded entry point diverged from run_experiment, olympian={olympian}"
        );
    }
}

#[test]
fn sharded_single_group_matches_classic_exactly() {
    let cfg = EngineConfig { seed: 5, ..EngineConfig::default() }
        .with_trace(TraceConfig::full())
        .with_faults(faults());
    let clients = |n: usize| -> Vec<ClientSpec> {
        (0..n).map(|_| ClientSpec::new(models::mini::tiny(4), 2)).collect()
    };
    let classic = run_experiment(&cfg, clients(3), &mut FifoScheduler::new());
    let sharded = run_sharded_experiment(&cfg, clients(3), &|_g| {
        Box::new(FifoScheduler::new()) as Box<dyn Scheduler>
    });
    assert_eq!(render(&classic), render(&sharded));
}

#[test]
fn multi_device_cell_matches_across_simpar_jobs_and_reruns() {
    let cells = [false, true];
    let serial = simpar::par_map_jobs(1, &cells, |_, &oly| multi_device_cell(oly));
    let parallel = simpar::par_map_jobs(4, &cells, |_, &oly| multi_device_cell(oly));
    assert_eq!(serial, parallel, "cells diverged between 1 and 4 jobs");
    let rerun = simpar::par_map_jobs(1, &cells, |_, &oly| multi_device_cell(oly));
    assert_eq!(serial, rerun, "cells diverged between reruns");
}

#[test]
fn multi_device_cell_rendering_is_pinned() {
    assert_eq!(fnv1a(&multi_device_cell(false)), "35c6f70157293bb8", "fifo");
    assert_eq!(fnv1a(&multi_device_cell(true)), "07bcfcdfe592271c", "olympian");
}

#[test]
fn worker_donation_rendering_is_pinned() {
    assert_eq!(fnv1a(&starved_cell()), "ba8d4edc5aa44d6b");
}
