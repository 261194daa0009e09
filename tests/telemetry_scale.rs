//! Telemetry's heap follows live sessions, not history. A snapshot stores
//! only the GPU shares that moved since the previous boundary, so an
//! open-loop run's telemetry grows linearly with its arrivals. The guard
//! below folds a synthetic open-loop stream straight through the hub; the
//! ignored scale check runs a 48k-arrival fleet with telemetry on and off.

mod counting_alloc;

use counting_alloc::peak_live_bytes_during;
use lifecycle::{DeploymentPlan, LifecycleConfig, ModelDeployment};
use serving::cluster::{ClusterConfig, RouterPolicy};
use serving::{run_experiment, workload, ClientSpec, EngineConfig, FifoScheduler, TraceConfig};
use simtime::{SimDuration, SimTime};
use std::hint::black_box;
use std::sync::Arc;
use telemetry::{EngineGauges, TelemetryConfig, TelemetryHub};
use trace::TraceKind;

/// Folds `n` open-loop sessions through a hub with a 100 µs cadence:
/// session `i` is admitted in interval `i`, runs one quantum in each of
/// the next three intervals, then idles for the rest of the run.
fn fold_open_loop(n: u32) {
    let interval = SimDuration::from_micros(100);
    let models = vec!["m"; n as usize];
    let mut hub = TelemetryHub::new(&TelemetryConfig::enabled(interval), models, []);
    let gauges = EngineGauges::default();
    for step in 0..n + 3 {
        let at = SimTime::ZERO + interval * u64::from(step) + SimDuration::from_micros(10);
        if at >= hub.next_due() {
            hub.tick(at, &gauges);
        }
        if step < n {
            hub.observe(at, &TraceKind::ClientAdmitted { client: step, device: 0 });
        }
        for client in step.saturating_sub(3)..step.min(n) {
            let gpu = SimDuration::from_micros(20);
            hub.observe(at, &TraceKind::QuantumEnd { job: u64::from(client), client, gpu });
        }
    }
    let makespan = SimTime::ZERO + interval * u64::from(n + 4);
    hub.finalize(makespan, &gauges);
    black_box(hub.into_report(makespan));
}

/// Doubling the sessions at most doubles the hub's peak heap, up to Vec
/// growth slack. Dense snapshot rows, one value per session ever seen,
/// would quadruple it.
#[test]
fn telemetry_peak_heap_grows_linearly_with_open_loop_sessions() {
    const N: u32 = 1_000;
    let one = peak_live_bytes_during(|| fold_open_loop(N));
    let two = peak_live_bytes_during(|| fold_open_loop(2 * N));
    assert!(
        two as f64 <= 2.5 * one as f64,
        "peak heap {one} B for {N} sessions but {two} B for {}",
        2 * N
    );
}

/// The benchmark's fleet-zipf fleet at `arrivals` arrivals: 24 rebadged
/// mini-tiny models with 32 MiB of weights on 2× GTX 1080 Ti + Titan X,
/// cost-aware routing, a 5 ms reconfiguration tick, FIFO scheduling, a
/// sampled trace and, when `telemetry` is set, 1 ms telemetry. Arrivals
/// are 100 µs apart and draw their model from a Zipf(1.2) law whose hot
/// set rotates 7 positions at the midpoint.
fn run_zipf_fleet(arrivals: usize, telemetry: bool) {
    const MODELS: usize = 24;
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
    let report = run_experiment(&cfg, clients, &mut FifoScheduler::new());
    assert!(report.all_finished(), "a fleet session did not finish");
    black_box(report);
}

/// At 48k arrivals, 1 ms telemetry at most doubles the fleet's peak heap.
/// Dense snapshot rows took it from 64 MiB to about 1 GiB.
#[test]
#[ignore = "scale check: a 48k-arrival fleet; run with `cargo test --release -- --ignored`"]
fn fleet_telemetry_peak_heap_stays_within_twice_the_untelemetered_run() {
    const ARRIVALS: usize = 48_000;
    let on = peak_live_bytes_during(|| run_zipf_fleet(ARRIVALS, true));
    let off = peak_live_bytes_during(|| run_zipf_fleet(ARRIVALS, false));
    let mib = |b: u64| b as f64 / f64::from(1 << 20);
    assert!(
        on <= 2 * off,
        "peak heap {:.1} MiB with telemetry, {:.1} MiB without",
        mib(on),
        mib(off)
    );
}
