//! Byte-identity of the blame surfaces: the full `results/blame.txt` report
//! across worker counts, and the attribution of a faulted three-device run
//! across reruns.

use olympian::{MultiGpuScheduler, ProfileStore, Profiler, RoundRobin};
use serving::attrib::{critical_path, render_text};
use serving::faults::{FaultConfig, FaultPlan};
use serving::{run_experiment, ClientSpec, EngineConfig, TelemetryConfig, TraceConfig};
use simtime::{SimDuration, SimTime};
use std::sync::Arc;

#[test]
fn blame_report_is_byte_identical_across_job_counts() {
    std::env::remove_var(simpar::JOBS_ENV);
    let serial = bench::figs::blame::run();
    std::env::set_var(simpar::JOBS_ENV, "2");
    let parallel = bench::figs::blame::run();
    std::env::remove_var(simpar::JOBS_ENV);
    assert_eq!(serial, parallel, "blame.txt must not depend on the worker count");
    assert!(serial.contains("execute share"));
}

/// Attributes a three-device run under one Olympian token per device, with
/// kernel faults, a slowdown window, full tracing and telemetry on, and
/// renders the blame text.
fn multi_device_blame() -> String {
    let plan = FaultPlan::new()
        .with_kernel_failures(0.02)
        .with_slowdown(2.0, SimTime::from_millis(1), SimTime::from_millis(2));
    let cfg = EngineConfig::default()
        .with_seed(41)
        .with_device_count(3)
        .with_faults(FaultConfig::new(plan))
        .with_trace(TraceConfig::full())
        .with_telemetry(TelemetryConfig::enabled(SimDuration::from_micros(500)));
    let model = models::mini::tiny(4);
    let mut store = ProfileStore::new();
    store.insert(Profiler::new(&cfg).profile(&model));
    let q = SimDuration::from_micros(200);
    let mut sched = MultiGpuScheduler::new(Arc::new(store), || Box::new(RoundRobin::new()), q);
    let report = run_experiment(&cfg, vec![ClientSpec::new(model, 2); 6], &mut sched);
    let attr = report.attribution(cfg.switch_latency + cfg.launch_overhead);
    let cp = critical_path(&attr);
    render_text("multi-device", &attr, &cp, None)
}

#[test]
fn multi_device_blame_is_byte_identical_across_reruns() {
    let reference = multi_device_blame();
    assert!(reference.contains("token-based"));
    assert_eq!(reference, multi_device_blame(), "attribution diverged between reruns");
}
