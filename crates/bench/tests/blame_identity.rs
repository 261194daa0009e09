//! Byte-identity of the blame surfaces: the full `results/blame.txt` report
//! across worker counts, and the attribution of a multi-device sharded run
//! across reruns (the trace-only cell, since multi-group sharding rejects
//! live telemetry).

use olympian::{OlympianScheduler, ProfileStore, Profiler, RoundRobin};
use serving::attrib::{critical_path, render_text};
use serving::{run_sharded_experiment, ClientSpec, EngineConfig, Scheduler, TraceConfig};
use simtime::SimDuration;
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

/// Attributes a three-device sharded run and renders the blame text.
fn sharded_blame() -> String {
    let base = EngineConfig::default();
    let cfg = EngineConfig {
        seed: 41,
        extra_devices: vec![base.device.clone(), base.device.clone()],
        ..base
    }
    .with_trace(TraceConfig::full());
    let model = models::mini::tiny(4);
    let mut store = ProfileStore::new();
    store.insert(Profiler::new(&cfg).profile(&model));
    let store = Arc::new(store);
    let clients: Vec<ClientSpec> = (0..6).map(|_| ClientSpec::new(model.clone(), 2)).collect();
    let q = SimDuration::from_micros(200);
    let report = run_sharded_experiment(&cfg, clients, &|_g| {
        Box::new(OlympianScheduler::new(
            Arc::clone(&store),
            Box::new(RoundRobin::new()),
            q,
        )) as Box<dyn Scheduler>
    });
    let attr = report.attribution(cfg.switch_latency + cfg.launch_overhead);
    let cp = critical_path(&attr);
    render_text("sharded", &attr, &cp, None)
}

#[test]
fn sharded_blame_is_byte_identical_across_reruns() {
    let reference = sharded_blame();
    assert!(reference.contains("token-based"));
    assert_eq!(reference, sharded_blame(), "attribution diverged between reruns");
}
