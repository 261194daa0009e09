//! One multi-device cell through `run_experiment`, the only multi-GPU path.
//!
//! Three identical GPUs serve six clients with kernel faults, a slowdown
//! window, full tracing and live telemetry, under FIFO and under
//! `MultiGpuScheduler` (one Olympian token per device). Every rendering —
//! `RunReport` debug, Chrome trace JSON, telemetry JSON-lines — must be the
//! same on 1 and 4 `simpar` workers and across reruns, telemetry counters
//! must equal their trace events and replay from the trace, and the
//! renderings are pinned by digest so multi-device output cannot move
//! silently.

mod common;
mod replay;

use faults::{FaultConfig, FaultPlan};
use olympian::{MultiGpuScheduler, ProfileStore, Profiler, RoundRobin};
use serving::{run_experiment, ClientSpec, EngineConfig, FifoScheduler, RunReport, TraceConfig};
use simtime::{SimDuration, SimTime};
use std::sync::Arc;
use telemetry::TelemetryConfig;
use trace::TraceKind;

const DEVICES: usize = 3;
const QUANTUM: SimDuration = SimDuration::from_micros(200);
const INTERVAL: SimDuration = SimDuration::from_micros(500);

/// Runs the three-device cell under `MultiGpuScheduler` (round-robin) when
/// `olympian` is set, FIFO otherwise.
fn run_cell(olympian: bool) -> RunReport {
    let plan = FaultPlan::new()
        .with_kernel_failures(0.02)
        .with_slowdown(2.0, SimTime::from_millis(1), SimTime::from_millis(2));
    let cfg = EngineConfig::default()
        .with_seed(41)
        .with_device_count(DEVICES)
        .with_faults(FaultConfig::new(plan))
        .with_trace(TraceConfig::full())
        .with_telemetry(TelemetryConfig::enabled(INTERVAL));
    let model = models::mini::tiny(4);
    let clients = vec![ClientSpec::new(model.clone(), 2); 6];
    if olympian {
        let mut store = ProfileStore::new();
        store.insert(Profiler::new(&cfg).profile(&model));
        let mut sched =
            MultiGpuScheduler::new(Arc::new(store), || Box::new(RoundRobin::new()), QUANTUM);
        run_experiment(&cfg, clients, &mut sched)
    } else {
        run_experiment(&cfg, clients, &mut FifoScheduler::new())
    }
}

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

#[test]
fn renderings_match_across_simpar_jobs_and_reruns() {
    let cells = [false, true];
    let serial = simpar::par_map_jobs(1, &cells, |_, &oly| render(&run_cell(oly)));
    let parallel = simpar::par_map_jobs(4, &cells, |_, &oly| render(&run_cell(oly)));
    assert_eq!(serial, parallel, "cells diverged between 1 and 4 jobs");
    let rerun = simpar::par_map_jobs(1, &cells, |_, &oly| render(&run_cell(oly)));
    assert_eq!(serial, rerun, "cells diverged between reruns");
}

#[test]
fn every_device_serves_and_telemetry_matches_the_trace() {
    for olympian in [false, true] {
        let report = run_cell(olympian);
        assert!(report.all_finished(), "olympian={olympian}: a client did not finish");
        let mut admitted = [false; DEVICES];
        for e in &report.trace.events {
            if let TraceKind::ClientAdmitted { device, .. } = e.kind {
                admitted[device as usize] = true;
            }
        }
        assert_eq!(admitted, [true; DEVICES], "olympian={olympian}: a device sat idle");
        let faults = report.trace.filter(|k| matches!(k, TraceKind::KernelFault { .. }));
        assert!(faults.count() > 0, "olympian={olympian}: no kernel fault fired");
        common::assert_counters_match_trace(&report);
        // The Olympian cell has a hand-off whose first launch faulted.
        replay::assert_telemetry_replays(&report, &TelemetryConfig::enabled(INTERVAL), &[]);
    }
}

#[test]
fn renderings_are_pinned() {
    assert_eq!(fnv1a(&render(&run_cell(false))), "139c3ca63481e46f", "fifo");
    assert_eq!(fnv1a(&render(&run_cell(true))), "394355de1d4b89c4", "multi-gpu");
}
