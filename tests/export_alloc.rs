//! The heap a phased Chrome export holds. The export streams: each event
//! is written straight into the output string, so exporting a full-mode
//! trace with its phase slices allocates a handful of buffers, not a few
//! per event. The critical path it exports stays alive through the export,
//! where a fully traced run's heap peaks, so it is returned at exact
//! capacity.

mod counting_alloc;

use counting_alloc::{allocs_during, retained_bytes_during};
use olympian::{OlympianScheduler, ProfileStore, Profiler, RoundRobin};
use serving::attrib::{critical_path, Attribution, CriticalSegment};
use serving::{run_experiment, ClientSpec, EngineConfig, RunReport, TraceConfig};
use simtime::SimDuration;
use std::mem::size_of;
use std::sync::Arc;

/// A fully traced Olympian run of six ten-batch `mini-small` clients, and
/// its attribution.
fn traced_run() -> (RunReport, Attribution) {
    let model = models::mini::small(4);
    let cfg = EngineConfig::default().with_trace(TraceConfig::full());
    let mut store = ProfileStore::new();
    store.insert(Profiler::new(&cfg).profile(&model));
    let q = SimDuration::from_micros(200);
    let mut sched = OlympianScheduler::new(Arc::new(store), Box::new(RoundRobin::new()), q);
    let report = run_experiment(&cfg, vec![ClientSpec::new(model, 10); 6], &mut sched);
    let attr = report.attribution(cfg.switch_latency + cfg.launch_overhead);
    (report, attr)
}

#[test]
fn phased_export_allocates_less_than_once_per_hundred_events() {
    let (report, attr) = traced_run();
    let events = report.trace.len() as u64;
    assert!(events >= 10_000, "only {events} events traced");
    let cp = critical_path(&attr);

    let mut json = String::new();
    let n = allocs_during(|| json = report.chrome_trace_json_with_phases(&attr, &cp));
    assert!(json.contains("\"critical path\""), "phases are part of the export");
    assert!(n * 100 < events, "{n} allocations exporting {events} events");
}

#[test]
fn critical_path_retains_only_its_segments() {
    let (_report, attr) = traced_run();
    let (cp, retained) = retained_bytes_during(|| critical_path(&attr));
    let segments = cp.segments.len();
    assert!(segments >= 1_000, "only {segments} segments on the path");
    // The two blame tables are built at their exact lengths; the segments
    // grow by doubling while the walk runs.
    let tables = cp.blame_ns.len() * size_of::<(&str, u64)>()
        + cp.client_blame_ns.len() * size_of::<u64>();
    let bound = segments * size_of::<CriticalSegment>() + tables;
    assert!(
        retained <= bound as i64,
        "the path of {segments} segments retains {retained} bytes, more than {bound}"
    );
}
