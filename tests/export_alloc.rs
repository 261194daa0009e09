//! The Chrome trace export streams: each event is written straight into
//! the output string, so exporting a full-mode trace with its phase slices
//! allocates a handful of buffers, not a few per event.

mod counting_alloc;

use counting_alloc::allocs_during;
use olympian::{OlympianScheduler, ProfileStore, Profiler, RoundRobin};
use serving::attrib::critical_path;
use serving::{run_experiment, ClientSpec, EngineConfig, TraceConfig};
use simtime::SimDuration;
use std::sync::Arc;

#[test]
fn phased_export_allocates_less_than_once_per_hundred_events() {
    let model = models::mini::small(4);
    let cfg = EngineConfig::default().with_trace(TraceConfig::full());
    let mut store = ProfileStore::new();
    store.insert(Profiler::new(&cfg).profile(&model));
    let q = SimDuration::from_micros(200);
    let mut sched = OlympianScheduler::new(Arc::new(store), Box::new(RoundRobin::new()), q);
    let report = run_experiment(&cfg, vec![ClientSpec::new(model, 10); 6], &mut sched);
    let events = report.trace.len() as u64;
    assert!(events >= 10_000, "only {events} events traced");
    let attr = report.attribution(cfg.switch_latency + cfg.launch_overhead);
    let cp = critical_path(&attr);

    let mut json = String::new();
    let n = allocs_during(|| json = report.chrome_trace_json_with_phases(&attr, &cp));
    assert!(json.contains("\"critical path\""), "phases are part of the export");
    assert!(n * 100 < events, "{n} allocations exporting {events} events");
}
