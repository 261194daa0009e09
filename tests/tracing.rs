//! End-to-end checks of the trace layer: byte-determinism of the Chrome
//! trace-event export across worker counts, track well-formedness, what a
//! Full trace adds per kernel, the text rendering's agreement with the
//! export, and the overhead-attribution snapshot.

use microjson::Value;
use olympian::{OlympianScheduler, Profiler, ProfileStore, RoundRobin};
use serving::trace::{render_trace, TraceKind};
use serving::{run_experiment, ClientSpec, EngineConfig, RunReport, TraceConfig};
use simtime::SimDuration;
use std::collections::HashMap;
use std::sync::Arc;

/// A small mixed workload whose profile store is built through
/// `simpar::par_map` — the code path `--jobs N` parallelizes — so the
/// determinism test below actually covers the parallel harness.
fn traced_run(tc: TraceConfig) -> RunReport {
    let cfg = EngineConfig::default().with_trace(tc);
    let models = [
        models::mini::small(4),
        models::mini::branchy(2),
        models::mini::tiny(3),
    ];
    let profiles = simpar::par_map(&models, |_, m| Profiler::new(&cfg).profile(m));
    let mut store = ProfileStore::new();
    for p in profiles {
        store.insert(p);
    }
    let clients: Vec<ClientSpec> = [
        models::mini::small(4),
        models::mini::branchy(2),
        models::mini::tiny(3),
    ]
    .into_iter()
    .map(|m| ClientSpec::new(m, 3))
    .collect();
    let mut sched = OlympianScheduler::new(
        Arc::new(store),
        Box::new(RoundRobin::new()),
        SimDuration::from_micros(200),
    );
    run_experiment(&cfg, clients, &mut sched)
}

#[test]
fn chrome_trace_is_byte_identical_across_job_counts() {
    std::env::remove_var(simpar::JOBS_ENV);
    let serial = traced_run(TraceConfig::full());
    assert!(serial.all_finished());
    assert_eq!(serial.trace.dropped, 0);
    let serial_json = serial.chrome_trace_json();

    std::env::set_var(simpar::JOBS_ENV, "2");
    let parallel = traced_run(TraceConfig::full());
    std::env::remove_var(simpar::JOBS_ENV);

    assert_eq!(
        serial_json,
        parallel.chrome_trace_json(),
        "trace export must not depend on the worker count"
    );
}

#[test]
fn chrome_trace_tracks_are_well_formed_and_monotonic() {
    // Full mode, so the GPU tracks carry kernel slices too.
    let report = traced_run(TraceConfig::full());
    let json = report.chrome_trace_json();
    let doc = microjson::Value::parse(&json).expect("well-formed JSON");
    let events = doc
        .get("traceEvents")
        .expect("traceEvents key")
        .as_array()
        .expect("array");
    assert!(events.len() > 4);

    // Within each (pid, tid) track, timestamps of timed events never go
    // backwards — the property Perfetto's importer relies on.
    let mut last: std::collections::HashMap<(u64, u64), f64> = std::collections::HashMap::new();
    let mut timed = 0usize;
    for e in events {
        let ph = e.get("ph").and_then(microjson::Value::as_str).expect("ph");
        if ph == "M" {
            continue;
        }
        assert!(ph == "X" || ph == "i", "unexpected phase {ph:?}");
        let pid = e.get("pid").unwrap().as_u64().unwrap();
        let tid = e.get("tid").unwrap().as_u64().unwrap();
        let ts = e.get("ts").unwrap().as_f64().unwrap();
        assert!(ts >= 0.0);
        if ph == "X" {
            assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
        }
        let prev = last.entry((pid, tid)).or_insert(f64::NEG_INFINITY);
        assert!(ts >= *prev, "track ({pid},{tid}) went backwards: {ts} < {prev}");
        *prev = ts;
        timed += 1;
    }
    assert!(timed > 0, "export contains timed events");
    // One slice track per client plus the scheduler and GPU tracks.
    assert!(last.keys().any(|&(pid, _)| pid == 1), "client process present");
    assert!(last.keys().any(|&(pid, _)| pid == 2), "gpu process present");
}

/// A Full trace records each kernel twice, as its enqueue and its launch,
/// on top of everything a Sampled trace of the same run records.
#[test]
fn full_trace_records_two_events_per_kernel() {
    let full = traced_run(TraceConfig::full());
    let sampled = traced_run(TraceConfig::sampled());
    assert!(full.all_finished() && full.kernel_count > 0);
    let count = |kind: fn(&TraceKind) -> bool| full.trace.filter(kind).count() as u64;
    let enqueues = count(|k| matches!(k, TraceKind::KernelEnqueue { .. }));
    let launches = count(|k| matches!(k, TraceKind::KernelLaunch { .. }));
    assert_eq!((enqueues, launches), (full.kernel_count, full.kernel_count));
    assert_eq!(full.trace.len() as u64, sampled.trace.len() as u64 + 2 * full.kernel_count);
}

/// `render_trace` and the Chrome export read one description of each
/// kind: every event's line names the row exported with the same `seq`.
/// Kernel enqueues, which the export skips, are the only lines without one.
#[test]
fn rendered_lines_name_the_chrome_rows() {
    let report = traced_run(TraceConfig::full());
    let doc = Value::parse(&report.chrome_trace_json()).expect("well-formed JSON");
    let mut rows = HashMap::new();
    for e in doc.get("traceEvents").and_then(Value::as_array).expect("traceEvents") {
        if let Some(seq) = e.get("args").and_then(|a| a.get("seq")).and_then(Value::as_u64) {
            rows.insert(seq, e.get("name").and_then(Value::as_str).expect("row name"));
        }
    }
    let text = render_trace(&report.trace, usize::MAX);
    assert_eq!(text.lines().count(), report.trace.len());
    for (e, line) in report.trace.events.iter().zip(text.lines()) {
        let name = line.split(' ').nth(2).expect("time, track, name");
        match rows.remove(&e.seq) {
            Some(row) => assert_eq!(name, row, "seq {}: {line}", e.seq),
            None => assert!(
                matches!(e.kind, TraceKind::KernelEnqueue { .. }),
                "seq {} has no Chrome row: {line}",
                e.seq
            ),
        }
    }
    assert!(rows.is_empty(), "rows without an event: {rows:?}");
}

#[test]
fn overhead_snapshot_is_consistent_on_a_full_trace() {
    let report = traced_run(TraceConfig::full());
    let cfg = EngineConfig::default();
    let stats =
        trace::TraceStats::from_trace(&report.trace, cfg.switch_latency + cfg.launch_overhead);
    assert!(stats.token_switches > 0);
    assert!(stats.quantum.count > 0);
    assert!(stats.kernel_count > 0);
    let overhead = stats.scheduler_overhead_us.expect("kernel spans present");
    assert!(overhead >= 0.0 && overhead <= stats.handoff_bound_us);
    let frac = stats.overhead_fraction().expect("non-empty run");
    assert!((0.0..1.0).contains(&frac), "overhead fraction {frac}");
}
