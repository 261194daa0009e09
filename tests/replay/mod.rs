//! Telemetry replayed from a trace: the check that the live account of a
//! run is a pure fold over the events its trace holds.

use serving::RunReport;
use telemetry::{EngineGauges, TelemetryConfig, TelemetryHub};
use trace::TraceKind;

/// Folds `report.trace` through a fresh hub built from the run's telemetry
/// config `cfg`, its clients' model names and its lifecycle plan's served
/// `deployments`, and requires the replay to reproduce the live telemetry:
/// the same counters, histograms and per-client GPU shares at every
/// snapshot, and the same alerts, run log and client labels. Gauges are
/// engine samples no event holds, so they are not compared. The trace must
/// be Full and lossless, so it holds every event the engine folded; the
/// run must not reset burn latches (no control plane).
pub fn assert_telemetry_replays(report: &RunReport, cfg: &TelemetryConfig, deployments: &[&str]) {
    assert_eq!(report.trace.dropped, 0, "a truncated trace cannot be replayed");
    let full = report.trace.filter(TraceKind::is_kernel).next().is_some();
    assert!(full, "the trace is not Full: kernel events are missing");
    let models = report.clients.iter().map(|c| c.model_name.as_str());
    let mut hub = TelemetryHub::new(cfg, models, deployments.iter().copied());
    // The engine emits a boundary before the first event at or past it.
    let gauges = EngineGauges::default();
    for e in &report.trace.events {
        if e.at >= hub.next_due() {
            hub.tick(e.at, &gauges);
        }
        hub.observe(e.at, &e.kind);
    }
    hub.finalize(report.makespan, &gauges);
    let (live, replay) = (&report.telemetry, hub.into_report(report.makespan));
    assert!(live.enabled && replay.enabled, "telemetry is off: nothing to replay");
    assert_eq!(live.counter_names, replay.counter_names);
    assert_eq!(live.hist_names, replay.hist_names);
    assert_eq!(live.client_models, replay.client_models);
    assert_eq!(live.snapshots.len(), replay.snapshots.len(), "snapshot count");
    let (mut live_rows, mut replay_rows) = (live.snapshots.cursor(), replay.snapshots.cursor());
    while let (Some((a, a_gpu)), Some((b, b_gpu))) = (live_rows.advance(), replay_rows.advance()) {
        assert_eq!(a.at, b.at);
        assert_eq!(a.counters, b.counters, "counters at {}", a.at);
        assert_eq!(a.hists, b.hists, "histograms at {}", a.at);
        assert_eq!(a_gpu, b_gpu, "GPU shares at {}", a.at);
    }
    assert_eq!(live.alerts, replay.alerts);
    assert_eq!(live.run_log, replay.run_log);
}
