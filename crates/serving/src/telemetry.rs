//! Live telemetry — a façade over the workspace [`telemetry`] crate
//! (re-exported here so downstream code keeps one import path).
//!
//! With [`EngineConfig::telemetry`](crate::EngineConfig::telemetry) set to
//! an enabled configuration, the engine folds every event it records
//! (admissions, runs, quanta, faults, lifecycle, control and fleet
//! actions) into an online metrics registry, whatever the trace mode, and
//! snapshots it at a fixed virtual-time cadence. SLO burn-rate and quantum
//! drift alerts fire *during* the run and are mirrored into the trace
//! ring, so they appear on the Perfetto timeline. The finished series is
//! available as [`RunReport::telemetry`](crate::RunReport::telemetry) and
//! exports via [`RunReport::telemetry_jsonl`](crate::RunReport::telemetry_jsonl)
//! and [`RunReport::prometheus_text`](crate::RunReport::prometheus_text).

pub use telemetry::{
    json_lines, prometheus_text, Alert, BurnSignal, BurnWindows, DriftConfig, DriftDetector,
    DriftSignal, EngineGauges, HistogramSnapshot, MetricsRegistry, SloMonitor, SloSpec,
    SnapshotCursor, SnapshotSeries, SnapshotView, TelemetryConfig, TelemetryHub, TelemetryReport,
};
