//! Structured execution traces — a façade over the workspace [`trace`]
//! crate (re-exported here so downstream code keeps one import path).
//!
//! With [`EngineConfig::trace`](crate::EngineConfig::trace) set to a
//! capturing mode, the engine records every lifecycle and scheduling event
//! (plus per-kernel events in [`TraceMode::Full`]) with its virtual
//! timestamp and a dense sequence number. Traces make scheduler behaviour
//! auditable — which job held the token when, where a hand-off bubble
//! began — and export to Chrome trace-event JSON via
//! [`RunReport::chrome_trace_json`](crate::RunReport::chrome_trace_json)
//! or aggregate into a [`TraceStats`] snapshot.

pub use trace::{
    chrome_trace_json, render_trace, BreakerEdge, ShedCause, SwitchReason, Trace, TraceBuffer,
    TraceConfig, TraceEvent, TraceKind, TraceMeta, TraceMode, TraceStats,
};
