//! Chrome trace-event JSON export (the format Perfetto and
//! `chrome://tracing` load).
//!
//! Layout: process 1 ("clients") holds one track per client plus a
//! "scheduler" track for token events whose owner is no longer known;
//! process 2 ("gpus") holds one track per device. Quantum spans render as
//! complete (`"ph":"X"`) slices on client tracks, kernel executions as
//! slices on device tracks, and everything else as instant events. The
//! per-kernel enqueue/complete events are deliberately *not* exported —
//! they exist for [`stats`](crate::stats) attribution and would triple the
//! file size without adding a visual.
//!
//! Output is byte-deterministic: events are ordered by
//! `(process, track, timestamp, sequence number)` and all numbers derive
//! from integer nanoseconds. Rows carry static names and inline scalar
//! arguments, and each one is written straight into the output string by
//! an [`EventWriter`], which callers also use to append processes of their
//! own; no document tree is built.

use crate::{Trace, TraceEvent, TraceKind};
use microjson::{write_escaped, write_f64, write_u64};
use std::fmt::Write as _;

/// Track labelling for the exporter: everything the trace's raw ids cannot
/// carry by themselves.
#[derive(Debug, Clone, Default)]
pub struct TraceMeta {
    /// One label per client, indexed by client id (e.g. `"client 3
    /// (inception-v4)"`). Clients beyond this list get a generic label.
    pub client_labels: Vec<String>,
    /// Number of GPU devices in the run.
    pub device_count: u32,
}

const CLIENTS_PID: u64 = 1;
const GPUS_PID: u64 = 2;
/// Most arguments a row carries besides its sequence number.
const MAX_ARGS: usize = 4;

/// One scalar argument of an exported event.
#[derive(Debug, Clone, Copy)]
pub enum EventArg {
    /// An integer.
    UInt(u64),
    /// A nanosecond quantity, written in microseconds.
    Us(u64),
    /// A fixed string.
    Str(&'static str),
}

fn write_us(ns: u64, out: &mut String) {
    write_f64(ns as f64 / 1000.0, out);
}

/// Appends events to the `traceEvents` array of a Chrome trace being
/// written by [`chrome_trace_json`].
pub struct EventWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl EventWriter<'_> {
    fn separate(&mut self) {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
    }

    /// Writes a metadata event: `key` is `"process_name"` (with no `tid`)
    /// or `"thread_name"`, and `name` the label it gives.
    pub fn meta(&mut self, pid: u64, tid: Option<u64>, key: &str, name: &str) {
        self.separate();
        let out = &mut *self.out;
        out.push_str("{\"ph\":\"M\",\"pid\":");
        write_u64(pid, out);
        if let Some(tid) = tid {
            out.push_str(",\"tid\":");
            write_u64(tid, out);
        }
        out.push_str(",\"name\":");
        write_escaped(key, out);
        out.push_str(",\"args\":{\"name\":");
        write_escaped(name, out);
        out.push_str("}}");
    }

    /// Writes an event on track `(pid, tid)` at `ts_ns`: a complete
    /// (`"X"`) slice when `dur_ns` is given, else a thread-scoped instant.
    pub fn event(
        &mut self,
        name: &str,
        cat: &str,
        (pid, tid): (u64, u64),
        ts_ns: u64,
        dur_ns: Option<u64>,
        args: &[(&str, EventArg)],
    ) {
        self.separate();
        let out = &mut *self.out;
        out.push_str("{\"name\":");
        write_escaped(name, out);
        out.push_str(",\"cat\":");
        write_escaped(cat, out);
        out.push_str(if dur_ns.is_some() {
            ",\"ph\":\"X\",\"ts\":"
        } else {
            ",\"ph\":\"i\",\"ts\":"
        });
        write_us(ts_ns, out);
        match dur_ns {
            Some(d) => {
                out.push_str(",\"dur\":");
                write_us(d, out);
            }
            None => out.push_str(",\"s\":\"t\""),
        }
        out.push_str(",\"pid\":");
        write_u64(pid, out);
        out.push_str(",\"tid\":");
        write_u64(tid, out);
        out.push_str(",\"args\":{");
        for (i, &(key, arg)) in args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(key, out);
            out.push(':');
            match arg {
                EventArg::UInt(n) => write_u64(n, out),
                EventArg::Us(ns) => write_us(ns, out),
                EventArg::Str(s) => write_escaped(s, out),
            }
        }
        out.push_str("}}");
    }
}

/// A row's name. Only the two kinds that name a state are formatted, and
/// only when the row is written.
#[derive(Clone, Copy)]
enum Name {
    Fixed(&'static str),
    Breaker(&'static str),
    Control(&'static str, &'static str),
}

struct Row {
    pid: u64,
    tid: u64,
    ts_ns: u64,
    /// `Some` for complete ("X") slices, `None` for instants.
    dur_ns: Option<u64>,
    seq: u64,
    name: Name,
    cat: &'static str,
    /// The first `nargs` are set; `seq` follows them when written.
    args: [(&'static str, EventArg); MAX_ARGS],
    nargs: usize,
}

impl Row {
    /// An instant at the event's own time.
    fn at(
        e: &TraceEvent,
        (pid, tid): (u64, u64),
        name: Name,
        cat: &'static str,
        args: &[(&'static str, EventArg)],
    ) -> Row {
        let mut inline = [("", EventArg::UInt(0)); MAX_ARGS];
        inline[..args.len()].copy_from_slice(args);
        Row {
            pid,
            tid,
            ts_ns: e.at.as_nanos(),
            dur_ns: None,
            seq: e.seq,
            name,
            cat,
            args: inline,
            nargs: args.len(),
        }
    }

    /// The same row as a complete slice over `[ts_ns, ts_ns + dur_ns]`.
    fn spanning(self, ts_ns: u64, dur_ns: u64) -> Row {
        Row { ts_ns, dur_ns: Some(dur_ns), ..self }
    }

    fn write(&self, w: &mut EventWriter<'_>, scratch: &mut String) {
        let name = match self.name {
            Name::Fixed(name) => name,
            Name::Breaker(state) => {
                scratch.clear();
                let _ = write!(scratch, "breaker-{state}");
                scratch
            }
            Name::Control(from, to) => {
                scratch.clear();
                let _ = write!(scratch, "control-{from}-to-{to}");
                scratch
            }
        };
        let mut args = [("", EventArg::UInt(0)); MAX_ARGS + 1];
        args[..self.nargs].copy_from_slice(&self.args[..self.nargs]);
        args[self.nargs] = ("seq", EventArg::UInt(self.seq));
        w.event(
            name,
            self.cat,
            (self.pid, self.tid),
            self.ts_ns,
            self.dur_ns,
            &args[..=self.nargs],
        );
    }
}

/// The exported row of one event, or `None` for the per-kernel enqueue
/// and complete events.
fn row_of(e: &TraceEvent, scheduler_tid: u64) -> Option<Row> {
    use EventArg::{Str, UInt, Us};
    let client = |c: u32| (CLIENTS_PID, u64::from(c));
    let holder = |c: Option<u32>| (CLIENTS_PID, c.map_or(scheduler_tid, u64::from));
    let sched = (CLIENTS_PID, scheduler_tid);
    let gpu = |d: u32| (GPUS_PID, u64::from(d));
    let u = |v: u32| UInt(u64::from(v));
    let row = |track, name: &'static str, cat, args: &[(&'static str, EventArg)]| {
        Row::at(e, track, Name::Fixed(name), cat, args)
    };
    Some(match e.kind {
        TraceKind::QuantumEnd { job, client: c, gpu: d } => {
            let dur = d.as_nanos();
            row(client(c), "quantum", "quantum", &[("job", UInt(job))])
                .spanning(e.at.as_nanos().saturating_sub(dur), dur)
        }
        TraceKind::KernelLaunch { job, client: c, device, node, start, end } => row(
            gpu(device),
            "kernel",
            "kernel",
            &[("job", UInt(job)), ("client", u(c)), ("node", u(node))],
        )
        .spanning(start.as_nanos(), end.since(start).as_nanos()),
        TraceKind::KernelEnqueue { .. } | TraceKind::KernelComplete { .. } => return None,
        TraceKind::TokenGrant { job, client: c, reason } => row(
            holder(c),
            "token-grant",
            "token",
            &[("job", UInt(job)), ("reason", Str(reason.as_str()))],
        ),
        TraceKind::TokenRevoke { job, client: c, reason } => row(
            holder(c),
            "token-revoke",
            "token",
            &[("job", UInt(job)), ("reason", Str(reason.as_str()))],
        ),
        TraceKind::CostThreshold { job, client: c, cumulated, threshold } => row(
            client(c),
            "cost-threshold",
            "quantum",
            &[("job", UInt(job)), ("cumulated", UInt(cumulated)), ("threshold", UInt(threshold))],
        ),
        TraceKind::YieldBlock { job, client: c } => {
            row(client(c), "yield-block", "yield", &[("job", UInt(job))])
        }
        TraceKind::YieldUnblock { job, client: c } => {
            row(client(c), "yield-unblock", "yield", &[("job", UInt(job))])
        }
        TraceKind::OverflowCharge { job, client: c, device, gpu: d } => row(
            client(c),
            "overflow-charge",
            "overflow",
            &[("job", UInt(job)), ("device", u(device)), ("gpu_us", Us(d.as_nanos()))],
        ),
        TraceKind::ClientAdmitted { client: c, device } => {
            row(client(c), "client-admitted", "lifecycle", &[("device", u(device))])
        }
        TraceKind::AdmissionQueued { client: c } => {
            row(client(c), "admission-queued", "lifecycle", &[])
        }
        TraceKind::LifecycleWait { client: c } => {
            row(client(c), "lifecycle-wait", "lifecycle", &[])
        }
        TraceKind::ClientRejectedOom { client: c, requested, available } => row(
            client(c),
            "client-rejected-oom",
            "lifecycle",
            &[("requested", UInt(requested)), ("available", UInt(available))],
        ),
        TraceKind::ClientFinished { client: c } => {
            row(client(c), "client-finished", "lifecycle", &[])
        }
        TraceKind::RunRegistered { job, client: c } => {
            row(client(c), "run-registered", "lifecycle", &[("job", UInt(job))])
        }
        TraceKind::RunCompleted { job, client: c, .. } => {
            row(client(c), "run-completed", "lifecycle", &[("job", UInt(job))])
        }
        TraceKind::DeadlineCancelled { job, client: c } => {
            row(client(c), "deadline-cancelled", "lifecycle", &[("job", UInt(job))])
        }
        TraceKind::DriftAlert { client: c, observed_us, expected_us, deviation_ppm } => row(
            client(c),
            "drift-alert",
            "alert",
            &[
                ("observed_us", UInt(observed_us)),
                ("expected_us", UInt(expected_us)),
                ("deviation_ppm", UInt(deviation_ppm)),
            ],
        ),
        TraceKind::SloBurnAlert { slo, short_ppm, long_ppm } => row(
            sched,
            "slo-burn-alert",
            "alert",
            &[("slo", u(slo)), ("short_ppm", UInt(short_ppm)), ("long_ppm", UInt(long_ppm))],
        ),
        TraceKind::KernelFault { job, client: c, device, node, attempt } => row(
            client(c),
            "kernel-fault",
            "fault",
            &[
                ("job", UInt(job)),
                ("device", u(device)),
                ("node", u(node)),
                ("attempt", u(attempt)),
            ],
        ),
        TraceKind::AllocFault { client: c, attempt } => {
            row(client(c), "alloc-fault", "fault", &[("attempt", u(attempt))])
        }
        TraceKind::RetryScheduled { job, client: c, node, attempt, delay } => {
            let all = [
                ("job", UInt(job)),
                ("node", u(node)),
                ("attempt", u(attempt)),
                ("backoff_us", Us(delay.as_nanos())),
            ];
            // An admission retry has no job or node yet.
            let args = if job == u64::MAX { &all[2..] } else { &all[..] };
            row(client(c), "retry-scheduled", "recovery", args)
        }
        TraceKind::BreakerTransition { client: c, state, .. } => {
            Row::at(e, client(c), Name::Breaker(state), "recovery", &[])
        }
        TraceKind::WatchdogRevoke { job, client: c, stalled_us } => row(
            client(c),
            "watchdog-revoke",
            "recovery",
            &[("job", UInt(job)), ("stalled_us", UInt(stalled_us))],
        ),
        TraceKind::DeviceStall { device, until_us } => {
            row(gpu(device), "device-stall", "fault", &[("until_us", UInt(until_us))])
        }
        TraceKind::VersionLoad { model, version, bytes } => row(
            sched,
            "version-load",
            "residency",
            &[("model", u(model)), ("version", u(version)), ("bytes", UInt(bytes))],
        ),
        TraceKind::WarmupRun { model, version, run } => row(
            sched,
            "warmup-run",
            "residency",
            &[("model", u(model)), ("version", u(version)), ("run", u(run))],
        ),
        TraceKind::Evict { model, version, bytes }
        | TraceKind::Unload { model, version, bytes } => {
            let name = if matches!(e.kind, TraceKind::Evict { .. }) { "evict" } else { "unload" };
            let args = [("model", u(model)), ("version", u(version)), ("bytes", UInt(bytes))];
            row(sched, name, "residency", &args)
        }
        TraceKind::CanaryPromote { model, version, .. } => {
            row(sched, "canary-promote", "rollout", &[("model", u(model)), ("version", u(version))])
        }
        TraceKind::CanaryRollback { model, version, .. } => row(
            sched,
            "canary-rollback",
            "rollout",
            &[("model", u(model)), ("version", u(version))],
        ),
        TraceKind::Drain { model, version, inflight } => row(
            sched,
            "drain",
            "residency",
            &[("model", u(model)), ("version", u(version)), ("inflight", u(inflight))],
        ),
        TraceKind::ControlTransition { from, to } => {
            Row::at(e, sched, Name::Control(from, to), "control", &[])
        }
        TraceKind::AdmissionShed { client: c } => row(client(c), "admission-shed", "control", &[]),
        TraceKind::BatchShrink { client: c, from, to } => {
            row(client(c), "batch-shrink", "control", &[("from", UInt(from)), ("to", UInt(to))])
        }
        TraceKind::ProfileRebind { client: c, scale_ppm } => {
            row(client(c), "profile-rebind", "control", &[("scale_ppm", UInt(scale_ppm))])
        }
        TraceKind::LaxityCancel { job, client: c, deficit_us } => row(
            client(c),
            "laxity-cancel",
            "control",
            &[("job", UInt(job)), ("deficit_us", UInt(deficit_us))],
        ),
        TraceKind::ClusterRoute { client: c, device, cost_us } => row(
            client(c),
            "cluster-route",
            "cluster",
            &[("device", u(device)), ("cost_us", UInt(cost_us))],
        ),
        TraceKind::ClusterMigrate { model, from, to } => row(
            sched,
            "cluster-migrate",
            "cluster",
            &[("model", u(model)), ("from", u(from)), ("to", u(to))],
        ),
        TraceKind::ClusterReconfig { loads, drains } => row(
            sched,
            "cluster-reconfigure",
            "cluster",
            &[("loads", u(loads)), ("drains", u(drains))],
        ),
    })
}

/// Serializes the trace as compact Chrome trace-event JSON (no trailing
/// newline). `extra` appends the caller's own events after the trace's,
/// in the same `traceEvents` array; pass `|_| {}` for none.
pub fn chrome_trace_json(
    trace: &Trace,
    meta: &TraceMeta,
    extra: impl FnOnce(&mut EventWriter<'_>),
) -> String {
    let scheduler_tid = meta.client_labels.len() as u64;
    // Counted first so the rows take one exact allocation.
    let rows_of = || trace.events.iter().filter_map(|e| row_of(e, scheduler_tid));
    let mut rows: Vec<Row> = Vec::with_capacity(rows_of().count());
    rows.extend(rows_of());
    // One row per event, so the sequence number makes every key distinct.
    rows.sort_unstable_by_key(|r| (r.pid, r.tid, r.ts_ns, r.seq));

    // Clamp slice starts so each track's slices never overlap: an overflow
    // charge can make a quantum's GPU duration exceed its wall interval,
    // and Perfetto expects same-track slices to nest or abut.
    let mut last: Option<(u64, u64, u64)> = None; // (pid, tid, end_ns)
    for r in rows.iter_mut() {
        let Some(dur) = r.dur_ns else { continue };
        let end = r.ts_ns + dur;
        if let Some((pid, tid, prev_end)) = last {
            if pid == r.pid && tid == r.tid && r.ts_ns < prev_end {
                r.ts_ns = prev_end.min(end);
                r.dur_ns = Some(end - r.ts_ns);
            }
        }
        last = Some((r.pid, r.tid, end.max(r.ts_ns)));
    }

    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    let mut w = EventWriter { out: &mut out, first: true };
    w.meta(CLIENTS_PID, None, "process_name", "clients");
    w.meta(GPUS_PID, None, "process_name", "gpus");
    for (i, label) in meta.client_labels.iter().enumerate() {
        w.meta(CLIENTS_PID, Some(i as u64), "thread_name", label);
    }
    w.meta(CLIENTS_PID, Some(scheduler_tid), "thread_name", "scheduler");
    let mut scratch = String::new();
    for d in 0..meta.device_count {
        scratch.clear();
        let _ = write!(scratch, "gpu {d}");
        w.meta(GPUS_PID, Some(u64::from(d)), "thread_name", &scratch);
    }
    for r in &rows {
        r.write(&mut w, &mut scratch);
    }
    // Freed before the caller's events grow the output further.
    drop(rows);
    extra(&mut w);

    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":");
    write_u64(trace.dropped, &mut out);
    if trace.dropped > 0 {
        out.push_str(",\"warning\":");
        write_escaped(
            &format!(
                "{} events were dropped by the flight-recorder ring; this trace \
                 (and anything attributed from it) is truncated",
                trace.dropped
            ),
            &mut out,
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SwitchReason, TraceBuffer, TraceConfig};
    use microjson::Value;
    use simtime::{SimDuration, SimTime};

    fn export(trace: &Trace, meta: &TraceMeta) -> Value {
        Value::parse(&chrome_trace_json(trace, meta, |_| {})).expect("exported JSON parses")
    }

    fn sample_trace() -> Trace {
        let mut b = TraceBuffer::new(&TraceConfig::full());
        b.record(SimTime::ZERO, TraceKind::ClientAdmitted { client: 0, device: 0 });
        b.record(
            SimTime::from_micros(10),
            TraceKind::TokenGrant { job: 0, client: Some(0), reason: SwitchReason::Register },
        );
        b.record(
            SimTime::from_micros(40),
            TraceKind::KernelLaunch {
                job: 0,
                client: 0,
                device: 0,
                node: 2,
                start: SimTime::from_micros(40),
                end: SimTime::from_micros(55),
            },
        );
        b.record(
            SimTime::from_micros(60),
            TraceKind::QuantumEnd { job: 0, client: 0, gpu: SimDuration::from_micros(15) },
        );
        b.finish()
    }

    fn tracks(doc: &Value) -> Vec<(u64, u64, f64, Option<f64>)> {
        doc.get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() != Some("M"))
            .map(|e| {
                (
                    e.get("pid").unwrap().as_u64().unwrap(),
                    e.get("tid").unwrap().as_u64().unwrap(),
                    e.get("ts").unwrap().as_f64().unwrap(),
                    e.get("dur").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn export_is_wellformed_and_parses_back() {
        let meta = TraceMeta { client_labels: vec!["client 0 (m)".into()], device_count: 1 };
        let doc = export(&sample_trace(), &meta);
        assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 2 process names + 1 client + 1 scheduler + 1 gpu thread names
        // + 4 payload events, minus the two instants... count the metas:
        let metas = events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("M")).count();
        assert_eq!(metas, 5);
        assert_eq!(events.len(), metas + 4);
    }

    #[test]
    fn per_track_timestamps_are_monotonic() {
        let meta = TraceMeta { client_labels: vec!["c0".into()], device_count: 1 };
        let doc = export(&sample_trace(), &meta);
        let mut last: std::collections::HashMap<(u64, u64), f64> = Default::default();
        for (pid, tid, ts, dur) in tracks(&doc) {
            let prev = last.entry((pid, tid)).or_insert(f64::NEG_INFINITY);
            assert!(ts >= *prev, "ts regressed on track ({pid},{tid})");
            *prev = ts + dur.unwrap_or(0.0);
        }
    }

    #[test]
    fn overlapping_quanta_are_clamped() {
        let mut b = TraceBuffer::new(&TraceConfig::sampled());
        // Two quanta whose naive spans overlap: [0, 100] and [80, 180].
        b.record(
            SimTime::from_micros(100),
            TraceKind::QuantumEnd { job: 0, client: 0, gpu: SimDuration::from_micros(100) },
        );
        b.record(
            SimTime::from_micros(180),
            TraceKind::QuantumEnd { job: 1, client: 0, gpu: SimDuration::from_micros(100) },
        );
        let meta = TraceMeta { client_labels: vec!["c0".into()], device_count: 0 };
        let doc = export(&b.finish(), &meta);
        let spans: Vec<_> = tracks(&doc).into_iter().filter(|t| t.3.is_some()).collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].2, 100.0, "second span clamped to first's end");
        assert_eq!(spans[1].3, Some(80.0));
    }

    #[test]
    fn unknown_client_token_events_land_on_scheduler_track() {
        let mut b = TraceBuffer::new(&TraceConfig::sampled());
        b.record(
            SimTime::from_micros(5),
            TraceKind::TokenRevoke { job: 7, client: None, reason: SwitchReason::Deregister },
        );
        let meta = TraceMeta { client_labels: vec!["c0".into(), "c1".into()], device_count: 0 };
        let doc = export(&b.finish(), &meta);
        let rows = tracks(&doc);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, 2, "scheduler tid = client count");
    }

    #[test]
    fn alert_events_land_on_the_timeline() {
        let mut b = TraceBuffer::new(&TraceConfig::sampled());
        b.record(
            SimTime::from_micros(500),
            TraceKind::DriftAlert {
                client: 0,
                observed_us: 280,
                expected_us: 200,
                deviation_ppm: 400_000,
            },
        );
        b.record(
            SimTime::from_micros(600),
            TraceKind::SloBurnAlert { slo: 0, short_ppm: 2_500_000, long_ppm: 2_000_000 },
        );
        let meta = TraceMeta { client_labels: vec!["c0".into()], device_count: 0 };
        let text = chrome_trace_json(&b.finish(), &meta, |_| {});
        assert!(text.contains("\"drift-alert\""));
        assert!(text.contains("\"slo-burn-alert\""));
        let doc = Value::parse(&text).unwrap();
        let rows = tracks(&doc);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1, 0, "drift alert on the client track");
        assert_eq!(rows[1].1, 1, "slo alert on the scheduler track");
    }

    #[test]
    fn ring_drops_produce_a_warning() {
        let mut b = TraceBuffer::new(&TraceConfig::sampled().with_ring(1));
        for i in 0..3u32 {
            b.record(SimTime::from_micros(u64::from(i)), TraceKind::ClientFinished { client: i });
        }
        let meta = TraceMeta { client_labels: vec!["c0".into()], device_count: 0 };
        let doc = export(&b.finish(), &meta);
        let other = doc.get("otherData").unwrap();
        assert_eq!(other.get("dropped_events").unwrap().as_u64(), Some(2));
        let warning = other.get("warning").unwrap().as_str().unwrap();
        assert!(warning.contains("2 events were dropped"));
        // A clean trace carries no warning key at all.
        let clean = export(&sample_trace(), &meta);
        assert!(clean.get("otherData").unwrap().get("warning").is_none());
    }

    #[test]
    fn export_is_byte_stable() {
        let meta = TraceMeta { client_labels: vec!["c0".into()], device_count: 1 };
        let a = chrome_trace_json(&sample_trace(), &meta, |_| {});
        let b = chrome_trace_json(&sample_trace(), &meta, |_| {});
        assert_eq!(a, b);
    }
}
