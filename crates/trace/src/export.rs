//! Chrome trace-event JSON export (the format Perfetto and
//! `chrome://tracing` load), and the text of [`render_trace`].
//!
//! Each event kind is described once, by `describe`: the name, category
//! and arguments of its row. Both writers read that description.
//!
//! Layout: process 1 ("clients") holds one track per client plus a
//! "scheduler" track for events with no known client; process 2 ("gpus")
//! holds one track per device. Quantum spans render as complete
//! (`"ph":"X"`) slices on client tracks, kernel executions as slices on
//! device tracks, and everything else as instant events. Kernel enqueues
//! are the one kind not exported: attrib reads them for its transfer
//! phase and telemetry for its hand-off latency, and a row per kernel would
//! add no visual to the kernel slices.
//!
//! Output is byte-deterministic: events are ordered by
//! `(process, track, timestamp, sequence number)` and all numbers derive
//! from integer nanoseconds. No document tree is built:
//!
//! - each exported event is placed once, as a compact slot holding its
//!   track, span and index in the trace. The slots, one exact allocation,
//!   are sorted in place, and the row's name and arguments are read off
//!   the event only as it is written;
//! - an [`EventWriter`], which callers also use to append processes of
//!   their own, writes each row straight into the output string. Every
//!   fixed stretch of JSON is one push, and a name that needs no escape is
//!   one copy;
//! - times print in microseconds from integer arithmetic, byte for byte
//!   as the `f64` quotient would print, up to 10^15 ns (about 11.6 simulated
//!   days); larger counts fall back to the float writer.

use crate::{Trace, TraceEvent, TraceKind};
use microjson::{write_escaped, write_f64, write_u64};
use simtime::SimDuration;
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

/// The first nanosecond count [`write_us`] leaves to `write_f64`.
const US_EXACT_BELOW: u64 = 1_000_000_000_000_000;

/// Writes `ns` in microseconds, byte for byte as `write_f64(ns as f64 /
/// 1000.0)` does, in integer arithmetic: the whole microseconds, a point,
/// and the nanosecond remainder with trailing zeros trimmed (`.0` when
/// there is none).
///
/// Below [`US_EXACT_BELOW`] the two agree: `ns` converts to `f64` exactly
/// and the division rounds once, to the double nearest `ns / 1000`. That
/// decimal has at most 15 significant digits, and no two such decimals
/// round to the same double, so no shorter decimal names it: it is the
/// shortest round-trip form `Display` prints. Larger counts take
/// `write_f64` itself.
fn write_us(ns: u64, out: &mut String) {
    if ns >= US_EXACT_BELOW {
        return write_f64(ns as f64 / 1000.0, out);
    }
    write_u64(ns / 1000, out);
    let frac = ns % 1000;
    let digits = [frac / 100, frac / 10 % 10, frac % 10].map(|d| char::from(b'0' + d as u8));
    let len = if frac.is_multiple_of(100) {
        1
    } else if frac.is_multiple_of(10) {
        2
    } else {
        3
    };
    out.push('.');
    out.extend(&digits[..len]);
}

/// Appends events to the `traceEvents` array of a Chrome trace being
/// written by [`chrome_trace_json`].
pub struct EventWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl EventWriter<'_> {
    /// Opens the next event with `open`, after a comma unless it is the
    /// first, and returns the output.
    fn open(&mut self, open: &str) -> &mut String {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        self.out.push_str(open);
        self.out
    }

    /// Writes a metadata event: `key` is `"process_name"` (with no `tid`)
    /// or `"thread_name"`, and `name` the label it gives.
    pub fn meta(&mut self, pid: u64, tid: Option<u64>, key: &str, name: &str) {
        let out = self.open("{\"ph\":\"M\",\"pid\":");
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
        let out = self.open("{\"name\":");
        write_escaped(name, out);
        out.push_str(",\"cat\":");
        write_escaped(cat, out);
        match dur_ns {
            Some(d) => {
                out.push_str(",\"ph\":\"X\",\"ts\":");
                write_us(ts_ns, out);
                out.push_str(",\"dur\":");
                write_us(d, out);
                out.push_str(",\"pid\":");
            }
            None => {
                out.push_str(",\"ph\":\"i\",\"ts\":");
                write_us(ts_ns, out);
                out.push_str(",\"s\":\"t\",\"pid\":");
            }
        }
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

/// Where an exported event's row goes. Slots sort by track, then start,
/// then trace order, which follows the sequence numbers, so every key is
/// distinct. The row's name and arguments are read off the event only
/// when it is written.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Slot {
    pid: u64,
    tid: u64,
    ts_ns: u64,
    /// Index of the event in [`Trace::events`].
    event: usize,
    /// `Some` for complete ("X") slices, `None` for instants.
    dur_ns: Option<u64>,
}

/// Whether an event has a row: every kind but the per-kernel enqueue.
fn exported(kind: &TraceKind) -> bool {
    !matches!(kind, TraceKind::KernelEnqueue { .. })
}

/// Where an event's row goes: its track, as `(pid, tid)` with no `tid` for
/// the scheduler track, and its span's start and, for slices, duration.
/// Kernel launches and device stalls sit on their device's track, and
/// everything else on its client's track or, when it has no client, on the
/// scheduler track. Kernels and quanta are slices; quanta end at the event.
fn place(e: &TraceEvent) -> ((u64, Option<u32>), u64, Option<u64>) {
    let at = e.at.as_nanos();
    match e.kind {
        TraceKind::KernelLaunch { device, start, end, .. } => {
            ((GPUS_PID, Some(device)), start.as_nanos(), Some(end.since(start).as_nanos()))
        }
        TraceKind::DeviceStall { device, .. } => ((GPUS_PID, Some(device)), at, None),
        TraceKind::QuantumEnd { client, gpu, .. } => {
            let dur = gpu.as_nanos();
            ((CLIENTS_PID, Some(client)), at.saturating_sub(dur), Some(dur))
        }
        _ => ((CLIENTS_PID, e.kind.client()), at, None),
    }
}

/// The slot of an [`exported`] event, whose scheduler track is
/// `scheduler_tid`.
fn slot_of(event: usize, e: &TraceEvent, scheduler_tid: u64) -> Slot {
    let ((pid, tid), ts_ns, dur_ns) = place(e);
    Slot { pid, tid: tid.map_or(scheduler_tid, u64::from), ts_ns, event, dur_ns }
}

/// The one description of each event kind: hands `row` the name, category
/// and arguments (at most [`MAX_ARGS`]) of the event's row. A name built
/// from the event's own strings is written into `scratch` first.
fn describe(
    kind: &TraceKind,
    scratch: &mut String,
    row: impl FnOnce(&str, &'static str, &[(&'static str, EventArg)]),
) {
    use EventArg::{Str, UInt, Us};
    let u = |v: u32| UInt(u64::from(v));
    match *kind {
        TraceKind::QuantumEnd { job, .. } => row("quantum", "quantum", &[("job", UInt(job))]),
        TraceKind::KernelLaunch { job, client: c, node, .. } => row(
            "kernel",
            "kernel",
            &[("job", UInt(job)), ("client", u(c)), ("node", u(node))],
        ),
        TraceKind::KernelEnqueue { job, device, node, handoff, .. } => {
            let handoff_ns = handoff.map_or(0, SimDuration::as_nanos);
            let all = [
                ("job", UInt(job)),
                ("device", u(device)),
                ("node", u(node)),
                ("handoff_us", Us(handoff_ns)),
            ];
            // Only the holder's first enqueue after a grant has a hand-off.
            let args = if handoff.is_some() { &all[..] } else { &all[..3] };
            row("kernel-enqueue", "kernel", args)
        }
        TraceKind::TokenGrant { job, reason, .. } => row(
            "token-grant",
            "token",
            &[("job", UInt(job)), ("reason", Str(reason.as_str()))],
        ),
        TraceKind::TokenRevoke { job, reason, .. } => row(
            "token-revoke",
            "token",
            &[("job", UInt(job)), ("reason", Str(reason.as_str()))],
        ),
        TraceKind::CostThreshold { job, cumulated, threshold, .. } => row(
            "cost-threshold",
            "quantum",
            &[("job", UInt(job)), ("cumulated", UInt(cumulated)), ("threshold", UInt(threshold))],
        ),
        TraceKind::YieldBlock { job, .. } => row("yield-block", "yield", &[("job", UInt(job))]),
        TraceKind::YieldUnblock { job, .. } => row("yield-unblock", "yield", &[("job", UInt(job))]),
        TraceKind::OverflowCharge { job, device, gpu: d, .. } => row(
            "overflow-charge",
            "overflow",
            &[("job", UInt(job)), ("device", u(device)), ("gpu_us", Us(d.as_nanos()))],
        ),
        TraceKind::ClientAdmitted { device, .. } => {
            row("client-admitted", "lifecycle", &[("device", u(device))])
        }
        TraceKind::AdmissionQueued { .. } => row("admission-queued", "lifecycle", &[]),
        TraceKind::LifecycleWait { .. } => row("lifecycle-wait", "lifecycle", &[]),
        TraceKind::ClientRejectedOom { requested, available, .. } => row(
            "client-rejected-oom",
            "lifecycle",
            &[("requested", UInt(requested)), ("available", UInt(available))],
        ),
        TraceKind::ClientFinished { .. } => row("client-finished", "lifecycle", &[]),
        TraceKind::RunRegistered { job, .. } => {
            row("run-registered", "lifecycle", &[("job", UInt(job))])
        }
        TraceKind::RunCompleted { job, .. } => {
            row("run-completed", "lifecycle", &[("job", UInt(job))])
        }
        TraceKind::DeadlineCancelled { job, .. } => {
            row("deadline-cancelled", "lifecycle", &[("job", UInt(job))])
        }
        TraceKind::DriftAlert { observed_us, expected_us, deviation_ppm, .. } => row(
            "drift-alert",
            "alert",
            &[
                ("observed_us", UInt(observed_us)),
                ("expected_us", UInt(expected_us)),
                ("deviation_ppm", UInt(deviation_ppm)),
            ],
        ),
        TraceKind::SloBurnAlert { slo, short_ppm, long_ppm } => row(
            "slo-burn-alert",
            "alert",
            &[("slo", u(slo)), ("short_ppm", UInt(short_ppm)), ("long_ppm", UInt(long_ppm))],
        ),
        TraceKind::KernelFault { job, device, node, attempt, .. } => row(
            "kernel-fault",
            "fault",
            &[
                ("job", UInt(job)),
                ("device", u(device)),
                ("node", u(node)),
                ("attempt", u(attempt)),
            ],
        ),
        TraceKind::AllocFault { attempt, .. } => {
            row("alloc-fault", "fault", &[("attempt", u(attempt))])
        }
        TraceKind::RetryScheduled { job, node, attempt, delay, .. } => {
            let all = [
                ("job", UInt(job)),
                ("node", u(node)),
                ("attempt", u(attempt)),
                ("backoff_us", Us(delay.as_nanos())),
            ];
            // An admission retry has no job or node yet.
            let args = if job == u64::MAX { &all[2..] } else { &all[..] };
            row("retry-scheduled", "recovery", args)
        }
        TraceKind::BreakerTransition { to, .. } => row(to.as_str(), "recovery", &[]),
        TraceKind::WatchdogRevoke { job, stalled_us, .. } => row(
            "watchdog-revoke",
            "recovery",
            &[("job", UInt(job)), ("stalled_us", UInt(stalled_us))],
        ),
        TraceKind::DeviceStall { until_us, .. } => {
            row("device-stall", "fault", &[("until_us", UInt(until_us))])
        }
        TraceKind::VersionLoad { model, version, bytes } => row(
            "version-load",
            "residency",
            &[("model", u(model)), ("version", u(version)), ("bytes", UInt(bytes))],
        ),
        TraceKind::WarmupRun { model, version, run } => row(
            "warmup-run",
            "residency",
            &[("model", u(model)), ("version", u(version)), ("run", u(run))],
        ),
        TraceKind::Evict { model, version, bytes }
        | TraceKind::Unload { model, version, bytes } => {
            let name = if matches!(kind, TraceKind::Evict { .. }) { "evict" } else { "unload" };
            let args = [("model", u(model)), ("version", u(version)), ("bytes", UInt(bytes))];
            row(name, "residency", &args)
        }
        TraceKind::CanaryPromote { model, version, .. } => {
            row("canary-promote", "rollout", &[("model", u(model)), ("version", u(version))])
        }
        TraceKind::CanaryRollback { model, version, .. } => {
            row("canary-rollback", "rollout", &[("model", u(model)), ("version", u(version))])
        }
        TraceKind::Drain { model, version, inflight } => row(
            "drain",
            "residency",
            &[("model", u(model)), ("version", u(version)), ("inflight", u(inflight))],
        ),
        TraceKind::ControlTransition { from, to } => {
            scratch.clear();
            let _ = write!(scratch, "control-{from}-to-{to}");
            row(scratch, "control", &[])
        }
        TraceKind::AdmissionShed { .. } => row("admission-shed", "control", &[]),
        TraceKind::BatchShrink { from, to, .. } => {
            row("batch-shrink", "control", &[("from", UInt(from)), ("to", UInt(to))])
        }
        TraceKind::ProfileRebind { scale_ppm, .. } => {
            row("profile-rebind", "control", &[("scale_ppm", UInt(scale_ppm))])
        }
        TraceKind::LaxityCancel { job, deficit_us, .. } => row(
            "laxity-cancel",
            "control",
            &[("job", UInt(job)), ("deficit_us", UInt(deficit_us))],
        ),
        TraceKind::ClusterRoute { device, cost_us, .. } => row(
            "cluster-route",
            "cluster",
            &[("device", u(device)), ("cost_us", UInt(cost_us))],
        ),
        TraceKind::ClusterMigrate { model, from, to } => row(
            "cluster-migrate",
            "cluster",
            &[("model", u(model)), ("from", u(from)), ("to", u(to))],
        ),
        TraceKind::ClusterReconfig { loads, drains } => row(
            "cluster-reconfigure",
            "cluster",
            &[("loads", u(loads)), ("drains", u(drains))],
        ),
    }
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
    // One exact allocation of compact slots, each computed once and sorted
    // in place.
    let events = || trace.events.iter().enumerate().filter(|(_, e)| exported(&e.kind));
    let mut slots: Vec<Slot> = Vec::with_capacity(events().count());
    slots.extend(events().map(|(i, e)| slot_of(i, e, scheduler_tid)));
    slots.sort_unstable();

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
    // Clamp slice starts so each track's slices never overlap: an overflow
    // charge can make a quantum's GPU duration exceed its wall interval,
    // and Perfetto expects same-track slices to nest or abut.
    let mut last: Option<(u64, u64, u64)> = None; // (pid, tid, end_ns)
    for slot in &slots {
        let (mut ts, mut dur) = (slot.ts_ns, slot.dur_ns);
        if let Some(d) = dur {
            let end = ts + d;
            if let Some((pid, tid, prev_end)) = last {
                if pid == slot.pid && tid == slot.tid && ts < prev_end {
                    ts = prev_end.min(end);
                    dur = Some(end - ts);
                }
            }
            last = Some((slot.pid, slot.tid, end));
        }
        let e = &trace.events[slot.event];
        describe(&e.kind, &mut scratch, |name, cat, args| {
            let mut all = [("", EventArg::UInt(0)); MAX_ARGS + 1];
            all[..args.len()].copy_from_slice(args);
            all[args.len()] = ("seq", EventArg::UInt(e.seq));
            w.event(name, cat, (slot.pid, slot.tid), ts, dur, &all[..=args.len()]);
        });
    }
    // Freed before the caller's events grow the output further.
    drop(slots);
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

/// Renders a trace as one line per event, in trace order: the event's
/// time, its track (`client<N>`, `gpu<N>` or `scheduler`), its row's name,
/// for slices the duration, and its arguments as `key=value`. Kernel
/// enqueues, which the Chrome export skips, print too. `limit` caps the
/// output (`usize::MAX` for everything).
pub fn render_trace(trace: &Trace, limit: usize) -> String {
    let mut out = String::new();
    if trace.dropped > 0 {
        let _ = writeln!(out, "... ({} events dropped by the ring)", trace.dropped);
    }
    let mut scratch = String::new();
    for e in trace.events.iter().take(limit) {
        let ((pid, tid), _, dur_ns) = place(e);
        let _ = match tid {
            Some(d) if pid == GPUS_PID => write!(out, "[{}] gpu{d} ", e.at),
            Some(c) => write!(out, "[{}] client{c} ", e.at),
            None => write!(out, "[{}] scheduler ", e.at),
        };
        describe(&e.kind, &mut scratch, |name, _, args| {
            out.push_str(name);
            if let Some(d) = dur_ns {
                out.push_str(" dur_us=");
                write_us(d, &mut out);
            }
            for &(key, arg) in args {
                let _ = write!(out, " {key}=");
                match arg {
                    EventArg::UInt(n) => write_u64(n, &mut out),
                    EventArg::Us(ns) => write_us(ns, &mut out),
                    EventArg::Str(s) => out.push_str(s),
                }
            }
        });
        out.push('\n');
    }
    if trace.len() > limit {
        let _ = writeln!(out, "... ({} more events)", trace.len() - limit);
    }
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
    fn caller_strings_are_escaped() {
        let meta = TraceMeta { client_labels: vec!["client \"0\"".into()], device_count: 0 };
        let text = chrome_trace_json(&Trace::default(), &meta, |w| {
            w.event("a\"b", "c\\d", (3, 0), 1500, None, &[("k\n", EventArg::Str("v\t"))]);
        });
        let doc = Value::parse(&text).expect("exported JSON parses");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // Two process names, then the client's thread name.
        let label = events[2].get("args").unwrap().get("name").unwrap();
        assert_eq!(label.as_str(), Some("client \"0\""));
        let ev = events.last().unwrap();
        assert_eq!(ev.get("name").unwrap().as_str(), Some("a\"b"));
        assert_eq!(ev.get("cat").unwrap().as_str(), Some("c\\d"));
        assert_eq!(ev.get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(ev.get("args").unwrap().get("k\n").unwrap().as_str(), Some("v\t"));
    }

    #[test]
    fn integer_microseconds_match_the_float_writer() {
        let (mut fast, mut slow) = (String::new(), String::new());
        let mut check = |ns: u64| {
            fast.clear();
            slow.clear();
            write_us(ns, &mut fast);
            write_f64(ns as f64 / 1000.0, &mut slow);
            assert_eq!(fast, slow, "write_us({ns})");
        };
        check(0);
        for k in 0..=18 {
            let p = 10u64.pow(k);
            for delta in [-1001i64, -1000, -999, -1, 0, 1, 999, 1000, 1001] {
                if let Some(ns) = p.checked_add_signed(delta) {
                    check(ns);
                }
            }
        }
        check(US_EXACT_BELOW - 1);
        check(US_EXACT_BELOW);
        check(u64::MAX);
        // A million draws, spread evenly over the magnitudes below 10^15.
        let mut rng = simtime::DetRng::new(0x5EED);
        for _ in 0..1_000_000 {
            let digits = rng.range_u64(1, 16) as u32;
            check(rng.range_u64(0, 10u64.pow(digits)));
        }
    }

    #[test]
    fn export_is_byte_stable() {
        let meta = TraceMeta { client_labels: vec!["c0".into()], device_count: 1 };
        let a = chrome_trace_json(&sample_trace(), &meta, |_| {});
        let b = chrome_trace_json(&sample_trace(), &meta, |_| {});
        assert_eq!(a, b);
    }
}
