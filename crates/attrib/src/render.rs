//! Report rendering: the human-readable blame text, the `blame/v1` JSON
//! document, and the Perfetto phase/critical-path events.
//!
//! Everything here is byte-deterministic: integer nanosecond inputs, fixed
//! iteration orders, and fixed-precision float formatting only.

use crate::critical::CriticalPath;
use crate::diff::DiffReport;
use crate::{Attribution, Phase};
use microjson::Value;
use std::fmt::Write as _;
use trace::{EventArg, EventWriter};

/// The process id phase slices live on in the Chrome trace export
/// (processes 1 and 2 are the engine's client and GPU tracks).
pub const PHASES_PID: u64 = 3;

fn us(ns: u64) -> Value {
    Value::Float(ns as f64 / 1000.0)
}

fn us_f(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Writes the phase decomposition and the critical path as Chrome trace
/// events on their own process (pid 3), so they sit next to — never
/// inside — the engine's client and GPU tracks. One thread per client plus
/// a highlighted "critical path" thread; per-track timestamps are monotonic
/// by construction (phase intervals tile each run, path segments tile the
/// makespan).
pub fn write_phase_events(attr: &Attribution, cp: &CriticalPath, w: &mut EventWriter<'_>) {
    let path_tid = u64::from(attr.client_count);
    w.meta(PHASES_PID, None, "process_name", "phases");
    let mut label = String::new();
    for c in 0..attr.client_count {
        label.clear();
        let _ = write!(label, "client{c} phases");
        w.meta(PHASES_PID, Some(u64::from(c)), "thread_name", &label);
    }
    w.meta(PHASES_PID, Some(path_tid), "thread_name", "critical path");
    for c in 0..attr.client_count {
        for &ri in &attr.client_runs[c as usize] {
            let r = &attr.runs[ri];
            for iv in &r.intervals {
                w.event(
                    iv.phase.name(),
                    "phase",
                    (PHASES_PID, u64::from(c)),
                    iv.start_ns,
                    Some(iv.end_ns - iv.start_ns),
                    &[("job", EventArg::UInt(r.job))],
                );
            }
        }
    }
    for s in &cp.segments {
        let args =
            [("client", EventArg::UInt(u64::from(s.client))), ("job", EventArg::UInt(s.job))];
        // Client-gap segments blame no job.
        let args = if s.job == u64::MAX { &args[..1] } else { &args[..] };
        w.event(
            s.phase,
            "critical-path",
            (PHASES_PID, path_tid),
            s.start_ns,
            Some(s.end_ns - s.start_ns),
            args,
        );
    }
}

fn warning_line(attr: &Attribution, out: &mut String) {
    if attr.dropped_events > 0 {
        let _ = writeln!(
            out,
            "warning: {} events were dropped by the flight-recorder ring; \
             this attribution is truncated",
            attr.dropped_events
        );
    }
}

/// Renders the blame report as stable, diffable text. `label` names the
/// attributed experiment; `baseline` adds the run-diff section.
pub fn render_text(
    label: &str,
    attr: &Attribution,
    cp: &CriticalPath,
    baseline: Option<(&str, &DiffReport)>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== latency attribution: {label} ==");
    let _ = writeln!(
        out,
        "runs: {} terminal ({} unfinished)  clients: {}  scheduler: {}  makespan: {:.1} us",
        attr.runs.len(),
        attr.unfinished,
        attr.client_count,
        if attr.token_based { "token-based" } else { "baseline" },
        us_f(attr.makespan_ns),
    );
    warning_line(attr, &mut out);

    let totals = attr.phase_totals_ns();
    let span = attr.total_span_ns().max(1);
    let hists = attr.phase_histograms();
    let _ = writeln!(out, "\nphase decomposition (tiles every run span exactly):");
    let _ = writeln!(
        out,
        "  {:<16} {:>12} {:>8} {:>10} {:>10}",
        "phase", "total_us", "share", "p50_us", "p99_us"
    );
    for (p, (name, snap)) in Phase::ALL.iter().zip(hists.iter()) {
        let t = totals[p.index()];
        let _ = writeln!(
            out,
            "  {:<16} {:>12.1} {:>7.1}% {:>10.1} {:>10.1}",
            name,
            us_f(t),
            t as f64 * 100.0 / span as f64,
            snap.p50,
            snap.p99,
        );
    }
    let _ = writeln!(out, "  total run time: {:.1} us", us_f(span));

    let _ = writeln!(
        out,
        "\ncritical path (0 -> makespan, {} segments, {:.1} us):",
        cp.segments.len(),
        us_f(cp.span_ns)
    );
    let path = cp.span_ns.max(1);
    for &(name, v) in &cp.blame_ns {
        if v > 0 {
            let _ = writeln!(
                out,
                "  {:<16} {:>12.1} {:>7.1}%",
                name,
                us_f(v),
                v as f64 * 100.0 / path as f64
            );
        }
    }
    let _ = write!(out, "  blame by client:");
    for (c, &v) in cp.client_blame_ns.iter().enumerate() {
        let _ = write!(out, " client{c}={:.1}us", us_f(v));
    }
    let _ = writeln!(out);

    if let Some((base_label, d)) = baseline {
        let _ = writeln!(out, "\n== p99 blame vs baseline: {base_label} ==");
        let _ = writeln!(
            out,
            "runs: {} target vs {} baseline",
            d.target_runs, d.base_runs
        );
        let _ = writeln!(
            out,
            "  {:<8} {:>12} {:>14} {:>10}  top cause",
            "client", "base_p99_us", "target_p99_us", "delta_us"
        );
        for cd in &d.per_client {
            let top = Phase::ALL
                .iter()
                .max_by_key(|p| (cd.cause_ns[p.index()], std::cmp::Reverse(p.index())))
                .unwrap();
            let _ = writeln!(
                out,
                "  client{:<2} {:>12.1} {:>14.1} {:>+10.1}  {} ({:+.1} us)",
                cd.client,
                us_f(cd.base_p99_ns),
                us_f(cd.target_p99_ns),
                cd.delta_ns as f64 / 1000.0,
                top.name(),
                cd.cause_ns[top.index()] as f64 / 1000.0,
            );
        }
        let _ = write!(out, "cause totals:");
        for p in Phase::ALL {
            let v = d.cause_totals_ns[p.index()];
            if v != 0 {
                let _ = write!(out, " {}={:+.1}us", p.name(), v as f64 / 1000.0);
            }
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "total p99 delta: {:+.1} us  execute share: {:.1}%",
            d.delta_total_ns as f64 / 1000.0,
            d.execute_share * 100.0
        );
    }
    out
}

/// The `blame/v1` JSON document (the `--out` payload CI validates).
pub fn to_json(
    label: &str,
    attr: &Attribution,
    cp: &CriticalPath,
    baseline: Option<(&str, &DiffReport)>,
) -> Value {
    let totals = attr.phase_totals_ns();
    let phase_obj = |vals: &dyn Fn(usize) -> Value| {
        Value::Object(
            Phase::ALL
                .iter()
                .map(|p| (p.name().to_string(), vals(p.index())))
                .collect(),
        )
    };
    let mut doc = vec![
        ("schema".into(), Value::str("blame/v1")),
        ("experiment".into(), Value::str(label)),
        ("runs".into(), Value::UInt(attr.runs.len() as u64)),
        ("unfinished".into(), Value::UInt(u64::from(attr.unfinished))),
        ("clients".into(), Value::UInt(u64::from(attr.client_count))),
        ("token_based".into(), Value::Bool(attr.token_based)),
        ("makespan_us".into(), us(attr.makespan_ns)),
        ("dropped_events".into(), Value::UInt(attr.dropped_events)),
        ("tiling_ok".into(), Value::Bool(true)),
        ("phase_totals_us".into(), phase_obj(&|i| us(totals[i]))),
        (
            "critical_path".into(),
            Value::Object(vec![
                ("span_us".into(), us(cp.span_ns)),
                ("segments".into(), Value::UInt(cp.segments.len() as u64)),
                (
                    "blame_us".into(),
                    Value::Object(
                        cp.blame_ns
                            .iter()
                            .map(|&(n, v)| (n.to_string(), us(v)))
                            .collect(),
                    ),
                ),
                (
                    "client_blame_us".into(),
                    Value::Array(cp.client_blame_ns.iter().map(|&v| us(v)).collect()),
                ),
            ]),
        ),
    ];
    if let Some((base_label, d)) = baseline {
        let per_client = d
            .per_client
            .iter()
            .map(|cd| {
                Value::Object(vec![
                    ("client".into(), Value::UInt(u64::from(cd.client))),
                    ("base_p99_us".into(), us(cd.base_p99_ns)),
                    ("target_p99_us".into(), us(cd.target_p99_ns)),
                    ("delta_us".into(), Value::Float(cd.delta_ns as f64 / 1000.0)),
                    (
                        "cause_us".into(),
                        Value::Object(
                            Phase::ALL
                                .iter()
                                .map(|p| {
                                    (
                                        p.name().to_string(),
                                        Value::Float(cd.cause_ns[p.index()] as f64 / 1000.0),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        doc.push((
            "diff".into(),
            Value::Object(vec![
                ("baseline".into(), Value::str(base_label)),
                ("base_runs".into(), Value::UInt(d.base_runs as u64)),
                ("target_runs".into(), Value::UInt(d.target_runs as u64)),
                ("per_client".into(), Value::Array(per_client)),
                (
                    "cause_totals_us".into(),
                    phase_obj(&|i| Value::Float(d.cause_totals_ns[i] as f64 / 1000.0)),
                ),
                (
                    "delta_total_us".into(),
                    Value::Float(d.delta_total_ns as f64 / 1000.0),
                ),
                ("execute_share".into(), Value::Float(d.execute_share)),
            ]),
        ));
    }
    Value::Object(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical::critical_path;
    use crate::diff::diff;
    use simtime::{SimDuration, SimTime};
    use trace::{SwitchReason, TraceBuffer, TraceConfig, TraceKind, TraceMeta};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn attr(exec_us: u64) -> Attribution {
        let mut buf = TraceBuffer::new(&TraceConfig::sampled());
        buf.record(t(0), TraceKind::ClientAdmitted { client: 0, device: 0 });
        for j in 0..3u64 {
            let s = j * 500;
            buf.record(t(s), TraceKind::RunRegistered { job: j, client: 0 });
            buf.record(
                t(s),
                TraceKind::TokenGrant {
                    job: j,
                    client: Some(0),
                    reason: SwitchReason::Register,
                },
            );
            let latency = SimDuration::from_micros(exec_us);
            buf.record(t(s + exec_us), TraceKind::RunCompleted { job: j, client: 0, latency });
        }
        Attribution::from_trace(&buf.finish(), 2_000)
    }

    #[test]
    fn text_report_is_deterministic_and_complete() {
        let a = attr(100);
        let cp = critical_path(&a);
        let base = attr(80);
        let d = diff(&a, &base);
        let one = render_text("target", &a, &cp, Some(("base", &d)));
        let two = render_text("target", &a, &cp, Some(("base", &d)));
        assert_eq!(one, two);
        assert!(one.contains("latency attribution: target"));
        assert!(one.contains("execute"));
        assert!(one.contains("blame vs baseline: base"));
        assert!(one.contains("execute share"));
        assert!(!one.contains("warning:"));
    }

    #[test]
    fn json_document_carries_the_schema_and_diff() {
        let a = attr(100);
        let cp = critical_path(&a);
        let base = attr(80);
        let d = diff(&a, &base);
        let doc = to_json("target", &a, &cp, Some(("base", &d)));
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("blame/v1"));
        assert_eq!(doc.get("tiling_ok").unwrap().as_bool(), Some(true));
        let diff_doc = doc.get("diff").unwrap();
        assert_eq!(diff_doc.get("baseline").unwrap().as_str(), Some("base"));
        assert!(diff_doc.get("execute_share").unwrap().as_f64().unwrap() > 0.9);
        // The document round-trips through the parser.
        let mut text = String::new();
        doc.write(&mut text);
        let back = Value::parse(&text).unwrap();
        assert!(back.get("phase_totals_us").unwrap().get("execute").is_some());
    }

    #[test]
    fn phase_events_live_on_their_own_process_and_stay_monotonic() {
        let a = attr(100);
        let cp = critical_path(&a);
        let meta = TraceMeta { client_labels: vec!["c0".into()], device_count: 1 };
        let text = trace::chrome_trace_json(&trace::Trace::default(), &meta, |w| {
            write_phase_events(&a, &cp, w)
        });
        let doc = Value::parse(&text).expect("exported JSON parses");
        let rows: Vec<&Value> = doc
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|r| r.get("pid").unwrap().as_u64() == Some(PHASES_PID))
            .collect();
        assert_eq!(rows[0].get("name").unwrap().as_str(), Some("process_name"));
        let mut last_ts: std::collections::HashMap<u64, f64> = Default::default();
        let mut path_us = 0.0;
        for r in &rows {
            if r.get("ph").unwrap().as_str() == Some("X") {
                let tid = r.get("tid").unwrap().as_u64().unwrap();
                let ts = r.get("ts").unwrap().as_f64().unwrap();
                if let Some(&prev) = last_ts.get(&tid) {
                    assert!(ts >= prev, "track {tid} went backwards");
                }
                last_ts.insert(tid, ts);
                if tid == u64::from(a.client_count) {
                    path_us += r.get("dur").unwrap().as_f64().unwrap();
                }
            }
        }
        assert!(last_ts.len() > 1, "phase and critical-path tracks both present");
        assert!((path_us - cp.span_ns as f64 / 1000.0).abs() < 1e-6);
    }
}
