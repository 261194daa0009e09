//! Telemetry exporters: Prometheus text exposition and JSON-lines time
//! series.
//!
//! Both render from a finished [`TelemetryReport`] and are byte-
//! deterministic: iteration follows registration order and every number
//! derives from the deterministic simulation.
//!
//! The JSON-lines stream is one self-describing document per line:
//!
//! ```text
//! {"type":"meta", ...}        // names, cadence, counts — always first
//! {"type":"snapshot", ...}    // one per boundary, time order
//! {"type":"alert", ...}       // merged into the stream in time order
//! ```

use crate::{Alert, SnapshotView, TelemetryReport};
use microjson::Value;

fn f(v: f64) -> Value {
    Value::Float(v)
}

fn obj_line(out: &mut String, v: Value) {
    v.write(out);
    out.push('\n');
}

fn alert_value(a: &Alert) -> Value {
    match a {
        Alert::Drift { at, client, observed_us, expected_us, deviation } => {
            Value::Object(vec![
                ("type".into(), Value::str("alert")),
                ("kind".into(), Value::str("drift")),
                ("t_ns".into(), Value::UInt(at.as_nanos())),
                ("client".into(), Value::UInt(u64::from(*client))),
                ("observed_us".into(), f(*observed_us)),
                ("expected_us".into(), f(*expected_us)),
                ("deviation".into(), f(*deviation)),
            ])
        }
        Alert::SloBurn { at, slo, model, short_burn, long_burn } => Value::Object(vec![
            ("type".into(), Value::str("alert")),
            ("kind".into(), Value::str("slo-burn")),
            ("t_ns".into(), Value::UInt(at.as_nanos())),
            ("slo".into(), Value::UInt(u64::from(*slo))),
            ("model".into(), Value::Str(model.clone())),
            ("short_burn".into(), f(*short_burn)),
            ("long_burn".into(), f(*long_burn)),
        ]),
        Alert::FaultRecovery { at, client, action, detail } => Value::Object(vec![
            ("type".into(), Value::str("alert")),
            ("kind".into(), Value::str("fault-recovery")),
            ("t_ns".into(), Value::UInt(at.as_nanos())),
            ("client".into(), Value::UInt(u64::from(*client))),
            ("action".into(), Value::str(*action)),
            ("detail".into(), Value::UInt(*detail)),
        ]),
        Alert::Rollout { at, model, version, action, cand_us, base_us } => Value::Object(vec![
            ("type".into(), Value::str("alert")),
            ("kind".into(), Value::str("rollout")),
            ("t_ns".into(), Value::UInt(at.as_nanos())),
            ("model".into(), Value::Str(model.clone())),
            ("version".into(), Value::UInt(u64::from(*version))),
            ("action".into(), Value::str(*action)),
            ("candidate_us".into(), Value::UInt(*cand_us)),
            ("incumbent_us".into(), Value::UInt(*base_us)),
        ]),
    }
}

fn snapshot_value(r: &TelemetryReport, s: SnapshotView<'_>, client_gpu_ns: &[u64]) -> Value {
    let counters = r
        .counter_names
        .iter()
        .zip(s.counters)
        .map(|(n, v)| (n.to_string(), Value::UInt(*v)))
        .collect();
    let gauges = r
        .gauge_names
        .iter()
        .zip(s.gauges)
        .map(|(n, v)| (n.to_string(), f(*v)))
        .collect();
    let hists = r
        .hist_names
        .iter()
        .zip(s.hists)
        .map(|(n, h)| {
            (
                n.to_string(),
                Value::Object(vec![
                    ("count".into(), Value::UInt(h.count)),
                    ("sum".into(), Value::UInt(h.sum)),
                    ("max".into(), Value::UInt(h.max)),
                    ("p50".into(), f(h.p50)),
                    ("p99".into(), f(h.p99)),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("type".into(), Value::str("snapshot")),
        ("t_ns".into(), Value::UInt(s.at.as_nanos())),
        ("counters".into(), Value::Object(counters)),
        ("gauges".into(), Value::Object(gauges)),
        ("histograms".into(), Value::Object(hists)),
        (
            "client_gpu_ns".into(),
            Value::Array(client_gpu_ns.iter().map(|v| Value::UInt(*v)).collect()),
        ),
    ])
}

/// Renders the JSON-lines time series: a `meta` header line, then
/// snapshots and alerts merged in time order (alerts precede the snapshot
/// that closes their window).
pub fn json_lines(r: &TelemetryReport) -> String {
    let mut out = String::new();
    let slos = r
        .slos
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("model".into(), Value::Str(s.model.clone())),
                ("objective_us".into(), f(s.objective.as_micros_f64())),
                ("budget".into(), f(s.budget)),
            ])
        })
        .collect();
    let names = |ns: &[&'static str]| Value::Array(ns.iter().map(|n| Value::str(*n)).collect());
    obj_line(
        &mut out,
        Value::Object(vec![
            ("type".into(), Value::str("meta")),
            ("enabled".into(), Value::Bool(r.enabled)),
            ("interval_ns".into(), Value::UInt(r.interval.as_nanos())),
            ("makespan_ns".into(), Value::UInt(r.makespan.as_nanos())),
            ("snapshots".into(), Value::UInt(r.snapshots.len() as u64)),
            ("alerts".into(), Value::UInt(r.alerts.len() as u64)),
            ("counters".into(), names(&r.counter_names)),
            ("gauges".into(), names(&r.gauge_names)),
            ("histograms".into(), names(&r.hist_names)),
            (
                "clients".into(),
                Value::Array(r.client_models.iter().map(|m| Value::Str(m.clone())).collect()),
            ),
            ("slos".into(), Value::Array(slos)),
        ]),
    );
    // Merge: alerts at time <= a snapshot's boundary stream before it.
    let mut ai = 0;
    let mut rows = r.snapshots.cursor();
    while let Some((s, gpu)) = rows.advance() {
        while ai < r.alerts.len() && r.alerts[ai].at() <= s.at {
            obj_line(&mut out, alert_value(&r.alerts[ai]));
            ai += 1;
        }
        obj_line(&mut out, snapshot_value(r, s, gpu));
    }
    for a in &r.alerts[ai..] {
        obj_line(&mut out, alert_value(a));
    }
    out
}

fn push_prom_number(out: &mut String, v: f64) {
    // Prometheus accepts Go-style floats; plain `{}` formatting is
    // deterministic and round-trips.
    out.push_str(&format!("{v}"));
}

/// Escapes a HELP docstring per the 0.0.4 text format: backslash and
/// line feed only (quotes are legal in HELP text).
pub fn escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes a label value per the 0.0.4 text format: backslash, double
/// quote and line feed.
pub fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn push_prom_header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP olympian_{name} {}\n", escape_help(help)));
    out.push_str(&format!("# TYPE olympian_{name} {kind}\n"));
}

/// Renders the final registry state as Prometheus text exposition
/// (version 0.0.4): counters, gauges, summary-style histogram quantiles
/// and per-client GPU attribution. Label values and HELP strings are
/// escaped per the format (`\\`, `\"`, `\n`), so adversarial model names
/// cannot break the line structure.
pub fn prometheus_text(r: &TelemetryReport) -> String {
    let mut out = String::new();
    let mut rows = r.snapshots.cursor();
    let Some((last, last_gpu_ns)) = rows.advance_to_last() else {
        return out;
    };
    for (name, v) in r.counter_names.iter().zip(last.counters) {
        push_prom_header(&mut out, name, "counter", &format!("Telemetry counter {name}."));
        out.push_str(&format!("olympian_{name} {v}\n"));
    }
    for (name, v) in r.gauge_names.iter().zip(last.gauges) {
        push_prom_header(&mut out, name, "gauge", &format!("Telemetry gauge {name}."));
        out.push_str(&format!("olympian_{name} "));
        push_prom_number(&mut out, *v);
        out.push('\n');
    }
    for (name, h) in r.hist_names.iter().zip(last.hists) {
        push_prom_header(&mut out, name, "summary", &format!("Telemetry histogram {name}."));
        out.push_str(&format!("olympian_{name}{{quantile=\"0.5\"}} "));
        push_prom_number(&mut out, h.p50);
        out.push('\n');
        out.push_str(&format!("olympian_{name}{{quantile=\"0.99\"}} "));
        push_prom_number(&mut out, h.p99);
        out.push('\n');
        out.push_str(&format!("olympian_{name}_sum {}\n", h.sum));
        out.push_str(&format!("olympian_{name}_count {}\n", h.count));
    }
    push_prom_header(
        &mut out,
        "client_gpu_ns",
        "gauge",
        "Cumulative GPU time attributed to each client.",
    );
    for (client, gpu) in last_gpu_ns.iter().enumerate() {
        let model = r
            .client_models
            .get(client)
            .map(String::as_str)
            .unwrap_or("unknown");
        out.push_str(&format!(
            "olympian_client_gpu_ns{{client=\"{client}\",model=\"{}\"}} {gpu}\n",
            escape_label(model)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BurnWindows, DriftConfig, EngineGauges, SloSpec, TelemetryConfig, TelemetryHub,
    };
    use simtime::{SimDuration, SimTime};
    use trace::TraceKind;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn t(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    fn busy_report() -> TelemetryReport {
        let cfg = TelemetryConfig::enabled(us(100))
            .with_slo(SloSpec::new("m", us(100), 0.1))
            .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 })
            .with_drift(DriftConfig::new(us(200), 0.1));
        let mut h = TelemetryHub::new(&cfg, ["m"], []);
        h.observe(t(0), &TraceKind::ClientAdmitted { client: 0, device: 0 });
        let g = EngineGauges::default();
        for i in 0..6u64 {
            let quantum = TraceKind::QuantumEnd { job: i, client: 0, gpu: us(320) };
            h.observe(SimTime::from_micros(i * 80 + 10), &quantum);
            h.observe(t(400), &TraceKind::RunCompleted { job: i, client: 0, latency: us(400) });
            h.tick(SimTime::from_micros((i + 1) * 80), &g);
        }
        h.finalize(SimTime::from_micros(480), &g);
        h.into_report(SimTime::from_micros(480))
    }

    #[test]
    fn json_lines_parse_and_order() {
        let r = busy_report();
        let text = json_lines(&r);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() > 2);
        let meta = Value::parse(lines[0]).unwrap();
        assert_eq!(meta.get("type").unwrap().as_str(), Some("meta"));
        assert_eq!(
            meta.get("snapshots").unwrap().as_u64().unwrap(),
            r.snapshots.len() as u64
        );
        let mut snapshots = 0;
        let mut alerts = 0;
        let mut last_t = 0;
        for line in &lines[1..] {
            let v = Value::parse(line).expect("every line parses");
            let t = v.get("t_ns").unwrap().as_u64().unwrap();
            assert!(t >= last_t, "stream regressed in time");
            last_t = t;
            match v.get("type").unwrap().as_str().unwrap() {
                "snapshot" => snapshots += 1,
                "alert" => alerts += 1,
                other => panic!("unexpected line type {other}"),
            }
        }
        assert_eq!(snapshots, r.snapshots.len());
        assert_eq!(alerts, r.alerts.len());
        assert!(alerts >= 2, "expected both alert kinds in a drifting run");
        assert!(text.contains("\"kind\":\"drift\""));
        assert!(text.contains("\"kind\":\"slo-burn\""));
    }

    #[test]
    fn prometheus_exposition_is_wellformed() {
        let r = busy_report();
        let text = prometheus_text(&r);
        assert!(text.contains("# TYPE olympian_runs_completed counter\n"));
        assert!(text.contains("olympian_runs_completed 6\n"));
        assert!(text.contains("# TYPE olympian_quantum_us summary\n"));
        assert!(text.contains("olympian_quantum_us_count 6\n"));
        assert!(text.contains("olympian_client_gpu_ns{client=\"0\",model=\"m\"}"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("metric line shape");
            assert!(name.starts_with("olympian_"), "bad metric name {name}");
            value.parse::<f64>().unwrap_or_else(|_| panic!("bad value {value}"));
        }
    }

    /// Inverse of the 0.0.4 label-value escaping, for the round-trip
    /// check below.
    fn unescape_label(s: &str) -> String {
        let mut out = String::new();
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('n') => out.push('\n'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        }
        out
    }

    #[test]
    fn adversarial_label_values_roundtrip() {
        const EVIL: &str = "mo\\del \"v2\"\nwith newline";
        let cfg = TelemetryConfig::enabled(us(100));
        let mut h = TelemetryHub::new(&cfg, [EVIL], []);
        h.observe(t(0), &TraceKind::ClientAdmitted { client: 0, device: 0 });
        let quantum = TraceKind::QuantumEnd { job: 0, client: 0, gpu: us(50) };
        h.observe(SimTime::from_micros(10), &quantum);
        h.observe(t(60), &TraceKind::RunCompleted { job: 0, client: 0, latency: us(60) });
        h.finalize(SimTime::from_micros(100), &EngineGauges::default());
        let r = h.into_report(SimTime::from_micros(100));
        let text = prometheus_text(&r);

        // The exposition stays line-structured: every line is a comment
        // or `name[{labels}] value` — the raw newline never leaks.
        let gpu_line = text
            .lines()
            .find(|l| l.starts_with("olympian_client_gpu_ns{"))
            .expect("per-client gpu line");
        let (_, rest) = gpu_line.split_once("model=\"").unwrap();
        let (escaped, _) = rest.rsplit_once("\"}").unwrap();
        assert_eq!(escaped, "mo\\\\del \\\"v2\\\"\\nwith newline");
        assert_eq!(unescape_label(escaped), EVIL, "escape/unescape must round-trip");
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.rsplit_once(' ').is_some(), "metric line shape broke: {line:?}");
        }
    }

    #[test]
    fn help_lines_escape_and_precede_types() {
        let r = busy_report();
        let text = prometheus_text(&r);
        let help = text.find("# HELP olympian_runs_completed").expect("HELP line");
        let ty = text.find("# TYPE olympian_runs_completed").expect("TYPE line");
        assert!(help < ty, "HELP must precede TYPE");
        assert_eq!(escape_help("a\\b\nc\"d"), "a\\\\b\\nc\"d");
        assert_eq!(escape_label("a\\b\nc\"d"), "a\\\\b\\nc\\\"d");
    }

    #[test]
    fn exports_are_byte_stable() {
        let a = busy_report();
        let b = busy_report();
        assert_eq!(json_lines(&a), json_lines(&b));
        assert_eq!(prometheus_text(&a), prometheus_text(&b));
    }

    #[test]
    fn empty_report_renders_empty() {
        let r = TelemetryReport::default();
        assert_eq!(prometheus_text(&r), "");
        let text = json_lines(&r);
        assert_eq!(text.lines().count(), 1, "meta line only");
    }
}
