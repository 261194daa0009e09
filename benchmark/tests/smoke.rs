//! Smoke checks of the benchmark at tiny sizes: instrumentation leaves the
//! simulation byte-identical, both passes report exactly the metrics
//! `BENCHMARK.json` declares and pass their correctness checks, the gate
//! catches what it guards, and the command line ends with the summary.

use microjson::Value;
use olympian_benchmark::measure::{check, end_to_end, per_layer};
use olympian_benchmark::probe::Probes;
use olympian_benchmark::workload::{Mode, Workload, WORKLOADS};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = Value::parse(&text).expect("valid JSON");
    doc.field(section)
        .expect("section present")
        .as_array()
        .expect("a list")
        .iter()
        .map(|m| m.field("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

#[test]
fn instrumentation_leaves_every_workload_byte_identical() {
    for w in WORKLOADS {
        let plain = w.setup(1, true, Mode::Plain).run();
        let probes = Arc::new(Probes::default());
        let timed = w.setup(1, true, Mode::Timed(Arc::clone(&probes))).run();
        let recorded = w.setup(1, true, Mode::Record).run();
        let text = format!("{:?}", plain.report);
        assert_eq!(
            text,
            format!("{:?}", timed.report),
            "{}: timed run differs",
            w.name()
        );
        assert_eq!(
            text,
            format!("{:?}", recorded.report),
            "{}: recorded run differs",
            w.name()
        );
        assert!(
            probes.sched().0 > 0,
            "{}: scheduler hooks were not timed",
            w.name()
        );
        assert!(!recorded
            .capture
            .expect("recording run captures")
            .kernels
            .is_empty());
        if w == Workload::ChaosControl {
            assert!(probes.oracle.calls() > 0, "cost oracle was not timed");
            assert!(probes.binder.calls() > 0, "profile binder was not timed");
        }
    }
}

#[test]
fn both_passes_report_the_declared_metrics_and_pass_their_checks() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for w in WORKLOADS {
        let p = end_to_end(w, 1, true, Duration::ZERO);
        assert!(p.failures.is_empty(), "{}: {:?}", w.name(), p.failures);
        let names: Vec<&str> = p.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, e2e, "{}", w.name());
        for m in &p.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        assert_eq!(p.failed, 0, "{}", w.name());

        let t = per_layer(w, 1, true, Duration::ZERO);
        assert!(t.failures.is_empty(), "{}: {:?}", w.name(), t.failures);
        let names: Vec<&str> = t.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, layers, "{}", w.name());
        assert!(
            t.metrics.iter().all(|m| m.value.is_finite()),
            "{}",
            w.name()
        );
    }
}

#[test]
fn the_gate_catches_a_silent_fault_plan() {
    // The fault-free twin of chaos-control serves everyone, and the gate
    // refuses it: the workload exists to exercise recovery.
    let mut p = Workload::ChaosControl.setup(1, true, Mode::Plain);
    p.cfg.faults = None;
    let twin = p.run();
    assert!(twin.report.all_finished());
    let failures = check(Workload::ChaosControl, &twin.report);
    assert!(
        failures.iter().any(|f| f.contains("faults_kernel")),
        "{failures:?}"
    );
}

#[test]
fn the_command_line_ends_with_the_summary() {
    let bin = env!("CARGO_BIN_EXE_olympian-benchmark");
    let out = Command::new(bin)
        .args([
            "--workload",
            "fleet-zipf",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--smoke",
        ])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    let Value::Object(fields) = Value::parse(last).expect("JSON summary") else {
        panic!("summary is not an object: {last}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let doc = Value::Object(fields.clone());
    assert_eq!(doc.field("correct").unwrap().as_bool(), Some(true));
    assert!(doc.field("attempted").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(doc.field("failed").unwrap().as_u64(), Some(0));
    let Value::Object(metrics) = doc.field("metrics").unwrap() else {
        panic!("metrics is not an object");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, declared("end_to_end"));
    for (_, m) in metrics {
        assert!(m.field("value").unwrap().as_f64().is_some());
        assert!(m.field("unit").unwrap().as_str().is_some());
    }

    for args in [["--workload", "no-such"], ["--trace", "yes"]] {
        let bad = Command::new(bin).args(args).output().expect("runs");
        assert_eq!(bad.status.code(), Some(2), "{args:?}");
        assert!(bad.stdout.is_empty(), "{args:?}");
    }
}
