//! End-to-end checks of the telemetry layer: byte-determinism of the
//! JSON-lines and Prometheus exports across worker counts, the full alert
//! path of a drifting deployment — report, JSON-lines stream and Perfetto
//! timeline — and telemetry as a fold over the engine's events: counters
//! equal their trace events' counts, whatever the trace mode, and a Full
//! trace replays into the same telemetry.

mod common;
mod replay;

use faults::{BreakerConfig, FaultConfig, FaultPlan};
use lifecycle::{DeploymentPlan, LifecycleConfig, ModelDeployment};
use olympian::{OlympianScheduler, Profiler, ProfileStore, RoundRobin};
use serving::{
    run_experiment, workload, ClientSpec, EngineConfig, FifoScheduler, RunReport, TraceConfig,
};
use simtime::{SimDuration, SimTime};
use std::sync::Arc;
use telemetry::{Alert, BurnWindows, DriftConfig, SloSpec, TelemetryConfig};

const QUANTUM: SimDuration = SimDuration::from_micros(200);
const INTERVAL: SimDuration = SimDuration::from_micros(100);

/// Builds the profile store through `simpar::par_map` — the code path
/// `--jobs N` parallelizes — so the determinism test actually covers the
/// parallel harness.
fn store_for(cfg: &EngineConfig) -> Arc<ProfileStore> {
    let models = [models::mini::small(4), models::mini::branchy(2)];
    let profiles = simpar::par_map(&models, |_, m| Profiler::new(cfg).profile(m));
    let mut store = ProfileStore::new();
    for p in profiles {
        store.insert(p);
    }
    Arc::new(store)
}

fn clients() -> Vec<ClientSpec> {
    vec![
        ClientSpec::new(models::mini::small(4), 8),
        ClientSpec::new(models::mini::small(4), 8),
        ClientSpec::new(models::mini::branchy(2), 8),
    ]
}

/// A deployment whose device regressed 40% after profiling, with telemetry
/// and sampled tracing on: the profiles (and the latency objective,
/// calibrated on the fresh device by a probe run) are stale, so both the
/// streaming drift detector and the SLO burn-rate monitor fire mid-run.
fn drifted_run() -> RunReport {
    let fresh = EngineConfig::default();
    let store = store_for(&fresh);

    let probe_cfg = fresh.with_telemetry(TelemetryConfig::enabled(INTERVAL));
    let mut probe_sched =
        OlympianScheduler::new(Arc::clone(&store), Box::new(RoundRobin::new()), QUANTUM);
    let probe = run_experiment(&probe_cfg, clients(), &mut probe_sched);
    let fresh_p50_us = probe
        .telemetry
        .hist("run_latency_us")
        .expect("latency histogram")
        .p50;
    let objective = SimDuration::from_micros((fresh_p50_us * 1.15).ceil() as u64);

    let mut cfg = EngineConfig::default();
    cfg.device = gpusim::DeviceProfile::custom(
        "regressed",
        1.4,
        cfg.device.memory_bytes(),
        cfg.device.sm_count(),
        0.0,
    );
    let tc = TelemetryConfig::enabled(INTERVAL)
        .with_slo(SloSpec::new("mini-small", objective, 0.05))
        .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 })
        .with_drift(DriftConfig::new(QUANTUM, 0.25));
    let cfg = cfg.with_trace(TraceConfig::sampled()).with_telemetry(tc);
    let mut sched =
        OlympianScheduler::new(store, Box::new(RoundRobin::new()), QUANTUM);
    run_experiment(&cfg, clients(), &mut sched)
}

#[test]
fn telemetry_exports_are_byte_identical_across_job_counts() {
    std::env::remove_var(simpar::JOBS_ENV);
    let serial = drifted_run();
    assert!(serial.all_finished());
    let serial_jsonl = serial.telemetry_jsonl();
    let serial_prom = serial.prometheus_text();

    std::env::set_var(simpar::JOBS_ENV, "2");
    let parallel = drifted_run();
    std::env::remove_var(simpar::JOBS_ENV);

    assert_eq!(
        serial_jsonl,
        parallel.telemetry_jsonl(),
        "JSON-lines export must not depend on the worker count"
    );
    assert_eq!(
        serial_prom,
        parallel.prometheus_text(),
        "Prometheus export must not depend on the worker count"
    );
}

/// The fault-recovery counters are first-class registry members: they show
/// up in both exporters even for a healthy run (at zero), and count real
/// events when a fault plan is active.
#[test]
fn fault_recovery_counters_flow_through_both_exporters() {
    const KEYS: [&str; 6] = [
        "faults_kernel",
        "faults_alloc",
        "kernel_retries",
        "breaker_open_events",
        "clients_shed",
        "watchdog_revocations",
    ];

    let cfg = EngineConfig::default().with_telemetry(TelemetryConfig::enabled(INTERVAL));
    let store = store_for(&cfg);
    let mut sched =
        OlympianScheduler::new(Arc::clone(&store), Box::new(RoundRobin::new()), QUANTUM);
    let healthy = run_experiment(&cfg, clients(), &mut sched);
    let prom = healthy.prometheus_text();
    let jsonl = healthy.telemetry_jsonl();
    for key in KEYS {
        assert!(healthy.telemetry.counter(key).is_some(), "{key} not registered");
        assert!(prom.contains(&format!("olympian_{key} 0")), "{key} missing in prom");
        assert!(jsonl.contains(&format!("\"{key}\":0")), "{key} missing in jsonl");
    }

    let plan = serving::faults::FaultPlan::new().with_kernel_failures(0.05);
    let cfg = cfg.with_faults(serving::faults::FaultConfig::new(plan));
    let mut sched = OlympianScheduler::new(store, Box::new(RoundRobin::new()), QUANTUM);
    let faulted = run_experiment(&cfg, clients(), &mut sched);
    let faults = faulted.telemetry.counter("faults_kernel").expect("registered");
    assert!(faults > 0, "plan must fire");
    assert!(faulted
        .prometheus_text()
        .contains(&format!("olympian_faults_kernel {faults}")));
    assert!(faulted
        .telemetry_jsonl()
        .contains(&format!("\"faults_kernel\":{faults}")));
}

#[test]
fn drifting_deployment_alerts_in_report_stream_and_timeline() {
    let report = drifted_run();
    common::assert_counters_match_trace(&report);
    let t = &report.telemetry;
    assert!(t.enabled);
    assert_eq!(t.snapshots.len() as u64, t.expected_snapshots());
    assert!(
        t.alerts.iter().any(|a| a.kind() == "drift"),
        "regressed device must trip the drift detector: {:?}",
        t.alerts
    );
    assert!(
        t.alerts.iter().any(|a| a.kind() == "slo-burn"),
        "stale objective must burn its budget: {:?}",
        t.alerts
    );

    // Every JSON-lines line parses; the stream carries both alert kinds
    // and exactly the advertised snapshot/alert counts in time order.
    let jsonl = report.telemetry_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    let meta = microjson::Value::parse(lines[0]).expect("meta line parses");
    assert_eq!(meta.get("type").unwrap().as_str(), Some("meta"));
    let (mut snapshots, mut alerts, mut last_t) = (0u64, 0u64, 0u64);
    for line in &lines[1..] {
        let v = microjson::Value::parse(line).expect("every line parses");
        let at = v.get("t_ns").unwrap().as_u64().unwrap();
        assert!(at >= last_t, "stream regressed in time");
        last_t = at;
        match v.get("type").unwrap().as_str().unwrap() {
            "snapshot" => snapshots += 1,
            "alert" => alerts += 1,
            other => panic!("unexpected line type {other}"),
        }
    }
    assert_eq!(snapshots, meta.get("snapshots").unwrap().as_u64().unwrap());
    assert_eq!(alerts, meta.get("alerts").unwrap().as_u64().unwrap());
    assert!(jsonl.contains("\"kind\":\"drift\""));
    assert!(jsonl.contains("\"kind\":\"slo-burn\""));

    // The same alerts land on the Perfetto timeline as instant events.
    let trace_json = report.chrome_trace_json();
    assert!(trace_json.contains("\"drift-alert\""));
    assert!(trace_json.contains("\"slo-burn-alert\""));
    microjson::Value::parse(&trace_json).expect("chrome trace parses");
}

fn counter(report: &RunReport, name: &str) -> u64 {
    report.telemetry.counter(name).unwrap_or(0)
}

/// A run through every recovery path telemetry counts: kernel faults under
/// a hair-trigger breaker (it opens on each fault and sheds the client on
/// the third), admission faults, a device stall long enough to trip the
/// token-hold watchdog, a client whose run deadline is shorter than a run,
/// and a latecomer whose weights exceed the device.
fn recovery_run(trace: TraceConfig) -> RunReport {
    let cfg = EngineConfig::default().with_telemetry(TelemetryConfig::enabled(INTERVAL));
    let store = store_for(&cfg);
    let plan = FaultPlan::new()
        .with_kernel_failures(0.03)
        .with_alloc_failures(0.3)
        .with_stall(SimTime::from_millis(3), SimTime::from_millis(4));
    let breaker = BreakerConfig { failure_threshold: 1, max_trips: 3, ..BreakerConfig::default() };
    let small = models::mini::small(4);
    let too_big = models::LoadedModel::from_parts(
        "too-big",
        None,
        small.batch(),
        Arc::clone(small.graph()),
        cfg.device.memory_bytes() + 1,
        small.activation_bytes(),
    );
    let mut clients = clients();
    clients[2] = clients[2].clone().with_run_deadline(SimDuration::from_micros(300));
    clients.push(ClientSpec::new(too_big, 1).with_start(SimTime::from_millis(1)));
    let cfg = cfg.with_trace(trace).with_faults(FaultConfig::new(plan).with_breaker(breaker));
    let mut sched = OlympianScheduler::new(store, Box::new(RoundRobin::new()), QUANTUM)
        .with_watchdog(3.0);
    run_experiment(&cfg, clients, &mut sched)
}

/// Telemetry is folded from every event the engine records, not from the
/// trace ring, so the trace mode cannot change it.
#[test]
fn telemetry_does_not_depend_on_the_trace_mode() {
    let off = recovery_run(TraceConfig::off());
    assert!(off.trace.is_empty());
    let jsonl = off.telemetry_jsonl();
    for trace in [TraceConfig::sampled(), TraceConfig::full()] {
        let mode = trace.mode;
        // `assert!`, not `assert_eq!`: the streams run to hundreds of KiB.
        let same = jsonl == recovery_run(trace).telemetry_jsonl();
        assert!(same, "{mode:?} trace changed telemetry");
    }
}

#[test]
fn recovery_counters_match_the_trace() {
    let report = recovery_run(TraceConfig::full());
    common::assert_counters_match_trace(&report);
    for name in [
        "faults_kernel",
        "faults_alloc",
        "kernel_retries",
        "breaker_open_events",
        "clients_shed",
        "watchdog_revocations",
        "clients_rejected_oom",
        "runs_deadline_cancelled",
    ] {
        assert!(counter(&report, name) > 0, "{name} never fired");
    }
    // The fold raises the breaker and watchdog alerts, and one per shed
    // with the cause its event carries.
    let alerts = |actions: &[&str]| {
        let recovery = |a: &&Alert| {
            matches!(a, Alert::FaultRecovery { action, .. } if actions.contains(action))
        };
        report.telemetry.alerts.iter().filter(recovery).count() as u64
    };
    assert_eq!(alerts(&["breaker-open"]), counter(&report, "breaker_open_events"));
    assert_eq!(alerts(&["watchdog-revoke"]), counter(&report, "watchdog_revocations"));
    assert_eq!(alerts(&["retries-exhausted", "circuit-open"]), counter(&report, "clients_shed"));
}

/// Sheds, breakers, the watchdog, a deadline and an OOM latecomer: the
/// live telemetry is exactly the fold of the Full trace.
#[test]
fn recovery_telemetry_replays_from_the_full_trace() {
    let report = recovery_run(TraceConfig::full());
    replay::assert_telemetry_replays(&report, &TelemetryConfig::enabled(INTERVAL), &[]);
}

/// A two-device fleet under a Zipf stream of 400 arrivals whose hot set
/// rotates mid-run, with sampled tracing and 1 ms telemetry.
fn fleet_run() -> RunReport {
    const MODELS: usize = 6;
    const ARRIVALS: usize = 400;
    let tiny = models::mini::tiny(4);
    let zoo: Vec<models::LoadedModel> = (0..MODELS)
        .map(|i| {
            models::LoadedModel::from_parts(
                format!("zoo-{i}"),
                None,
                tiny.batch(),
                Arc::clone(tiny.graph()),
                32 << 20,
                tiny.activation_bytes(),
            )
        })
        .collect();
    let mut plan = DeploymentPlan::new();
    for m in &zoo {
        plan = plan.with_model(ModelDeployment::new(m.name(), m.clone()));
    }
    let devices = vec![gpusim::DeviceProfile::gtx_1080_ti(), gpusim::DeviceProfile::titan_x()];
    let cc = cluster::ClusterConfig::new(devices, LifecycleConfig::new(plan))
        .with_tick(SimDuration::from_millis(2));
    let cfg = EngineConfig::default()
        .with_cluster(cc)
        .with_trace(TraceConfig::sampled())
        .with_telemetry(TelemetryConfig::enabled(SimDuration::from_millis(1)));
    let picks = workload::zipf_models(ARRIVALS, MODELS, 1.2, ARRIVALS / 2, 5, 17);
    let spacing = SimDuration::from_micros(100);
    let arrivals = workload::uniform_arrivals(ARRIVALS, spacing, SimTime::ZERO);
    let clients = picks
        .into_iter()
        .zip(arrivals)
        .map(|(m, at)| ClientSpec::new(zoo[m].clone(), 1).with_start(at))
        .collect();
    run_experiment(&cfg, clients, &mut FifoScheduler::new())
}

/// Routes, reconfigurations and migrations reach the trace and the
/// counters alike.
#[test]
fn fleet_counters_match_the_trace() {
    let report = fleet_run();
    assert!(report.all_finished());
    common::assert_counters_match_trace(&report);
    for name in ["cluster_routes", "cluster_reconfigs", "cluster_migrations"] {
        assert!(counter(&report, name) > 0, "{name} never fired");
    }
}

/// 64-bit FNV-1a of a rendering, as 16 hex digits.
fn fnv1a(s: &str) -> String {
    let hash = s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// Digests of the JSON-lines, Prometheus and tsdb exports.
fn export_digests(report: &RunReport) -> [String; 3] {
    let mut tsdb = String::new();
    report.tsdb().to_json("run").write(&mut tsdb);
    [report.telemetry_jsonl(), report.prometheus_text(), tsdb].map(|text| fnv1a(&text))
}

/// The exports are pinned by digest on an open-loop fleet and on a
/// drifting deployment, so a change to how telemetry stores its snapshots
/// cannot move what it exports.
#[test]
fn exports_are_pinned() {
    let pinned = [
        (fleet_run(), ["4294ea9962fbf90f", "d5c5295c15788cba", "fe34c1282586ee25"]),
        (drifted_run(), ["fd757aef81d17b06", "eecd342a0c37b360", "a3758cff051a60c3"]),
    ];
    for (i, (report, want)) in pinned.iter().enumerate() {
        assert_eq!(export_digests(report), want.map(String::from), "cell {i}");
    }
}
