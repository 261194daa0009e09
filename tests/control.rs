//! Integration tests for the closed-loop control plane: degradation-ladder
//! hysteresis at engine level, the Shedding admission gate, and
//! byte-determinism of controlled runs across worker counts.

mod common;

use olympian::{OlympianScheduler, Profiler, ProfileStore, RoundRobin, StoreCostOracle};
use serving::faults::{FaultConfig, FaultPlan};
use serving::{run_experiment, ClientOutcome, ClientSpec, EngineConfig, RunReport, TraceConfig};
use simtime::{SimDuration, SimTime};
use std::sync::Arc;
use telemetry::{BurnWindows, DriftConfig, SloSpec, TelemetryConfig};

const QUANTUM: SimDuration = SimDuration::from_micros(200);
const CADENCE: SimDuration = SimDuration::from_micros(500);

/// Profiles the full batch and the Degraded-rung shrunk batch, so a ladder
/// escalation can re-register jobs at the smaller hint without a miss.
fn store_with_shrunk_batch(cfg: &EngineConfig, full_batch: u64) -> Arc<ProfileStore> {
    let divisor = controlplane::ControlConfig::new().batch_divisor;
    let mut store = ProfileStore::new();
    let profiler = Profiler::new(cfg);
    store.insert(profiler.profile(&models::mini::small(full_batch)));
    store.insert(profiler.profile(&models::mini::small((full_batch / divisor).max(1))));
    Arc::new(store)
}

fn fair(store: Arc<ProfileStore>) -> OlympianScheduler {
    OlympianScheduler::new(store, Box::new(RoundRobin::new()), QUANTUM)
}

fn counter(report: &RunReport, name: &str) -> u64 {
    report.telemetry.counter(name).unwrap_or(0)
}

/// The chaos `drift` incident at engine level: a sustained 1.4x slowdown
/// during [1ms, 50ms), profiles and objective from the healthy device.
/// Burn episodes during the window must walk the ladder up (shrinking
/// batch hints on the way); the quiet tail after the window must walk it
/// back down through the cool-window hysteresis — both edges visible as
/// counted, traced transitions.
#[test]
fn ladder_walks_up_under_burn_and_back_down_in_the_quiet_tail() {
    let clients = vec![ClientSpec::new(models::mini::small(4), 6); 6];
    let model_name = clients[0].model.name().to_string();
    let base = EngineConfig::default();
    let store = store_with_shrunk_batch(&base, 4);

    // Objective from the fault-free twin.
    let probe_cfg = base.with_telemetry(TelemetryConfig::enabled(CADENCE));
    let probe = run_experiment(&probe_cfg, clients.clone(), &mut fair(Arc::clone(&store)));
    let p50 = probe.telemetry.hist("run_latency_us").expect("probe histogram").p50;
    let objective = SimDuration::from_micros((p50 * 1.15).ceil() as u64);

    let plan = FaultPlan::new().with_slowdown(
        1.4,
        SimTime::from_millis(1),
        SimTime::from_millis(50),
    );
    let cfg = base
        .with_trace(TraceConfig::sampled())
        .with_telemetry(
            TelemetryConfig::enabled(CADENCE)
                .with_slo(SloSpec::new(&model_name, objective, 0.05))
                .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 }),
        )
        .with_faults(FaultConfig::new(plan))
        .with_control(controlplane::ControlConfig::new());
    let report = run_experiment(&cfg, clients, &mut fair(store));
    common::assert_counters_match_trace(&report);

    // Nobody is dropped: every client was admitted before the first burn,
    // so the ladder degrades accepted work instead of shedding sessions.
    assert!(report.all_finished(), "outcomes: {:?}",
        report.clients.iter().map(|c| &c.outcome).collect::<Vec<_>>());
    assert_eq!(counter(&report, "clients_admission_shed"), 0);

    // Up edge: repeated burn episodes escalate, and the Degraded rung
    // hands shrunk batch hints to re-registering runs.
    assert!(counter(&report, "alerts_slo_burn") >= 2, "burn alerts must repeat");
    assert!(counter(&report, "control_transitions") >= 2);
    assert!(counter(&report, "control_batch_shrinks") >= 1);
    let json = report.chrome_trace_json();
    assert!(json.contains("\"control-healthy-to-degraded\""));

    // Down edge: the quiet tail after the slowdown window clears the burn,
    // and a full cool window later the ladder steps back down.
    assert!(
        json.contains("\"control-degraded-to-healthy\"")
            || json.contains("\"control-shedding-to-degraded\""),
        "no downward transition on the trace"
    );
}

/// The Shedding rung refuses sessions that arrive while it holds: a client
/// starting after the ladder has escalated twice is turned away with
/// `AdmissionShed` before any memory or scheduler state is touched.
#[test]
fn shedding_rung_refuses_a_late_admission() {
    let base = EngineConfig::default();
    let store = store_with_shrunk_batch(&base, 4);
    let model_name = "mini-small";

    // An objective no run can meet: breaches are counted as runs complete
    // (from ~5ms under 3-way fair sharing), the windows after that burn,
    // and the ladder escalates Healthy -> Degraded -> Shedding by ~19ms —
    // well before the straggler shows up at 25ms.
    let objective = SimDuration::from_micros(100);
    let mut clients = vec![ClientSpec::new(models::mini::small(4), 4); 3];
    clients.push(
        ClientSpec::new(models::mini::small(4), 1).with_start(SimTime::from_millis(25)),
    );

    let cfg = base
        .with_trace(TraceConfig::sampled())
        .with_telemetry(
            TelemetryConfig::enabled(SimDuration::from_micros(200))
                .with_slo(SloSpec::new(model_name, objective, 0.05))
                .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 }),
        )
        .with_control(
            // A cool window longer than the run: once burns escalate the
            // ladder it stays up, so the straggler meets the Shedding gate.
            controlplane::ControlConfig::new()
                .with_cool_window(SimDuration::from_millis(50)),
        );
    let report = run_experiment(&cfg, clients, &mut fair(store));
    common::assert_counters_match_trace(&report);

    assert_eq!(counter(&report, "clients_admission_shed"), 1);
    assert!(matches!(
        report.clients[3].outcome,
        ClientOutcome::AdmissionShed { .. }
    ));
    // The first three were admitted while Healthy and are never evicted.
    assert_eq!(report.finished_count(), 3);
    assert!(report.chrome_trace_json().contains("\"admission-shed\""));
}

/// On a device that slowed down 2.3x after profiling, the drift detector
/// fires and the control plane rebinds the drifting model's profile in-run
/// through the cost oracle; the rebind reaches the trace and the counters
/// alike.
#[test]
fn drift_alert_rebinds_the_profile_in_run() {
    let mut cfg = EngineConfig::default();
    let store = store_with_shrunk_batch(&cfg, 4);
    cfg.device = gpusim::DeviceProfile::custom(
        "regressed",
        2.3,
        cfg.device.memory_bytes(),
        cfg.device.sm_count(),
        0.0,
    );
    let cfg = cfg
        .with_trace(TraceConfig::sampled())
        .with_telemetry(
            TelemetryConfig::enabled(CADENCE).with_drift(DriftConfig::new(QUANTUM, 0.25)),
        )
        .with_control(
            controlplane::ControlConfig::new()
                .with_cost(StoreCostOracle::new(Arc::clone(&store))),
        );
    let clients = vec![ClientSpec::new(models::mini::small(4), 6); 3];
    let report = run_experiment(&cfg, clients, &mut fair(store));
    common::assert_counters_match_trace(&report);
    assert!(counter(&report, "alerts_drift") >= 1);
    assert!(counter(&report, "control_profile_rebinds") >= 1);
}

/// Renders a controlled run to the digits the reports print, so the byte
/// comparison is as strict as the real output.
fn render(report: &RunReport) -> String {
    format!(
        "makespan={:.9}s events={} finishes={:?} transitions={} shrinks={} \
         rebinds={} cancels={} sheds={}",
        report.makespan.as_secs_f64(),
        report.event_count,
        report.finish_times_secs(),
        counter(report, "control_transitions"),
        counter(report, "control_batch_shrinks"),
        counter(report, "control_profile_rebinds"),
        counter(report, "control_laxity_cancels"),
        counter(report, "clients_admission_shed"),
    )
}

/// One seed-forked closed-loop replication: control plane on, drift
/// recalibration live through the cost oracle, deadline-bound clients.
/// Traced, so every replication also checks its counters against its
/// events.
fn replication(seed: u64) -> String {
    let base = EngineConfig::default().with_seed(seed * 7919 + 13);
    let store = store_with_shrunk_batch(&base, 4);
    let run_d = store
        .resolve("mini-small", 4)
        .expect("profiled")
        .gpu_duration;
    let objective = SimDuration::from_micros(2_000);
    let cfg = base
        .with_trace(TraceConfig::sampled())
        .with_telemetry(
            TelemetryConfig::enabled(CADENCE)
                .with_slo(SloSpec::new("mini-small", objective, 0.05))
                .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 })
                .with_drift(DriftConfig::new(run_d, 0.25)),
        )
        .with_control(
            controlplane::ControlConfig::new()
                .with_cost(StoreCostOracle::new(Arc::clone(&store))),
        );
    let clients =
        vec![ClientSpec::new(models::mini::small(4), 3).with_run_deadline(objective); 4];
    let report = run_experiment(&cfg, clients, &mut fair(store));
    common::assert_counters_match_trace(&report);
    render(&report)
}

/// The closed loop must not cost determinism: replications through the
/// parallel harness are byte-identical to serial, and a same-seed rerun
/// reproduces the same controlled report exactly.
#[test]
fn closed_loop_reports_are_byte_identical_across_jobs() {
    let seeds: Vec<u64> = (0..8).collect();
    let serial = simpar::par_map_jobs(1, &seeds, |_, &s| replication(s));
    let parallel = simpar::par_map_jobs(8, &seeds, |_, &s| replication(s));
    assert_eq!(serial, parallel);
    // Same seed, fresh store and oracle: identical bytes.
    assert_eq!(replication(3), replication(3));
}
