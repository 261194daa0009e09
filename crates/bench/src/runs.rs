//! The catalog of named runs an operator replays: `smoke`, `drifted`,
//! `timeline` and `fig11`.
//!
//! Each entry is the function a report calls: `timeline` and `fig11`
//! render the figures of those names, and [`drifted`] is the profile-drift
//! incident behind the `telemetry` and `blame` reports and, at a deeper
//! regression, the open cell of `closedloop`. `olympctl
//! trace|metrics|blame|top` look the same functions up by name through
//! [`lookup`]. The caller chooses how a run is observed: the trace mode
//! and, when telemetry is on, its snapshot cadence.

use crate::figs::fair;
use crate::{
    build_store_for, choose_q, default_config, homogeneous_clients, DEFAULT_BATCH,
    DEFAULT_NUM_BATCHES, DEFAULT_TOLERANCE,
};
use models::ModelKind;
use olympian::ProfileStore;
use serving::{run_experiment, ClientSpec, EngineConfig, RunReport, TraceConfig};
use simtime::SimDuration;
use std::sync::{Arc, OnceLock};
use telemetry::{BurnWindows, DriftConfig, SloSpec, TelemetryConfig};

/// The scheduling quantum of the mini-model runs (`smoke`, `drifted`).
pub const QUANTUM: SimDuration = SimDuration::from_micros(200);
/// How much the `drifted` entry's device regressed after profiling.
pub const DRIFT: f64 = 1.4;
/// Burn-rate windows of the drift incidents: one- and two-snapshot
/// windows, alerting at twice the budgeted error rate.
pub const BURN: BurnWindows = BurnWindows { short: 1, long: 2, threshold: 2.0 };

/// A catalog run's report and the values its set-up chose.
#[derive(Debug)]
pub struct Run {
    /// The report, with the trace and telemetry the caller asked for.
    pub report: RunReport,
    /// The scheduling quantum the run used.
    pub quantum: SimDuration,
    /// The latency objective the run's SLO holds it to, if it has one.
    pub objective: Option<SimDuration>,
}

/// A catalog entry: given the trace mode and, for telemetry, the snapshot
/// cadence, runs the experiment.
pub type RunFn = fn(TraceConfig, Option<SimDuration>) -> Run;

/// Every named run, smallest first.
pub const CATALOG: [(&str, RunFn); 4] = [
    ("smoke", smoke),
    ("drifted", |trace, cadence| drifted(DRIFT, trace, cadence)),
    ("timeline", timeline),
    ("fig11", fig11),
];

/// Looks a run up by name.
///
/// # Errors
///
/// An unknown name, listing the catalog.
pub fn lookup(name: &str) -> Result<RunFn, String> {
    let names = || CATALOG.iter().map(|&(n, _)| n).collect::<Vec<_>>().join(", ");
    let entry = CATALOG.iter().find(|&&(n, _)| n == name).map(|&(_, f)| f);
    entry.ok_or_else(|| format!("unknown run {name:?}; available: {}", names()))
}

/// `cfg` observed as the caller asked: `trace`, plus telemetry every
/// `cadence`, shaped by `shape`, when a cadence is given.
fn observe(
    cfg: EngineConfig,
    trace: TraceConfig,
    cadence: Option<SimDuration>,
    shape: impl FnOnce(TelemetryConfig) -> TelemetryConfig,
) -> EngineConfig {
    let telemetry =
        cadence.map_or_else(TelemetryConfig::off, |c| shape(TelemetryConfig::enabled(c)));
    cfg.with_trace(trace).with_telemetry(telemetry)
}

/// The latency objective a fresh device promises `clients`: the median
/// run latency of a fair-shared probe at [`QUANTUM`] on the default
/// device, plus a 15% margin. A healthy deployment meets it; a regressed
/// one cannot. (The probe's snapshot cadence does not move its latency
/// histogram.)
pub fn fresh_objective(clients: &[ClientSpec], store: &Arc<ProfileStore>) -> SimDuration {
    let cadence = SimDuration::from_micros(100);
    let cfg = default_config().with_telemetry(TelemetryConfig::enabled(cadence));
    let mut sched = fair(Arc::clone(store), QUANTUM);
    let probe = run_experiment(&cfg, clients.to_vec(), &mut sched);
    let p50_us = probe.telemetry.hist("run_latency_us").expect("telemetered probe").p50;
    SimDuration::from_micros((p50_us * 1.15).ceil() as u64)
}

/// The default device with every duration stretched `regression`× and
/// its memory and SM count unchanged.
pub fn regressed_device(regression: f64) -> gpusim::DeviceProfile {
    let device = default_config().device;
    let (memory, sms) = (device.memory_bytes(), device.sm_count());
    gpusim::DeviceProfile::custom("regressed", regression, memory, sms, 0.0)
}

/// CI-sized healthy run: three `mini-small` clients × 3 batches,
/// fair-shared at [`QUANTUM`]. It takes milliseconds, yet every event
/// kind but deadline-cancel appears; with telemetry on, a generous 1 s
/// objective fills every counter and histogram and no monitor fires.
pub fn smoke(trace: TraceConfig, cadence: Option<SimDuration>) -> Run {
    let clients = vec![ClientSpec::new(models::mini::small(4), 3); 3];
    let objective = SimDuration::from_secs(1);
    let slo = SloSpec::new(clients[0].model.name(), objective, 0.05);
    let cfg = observe(default_config(), trace, cadence, |t| t.with_slo(slo));
    let store = build_store_for(&cfg, &clients);
    let mut sched = fair(store, QUANTUM);
    let report = run_experiment(&cfg, clients, &mut sched);
    Run { report, quantum: QUANTUM, objective: Some(objective) }
}

/// The drift incidents' workload: three `mini-small` clients × 10 batches.
pub fn drifted_workload() -> Vec<ClientSpec> {
    vec![ClientSpec::new(models::mini::small(4), 10); 3]
}

/// The profile-drift incident: [`drifted_workload`] is profiled and given
/// its [`fresh_objective`] on the fresh device, then fair-shared at
/// [`QUANTUM`] on a device that regressed `regression`×. With telemetry
/// on, the objective is the SLO, burning at [`BURN`], and a drift
/// detector expects `Q`-sized quanta within 25%: the quanta overshoot
/// `Q`, so the detector flags the stale profiles mid-run, and the runs
/// breach the objective, so the burn-rate monitor fires too.
pub fn drifted(regression: f64, trace: TraceConfig, cadence: Option<SimDuration>) -> Run {
    let clients = drifted_workload();
    let store = build_store_for(&default_config(), &clients);
    let objective = fresh_objective(&clients, &store);
    let slo = SloSpec::new(clients[0].model.name(), objective, 0.05);
    let cfg = EngineConfig { device: regressed_device(regression), ..default_config() };
    let cfg = observe(cfg, trace, cadence, |t| {
        t.with_slo(slo).with_burn(BURN).with_drift(DriftConfig::new(QUANTUM, 0.25))
    });
    let mut sched = fair(store, QUANTUM);
    let report = run_experiment(&cfg, clients, &mut sched);
    Run { report, quantum: QUANTUM, objective: Some(objective) }
}

/// The timeline figure's run: five Inception clients fair-shared at
/// Q = 1.2 ms.
pub fn timeline(trace: TraceConfig, cadence: Option<SimDuration>) -> Run {
    let cfg = observe(default_config(), trace, cadence, |t| t);
    let clients =
        homogeneous_clients(ModelKind::InceptionV4, DEFAULT_BATCH, 5, DEFAULT_NUM_BATCHES);
    let store = build_store_for(&cfg, &clients);
    let quantum = SimDuration::from_micros(1200);
    let mut sched = fair(store, quantum);
    let report = run_experiment(&cfg, clients, &mut sched);
    Run { report, quantum, objective: None }
}

/// Olympian's side of Figures 11 and 12: ten Inception clients
/// fair-shared at the quantum the Overhead-Q curves pick for the
/// [`DEFAULT_TOLERANCE`] of 2.5%. (The `overhead` report runs the same
/// workload at the quantum picked for 2%, under a Full trace.)
pub fn fig11(trace: TraceConfig, cadence: Option<SimDuration>) -> Run {
    let cfg = observe(default_config(), trace, cadence, |t| t);
    let clients =
        homogeneous_clients(ModelKind::InceptionV4, DEFAULT_BATCH, 10, DEFAULT_NUM_BATCHES);
    let store = build_store_for(&cfg, &clients);
    let quantum = choose_q(&cfg, &clients, DEFAULT_TOLERANCE);
    let mut sched = fair(store, quantum);
    let report = run_experiment(&cfg, clients, &mut sched);
    Run { report, quantum, objective: None }
}

/// [`fig11`] untraced and unmetered, simulated once per process: the
/// Figure 11 and Figure 12 reports both read it. Catalog lookups still
/// simulate [`fig11`] afresh in the trace mode they ask for.
pub fn fig11_untraced() -> &'static Run {
    static RUN: OnceLock<Run> = OnceLock::new();
    RUN.get_or_init(|| fig11(TraceConfig::off(), None))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_unknown_ones_list_the_catalog() {
        let mut names: Vec<&str> = CATALOG.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATALOG.len());
        let err = lookup("ghost").unwrap_err();
        assert_eq!(err, "unknown run \"ghost\"; available: smoke, drifted, timeline, fig11");
    }

    #[test]
    fn smoke_traces_and_meters_a_healthy_run() {
        assert!(!smoke(TraceConfig::off(), None).report.telemetry.enabled);
        let report = smoke(TraceConfig::sampled(), Some(SimDuration::from_micros(100))).report;
        assert!(report.all_finished());
        assert_eq!(report.trace.dropped, 0);
        // Sampled mode records scheduling events but no kernels.
        let events = &report.trace.events;
        assert!(events.iter().any(|e| matches!(e.kind, trace::TraceKind::TokenGrant { .. })));
        assert!(!events.iter().any(|e| e.kind.is_kernel()));
        let doc = microjson::Value::parse(&report.chrome_trace_json()).expect("valid JSON");
        assert!(doc.get("traceEvents").unwrap().as_array().unwrap().len() > 4);
        let t = &report.telemetry;
        assert_eq!(t.snapshots.len() as u64, t.expected_snapshots());
        assert_eq!(t.counter("clients_admitted"), Some(3));
        assert_eq!(t.counter("runs_completed"), Some(9));
        assert!(t.hist("quantum_us").unwrap().count > 0);
        assert!(t.alerts.is_empty(), "healthy run must not alert: {:?}", t.alerts);
    }

    #[test]
    fn drifted_alerts_land_on_the_trace() {
        let run = drifted(DRIFT, TraceConfig::sampled(), Some(SimDuration::from_micros(100)));
        assert!(run.report.all_finished());
        let t = &run.report.telemetry;
        assert_eq!(t.snapshots.len() as u64, t.expected_snapshots());
        for counter in ["alerts_drift", "alerts_slo_burn", "slo_breaches"] {
            assert!(t.counter(counter).unwrap() >= 1, "{counter}");
        }
        let json = run.report.chrome_trace_json();
        assert!(json.contains("\"drift-alert\""));
        assert!(json.contains("\"slo-burn-alert\""));
        // The objective comes from the fresh device, whatever the drift.
        assert_eq!(drifted(2.3, TraceConfig::off(), None).objective, run.objective);
    }
}
