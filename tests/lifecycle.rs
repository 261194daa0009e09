//! End-to-end checks of the model-lifecycle manager: byte-determinism of
//! every export across worker counts, memory-budgeted eviction churn that
//! never exceeds the device, canary rollouts that promote a healthy
//! version 2 and roll back a regressed one, whose telemetry replays from
//! their Full traces, and managed and unmanaged clients mixed in one run.

mod common;
mod replay;

use common::fnv1a;
use dataflow::NodeId;
use lifecycle::{CanaryConfig, DeploymentPlan, LifecycleConfig, ModelDeployment};
use olympian::{OlympianScheduler, ProfileStore, StoreBinder};
use serving::cluster::ClusterConfig;
use serving::{
    run_experiment, ClientOutcome, ClientSpec, EngineConfig, FifoScheduler, JobCtx, JobId,
    RegisterError, RunReport, Scheduler, TraceConfig, Verdict,
};
use simtime::{SimDuration, SimTime};
use std::sync::Arc;
use telemetry::TelemetryConfig;
use trace::TraceKind;

const QUANTUM: SimDuration = SimDuration::from_micros(200);
const CADENCE: SimDuration = SimDuration::from_micros(500);
const CANARY: CanaryConfig = CanaryConfig { stride: 3, min_runs: 4 };

/// Rebadges a mini zoo model as the named service; `regressed` picks a
/// much heavier graph (the unhealthy canary candidate).
fn service(name: &str, regressed: bool) -> models::LoadedModel {
    let m = if regressed { models::mini::small(4) } else { models::mini::tiny(4) };
    models::LoadedModel::from_parts(
        name,
        None,
        m.batch(),
        Arc::clone(m.graph()),
        m.weights_bytes(),
        m.activation_bytes(),
    )
}

/// Engine + empty store wired to a calibrated per-version binder; jobs of
/// managed models register under `"{name}@v{n}"` and resolve against the
/// store's dynamic section.
fn lifecycle_cfg(mut cfg: EngineConfig, plan: DeploymentPlan) -> (EngineConfig, Arc<ProfileStore>) {
    cfg = cfg
        .with_trace(TraceConfig::sampled())
        .with_telemetry(TelemetryConfig::enabled(CADENCE));
    let store = Arc::new(ProfileStore::new());
    let binder = StoreBinder::calibrate(&cfg, &plan, Arc::clone(&store));
    let lc = LifecycleConfig::new(plan).with_canary(CANARY).with_binder(binder);
    (cfg.with_lifecycle(lc), store)
}

fn fair(store: Arc<ProfileStore>) -> OlympianScheduler {
    OlympianScheduler::new(store, Box::new(olympian::RoundRobin::new()), QUANTUM)
}

/// Six single-version services on a device whose memory fits three weight
/// sets: residency churns through cost-aware eviction.
fn churn_run() -> RunReport {
    const SERVICES: usize = 6;
    let probe = service("probe", false);
    let budget =
        3 * probe.weights_bytes() + SERVICES as u64 * probe.activation_bytes() + (64 << 10);
    let mut plan = DeploymentPlan::new();
    for i in 0..SERVICES {
        let name = format!("svc-{i}");
        plan = plan.with_model(ModelDeployment::new(name.clone(), service(&name, false)));
    }
    let cfg = EngineConfig {
        device: gpusim::DeviceProfile::custom("lifecycle-lab", 1.0, budget, 8, 0.0),
        ..EngineConfig::default()
    };
    let (cfg, store) = lifecycle_cfg(cfg, plan);
    let clients: Vec<ClientSpec> = (0..SERVICES)
        .map(|i| {
            ClientSpec::new(service(&format!("svc-{i}"), false), 4)
                .with_start(SimTime::ZERO + SimDuration::from_micros(150 * i as u64))
                .with_think_time(SimDuration::from_micros(800))
        })
        .collect();
    run_experiment(&cfg, clients, &mut fair(store))
}

/// One deployment publishing version 2 mid-run; the candidate is either a
/// twin of version 1 (healthy) or a far heavier graph (regressed).
fn canary_run(regressed: bool, trace: TraceConfig) -> RunReport {
    let plan = DeploymentPlan::new().with_model(
        ModelDeployment::new("svc", service("svc", false))
            .with_version(service("svc", regressed), SimTime::from_micros(500)),
    );
    let (cfg, store) = lifecycle_cfg(EngineConfig::default(), plan);
    let clients = vec![ClientSpec::new(service("svc", false), 16); 3];
    run_experiment(&cfg.with_trace(trace), clients, &mut fair(store))
}

fn no_stalls(r: &RunReport) {
    for c in &r.clients {
        assert!(
            !matches!(c.outcome, ClientOutcome::Stalled),
            "client {} wedged: {:?}",
            c.client.0,
            c.outcome
        );
    }
}

#[test]
fn lifecycle_exports_are_byte_identical_across_job_counts() {
    std::env::remove_var(simpar::JOBS_ENV);
    let serial_churn = churn_run();
    let serial_canary = canary_run(true, TraceConfig::sampled());

    std::env::set_var(simpar::JOBS_ENV, "2");
    let parallel_churn = churn_run();
    let parallel_canary = canary_run(true, TraceConfig::sampled());
    std::env::remove_var(simpar::JOBS_ENV);

    // The serial exports are pinned too: they hold the eviction, unload,
    // canary-rollback and drain rows, which no other pinned export does.
    for (label, a, b, trace_digest) in [
        ("churn", &serial_churn, &parallel_churn, "487720be021aca74"),
        ("canary", &serial_canary, &parallel_canary, "584a3ea3eed6a713"),
    ] {
        assert_eq!(fnv1a(&a.chrome_trace_json()), trace_digest, "{label}: Perfetto export moved");
        assert_eq!(a.makespan, b.makespan, "{label} makespan");
        assert_eq!(
            a.telemetry_jsonl(),
            b.telemetry_jsonl(),
            "{label}: JSON-lines export must not depend on the worker count"
        );
        assert_eq!(
            a.prometheus_text(),
            b.prometheus_text(),
            "{label}: Prometheus export must not depend on the worker count"
        );
        assert_eq!(
            a.chrome_trace_json(),
            b.chrome_trace_json(),
            "{label}: Perfetto export must not depend on the worker count"
        );
    }
}

#[test]
fn churn_evicts_reloads_and_stays_under_budget() {
    let r = churn_run();
    assert!(r.all_finished(), "every churn client must finish");
    no_stalls(&r);
    common::assert_counters_match_trace(&r);
    let t = &r.telemetry;
    assert!(t.counter("versions_evicted").unwrap() >= 1, "eviction must fire");
    assert!(
        t.counter("versions_loaded").unwrap() > 6,
        "evicted services must reload on demand"
    );
    let probe = service("probe", false);
    let budget = 3 * probe.weights_bytes() + 6 * probe.activation_bytes() + (64 << 10);
    assert!(r.peak_memory <= budget, "peak {} over budget {budget}", r.peak_memory);
}

#[test]
fn canary_promotes_healthy_and_rolls_back_regressed() {
    let healthy = canary_run(false, TraceConfig::sampled());
    assert!(healthy.all_finished());
    no_stalls(&healthy);
    common::assert_counters_match_trace(&healthy);
    assert_eq!(healthy.telemetry.counter("canary_promotions"), Some(1));
    assert_eq!(healthy.telemetry.counter("canary_rollbacks"), Some(0));
    // Pinned: the only export holding a canary-promote row.
    assert_eq!(fnv1a(&healthy.chrome_trace_json()), "254ef7d99bd2f81e");

    let regressed = canary_run(true, TraceConfig::sampled());
    assert!(regressed.all_finished(), "draining must finish in-flight runs");
    no_stalls(&regressed);
    common::assert_counters_match_trace(&regressed);
    assert_eq!(regressed.telemetry.counter("canary_promotions"), Some(0));
    assert_eq!(regressed.telemetry.counter("canary_rollbacks"), Some(1));
    // The rolled-back candidate drains and unloads; the incumbent keeps
    // serving, so at least one drain and one unload are observed.
    assert!(regressed.telemetry.counter("drains_started").unwrap() >= 1);
    assert!(regressed.telemetry.counter("versions_unloaded").unwrap() >= 1);
}

/// A promotion and a rollback, each followed by the losing version's
/// unload: each canary cell's live telemetry is exactly the fold of its
/// Full trace.
#[test]
fn canary_telemetry_replays_from_the_full_trace() {
    for regressed in [false, true] {
        let report = canary_run(regressed, TraceConfig::full());
        let unloaded = report.trace.filter(|k| matches!(k, TraceKind::Unload { .. }));
        assert!(unloaded.count() > 0, "regressed={regressed}: nothing unloaded");
        replay::assert_telemetry_replays(&report, &TelemetryConfig::enabled(CADENCE), &["svc"]);
    }
}

/// Logs each run's client and the model name it registers under, around
/// the FIFO baseline.
#[derive(Debug, Default)]
struct NameLog {
    inner: FifoScheduler,
    names: Vec<(u32, String)>,
}

impl Scheduler for NameLog {
    fn register(&mut self, job: JobId, ctx: &JobCtx<'_>) -> Result<Verdict, RegisterError> {
        self.names.push((ctx.client.0, ctx.model_name.to_string()));
        self.inner.register(job, ctx)
    }

    fn deregister(&mut self, job: JobId, now: SimTime) -> Verdict {
        self.inner.deregister(job, now)
    }

    fn may_run(&self, job: JobId) -> bool {
        self.inner.may_run(job)
    }

    fn on_gpu_node_done(&mut self, job: JobId, node: NodeId, now: SimTime) -> Verdict {
        self.inner.on_gpu_node_done(job, node, now)
    }

    fn name(&self) -> &str {
        "name-log"
    }
}

/// The plan declares `a` then `b`; the clients ask for `b`, for a model no
/// deployment serves, then for `a`, so their names intern in another order
/// than the plan's. On one device and on a two-device fleet, every session
/// finishes, each managed run registers under its own deployment's
/// versioned name after waiting for its first load, and the unmanaged
/// client registers under its own name and never waits.
#[test]
fn managed_and_unmanaged_clients_each_run_their_own_model() {
    const BATCHES: usize = 3;
    let plan = DeploymentPlan::new()
        .with_model(ModelDeployment::new("a", service("a", false)))
        .with_model(ModelDeployment::new("b", service("b", true)));
    let lc = LifecycleConfig::new(plan);
    let devices = vec![gpusim::DeviceProfile::gtx_1080_ti(), gpusim::DeviceProfile::titan_x()];
    let base = EngineConfig::default().with_trace(TraceConfig::full());
    let cells = [
        ("one device", base.with_lifecycle(lc.clone())),
        ("two devices", base.with_cluster(ClusterConfig::new(devices, lc))),
    ];
    let unmanaged = models::mini::tiny(4);
    let expected = ["b@v1", unmanaged.name(), "a@v1"];
    for (cell, cfg) in cells {
        let clients = vec![
            ClientSpec::new(service("b", true), BATCHES as u32),
            ClientSpec::new(unmanaged.clone(), BATCHES as u32),
            ClientSpec::new(service("a", false), BATCHES as u32),
        ];
        let mut sched = NameLog::default();
        let report = run_experiment(&cfg, clients, &mut sched);
        assert!(report.all_finished(), "{cell}: {:?}", report.clients);
        for (c, want) in expected.iter().enumerate() {
            let names: Vec<&str> = sched
                .names
                .iter()
                .filter(|(client, _)| *client == c as u32)
                .map(|(_, name)| name.as_str())
                .collect();
            assert_eq!(names, [*want; BATCHES], "{cell}: client {c}");
            let waits = report
                .trace
                .filter(move |k| matches!(k, TraceKind::LifecycleWait { client } if *client == c as u32))
                .count();
            assert_eq!(waits > 0, c != 1, "{cell}: client {c} waited {waits} times");
        }
    }
}
