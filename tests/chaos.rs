//! Chaos end-to-end checks: byte-determinism of a fault-injected run
//! across worker counts, the resilience band the recovery layer promises,
//! and stale-kernel handling after a deadline cancellation.

mod common;

use faults::{FaultConfig, FaultPlan};
use olympian::{OlympianScheduler, Profiler, ProfileStore, RoundRobin};
use serving::trace::{BreakerEdge, ShedCause, TraceKind};
use serving::{
    run_experiment, ClientOutcome, ClientSpec, EngineConfig, FifoScheduler, RunReport,
    TraceConfig,
};
use simtime::{SimDuration, SimTime};
use std::sync::Arc;
use telemetry::TelemetryConfig;

const QUANTUM: SimDuration = SimDuration::from_micros(200);

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
        ClientSpec::new(models::mini::small(4), 6),
        ClientSpec::new(models::mini::small(4), 6),
        ClientSpec::new(models::mini::branchy(2), 6),
        ClientSpec::new(models::mini::small(4), 6),
    ]
}

/// A disturbance plan that exercises every injection point: transient
/// kernel faults, a slowdown window and a full device stall.
fn rough_plan() -> FaultPlan {
    FaultPlan::new()
        .with_kernel_failures(0.02)
        .with_slowdown(2.0, SimTime::from_millis(2), SimTime::from_millis(4))
        .with_stall(SimTime::from_millis(6), SimTime::from_millis(7))
}

/// Olympian with the watchdog armed, full recovery stack, tracing and
/// telemetry on — the most observable, most disturbed configuration.
fn chaotic_run(plan: Option<FaultPlan>) -> RunReport {
    let mut cfg = EngineConfig::default()
        .with_trace(TraceConfig::sampled())
        .with_telemetry(TelemetryConfig::enabled(SimDuration::from_micros(500)));
    // Profiles come from the healthy device: faults are a runtime
    // disturbance, not a property of the offline profile.
    let store = store_for(&cfg);
    if let Some(p) = plan {
        cfg = cfg.with_faults(FaultConfig::new(p));
    }
    let mut sched = OlympianScheduler::new(store, Box::new(RoundRobin::new()), QUANTUM)
        .with_watchdog(3.0);
    run_experiment(&cfg, clients(), &mut sched)
}

/// The acceptance gate: a faulted experiment's trace and telemetry are
/// byte-identical whether the harness runs serial or with 2 workers.
#[test]
fn faulted_run_is_byte_identical_across_job_counts() {
    std::env::remove_var(simpar::JOBS_ENV);
    let serial = chaotic_run(Some(rough_plan()));
    let serial_trace = serial.chrome_trace_json();
    let serial_jsonl = serial.telemetry_jsonl();
    let serial_prom = serial.prometheus_text();
    assert!(
        serial.telemetry.counter("faults_kernel").unwrap_or(0) > 0,
        "the plan must actually fire for the comparison to mean anything"
    );
    common::assert_counters_match_trace(&serial);

    std::env::set_var(simpar::JOBS_ENV, "2");
    let parallel = chaotic_run(Some(rough_plan()));
    std::env::remove_var(simpar::JOBS_ENV);

    assert_eq!(
        serial_trace,
        parallel.chrome_trace_json(),
        "faulted trace must not depend on the worker count"
    );
    assert_eq!(
        serial_jsonl,
        parallel.telemetry_jsonl(),
        "faulted JSON-lines export must not depend on the worker count"
    );
    assert_eq!(
        serial_prom,
        parallel.prometheus_text(),
        "faulted Prometheus export must not depend on the worker count"
    );
}

/// The resilience band: with recovery on, survivors' Jain fairness stays
/// within 0.95 of the fault-free run, and no client wedges — every client
/// reaches a terminal outcome.
#[test]
fn recovery_holds_the_fairness_band_and_nothing_wedges() {
    let base = chaotic_run(None);
    assert!(base.all_finished());
    common::assert_counters_match_trace(&base);
    let faulted = chaotic_run(Some(rough_plan()));

    for c in &faulted.clients {
        assert!(
            !matches!(c.outcome, ClientOutcome::Stalled),
            "client {} wedged: every client must reach a terminal outcome",
            c.client.0
        );
    }
    let base_jain = metrics::jain_fairness(&base.finish_times_secs());
    let finish = faulted.finish_times_secs();
    assert!(!finish.is_empty(), "at least one client must survive");
    let jain = metrics::jain_fairness(&finish);
    assert!(
        jain / base_jain >= 0.95,
        "survivor fairness {jain:.4} fell outside the band of fault-free {base_jain:.4}"
    );
    // The recovery machinery visibly did its job.
    let t = &faulted.telemetry;
    assert!(t.counter("faults_kernel").unwrap_or(0) > 0);
    assert_eq!(
        t.counter("kernel_retries").unwrap_or(0),
        t.counter("faults_kernel").unwrap_or(0),
        "every transient fault is retried"
    );
}

/// Persistent faults shed the failing clients instead of wedging the run,
/// and the shed clients carry a typed terminal outcome.
#[test]
fn persistent_faults_shed_with_typed_outcomes() {
    let plan = FaultPlan::new().with_kernel_failures(0.97);
    let faulted = chaotic_run(Some(plan));
    common::assert_counters_match_trace(&faulted);
    let mut shed = 0;
    for c in &faulted.clients {
        match &c.outcome {
            ClientOutcome::RetriesExhausted { attempts, .. } => {
                assert!(*attempts > 0);
                shed += 1;
            }
            ClientOutcome::CircuitOpen { trips, .. } => {
                assert!(*trips > 0);
                shed += 1;
            }
            ClientOutcome::Finished(_) => {}
            other => panic!("client {} ended as {other}", c.client.0),
        }
    }
    assert!(shed > 0, "a 97% failure rate must shed someone");
    assert_eq!(
        faulted.telemetry.counter("clients_shed").unwrap_or(0),
        shed as u64
    );
}

/// Failing launches and reservations both shed: two clients spend their
/// retry budget and two their breaker's trips, after open and half-open
/// edges. The report's `Debug` text, shed causes included, is pinned.
#[test]
fn shed_stream_is_pinned() {
    let plan = FaultPlan::new().with_kernel_failures(0.97).with_alloc_failures(0.9);
    let report = chaotic_run(Some(plan));
    let sheds: Vec<ShedCause> = (report.trace.events.iter())
        .filter_map(|e| match e.kind {
            TraceKind::BreakerTransition { to: BreakerEdge::Shed(cause), .. } => Some(cause),
            _ => None,
        })
        .collect();
    let exhausted = ShedCause::RetriesExhausted { attempts: 7 };
    let open = ShedCause::CircuitOpen { trips: 2 };
    assert_eq!(sheds.iter().filter(|&&s| s == exhausted).count(), 2, "{sheds:?}");
    assert_eq!(sheds.iter().filter(|&&s| s == open).count(), 2, "{sheds:?}");
    for edge in [BreakerEdge::Open, BreakerEdge::HalfOpen] {
        let edges = report
            .trace
            .filter(|k| matches!(k, TraceKind::BreakerTransition { to, .. } if *to == edge));
        assert!(edges.count() > 0, "no {} edge", edge.as_str());
    }
    common::assert_counters_match_trace(&report);
    assert_eq!(report.event_count, 43);
    assert_eq!(common::fnv1a(&format!("{report:?}")), "b334fa44dd16b679");
}

/// A kernel in flight when its job is deadline-cancelled completes
/// harmlessly: no panic, no free-list corruption, and no charge against a
/// later job that reuses the slot.
#[test]
fn stale_kernel_after_deadline_cancel_is_harmless() {
    let model = models::mini::small(4); // ~1.6 ms of GPU work per run
    let cfg = EngineConfig::default();

    // Client 0 is cancelled mid-run (mid-kernel, with kernels in the
    // device FIFO behind it); client 1 keeps the device busy across the
    // cancellation; client 2 arrives *after* the cancel and reuses the
    // freed slot and memory.
    let clients = vec![
        ClientSpec::new(model.clone(), 5).with_run_deadline(SimDuration::from_micros(700)),
        ClientSpec::new(model.clone(), 3),
        ClientSpec::new(model.clone(), 1).with_start(SimTime::from_millis(2)),
    ];

    // Baseline path.
    let base = run_experiment(&cfg, clients.clone(), &mut FifoScheduler::new());
    assert!(matches!(
        base.clients[0].outcome,
        ClientOutcome::DeadlineExceeded(_)
    ));
    assert!(base.clients[1].is_finished());
    assert!(
        base.clients[2].is_finished(),
        "slot reuse after cancel must work: {}",
        base.clients[2].outcome
    );
    // The latecomer was not charged for the cancelled job's leftovers:
    // it finishes in about one run's worth of time after its start.
    let f2 = base.clients[2].finish_time().as_secs_f64();
    assert!(
        f2 < 0.015,
        "latecomer finished at {f2}s — charged for a stale kernel?"
    );

    // Olympian path: same shape, token must keep moving.
    let mut store = ProfileStore::new();
    store.insert(Profiler::new(&cfg).profile(&model));
    let mut sched =
        OlympianScheduler::new(Arc::new(store), Box::new(RoundRobin::new()), QUANTUM);
    let oly = run_experiment(&cfg, clients, &mut sched);
    assert!(matches!(
        oly.clients[0].outcome,
        ClientOutcome::DeadlineExceeded(_)
    ));
    assert!(oly.clients[1].is_finished());
    assert!(oly.clients[2].is_finished());
}
