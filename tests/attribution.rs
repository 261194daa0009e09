//! End-to-end checks of the attribution layer: exact phase tiling across
//! scheduler × fault/lifecycle cells, the token-holder timeline invariant
//! the critical path and the diff search, byte-determinism of the blame
//! report across worker counts, and pinned digests of every attribution
//! output.

mod fleet_setup;

use models::LoadedModel;
use olympian::{OlympianScheduler, ProfileStore, Profiler, RoundRobin, StoreBinder};
use serving::attrib::{critical_path, diff, render_text, Attribution, Phase};
use serving::cluster::RouterPolicy;
use serving::faults::{FaultConfig, FaultPlan};
use serving::lifecycle::{DeploymentPlan, LifecycleConfig, ModelDeployment};
use serving::{
    run_experiment, ClientSpec, EngineConfig, FifoScheduler, RunReport, TraceConfig,
};
use simtime::{SimDuration, SimTime};
use std::sync::Arc;
use telemetry::{BurnWindows, DriftConfig, SloSpec, TelemetryConfig};
use trace::TraceKind;

const QUANTUM: SimDuration = SimDuration::from_micros(200);

fn attribution_of(report: &RunReport) -> Attribution {
    let cfg = EngineConfig::default();
    report.attribution(cfg.switch_latency + cfg.launch_overhead)
}

/// A faulted run: aggressive kernel failures so retries (and their backoff
/// phases) actually occur, plus a mid-run slowdown window.
fn faulted_run(olympian: bool) -> RunReport {
    let plan = FaultPlan::new()
        .with_kernel_failures(0.2)
        .with_slowdown(2.0, SimTime::from_millis(1), SimTime::from_millis(2));
    let cfg = EngineConfig { seed: 11, ..EngineConfig::default() }
        .with_trace(TraceConfig::full())
        .with_faults(FaultConfig::new(plan));
    let model = models::mini::tiny(4);
    let clients: Vec<ClientSpec> = (0..3).map(|_| ClientSpec::new(model.clone(), 2)).collect();
    if olympian {
        let mut store = ProfileStore::new();
        store.insert(Profiler::new(&cfg).profile(&model));
        let mut sched =
            OlympianScheduler::new(Arc::new(store), Box::new(RoundRobin::new()), QUANTUM);
        run_experiment(&cfg, clients, &mut sched)
    } else {
        run_experiment(&cfg, clients, &mut FifoScheduler::new())
    }
}

/// Rebadges a mini-zoo model as a named service (deployments and clients
/// must agree on the name).
fn service(name: &str) -> LoadedModel {
    let m = models::mini::tiny(4);
    LoadedModel::from_parts(
        name,
        None,
        m.batch(),
        Arc::clone(m.graph()),
        m.weights_bytes(),
        m.activation_bytes(),
    )
}

/// A lifecycle run: versions load and warm on demand, so runs wait on the
/// lifecycle manager before registering.
fn lifecycle_run(olympian: bool) -> RunReport {
    let services = ["svc-0", "svc-1"];
    let mut plan = DeploymentPlan::new();
    for name in services {
        plan = plan.with_model(ModelDeployment::new(name.to_string(), service(name)));
    }
    let mut cfg =
        EngineConfig { seed: 7, ..EngineConfig::default() }.with_trace(TraceConfig::full());
    let store = Arc::new(ProfileStore::new());
    let binder = StoreBinder::calibrate(&cfg, &plan, Arc::clone(&store));
    cfg = cfg.with_lifecycle(LifecycleConfig::new(plan).with_binder(binder));
    let clients: Vec<ClientSpec> = services
        .iter()
        .map(|name| ClientSpec::new(service(name), 2))
        .collect();
    if olympian {
        let mut sched = OlympianScheduler::new(store, Box::new(RoundRobin::new()), QUANTUM);
        run_experiment(&cfg, clients, &mut sched)
    } else {
        run_experiment(&cfg, clients, &mut FifoScheduler::new())
    }
}

/// The chaos suite's `mixed` scenario under Olympian with the token-hold
/// watchdog: six mini-small clients, 1% kernel faults, a 2x slowdown over
/// [2, 4) ms and a device stall over [6, 7) ms.
fn chaos_mixed_run() -> RunReport {
    let ms = SimTime::from_millis;
    let plan = FaultPlan::new()
        .with_kernel_failures(0.01)
        .with_slowdown(2.0, ms(2), ms(4))
        .with_stall(ms(6), ms(7));
    let model = models::mini::small(4);
    let cfg = EngineConfig::default().with_trace(TraceConfig::full());
    let mut store = ProfileStore::new();
    store.insert(Profiler::new(&cfg).profile(&model));
    let cfg = cfg.with_faults(FaultConfig::new(plan));
    let mut sched = OlympianScheduler::new(Arc::new(store), Box::new(RoundRobin::new()), QUANTUM)
        .with_watchdog(3.0);
    run_experiment(&cfg, vec![ClientSpec::new(model, 6); 6], &mut sched)
}

/// Seed 1 of the two-device fleet under the cost-aware router.
fn fleet_run() -> RunReport {
    let store = Arc::new(ProfileStore::new());
    let cfg =
        fleet_setup::fleet_cfg(1, RouterPolicy::CostAware, &store).with_trace(TraceConfig::full());
    let mut sched = fleet_setup::multi(store, fleet_setup::round_robin);
    run_experiment(&cfg, fleet_setup::clients(), &mut sched)
}

/// The blame report's healthy baseline: three mini-small clients of three
/// batches under fair sharing, with sampled tracing, telemetry every 100 µs
/// and a 1 s objective no run breaches.
fn smoke_run() -> RunReport {
    let clients = vec![ClientSpec::new(models::mini::small(4), 3); 3];
    let tc = TelemetryConfig::enabled(SimDuration::from_micros(100)).with_slo(SloSpec::new(
        clients[0].model.name(),
        SimDuration::from_secs(1),
        0.05,
    ));
    let cfg = EngineConfig::default().with_trace(TraceConfig::sampled()).with_telemetry(tc);
    let mut store = ProfileStore::new();
    store.insert(Profiler::new(&cfg).profile(&clients[0].model));
    let mut sched = OlympianScheduler::new(Arc::new(store), Box::new(RoundRobin::new()), QUANTUM);
    run_experiment(&cfg, clients, &mut sched)
}

/// The blame report's incident: ten batches per client, profiled on the
/// healthy device and run on one 1.4x slower, against an objective of the
/// healthy median run latency plus 15%, with the drift detector and the
/// burn-rate monitor on.
fn drifted_run() -> RunReport {
    let interval = SimDuration::from_micros(100);
    let clients = vec![ClientSpec::new(models::mini::small(4), 10); 3];
    let fresh = EngineConfig::default();
    let mut store = ProfileStore::new();
    store.insert(Profiler::new(&fresh).profile(&clients[0].model));
    let store = Arc::new(store);
    let probe_cfg = fresh.with_telemetry(TelemetryConfig::enabled(interval));
    let mut probe_sched =
        OlympianScheduler::new(Arc::clone(&store), Box::new(RoundRobin::new()), QUANTUM);
    let probe = run_experiment(&probe_cfg, clients.clone(), &mut probe_sched);
    let p50_us = probe.telemetry.hist("run_latency_us").expect("latency histogram").p50;
    let objective = SimDuration::from_micros((p50_us * 1.15).ceil() as u64);

    let mut cfg = EngineConfig::default();
    cfg.device = gpusim::DeviceProfile::custom(
        "regressed",
        1.4,
        cfg.device.memory_bytes(),
        cfg.device.sm_count(),
        0.0,
    );
    let tc = TelemetryConfig::enabled(interval)
        .with_slo(SloSpec::new(clients[0].model.name(), objective, 0.05))
        .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 })
        .with_drift(DriftConfig::new(QUANTUM, 0.25));
    let cfg = cfg.with_trace(TraceConfig::sampled()).with_telemetry(tc);
    let mut sched = OlympianScheduler::new(store, Box::new(RoundRobin::new()), QUANTUM);
    run_experiment(&cfg, clients, &mut sched)
}

/// The tiling property every cell must satisfy: phases sum to each run's
/// span exactly and the claimed intervals are contiguous over it.
fn assert_exact_tiling(attr: &Attribution) {
    assert!(!attr.runs.is_empty());
    for r in &attr.runs {
        let sum: u64 = r.phase_ns.iter().sum();
        assert_eq!(sum, r.span_ns(), "phases must tile job {} exactly", r.job);
        let mut cursor = r.start_ns;
        for iv in &r.intervals {
            assert_eq!(iv.start_ns, cursor, "hole in job {}", r.job);
            cursor = iv.end_ns;
        }
        assert_eq!(cursor, r.end_ns, "job {} not covered to its end", r.job);
    }
}

#[test]
fn phases_tile_exactly_across_scheduler_and_fault_cells() {
    for olympian in [false, true] {
        let report = faulted_run(olympian);
        let attr = attribution_of(&report);
        assert_exact_tiling(&attr);
        assert_eq!(attr.token_based, olympian);
        let totals = attr.phase_totals_ns();
        // The injected kernel failures schedule real retries, which must
        // surface as a non-empty backoff phase.
        let retried = report
            .trace
            .filter(|k| matches!(k, TraceKind::RetryScheduled { job, .. } if *job != u64::MAX))
            .count();
        if retried > 0 {
            assert!(totals[Phase::Backoff.index()] > 0, "retries imply backoff time");
        }
        if !olympian {
            assert_eq!(totals[Phase::TokenWait.index()], 0, "fifo has no token wait");
        }
    }
}

#[test]
fn phases_tile_exactly_across_scheduler_and_lifecycle_cells() {
    for olympian in [false, true] {
        let report = lifecycle_run(olympian);
        let attr = attribution_of(&report);
        assert_exact_tiling(&attr);
        let totals = attr.phase_totals_ns();
        let waited = report
            .trace
            .filter(|k| matches!(k, TraceKind::LifecycleWait { .. }))
            .count();
        assert!(waited > 0, "on-demand versions must make runs wait on the loader");
        assert!(totals[Phase::LoadWait.index()] > 0, "lifecycle waits imply load-wait time");
    }
}

#[test]
fn critical_path_blame_accounts_for_the_makespan() {
    let report = faulted_run(true);
    let attr = attribution_of(&report);
    let cp = critical_path(&attr);
    assert_eq!(cp.span_ns, attr.makespan_ns);
    let phase_total: u64 = cp.blame_ns.iter().map(|&(_, v)| v).sum();
    let client_total: u64 = cp.client_blame_ns.iter().sum();
    assert_eq!(phase_total, cp.span_ns);
    assert_eq!(client_total, cp.span_ns);
}

#[test]
fn blame_report_is_byte_identical_across_job_counts() {
    let render = |report: &RunReport| {
        let attr = attribution_of(report);
        let cp = critical_path(&attr);
        render_text("cell", &attr, &cp, None)
    };
    std::env::remove_var(simpar::JOBS_ENV);
    let serial = render(&faulted_run(true));
    std::env::set_var(simpar::JOBS_ENV, "2");
    let parallel = render(&faulted_run(true));
    std::env::remove_var(simpar::JOBS_ENV);
    assert_eq!(serial, parallel, "blame text must not depend on the worker count");
}

/// Each device's token-holder segments are disjoint and ascending: the
/// critical path and the diff binary-search them for the holders of a
/// wait. Every traced cell of this file is checked, plus a chaos run and a
/// two-device fleet.
#[test]
fn token_holder_segments_are_disjoint_and_ascending() {
    let mut cells = Vec::new();
    for olympian in [false, true] {
        cells.push((format!("faulted olympian={olympian}"), olympian, faulted_run(olympian)));
        cells.push((format!("lifecycle olympian={olympian}"), olympian, lifecycle_run(olympian)));
    }
    cells.push(("chaos mixed".to_string(), true, chaos_mixed_run()));
    cells.push(("fleet seed 1".to_string(), true, fleet_run()));
    for (cell, olympian, report) in &cells {
        let attr = attribution_of(report);
        let segments: usize = attr.holders.iter().map(Vec::len).sum();
        assert_eq!(segments > 0, *olympian, "{cell}: only token schedulers hold");
        for (device, segs) in attr.holders.iter().enumerate() {
            for pair in segs.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                assert!(
                    a.start_ns < a.end_ns && a.end_ns <= b.start_ns && b.start_ns < b.end_ns,
                    "{cell}: device {device} holds {a:?} then {b:?}"
                );
            }
        }
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Digests of what attribution shows a user: the decomposition, its
/// critical path and its diff against `base` (as `Debug` renderings), and
/// the Chrome trace export with phases.
fn output_digests(report: &RunReport, attr: &Attribution, base: &Attribution) -> [u64; 4] {
    let cp = critical_path(attr);
    let d = diff(attr, base);
    [
        fnv1a(format!("{attr:?}").as_bytes()),
        fnv1a(format!("{cp:?}").as_bytes()),
        fnv1a(format!("{d:?}").as_bytes()),
        fnv1a(report.chrome_trace_json_with_phases(attr, &cp).as_bytes()),
    ]
}

#[test]
fn attribution_outputs_match_pinned_digests() {
    let faulted = faulted_run(true);
    let attr = attribution_of(&faulted);
    assert_eq!(
        output_digests(&faulted, &attr, &attr),
        [
            0xb29e_0fc9_c0c9_df9a,
            0xea1d_f625_b5f6_cb8c,
            0xe2ae_b670_701a_d449,
            0x54d6_61f9_d80f_acc4
        ],
        "faulted olympian cell"
    );
    let (drifted, smoke) = (drifted_run(), smoke_run());
    let (target, base) = (attribution_of(&drifted), attribution_of(&smoke));
    // The pair is the one `results/blame.txt` reports.
    let cp = critical_path(&target);
    let text = render_text("drifted", &target, &cp, Some(("smoke", &diff(&target, &base))));
    let report = std::fs::read_to_string("results/blame.txt").expect("committed blame report");
    assert!(report.contains(&text), "the pair differs from results/blame.txt:\n{text}");
    assert_eq!(
        output_digests(&drifted, &target, &base),
        [
            0xc076_309e_d0a6_1c00,
            0x9ddd_fc2c_5fa1_0b29,
            0xf982_e981_344b_106d,
            0x1260_a0f9_79f6_ca55
        ],
        "drifted vs smoke"
    );
}
