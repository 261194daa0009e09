//! Integration tests for the closed-loop control plane: degradation-ladder
//! hysteresis at engine level, the Shedding admission gate,
//! byte-determinism of controlled runs across worker counts, and the quiet
//! laxity windows.

mod common;

use bench::figs::closedloop;
use common::{fnv1a, Uncached};
use controlplane::CostOracle;
use models::LoadedModel;
use olympian::{
    DeadlineMode, OlympianScheduler, Profiler, ProfileStore, RoundRobin, StoreCostOracle,
};
use serving::faults::{FaultConfig, FaultPlan};
use serving::trace::{Trace, TraceKind};
use serving::{run_experiment, ClientOutcome, ClientSpec, EngineConfig, RunReport, TraceConfig};
use simtime::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use telemetry::{BurnWindows, DriftConfig, SloSpec, TelemetryConfig};

const QUANTUM: SimDuration = SimDuration::from_micros(200);
const CADENCE: SimDuration = SimDuration::from_micros(500);

/// Profiles `model` at the full batch and at the Degraded-rung shrunk
/// batch, so a ladder escalation can re-register jobs at the smaller hint
/// without a miss.
fn store_with_shrunk_batch(
    cfg: &EngineConfig,
    model: fn(u64) -> LoadedModel,
    full_batch: u64,
) -> Arc<ProfileStore> {
    let divisor = controlplane::ControlConfig::new().batch_divisor;
    let mut store = ProfileStore::new();
    let profiler = Profiler::new(cfg);
    store.insert(profiler.profile(&model(full_batch)));
    store.insert(profiler.profile(&model((full_batch / divisor).max(1))));
    Arc::new(store)
}

fn fair(store: Arc<ProfileStore>) -> OlympianScheduler {
    OlympianScheduler::new(store, Box::new(RoundRobin::new()), QUANTUM)
}

fn counter(report: &RunReport, name: &str) -> u64 {
    report.telemetry.counter(name).unwrap_or(0)
}

/// The chaos `drift` incident at engine level: a sustained 1.4x slowdown
/// during [1ms, 50ms), and SLO burn alerts on `mini-small` against an
/// objective 15% above the median run latency of `clients` on the healthy
/// device. Traced, with no control plane yet.
fn burning(clients: &[ClientSpec], store: &Arc<ProfileStore>) -> EngineConfig {
    let base = EngineConfig::default();
    // Objective from the fault-free twin.
    let probe_cfg = base.with_telemetry(TelemetryConfig::enabled(CADENCE));
    let probe = run_experiment(&probe_cfg, clients.to_vec(), &mut fair(Arc::clone(store)));
    let p50 = probe.telemetry.hist("run_latency_us").expect("probe histogram").p50;
    let objective = SimDuration::from_micros((p50 * 1.15).ceil() as u64);

    let plan = FaultPlan::new().with_slowdown(
        1.4,
        SimTime::from_millis(1),
        SimTime::from_millis(50),
    );
    base.with_trace(TraceConfig::sampled())
        .with_telemetry(
            TelemetryConfig::enabled(CADENCE)
                .with_slo(SloSpec::new("mini-small", objective, 0.05))
                .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 }),
        )
        .with_faults(FaultConfig::new(plan))
}

/// The [`burning`] incident, profiles from the healthy device. Burn
/// episodes during the slowdown must walk the ladder up (shrinking batch
/// hints on the way); the quiet tail after it must walk it back down
/// through the cool-window hysteresis — both edges visible as counted,
/// traced transitions.
#[test]
fn ladder_walks_up_under_burn_and_back_down_in_the_quiet_tail() {
    let clients = vec![ClientSpec::new(models::mini::small(4), 6); 6];
    let store = store_with_shrunk_batch(&EngineConfig::default(), models::mini::small, 4);
    let cfg = burning(&clients, &store).with_control(controlplane::ControlConfig::new());
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

/// The Shedding rung refuses sessions that arrive while it holds, and the
/// ladder cools back down once the burn stops, on the default control
/// config. Every run misses an objective no run can meet, and three
/// clients of `mini::tiny(4)` complete a run about every 0.35 ms, so burn
/// episodes come faster than the 2 ms cool window: two of them step the
/// ladder up a rung, and it reaches Shedding by 1.4 ms. A straggler
/// starting at 5 ms is turned away with `AdmissionShed` before any memory
/// or scheduler state is touched. The last burn is at 8.4 ms; each quiet
/// 2 ms window after it steps the ladder down one rung, and a latecomer
/// starting at 15 ms is admitted and served.
#[test]
fn shedding_rung_refuses_a_late_admission() {
    let base = EngineConfig::default();
    let store = store_with_shrunk_batch(&base, models::mini::tiny, 4);
    let objective = SimDuration::from_micros(100);
    let mut clients = vec![ClientSpec::new(models::mini::tiny(4), 8); 3];
    for start in [5, 15] {
        clients.push(
            ClientSpec::new(models::mini::tiny(4), 1).with_start(SimTime::from_millis(start)),
        );
    }

    let cfg = base
        .with_trace(TraceConfig::sampled())
        .with_telemetry(
            TelemetryConfig::enabled(SimDuration::from_micros(200))
                .with_slo(SloSpec::new("mini-tiny", objective, 0.05))
                .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 }),
        )
        .with_control(controlplane::ControlConfig::new());
    let report = run_experiment(&cfg, clients, &mut fair(store));
    common::assert_counters_match_trace(&report);

    assert_eq!(counter(&report, "clients_admission_shed"), 1);
    assert!(matches!(
        report.clients[3].outcome,
        ClientOutcome::AdmissionShed { .. }
    ));
    // The first three were admitted while Healthy and are never evicted;
    // the latecomer meets a ladder that has cooled down.
    assert_eq!(report.finished_count(), 4);
    assert!(report.clients[4].is_finished());

    // The whole ladder, in order: two rungs up under the burn, then one
    // rung down per quiet cool window.
    let ladder: Vec<(SimTime, &str, &str)> = report
        .trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::ControlTransition { from, to } => Some((e.at, from, to)),
            _ => None,
        })
        .collect();
    let steps: Vec<(&str, &str)> = ladder.iter().map(|&(_, from, to)| (from, to)).collect();
    assert_eq!(
        steps,
        [
            ("healthy", "degraded"),
            ("degraded", "shedding"),
            ("shedding", "degraded"),
            ("degraded", "healthy"),
        ]
    );
    let (up, down) = (ladder[1].0, ladder[2].0);
    let shed_at = SimTime::from_millis(5);
    assert!(up < shed_at && shed_at < down, "the straggler met the Shedding rung");
    assert_eq!(ladder[3].0 - ladder[2].0, SimDuration::from_millis(2));

    let json = report.chrome_trace_json();
    assert!(json.contains("\"admission-shed\""));
    // Pinned, so moving a ladder constant moves the digests.
    assert_eq!(
        [fnv1a(&report.telemetry_jsonl()), fnv1a(&json)],
        ["e8d9421c66c607f8", "78f36cd04753d30c"],
    );
}

/// The default config on a device 2.3x slower than the default one, with
/// drift detection against the quantum and the control plane rebinding
/// through `cost`.
fn regressed(cost: Arc<dyn CostOracle>) -> EngineConfig {
    let mut cfg = EngineConfig::default();
    cfg.device = gpusim::DeviceProfile::custom(
        "regressed",
        2.3,
        cfg.device.memory_bytes(),
        cfg.device.sm_count(),
        0.0,
    );
    cfg.with_trace(TraceConfig::sampled())
        .with_telemetry(
            TelemetryConfig::enabled(CADENCE).with_drift(DriftConfig::new(QUANTUM, 0.25)),
        )
        .with_control(controlplane::ControlConfig::new().with_cost(cost))
}

/// On a device that slowed down 2.3x after profiling, the drift detector
/// fires and the control plane rebinds the drifting model's profile in-run
/// through the cost oracle; the rebind reaches the trace and the counters
/// alike.
#[test]
fn drift_alert_rebinds_the_profile_in_run() {
    let store = store_with_shrunk_batch(&EngineConfig::default(), models::mini::small, 4);
    let cfg = regressed(StoreCostOracle::new(Arc::clone(&store)));
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
    let store = store_with_shrunk_batch(&base, models::mini::small, 4);
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

/// [`Uncached`] that also reports the store's epoch, so the control loop
/// opens quiet laxity windows.
#[derive(Debug)]
struct WithEpoch(Uncached);

impl CostOracle for WithEpoch {
    fn expected_gpu_ns(&self, model: &str, batch: u64) -> Option<u64> {
        self.0.expected_gpu_ns(model, batch)
    }

    fn rebind_scaled(&self, model: &str, batch: u64, scale_ppm: u64) -> bool {
        self.0.rebind_scaled(model, batch, scale_ppm)
    }

    fn epoch(&self) -> Option<u64> {
        self.0.store.epoch()
    }
}

const MODES: [DeadlineMode; 2] = [DeadlineMode::Edf, DeadlineMode::LeastLaxity];

/// The laxity cancels of `report`, as `(client, instant)`.
fn laxity_cancels(report: &RunReport) -> Vec<(u32, SimTime)> {
    let cancels = report.trace.events.iter().filter_map(|e| match e.kind {
        TraceKind::LaxityCancel { client, .. } => Some((client, e.at)),
        _ => None,
    });
    cancels.collect()
}

/// A cell whose quiet laxity windows must close early, on the
/// [`regressed`] device with its cost oracle built by `oracle` over the
/// healthy device's profiles. Session 0's runs have 100 ms of slack, so they alone
/// would keep every tick quiet. Session 1's only run fits its 4 ms
/// deadline on the healthy profile (1.635 ms) but not on the 2.3x rebind
/// that session 0's drift alert makes about 2.9 ms in, inside the window
/// its own slack opened. Session 2 registers at 12.05 ms, between ticks
/// and inside a window of session 0's, with an 800 µs deadline below its
/// profiled GPU time. Both must be cancelled on laxity at the next tick.
fn window_cell(oracle: impl FnOnce(Arc<ProfileStore>) -> Arc<dyn CostOracle>) -> RunReport {
    let store = store_with_shrunk_batch(&EngineConfig::default(), models::mini::small, 4);
    let cfg = regressed(oracle(Arc::clone(&store)));
    let run = |batches, deadline_us| {
        ClientSpec::new(models::mini::small(4), batches)
            .with_run_deadline(SimDuration::from_micros(deadline_us))
    };
    let late = SimTime::from_micros(12_050);
    let clients = vec![run(6, 100_000), run(1, 4_000), run(1, 800).with_start(late)];
    run_experiment(&cfg, clients, &mut fair(store))
}

/// When the Degraded cell's late session starts: 550 µs into the ladder's
/// first Degraded spell (23.5 to 25.6 ms), between two ticks.
const DEGRADED_START: SimTime = SimTime::from_micros(24_050);

/// A cell where a run registers while the ladder is Degraded, in the
/// [`burning`] incident of
/// [`ladder_walks_up_under_burn_and_back_down_in_the_quiet_tail`], with
/// the cost oracle built by `oracle`. The store profiles `mini-small` at
/// batch 4 and, at the Degraded rung's batch 2, with half that GPU time,
/// as a model whose kernels scale with the batch would measure (the mini
/// models' kernels do not). Session 6's twelve runs have 100 ms of slack
/// and hold the windows open. Session 7 starts at [`DEGRADED_START`] and
/// registers at batch 2, with a deadline halfway between the two
/// profiles' GPU times: the profile it registers under meets it, but the
/// laxity key, the client's model at its full batch, misses it, so the
/// run must be cancelled at the next tick.
fn degraded_cell(oracle: impl FnOnce(Arc<ProfileStore>) -> Arc<dyn CostOracle>) -> RunReport {
    let profiler = Profiler::new(&EngineConfig::default());
    let mut store = ProfileStore::new();
    let full = profiler.profile(&models::mini::small(4));
    let mut half = profiler.profile(&models::mini::small(2));
    half.gpu_duration = SimDuration::from_nanos(full.gpu_duration.as_nanos() / 2);
    let deadline = SimDuration::from_nanos((full.gpu_duration + half.gpu_duration).as_nanos() / 2);
    store.insert(full);
    store.insert(half);
    let store = Arc::new(store);

    let burners = vec![ClientSpec::new(models::mini::small(4), 6); 6];
    let control = controlplane::ControlConfig::new().with_cost(oracle(Arc::clone(&store)));
    let cfg = burning(&burners, &store).with_control(control);
    let mut clients = burners;
    let slack = SimDuration::from_millis(100);
    clients.push(ClientSpec::new(models::mini::small(4), 12).with_run_deadline(slack));
    clients.push(
        ClientSpec::new(models::mini::small(4), 1)
            .with_start(DEGRADED_START)
            .with_run_deadline(deadline),
    );
    run_experiment(&cfg, clients, &mut fair(store))
}

/// Skipping the laxity walk on quiet ticks changes no decision. The
/// closedloop figure's closed cell reports the same bytes under EDF and
/// under least laxity whether its oracle is the store's own, which
/// reports the epoch, or one without an epoch, whose ticks all walk; each
/// rebinds a profile mid-run, so a window must close on an epoch move at
/// least once, and cancels a run on laxity, so the walks decide
/// something. [`window_cell`] reports the same bytes with either oracle
/// too; it cancels one run a rebind dooms and one that registers doomed,
/// each inside a quiet window, so a window that outlived an epoch move or
/// a doomed registration would cancel later or not at all. So does
/// [`degraded_cell`], whose doomed run registers under a cheaper profile
/// than the one the walk reads: a registration that bounded the window by
/// the registered profile would leave the next tick quiet.
#[test]
fn quiet_laxity_windows_decide_exactly_like_walking_every_tick() {
    for mode in MODES {
        let quiet = closedloop::run_cells_with(mode, |s| StoreCostOracle::new(s)).closed;
        let walking = closedloop::run_cells_with(mode, |s| Arc::new(Uncached::new(s))).closed;
        assert!(
            counter(&quiet, "control_profile_rebinds") >= 1,
            "{mode:?}: no rebind"
        );
        assert!(
            counter(&quiet, "control_laxity_cancels") >= 1,
            "{mode:?}: no laxity cancel"
        );
        assert_eq!(format!("{quiet:?}"), format!("{walking:?}"), "{mode:?}");
    }

    let quiet = window_cell(|s| StoreCostOracle::new(s));
    let walking = window_cell(|s| Arc::new(Uncached::new(s)));
    assert_eq!(
        laxity_cancels(&walking),
        [(1, SimTime::from_micros(3_000)), (2, SimTime::from_micros(12_200))],
        "each doomed run is cancelled at the first tick after it is doomed"
    );
    assert!(counter(&walking, "control_profile_rebinds") >= 1, "no rebind");
    assert_eq!(format!("{quiet:?}"), format!("{walking:?}"));

    let quiet = degraded_cell(|s| StoreCostOracle::new(s));
    let walking = degraded_cell(|s| Arc::new(Uncached::new(s)));
    let shrunk = walking.trace.filter(|k| matches!(k, TraceKind::BatchShrink { client: 7, .. }));
    assert_eq!(shrunk.count(), 1, "the late run registers while Degraded");
    let next_tick = SimTime::from_micros(24_200);
    assert_eq!(laxity_cancels(&walking), [(7, next_tick)]);
    assert_eq!(format!("{quiet:?}"), format!("{walking:?}"));
}

/// How many times the laxity walk meets a live run: once per control tick
/// strictly inside the run's registration-to-end span, plus the tick that
/// cancels a run on laxity. Every run of the trace must end, and none may
/// start or end on a tick otherwise, where the order of the tick and the
/// run's event at that instant would decide.
fn live_run_ticks(trace: &Trace) -> u64 {
    let tick = controlplane::TICK.as_nanos();
    let on_tick = |at: u64| at > 0 && at.is_multiple_of(tick);
    let mut registered = HashMap::new();
    let mut meetings = 0;
    for e in &trace.events {
        let at = e.at.as_nanos();
        let (job, cancelling_tick) = match e.kind {
            TraceKind::RunRegistered { job, .. } => {
                assert!(!on_tick(at), "run {job} registers on a tick");
                registered.insert(job, at);
                continue;
            }
            TraceKind::LaxityCancel { job, .. } => (job, 1),
            TraceKind::RunCompleted { job, .. } | TraceKind::DeadlineCancelled { job, .. } => {
                assert!(!on_tick(at), "run {job} ends on a tick");
                (job, 0)
            }
            _ => continue,
        };
        let from = registered
            .remove(&job)
            .expect("a run ends after it registers");
        meetings += (at - 1) / tick - from / tick + cancelling_tick;
    }
    assert!(registered.is_empty(), "runs {registered:?} never end");
    meetings
}

/// An oracle that reports the store's epoch is asked once per run
/// registration and once per live run on each walk. On a quiet cell, 3
/// sessions of 6 runs whose 100 ms deadlines outlast the whole run, only
/// the first tick walks: 18 registrations and the 3 runs live at 200 µs.
/// A registration that ended the window would walk again after each
/// one. Over the closedloop figure's closed cells, an oracle without an
/// epoch is asked nothing at registration and once per live run per tick.
#[test]
fn laxity_lookups_follow_registrations_with_an_epoch_and_ticks_without() {
    let store = store_with_shrunk_batch(&EngineConfig::default(), models::mini::small, 4);
    let oracle = Arc::new(WithEpoch(Uncached::new(Arc::clone(&store))));
    let cfg = EngineConfig::default()
        .with_control(controlplane::ControlConfig::new().with_cost(oracle.clone()));
    let deadline = SimDuration::from_millis(100);
    let clients = vec![ClientSpec::new(models::mini::small(4), 6).with_run_deadline(deadline); 3];
    let report = run_experiment(&cfg, clients, &mut fair(store));
    assert!(report.all_finished());
    assert_eq!(oracle.0.lookups.load(Relaxed), 18 + 3);

    for mode in MODES {
        let mut bound = None;
        let walking = closedloop::run_cells_with(mode, |store| {
            let oracle = Arc::new(Uncached::new(store));
            bound = Some(Arc::clone(&oracle));
            oracle
        })
        .closed;
        let lookups = bound
            .expect("the closed cell binds an oracle")
            .lookups
            .load(Relaxed);
        assert_eq!(lookups, live_run_ticks(&walking.trace), "{mode:?}");
    }
}
