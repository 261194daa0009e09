//! The four benchmark workloads, built from the shipped experiments' public
//! pieces, and the one run each of them performs.
//!
//! A workload is set up (profiling, quantum choice, version calibration,
//! client and config construction) into a [`Prepared`], which one
//! [`Prepared::run`] consumes. Set-up is repeated per repetition because
//! the control plane and the lifecycle binder mutate the shared profile
//! store during a run; a fresh store keeps every repetition identical.

use crate::probe::{
    Capture, Probes, Recorder, TimedBinder, TimedOracle, TimedPolicy, TimedScheduler,
};
use bench::figs::{chaos, fig13_14, fleet};
use models::LoadedModel;
use olympian::{
    DeadlinePolicy, OlympianScheduler, Policy, ProfileStore, RoundRobin, StoreBinder,
    StoreCostOracle,
};
use serving::attrib;
use serving::cluster::{ClusterConfig, RouterPolicy};
use serving::control::{ControlConfig, CostOracle};
use serving::faults::FaultConfig;
use serving::lifecycle::{DeploymentPlan, LifecycleConfig, ModelDeployment, ProfileBinder};
use serving::{
    run_experiment, workload, ClientSpec, EngineConfig, FifoScheduler, RunReport, Scheduler,
    TelemetryConfig, TraceConfig,
};
use simtime::{SimDuration, SimTime};
use std::sync::Arc;
use std::time::Instant;
use telemetry::{BurnWindows, SloSpec};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline heterogeneous workload under Olympian fair
    /// sharing, observability off.
    PaperHetero,
    /// The `fleet` figure's fleet cell at 7.5× its arrivals.
    FleetZipf,
    /// Lifecycle churn, faults, recovery and the control plane together.
    ChaosControl,
    /// The paper workload fully traced, then blamed, stored and exported.
    ObserveFull,
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload::PaperHetero,
    Workload::FleetZipf,
    Workload::ChaosControl,
    Workload::ObserveFull,
];

impl Workload {
    /// Stable name (`--workload`).
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperHetero => "paper-hetero",
            Workload::FleetZipf => "fleet-zipf",
            Workload::ChaosControl => "chaos-control",
            Workload::ObserveFull => "observe-full",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Whether every session of this workload must finish.
    pub fn must_finish_all(self) -> bool {
        // Faults and the degradation ladder may legitimately shed
        // chaos-control sessions; everything else serves every request.
        self != Workload::ChaosControl
    }

    /// Whether clients arrive on a schedule (one run each) instead of
    /// issuing their next run when the last one finishes.
    pub fn open_loop(self) -> bool {
        self == Workload::FleetZipf
    }

    /// Builds the workload's inputs from `seed` for a run instrumented as
    /// `mode` says. `smoke` shrinks every count to a size a debug-build test
    /// runs in seconds.
    pub fn setup(self, seed: u64, smoke: bool, mode: Mode) -> Prepared {
        let cfg = EngineConfig::default().with_seed(seed);
        match self {
            Workload::PaperHetero | Workload::ObserveFull => paper(self, cfg, smoke, mode),
            Workload::FleetZipf => fleet_zipf(cfg, seed, smoke, mode),
            Workload::ChaosControl => chaos_control(cfg, smoke, mode),
        }
    }
}

/// How a prepared run's scheduler is built.
#[derive(Debug)]
enum Sched {
    /// Stock TF-Serving.
    Fifo,
    /// Olympian over `store` at quantum `q` with the given policy,
    /// optionally with the token-hold watchdog (in quanta).
    Olympian {
        store: Arc<ProfileStore>,
        policy: Box<dyn Policy>,
        q: SimDuration,
        watchdog: Option<f64>,
    },
}

/// Wall time spent in the profiling steps of a set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCost {
    /// Nanoseconds spent profiling models (`build_store_for`,
    /// `StoreBinder::calibrate`).
    pub profile_ns: u64,
    /// Nanoseconds spent measuring Overhead-Q curves (`choose_q`).
    pub curve_ns: u64,
}

/// A set-up workload, ready for one run.
#[derive(Debug)]
pub struct Prepared {
    /// Which workload this is.
    pub workload: Workload,
    /// The engine configuration.
    pub cfg: EngineConfig,
    /// The clients, in id order.
    pub clients: Vec<ClientSpec>,
    /// Profiling time spent in set-up.
    pub cost: SetupCost,
    sched: Sched,
    mode: Mode,
}

/// How a run is instrumented.
#[derive(Debug)]
pub enum Mode {
    /// No instrumentation: the end-to-end measurement.
    Plain,
    /// Every wrapped trait object timed into these probes.
    Timed(Arc<Probes>),
    /// Event instants and the kernel stream recorded for replays.
    Record,
}

/// Wall time and allocations of the post-processing steps of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PostCost {
    /// `Attribution::from_trace` (the phase sweep), ns.
    pub sweep_ns: u64,
    /// `attrib::critical_path`, ns.
    pub critical_ns: u64,
    /// `attrib::diff`, ns.
    pub diff_ns: u64,
    /// `RunReport::tsdb` (telemetry ingest), ns.
    pub tsdb_ns: u64,
    /// Chrome-trace export with phases, ns.
    pub export_ns: u64,
    /// Allocations made by the export.
    pub export_allocs: u64,
}

/// What the post-processing produced, kept for the run digest.
#[derive(Debug)]
pub struct PostOutput {
    /// Attributed runs.
    pub runs: usize,
    /// Critical-path span, ns.
    pub critical_span_ns: u64,
    /// Summed p99 delta of the blame diff, ns.
    pub diff_delta_ns: i64,
    /// Points ingested into the time-series store.
    pub tsdb_points: usize,
    /// Length of the exported Chrome-trace JSON.
    pub export_len: usize,
    /// FNV-1a hash of the exported JSON.
    pub export_hash: u64,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// The engine's report.
    pub report: RunReport,
    /// Wall time of `run_experiment` alone, ns.
    pub engine_ns: u64,
    /// Post-processing output and cost, for the workloads that do it.
    pub post: Option<(PostOutput, PostCost)>,
    /// The recorded stream, in [`Mode::Record`].
    pub capture: Option<Capture>,
}

impl Prepared {
    /// Runs the workload once.
    pub fn run(self) -> Outcome {
        let mode = &self.mode;
        let base: Box<dyn Scheduler> = match self.sched {
            Sched::Fifo => Box::new(FifoScheduler::new()),
            Sched::Olympian {
                store,
                policy,
                q,
                watchdog,
            } => {
                let policy: Box<dyn Policy> = match mode {
                    Mode::Timed(p) => Box::new(TimedPolicy::new(policy, Arc::clone(p))),
                    _ => policy,
                };
                let s = OlympianScheduler::new(store, policy, q);
                match watchdog {
                    Some(w) => Box::new(s.with_watchdog(w)),
                    None => Box::new(s),
                }
            }
        };
        let t0 = Instant::now();
        let (report, capture) = match mode {
            Mode::Plain => {
                let mut s = base;
                (run_experiment(&self.cfg, self.clients, s.as_mut()), None)
            }
            Mode::Timed(p) => {
                let mut s = TimedScheduler::new(base, Arc::clone(p));
                (run_experiment(&self.cfg, self.clients, &mut s), None)
            }
            Mode::Record => {
                let mut s = Recorder::new(base);
                let report = run_experiment(&self.cfg, self.clients, &mut s);
                (report, Some(s.into_capture()))
            }
        };
        let engine_ns = t0.elapsed().as_nanos() as u64;
        let horizon = self.cfg.switch_latency + self.cfg.launch_overhead;
        let post = (self.workload == Workload::ObserveFull).then(|| postprocess(&report, horizon));
        Outcome {
            report,
            engine_ns,
            post,
            capture,
        }
    }
}

fn nanos_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// The `olympctl blame` / `trace` / `metrics --store` path over one run:
/// attribution, its critical path, a blame diff, telemetry ingest into the
/// time-series store and the Chrome-trace export with phase slices.
/// `horizon` is the engine's token hand-off window. The diff is taken
/// against the run itself: what is measured is its cost.
pub fn postprocess(report: &RunReport, horizon: SimDuration) -> (PostOutput, PostCost) {
    let mut cost = PostCost::default();
    let t = Instant::now();
    let attr = report.attribution(horizon);
    cost.sweep_ns = nanos_since(t);
    let t = Instant::now();
    let cp = attrib::critical_path(&attr);
    cost.critical_ns = nanos_since(t);
    let t = Instant::now();
    let diff = attrib::diff(&attr, &attr);
    cost.diff_ns = nanos_since(t);
    let t = Instant::now();
    let store = report.tsdb();
    cost.tsdb_ns = nanos_since(t);
    let t = Instant::now();
    let (json, section) =
        crate::alloc::measure(|| report.chrome_trace_json_with_phases(&attr, &cp));
    cost.export_ns = nanos_since(t);
    cost.export_allocs = section.allocs;
    let out = PostOutput {
        runs: attr.runs.len(),
        critical_span_ns: cp.span_ns,
        diff_delta_ns: diff.delta_total_ns,
        tsdb_points: store.total_points(),
        export_len: json.len(),
        export_hash: crate::digest::fnv1a(json.as_bytes()),
    };
    (out, cost)
}

/// Paper workload: 5 Inception-v4 + 5 ResNet-152 clients at batch 100
/// under Olympian fair sharing with `Q` chosen at 2.5% overhead. The
/// observe variant traces everything and samples telemetry every 1 ms.
fn paper(w: Workload, cfg: EngineConfig, smoke: bool, mode: Mode) -> Prepared {
    let mut clients = fig13_14::workload(100);
    let batches = match (w, smoke) {
        (_, true) => 1,
        (Workload::ObserveFull, false) => OBSERVE_BATCHES,
        _ => bench::DEFAULT_NUM_BATCHES,
    };
    if smoke {
        // One client of each model keeps the heterogeneity.
        clients = vec![clients[0].clone(), clients[clients.len() - 1].clone()];
    }
    for c in &mut clients {
        c.num_batches = batches;
    }
    // Profiling runs on the plain configuration, as the paper profiles on
    // an idle, uninstrumented GPU.
    let t = Instant::now();
    let store = bench::build_store_for(&cfg, &clients);
    let profile_ns = nanos_since(t);
    let t = Instant::now();
    let q = bench::choose_q(&cfg, &clients, bench::DEFAULT_TOLERANCE);
    let curve_ns = nanos_since(t);
    let cfg = if w == Workload::ObserveFull {
        cfg.with_trace(TraceConfig::full())
            .with_telemetry(TelemetryConfig::enabled(SimDuration::from_millis(1)))
    } else {
        cfg
    };
    Prepared {
        workload: w,
        cfg,
        clients,
        cost: SetupCost {
            profile_ns,
            curve_ns,
        },
        sched: Sched::Olympian {
            store,
            policy: Box::new(RoundRobin::new()),
            q,
            watchdog: None,
        },
        mode,
    }
}

/// Batches per client in `observe-full`. The full trace and its Chrome
/// export grow with every batch: one batch per client already records
/// ~390k events, and three push the export's peak heap past 1.3 GiB.
pub const OBSERVE_BATCHES: u32 = 1;

/// Arrivals in `fleet-zipf`: 7.5× the `fleet` figure's 1,600.
pub const FLEET_ARRIVALS: usize = 12_000;

/// The `fleet` figure's model catalog: rebadged mini-tiny graphs with
/// inflated weights.
fn fleet_catalog() -> Vec<LoadedModel> {
    let base = models::mini::tiny(4);
    (0..fleet::MODELS)
        .map(|i| rebadge(&base, &format!("zoo-{i:02}"), fleet::WEIGHTS_BYTES))
        .collect()
}

fn rebadge(base: &LoadedModel, name: &str, weights_bytes: u64) -> LoadedModel {
    LoadedModel::from_parts(
        name,
        None,
        base.batch(),
        Arc::clone(base.graph()),
        weights_bytes,
        base.activation_bytes(),
    )
}

/// The `fleet` figure's fleet cell: a phase-shifting Zipf arrival trace
/// over 24 models on 2× GTX 1080 Ti + Titan X, cost-aware routing and a
/// 5 ms min-cost-flow tick, FIFO scheduling, sampled trace, 1 ms telemetry.
fn fleet_zipf(cfg: EngineConfig, seed: u64, smoke: bool, mode: Mode) -> Prepared {
    let arrivals = if smoke { 120 } else { FLEET_ARRIVALS };
    let zoo = fleet_catalog();
    let mut plan = DeploymentPlan::new();
    for m in &zoo {
        plan = plan.with_model(ModelDeployment::new(m.name(), m.clone()));
    }
    let devices = vec![
        gpusim::DeviceProfile::gtx_1080_ti(),
        gpusim::DeviceProfile::gtx_1080_ti(),
        gpusim::DeviceProfile::titan_x(),
    ];
    let cc = ClusterConfig::new(devices, LifecycleConfig::new(plan))
        .with_tick(fleet::TICK)
        .with_policy(RouterPolicy::CostAware)
        .with_reconfigure(true);
    let cfg = cfg
        .with_cluster(cc)
        .with_trace(TraceConfig::sampled())
        .with_telemetry(TelemetryConfig::enabled(SimDuration::from_millis(1)));
    let picks = workload::zipf_models(
        arrivals,
        fleet::MODELS,
        fleet::EXPONENT,
        arrivals / 2,
        fleet::ROTATE,
        seed,
    );
    let times = workload::uniform_arrivals(arrivals, fleet::SPACING, SimTime::ZERO);
    let clients = picks
        .into_iter()
        .zip(times)
        .map(|(m, at)| ClientSpec::new(zoo[m].clone(), 1).with_start(at))
        .collect();
    Prepared {
        workload: Workload::FleetZipf,
        cfg,
        clients,
        cost: SetupCost::default(),
        sched: Sched::Fifo,
        mode,
    }
}

/// Lifecycle-managed services in `chaos-control`.
pub const CHAOS_SERVICES: usize = 6;
/// Weight sets the `chaos-control` device fits.
pub const CHAOS_RESIDENT: u64 = 3;
/// Weights per `chaos-control` service: 16 MiB ≈ 1.4 ms of PCIe transfer,
/// and large against the clients' activations, so the device really holds
/// only [`CHAOS_RESIDENT`] services and the rest load on demand.
const CHAOS_WEIGHTS: u64 = 16 << 20;
/// Closed-loop clients in `chaos-control`.
pub const CHAOS_CLIENTS: usize = 48;
/// Batches per `chaos-control` client.
pub const CHAOS_BATCHES: u32 = 140;
/// Think time between a `chaos-control` client's batches.
pub const CHAOS_THINK: SimDuration = SimDuration::from_micros(800);
/// Stagger between `chaos-control` client starts; every client is
/// admitted before the first telemetry snapshot can report a burn.
const CHAOS_STAGGER: SimDuration = SimDuration::from_micros(10);
/// Scheduling quantum of `chaos-control`.
const CHAOS_QUANTUM: SimDuration = SimDuration::from_micros(200);
/// Per-run deadline: far above any run's latency, so the laxity scan asks
/// the cost oracle about every live run on every tick without cancelling.
const CHAOS_DEADLINE: SimDuration = SimDuration::from_millis(500);
/// Latency objective of every service: below the loaded run latency, so
/// the burn-rate monitor drives the degradation ladder.
const CHAOS_OBJECTIVE: SimDuration = SimDuration::from_millis(20);

fn chaos_name(i: usize) -> String {
    format!("svc-{i}")
}

/// Six mini-small services share a device that fits three weight sets;
/// 48 closed-loop clients with think time keep all of them in demand. The
/// `mixed` fault plan injects launch failures, a slowdown and a stall;
/// recovery (retries, breakers, the token watchdog) and the control plane
/// (EDF, laxity scan, burn-driven degradation ladder) respond.
fn chaos_control(cfg: EngineConfig, smoke: bool, mode: Mode) -> Prepared {
    let (n_clients, batches) = if smoke {
        (24, 3)
    } else {
        (CHAOS_CLIENTS, CHAOS_BATCHES)
    };
    let full = models::mini::small(4);
    let services: Vec<LoadedModel> = (0..CHAOS_SERVICES)
        .map(|i| rebadge(&full, &chaos_name(i), CHAOS_WEIGHTS))
        .collect();
    let budget =
        CHAOS_RESIDENT * CHAOS_WEIGHTS + n_clients as u64 * full.activation_bytes() + (64 << 10);
    let device = gpusim::DeviceProfile::custom("chaos-lab", 1.0, budget, 8, 0.0);
    let cfg = EngineConfig {
        device,
        queue_admission: true,
        ..cfg
    };

    let mut plan = DeploymentPlan::new();
    for s in &services {
        plan = plan.with_model(ModelDeployment::new(s.name(), s.clone()));
    }
    let t = Instant::now();
    // Static profiles: each service under its own name (the control
    // plane's laxity lookups) and its serving version at the Degraded
    // rung's halved batch (re-registrations after a ladder escalation).
    let divisor = ControlConfig::new().batch_divisor;
    let profiler = olympian::Profiler::new(&cfg);
    let full_profile = profiler.profile(&full);
    let half_profile = profiler.profile(&models::mini::small((full.batch() / divisor).max(1)));
    let mut store = ProfileStore::new();
    for s in &services {
        let mut p = full_profile.clone();
        p.model = s.name().to_string();
        store.insert(p);
        let mut p = half_profile.clone();
        p.model = format!("{}@v1", s.name());
        store.insert(p);
    }
    let store = Arc::new(store);
    let binder: Arc<dyn ProfileBinder> = StoreBinder::calibrate(&cfg, &plan, Arc::clone(&store));
    let profile_ns = nanos_since(t);
    let oracle: Arc<dyn CostOracle> = StoreCostOracle::new(Arc::clone(&store));
    let (binder, oracle) = match &mode {
        Mode::Timed(p) => (
            TimedBinder::new(binder, Arc::clone(p)) as Arc<dyn ProfileBinder>,
            TimedOracle::new(oracle, Arc::clone(p)) as Arc<dyn CostOracle>,
        ),
        _ => (binder, oracle),
    };

    let mut telemetry =
        TelemetryConfig::enabled(SimDuration::from_micros(500)).with_burn(BurnWindows {
            short: 1,
            long: 2,
            threshold: 2.0,
        });
    for s in &services {
        telemetry = telemetry.with_slo(SloSpec::new(s.name(), CHAOS_OBJECTIVE, 0.05));
    }
    let plan_faults = chaos::scenario("mixed")
        .expect("shipped chaos scenario")
        .plan;
    let cfg = cfg
        .with_lifecycle(LifecycleConfig::new(plan).with_binder(binder))
        .with_faults(FaultConfig::new(plan_faults))
        .with_control(ControlConfig::new().with_cost(oracle))
        .with_trace(TraceConfig::sampled())
        .with_telemetry(telemetry);
    let clients = (0..n_clients)
        .map(|i| {
            ClientSpec::new(services[i % CHAOS_SERVICES].clone(), batches)
                .with_start(SimTime::ZERO + CHAOS_STAGGER.mul_f64(i as f64))
                .with_think_time(CHAOS_THINK)
                .with_run_deadline(CHAOS_DEADLINE)
        })
        .collect();
    Prepared {
        workload: Workload::ChaosControl,
        cfg,
        clients,
        cost: SetupCost {
            profile_ns,
            curve_ns: 0,
        },
        sched: Sched::Olympian {
            store,
            policy: Box::new(DeadlinePolicy::edf()),
            q: CHAOS_QUANTUM,
            watchdog: Some(3.0),
        },
        mode,
    }
}
