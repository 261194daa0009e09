//! Model-lifecycle suite: memory-budgeted churn and canary rollouts.
//!
//! Two scenarios exercise the lifecycle manager end to end under load:
//!
//! * **churn** — six single-version deployments share a device whose
//!   memory fits only [`CHURN_RESIDENT`] weight sets. Staggered open-loop
//!   clients keep every service active, so the manager continuously
//!   evicts the cheapest idle resident version (cost-aware LRU) and
//!   reloads it on demand — without ever exceeding the device budget.
//! * **canary** — one deployment publishes version 2 mid-run. The rollout
//!   controller splits traffic deterministically (every stride-th run to
//!   the candidate), then promotes a healthy candidate and rolls back a
//!   regressed one on the mean-latency gate.
//!
//! Every run is a deterministic simulation with per-version cost profiles
//! wired through [`StoreBinder`], so the report is byte-identical across
//! `--jobs N`.

use crate::banner;
use crate::figs::{fair, unknown_scenario, Claim, Figure};
use metrics::table::render_table;
use models::LoadedModel;
use olympian::{ProfileStore, StoreBinder};
use serving::lifecycle::{DeploymentPlan, LifecycleConfig, ModelDeployment, CANARY_TOLERANCE};
use serving::{run_experiment, ClientSpec, EngineConfig, RunReport, TraceConfig};
use simtime::{SimDuration, SimTime};
use std::sync::Arc;
use telemetry::TelemetryConfig;

/// Deployments in the churn scenario.
pub const CHURN_SERVICES: usize = 6;
/// Whole weight sets the churn device budget fits (< [`CHURN_SERVICES`],
/// so eviction must fire for every client to finish).
pub const CHURN_RESIDENT: u64 = 3;
/// Scheduling quantum for the Olympian runs.
const QUANTUM: SimDuration = SimDuration::from_micros(200);
/// Telemetry snapshot cadence.
const CADENCE: SimDuration = SimDuration::from_micros(500);
/// Batches per churn client.
const CHURN_BATCHES: u32 = 4;
/// Think time between a churn client's batches: long enough for its
/// version to go idle (and become evictable) while other services run.
const CHURN_THINK: SimDuration = SimDuration::from_micros(800);
/// Stagger between churn client start times.
const CHURN_STAGGER: SimDuration = SimDuration::from_micros(150);
/// Clients of the canaried service.
const CANARY_CLIENTS: usize = 3;
/// Batches per canary client.
const CANARY_BATCHES: u32 = 16;
/// When version 2 of the canaried service is published. Once it serves,
/// the manager's canary sends every 3rd run to the candidate and decides
/// after 4 completed runs per arm (`lifecycle::{CANARY_STRIDE,
/// CANARY_MIN_RUNS}`), promoting within [`CANARY_TOLERANCE`], 25%, of the
/// incumbent.
const CANARY_PUBLISH: SimTime = SimTime::from_micros(500);

/// A named lifecycle scenario (`olympctl lifecycle <name>`).
pub struct Scenario {
    /// Stable name.
    pub name: &'static str,
    /// One-line description for the report.
    pub caption: &'static str,
}

/// The scenario catalogue.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "churn",
            caption: "6 services share memory that fits 3 weight sets; evict + reload on demand",
        },
        Scenario {
            name: "canary",
            caption: "version 2 published mid-run; promote when healthy, roll back when regressed",
        },
    ]
}

/// Looks up a scenario by name.
pub fn scenario(name: &str) -> Option<Scenario> {
    scenarios().into_iter().find(|s| s.name == name)
}

/// Rebadges a mini zoo model as the named service (same graph, weights
/// and batch). `regressed` picks a much heavier graph — the unhealthy
/// canary candidate.
fn service(name: &str, regressed: bool) -> LoadedModel {
    let m = if regressed { models::mini::small(4) } else { models::mini::tiny(4) };
    LoadedModel::from_parts(
        name,
        None,
        m.batch(),
        Arc::clone(m.graph()),
        m.weights_bytes(),
        m.activation_bytes(),
    )
}

/// Device memory budget of the churn scenario: [`CHURN_RESIDENT`] weight
/// sets plus headroom for every client's activations.
pub fn churn_budget() -> u64 {
    let m = service("probe", false);
    CHURN_RESIDENT * m.weights_bytes()
        + CHURN_SERVICES as u64 * m.activation_bytes()
        + (64 << 10)
}

fn churn_name(i: usize) -> String {
    format!("svc-{i}")
}

/// An engine + profile store with the lifecycle manager on: the store
/// starts empty and is populated per-version by the calibrated binder as
/// the manager loads and unloads versions.
fn lifecycle_cfg(mut cfg: EngineConfig, plan: DeploymentPlan) -> (EngineConfig, Arc<ProfileStore>) {
    cfg = cfg
        .with_trace(TraceConfig::sampled())
        .with_telemetry(TelemetryConfig::enabled(CADENCE));
    let store = Arc::new(ProfileStore::new());
    let binder = StoreBinder::calibrate(&cfg, &plan, Arc::clone(&store));
    let lc = LifecycleConfig::new(plan).with_binder(binder);
    (cfg.with_lifecycle(lc), store)
}

/// Runs the churn scenario: more deployments than fit, staggered
/// open-loop clients, cost-aware eviction keeping residency under budget.
pub fn churn_report() -> RunReport {
    let mut plan = DeploymentPlan::new();
    for i in 0..CHURN_SERVICES {
        let name = churn_name(i);
        plan = plan.with_model(ModelDeployment::new(name.clone(), service(&name, false)));
    }
    let device = gpusim::DeviceProfile::custom("lifecycle-lab", 1.0, churn_budget(), 8, 0.0);
    let cfg = EngineConfig { device, ..EngineConfig::default() };
    let (cfg, store) = lifecycle_cfg(cfg, plan);
    let clients: Vec<ClientSpec> = (0..CHURN_SERVICES)
        .map(|i| {
            ClientSpec::new(service(&churn_name(i), false), CHURN_BATCHES)
                .with_start(SimTime::ZERO + CHURN_STAGGER.mul_f64(i as f64))
                .with_think_time(CHURN_THINK)
        })
        .collect();
    let mut sched = fair(store, QUANTUM);
    run_experiment(&cfg, clients, &mut sched)
}

/// Runs the canary scenario. `regressed` publishes a version-2 graph that
/// is far heavier than version 1, so the mean-latency gate rolls it back;
/// otherwise version 2 matches version 1 and is promoted.
pub fn canary_report(regressed: bool) -> RunReport {
    let plan = DeploymentPlan::new().with_model(
        ModelDeployment::new("svc", service("svc", false))
            .with_version(service("svc", regressed), CANARY_PUBLISH),
    );
    let (cfg, store) = lifecycle_cfg(EngineConfig::default(), plan);
    let clients =
        vec![ClientSpec::new(service("svc", false), CANARY_BATCHES); CANARY_CLIENTS];
    let mut sched = fair(store, QUANTUM);
    run_experiment(&cfg, clients, &mut sched)
}

/// Headline numbers of one lifecycle run.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Clients that finished every batch.
    pub finished: usize,
    /// Version loads (initial loads plus reloads after eviction).
    pub loads: u64,
    /// Warm-up runs executed by freshly loaded versions.
    pub warmups: u64,
    /// Memory-pressure evictions of idle versions.
    pub evictions: u64,
    /// Versions unloaded (drained rollouts and evictions combined).
    pub unloads: u64,
    /// Drains started (version retirements that waited for in-flight runs).
    pub drains: u64,
    /// Canary candidates promoted.
    pub promotions: u64,
    /// Canary candidates rolled back.
    pub rollbacks: u64,
    /// Peak device memory in use, bytes.
    pub peak_bytes: u64,
    /// Makespan in seconds.
    pub makespan_s: f64,
}

/// Summarises a lifecycle run from its telemetry counters.
pub fn outcome(r: &RunReport) -> Outcome {
    let c = |name: &str| r.telemetry.counter(name).unwrap_or(0);
    Outcome {
        finished: r.finished_count(),
        loads: c("versions_loaded"),
        warmups: c("warmup_runs"),
        evictions: c("versions_evicted"),
        unloads: c("versions_unloaded"),
        drains: c("drains_started"),
        promotions: c("canary_promotions"),
        rollbacks: c("canary_rollbacks"),
        peak_bytes: r.peak_memory,
        makespan_s: r.makespan.as_secs_f64(),
    }
}

fn row(label: &str, clients: usize, o: &Outcome) -> Vec<String> {
    vec![
        label.to_string(),
        format!("{}/{}", o.finished, clients),
        format!("{}", o.loads),
        format!("{}", o.warmups),
        format!("{}", o.evictions),
        format!("{}", o.unloads),
        format!("{}", o.drains),
        format!("{}", o.promotions),
        format!("{}", o.rollbacks),
        format!("{:.1}", o.peak_bytes as f64 / (1 << 20) as f64),
        format!("{:.3}", o.makespan_s),
    ]
}

/// One run of a scenario: its table row, verdict line and claim.
struct Cell {
    row: Vec<String>,
    verdict: String,
    claim: Claim,
}

fn verdict(pass: bool) -> &'static str {
    if pass { "PASS" } else { "FAIL" }
}

/// The churn run: every client finishes while eviction and reload keep
/// residency under the budget.
fn churn_cell() -> Cell {
    let churn = outcome(&churn_report());
    let pass = churn.finished == CHURN_SERVICES
        && churn.evictions >= 1
        && churn.loads > CHURN_SERVICES as u64
        && churn.peak_bytes <= churn_budget();
    Cell {
        row: row("churn", CHURN_SERVICES, &churn),
        verdict: format!(
            "churn            {} — {} loads over {} services under a {}-set budget \
             ({} evictions, peak {:.1} of {:.1} MB)\n",
            verdict(pass),
            churn.loads,
            CHURN_SERVICES,
            CHURN_RESIDENT,
            churn.evictions,
            churn.peak_bytes as f64 / (1 << 20) as f64,
            churn_budget() as f64 / (1 << 20) as f64,
        ),
        claim: Claim::new(
            "lifecycle.churn_evicts_and_reloads_under_budget",
            pass,
            format!(
                "{}/{CHURN_SERVICES} finished, {} evictions (bound >= 1), {} loads (bound > \
                 {CHURN_SERVICES}), peak {} of {} bytes",
                churn.finished,
                churn.evictions,
                churn.loads,
                churn.peak_bytes,
                churn_budget()
            ),
        ),
    }
}

/// The healthy canary run: version 2 is promoted.
fn healthy_cell() -> Cell {
    let healthy = outcome(&canary_report(false));
    let pass =
        healthy.finished == CANARY_CLIENTS && healthy.promotions == 1 && healthy.rollbacks == 0;
    Cell {
        row: row("canary-healthy", CANARY_CLIENTS, &healthy),
        verdict: format!(
            "canary-healthy   {} — candidate within {:.0}% of the incumbent is promoted \
             ({} promotion, {} rollbacks, {} drain)\n",
            verdict(pass),
            CANARY_TOLERANCE * 100.0,
            healthy.promotions,
            healthy.rollbacks,
            healthy.drains,
        ),
        claim: Claim::new(
            "lifecycle.canary_promotes_healthy",
            pass,
            format!(
                "{}/{CANARY_CLIENTS} finished, {} promotions (bound 1), {} rollbacks (bound 0)",
                healthy.finished, healthy.promotions, healthy.rollbacks
            ),
        ),
    }
}

/// The regressed canary run: version 2 is rolled back.
fn regressed_cell() -> Cell {
    let regressed = outcome(&canary_report(true));
    let pass = regressed.finished == CANARY_CLIENTS
        && regressed.rollbacks == 1
        && regressed.promotions == 0;
    Cell {
        row: row("canary-regressed", CANARY_CLIENTS, &regressed),
        verdict: format!(
            "canary-regressed {} — heavier candidate breaches the latency gate and is \
             rolled back ({} rollback, {} promotions)\n",
            verdict(pass),
            regressed.rollbacks,
            regressed.promotions,
        ),
        claim: Claim::new(
            "lifecycle.canary_rolls_back_regressed",
            pass,
            format!(
                "{}/{CANARY_CLIENTS} finished, {} rollbacks (bound 1), {} promotions (bound 0)",
                regressed.finished, regressed.rollbacks, regressed.promotions
            ),
        ),
    }
}

/// Runs the whole suite and returns the report and its claims, one per
/// run.
pub fn run() -> Figure {
    render(&scenarios())
}

/// Renders one scenario's rows and claims as `results/lifecycle.txt`
/// shows them.
///
/// # Errors
///
/// An unknown name, listing the scenarios.
pub fn scenario_figure(name: &str) -> Result<Figure, String> {
    match scenario(name) {
        Some(s) => Ok(render(&[s])),
        None => Err(unknown_scenario("lifecycle", name, scenarios().iter().map(|s| s.name))),
    }
}

/// The report over `selected` scenarios: one table row, verdict line and
/// claim per run.
fn render(selected: &[Scenario]) -> Figure {
    let mut out = banner(
        "Lifecycle",
        "Versioned registry, memory-budgeted residency and canary rollouts",
    );
    let cells: Vec<Cell> = selected
        .iter()
        .flat_map(|s| match s.name {
            "churn" => vec![churn_cell()],
            "canary" => vec![healthy_cell(), regressed_cell()],
            other => unreachable!("{other} is not a lifecycle scenario"),
        })
        .collect();
    let rows: Vec<Vec<String>> = cells.iter().map(|c| c.row.clone()).collect();
    out.push_str(&render_table(
        &[
            "scenario", "finished", "loads", "warmups", "evict", "unload", "drain",
            "promote", "rollback", "peak (MB)", "makespan (s)",
        ],
        &rows,
    ));
    out.push('\n');
    for c in &cells {
        out.push_str(&c.verdict);
    }
    let claims: Vec<Claim> = cells.into_iter().map(|c| c.claim).collect();
    out.push_str(&format!(
        "\nlifecycle band: {}. The manager never exceeds the device budget, keeps \
         every client servable through eviction churn, and gates version 2 on \
         observed run latency.\n",
        verdict(claims.iter().all(|c| c.held))
    ));
    Figure { text: out, claims }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_is_known() {
        for s in scenarios() {
            assert!(scenario(s.name).is_some());
        }
        assert!(scenario("no-such-scenario").is_none());
        let err = scenario_figure("no-such-scenario").unwrap_err();
        assert!(err.contains("available: churn, canary"), "{err}");
    }

    #[test]
    fn every_claim_holds_and_each_scenario_repeats_its_own() {
        let full = run();
        assert!(full.claims.iter().all(|c| c.held), "{:?}", full.claims);
        let full: Vec<String> = full.claims.iter().map(ToString::to_string).collect();
        for s in scenarios() {
            for c in scenario_figure(s.name).unwrap().claims {
                assert!(full.contains(&c.to_string()), "{c}");
            }
        }
    }
}
