//! Closed-loop SLO control on a regressed device, against the open loop.
//!
//! Both cells replay the PR 3 incident, deepened: profiles (and the
//! latency objective) are calibrated on the fresh device, then the
//! workload runs on a device that silently regressed 2.3x — enough that
//! the slot freed by deadline-ordered serialization no longer covers the
//! slowdown, so *something* has to give. The **open loop** is the PR 3
//! deployment — fair sharing with telemetry that *detects* the burn but
//! acts on nothing, so every run breaches the objective until the clients
//! drain. The **closed loop** runs the PR 9 control plane: a
//! deadline-aware hand-off policy serializes runs against their deadlines,
//! the laxity scan cancels the one session whose deadline has become
//! infeasible *before* it is ever granted the token (and before its
//! deadline timer would fire), and the drift alert rebinds a rescaled
//! profile mid-run so laxity estimates track the real device. The
//! survivors' p99 stays inside the objective the fresh device promised;
//! nothing in the open loop does.
//!
//! The report ends with a latency-attribution diff (open vs closed), which
//! pins the p99 gap on execute/token-wait — GPU time the open loop spent
//! interleaving runs that were all going to miss.

use crate::figs::{completed_runs, counter, p99_latency_us, unknown_scenario, Claim, Figure};
use crate::runs::{self, QUANTUM};
use crate::{banner, build_store, default_config, format_finish_times};
use controlplane::{ControlConfig, CostOracle};
use olympian::{
    DeadlineMode, DeadlinePolicy, OlympianScheduler, Policy, ProfileStore, StoreCostOracle,
};
use serving::{attrib, run_experiment, ClientSpec, EngineConfig, RunReport, TraceConfig};
use simtime::SimDuration;
use std::sync::Arc;
use telemetry::{DriftConfig, SloSpec, TelemetryConfig};

/// Snapshot cadence of both cells.
pub const INTERVAL: SimDuration = SimDuration::from_micros(100);
/// How much the device slowed down after profiling. Deadline-ordered
/// serialization absorbs a ~1.4x regression outright (it eliminates the
/// fair loop's hand-off overhead); at 2.3x the last client in deadline
/// order is infeasible and the control plane must spend it.
const REGRESSION: f64 = 2.3;

/// Both cells of the experiment plus the calibrated objective.
pub struct Cells {
    /// The latency objective calibrated on the fresh device (p50 × 1.15).
    pub objective: SimDuration,
    /// Fair sharing on the regressed device, telemetry only.
    pub open: RunReport,
    /// Deadline policy + control plane on the regressed device.
    pub closed: RunReport,
}

/// Runs both cells under the given hand-off ordering. The open cell is
/// the catalog's `drifted` incident at a 2.3x regression.
pub fn run_cells(mode: DeadlineMode) -> Cells {
    run_cells_with(mode, |store| StoreCostOracle::new(store))
}

/// [`run_cells`] with the closed cell's cost oracle built by `oracle` over
/// the cell's profile store, which the scheduler shares.
pub fn run_cells_with(
    mode: DeadlineMode,
    oracle: impl FnOnce(Arc<ProfileStore>) -> Arc<dyn CostOracle>,
) -> Cells {
    let open = runs::drifted(REGRESSION, TraceConfig::sampled(), Some(INTERVAL));
    let objective = open.objective.expect("the drifted incident calibrates an objective");
    let clients = runs::drifted_workload();
    let model_name = clients[0].model.name().to_string();
    let full_batch = clients[0].model.batch();

    // The store covers the full batch and the Degraded-rung shrunk batch
    // (batch / divisor), so a ladder escalation can re-register jobs at
    // the smaller hint without a profile miss. It is the closed cell's
    // own: the closed loop rebinds profiles in-run.
    let divisor = ControlConfig::new().batch_divisor;
    let profiled = [
        models::mini::small(full_batch),
        models::mini::small((full_batch / divisor).max(1)),
    ];
    let store = build_store(&default_config(), &profiled);

    // The drift reference must match the shape of the quanta the detector
    // observes. EDF holds the token for whole runs, so its expected
    // observation is the fresh whole-run GPU duration; least-laxity rotates
    // like fair sharing, so its observations are quantum-sized like the
    // open loop's. A mismatched reference would clamp the rebind scale to
    // the floor instead of the honest regression factor.
    let drift_ref = match mode {
        DeadlineMode::Edf => {
            store.resolve(&model_name, full_batch).expect("profiled").gpu_duration
        }
        DeadlineMode::LeastLaxity => QUANTUM,
    };

    let closed_clients: Vec<ClientSpec> = clients
        .into_iter()
        .map(|c| c.with_run_deadline(objective))
        .collect();
    let closed_cfg = EngineConfig {
        device: runs::regressed_device(REGRESSION),
        ..default_config()
    }
    .with_trace(TraceConfig::sampled())
    .with_telemetry(
        TelemetryConfig::enabled(INTERVAL)
            .with_slo(SloSpec::new(&model_name, objective, 0.05))
            .with_burn(runs::BURN)
            .with_drift(DriftConfig::new(drift_ref, 0.25)),
    )
    .with_control(ControlConfig::new().with_cost(oracle(Arc::clone(&store))));
    let mut closed_sched = OlympianScheduler::new(store, Box::new(deadline_policy(mode)), QUANTUM);
    let closed = run_experiment(&closed_cfg, closed_clients, &mut closed_sched);

    Cells { objective, open: open.report, closed }
}

/// One cell section of the report.
fn cell_section(label: &str, report: &RunReport, objective: SimDuration) -> String {
    let p99 = p99_latency_us(report);
    let obj_us = objective.as_nanos() as f64 / 1_000.0;
    let verdict = if completed_runs(report) == 0 {
        "NO RUNS SERVED"
    } else if p99 <= obj_us {
        "WITHIN SLO"
    } else {
        "SLO MISS"
    };
    let mut out = format_finish_times(label, report);
    out.push_str(&format!(
        "p99 run latency = {p99:.0}us vs objective {obj_us:.0}us -> {verdict}\n\
         slo breaches = {}, burn alerts = {}, drift alerts = {}\n\
         control: transitions={} rebinds={} laxity-cancels={} sheds={} batch-shrinks={}\n",
        counter(report, "slo_breaches"),
        counter(report, "alerts_slo_burn"),
        counter(report, "alerts_drift"),
        counter(report, "control_transitions"),
        counter(report, "control_profile_rebinds"),
        counter(report, "control_laxity_cancels"),
        counter(report, "clients_admission_shed"),
        counter(report, "control_batch_shrinks"),
    ));
    out.push_str("client outcomes:\n");
    for c in &report.clients {
        out.push_str(&format!("  client {:>2}: {}\n", c.client.0, c.outcome));
    }
    out
}

/// The deadline-aware hand-off policy of the given ordering.
fn deadline_policy(mode: DeadlineMode) -> DeadlinePolicy {
    match mode {
        DeadlineMode::Edf => DeadlinePolicy::edf(),
        DeadlineMode::LeastLaxity => DeadlinePolicy::laxity(),
    }
}

/// Renders the closed-loop report under the given hand-off ordering, with
/// its claims: the closed loop holds the objective the open loop burns,
/// and the control plane acted — under EDF by cancelling and rebinding
/// while still serving runs, under least laxity by cancelling every
/// session of the overload.
pub fn run_with_policy(mode: DeadlineMode) -> Figure {
    let mut out = banner(
        "closedloop",
        "closed-loop SLO control on a regressed device vs the PR 3 open loop",
    );
    let cells = run_cells(mode);
    let policy = deadline_policy(mode).name().to_string();
    let obj_us = cells.objective.as_nanos() as f64 / 1_000.0;
    let workload = runs::drifted_workload();
    out.push_str(&format!(
        "\nworkload: {} clients x mini-small(4) x {} batches; device \
         regressed {REGRESSION}x after profiling\n\
         objective: fresh fair-shared p50 x 1.15 = {obj_us:.0}us\n\
         closed loop: policy={policy}, per-run deadline = objective, control plane on\n",
        workload.len(),
        workload[0].num_batches,
    ));

    out.push_str(&cell_section("open loop (fair, no control)", &cells.open, cells.objective));
    out.push_str(&cell_section(
        &format!("closed loop ({policy} + control plane)"),
        &cells.closed,
        cells.objective,
    ));

    let open_p99 = p99_latency_us(&cells.open);
    let closed_p99 = p99_latency_us(&cells.closed);
    let closed_within = closed_p99 <= obj_us;
    let open_within = open_p99 <= obj_us;
    let closed_runs = completed_runs(&cells.closed);
    let cancels = counter(&cells.closed, "control_laxity_cancels");
    let rebinds = counter(&cells.closed, "control_profile_rebinds");
    out.push_str(&format!(
        "\nsummary: objective_us={obj_us:.0} open_p99_us={open_p99:.0} \
         closed_p99_us={closed_p99:.0} open_runs={} closed_runs={closed_runs} \
         closed_within_slo={closed_within} open_within_slo={open_within} \
         laxity_cancels={cancels} rebinds={rebinds} sheds={}\n",
        completed_runs(&cells.open),
        counter(&cells.closed, "clients_admission_shed"),
    ));
    // Under least laxity, equal deadlines make the policy rotate like fair
    // sharing, so this overload cancels every session: the objective claim
    // then covers no served run, and the policy's own claim says so.
    let acted = match mode {
        DeadlineMode::Edf => Claim::new(
            "closedloop.edf.cancels_and_rebinds_while_serving",
            closed_runs > 0 && cancels >= 1 && rebinds >= 1,
            format!(
                "{closed_runs} runs served (bound > 0), {cancels} laxity cancels (bound >= 1), \
                 {rebinds} rebinds (bound >= 1)"
            ),
        ),
        DeadlineMode::LeastLaxity => Claim::new(
            "closedloop.laxity.cancels_the_whole_overload",
            closed_runs == 0,
            format!("{closed_runs} runs served (bound 0)"),
        ),
    };
    let claims = vec![
        Claim::new(
            format!("closedloop.{policy}.closed_holds_the_objective_open_burns"),
            closed_within && obj_us < open_p99,
            format!(
                "closed p99 {closed_p99:.0}us <= objective {obj_us:.0}us < open p99 {open_p99:.0}us"
            ),
        ),
        acted,
    ];

    // Where did the open loop's extra p99 go? Attribute both traces and
    // blame the diff (open = target, closed = baseline).
    let horizon = default_config().switch_latency + default_config().launch_overhead;
    let open_attr = cells.open.attribution(horizon);
    let closed_attr = cells.closed.attribution(horizon);
    let cp = attrib::critical_path(&open_attr);
    let d = attrib::diff(&open_attr, &closed_attr);
    out.push('\n');
    out.push_str(&attrib::render_text("open-loop", &open_attr, &cp, Some(("closed-loop", &d))));

    out.push_str(
        "\nShape: with deadlines bound, the hand-off policy serializes runs \
         against their deadlines instead of interleaving three clients that \
         would all miss; the laxity scan cancels the one infeasible session \
         while it is still parked (before the deadline timer would fire), and \
         the drift alert rebinds a rescaled profile mid-run so later \
         estimates track the regressed device. The ladder never escalates — \
         the served requests never breach, so there is no burn — which is \
         the point: the closed loop spends one client's deadline budget to \
         keep every request it serves inside the objective.\n",
    );
    Figure { text: out, claims }
}

/// Renders the default (EDF) closed-loop report, saved as
/// `results/closedloop.txt`.
pub fn run() -> Figure {
    run_with_policy(DeadlineMode::Edf)
}

/// Renders the named control scenario (`drifted`, the only one) under the
/// given hand-off ordering.
///
/// # Errors
///
/// An unknown name, listing the scenario.
pub fn scenario_figure(name: &str, mode: DeadlineMode) -> Result<Figure, String> {
    match name {
        "drifted" => Ok(run_with_policy(mode)),
        other => Err(unknown_scenario("control", other, ["drifted"])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serving::ClientOutcome;

    #[test]
    fn closed_loop_holds_the_objective_the_open_loop_burns() {
        let cells = run_cells(DeadlineMode::Edf);
        let obj_us = cells.objective.as_nanos() as f64 / 1_000.0;
        let open_p99 = p99_latency_us(&cells.open);
        let closed_p99 = p99_latency_us(&cells.closed);
        assert!(
            closed_p99 <= obj_us,
            "closed p99 {closed_p99:.0}us must meet the {obj_us:.0}us objective"
        );
        assert!(
            open_p99 > obj_us,
            "open p99 {open_p99:.0}us must breach the {obj_us:.0}us objective"
        );

        // The open loop only observes the burn.
        assert!(counter(&cells.open, "slo_breaches") > 0);
        assert!(counter(&cells.open, "alerts_slo_burn") > 0);
        assert_eq!(counter(&cells.open, "control_laxity_cancels"), 0);
        assert!(cells.open.all_finished());

        // The closed loop acts: the infeasible session is cancelled by the
        // laxity scan and the stale profile is rebound mid-run; the served
        // requests never breach, so the ladder never escalates.
        assert!(counter(&cells.closed, "control_laxity_cancels") >= 1);
        assert!(counter(&cells.closed, "control_profile_rebinds") >= 1);
        assert_eq!(counter(&cells.closed, "slo_breaches"), 0);
        assert_eq!(counter(&cells.closed, "control_transitions"), 0);
        assert_eq!(counter(&cells.closed, "clients_admission_shed"), 0);
        let cancelled = cells
            .closed
            .clients
            .iter()
            .filter(|c| matches!(c.outcome, ClientOutcome::DeadlineExceeded(_)))
            .count();
        assert_eq!(cancelled, 1, "exactly one session is infeasible");
        assert_eq!(cells.closed.finished_count(), runs::drifted_workload().len() - 1);

        // The cancellation and rebind land on the trace as typed events.
        let json = cells.closed.chrome_trace_json();
        assert!(json.contains("\"laxity-cancel\""));
        assert!(json.contains("\"profile-rebind\""));
    }

    #[test]
    fn report_carries_the_machine_readable_summary() {
        let out = run().text;
        assert!(out.contains("summary: objective_us="));
        assert!(out.contains("closed_within_slo=true open_within_slo=false"));
        assert!(out.contains("WITHIN SLO"));
        assert!(out.contains("SLO MISS"));
        assert!(out.contains("latency attribution: open-loop"));
        assert!(out.contains("blame vs baseline: closed-loop"));
    }

    #[test]
    fn laxity_policy_sheds_the_whole_overload_instead_of_burning() {
        // Least-laxity with equal deadlines degenerates to fair rotation,
        // so under a 2.3x overload every session's laxity goes negative —
        // the textbook LLF domino miss. The control plane's answer is to
        // cancel all of them early rather than serve three guaranteed
        // breaches: zero runs complete, and therefore zero runs breach.
        let cells = run_cells(DeadlineMode::LeastLaxity);
        assert_eq!(cells.closed.scheduler_name, "olympian-laxity");
        assert_eq!(cells.closed.finished_count(), 0);
        assert_eq!(counter(&cells.closed, "slo_breaches"), 0);
        let cancelled = cells
            .closed
            .clients
            .iter()
            .filter(|c| matches!(c.outcome, ClientOutcome::DeadlineExceeded(_)))
            .count();
        assert_eq!(cancelled, cells.closed.clients.len(), "every session is infeasible under LLF");
        // The report stays honest about serving nothing.
        let out = run_with_policy(DeadlineMode::LeastLaxity).text;
        assert!(out.contains("NO RUNS SERVED"));
        assert!(out.contains("closed_runs=0"));
    }
}
