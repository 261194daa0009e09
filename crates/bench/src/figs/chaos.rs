//! Chaos resilience suite: fault-injected runs against their fault-free
//! twins.
//!
//! Each scenario replays the same workload four ways — {fifo, olympian} ×
//! {fault-free, faulted} — under the engine's deterministic fault
//! injection (see the `faults` crate) with the full recovery stack on:
//! kernel retries with exponential backoff, per-client circuit breakers
//! and Olympian's token-hold watchdog. The report's claims are the
//! resilience band the repo promises: with recovery, Olympian's survivor
//! fairness (Jain over finish times) stays within [`JAIN_BAND`] of its
//! fault-free run and survivor p99 run latency within [`P99_BAND`]×, while
//! the baseline's finish-time spread collapses under the same faults.

use crate::figs::{fair, unknown_scenario, Claim, Figure};
use crate::{banner, build_store, build_store_for, default_config, runs};
use controlplane::ControlConfig;
use metrics::table::render_table;
use metrics::{max_min_ratio, try_jain_fairness};
use serving::faults::{FaultConfig, FaultPlan};
use serving::{run_experiment, ClientOutcome, ClientSpec, FifoScheduler, RunReport, TraceConfig};
use simtime::{SimDuration, SimTime};
use telemetry::{SloSpec, TelemetryConfig};

/// Survivor Jain fairness under faults must stay within this fraction of
/// the fault-free run's Jain index.
pub const JAIN_BAND: f64 = 0.95;
/// Survivor p99 run latency under faults must stay within this multiple
/// of the fault-free run's p99.
pub const P99_BAND: f64 = 2.5;

/// Clients in the chaos workload.
const CLIENTS: usize = 6;
/// Batches per client.
const BATCHES: u32 = 6;
/// Scheduling quantum.
const QUANTUM: SimDuration = SimDuration::from_micros(200);
/// Token-hold watchdog patience, in quanta.
const WATCHDOG_QUANTA: f64 = 3.0;
/// Telemetry snapshot cadence.
const CADENCE: SimDuration = SimDuration::from_micros(500);

/// A named disturbance plan.
pub struct Scenario {
    /// Stable name (`olympctl chaos <name>`).
    pub name: &'static str,
    /// One-line description for the report.
    pub caption: &'static str,
    /// What gets injected.
    pub plan: FaultPlan,
}

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

/// The escalating scenario ladder, mildest first.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "kernel-faults",
            caption: "2% of kernel launches transiently fail",
            plan: FaultPlan::new().with_kernel_failures(0.02),
        },
        Scenario {
            name: "slowdown",
            caption: "kernels run 3x slower during [2ms, 6ms)",
            plan: FaultPlan::new().with_slowdown(3.0, ms(2), ms(6)),
        },
        Scenario {
            name: "stall",
            caption: "the device starts nothing during [3ms, 5ms)",
            plan: FaultPlan::new().with_stall(ms(3), ms(5)),
        },
        Scenario {
            name: "mixed",
            caption: "1% kernel faults + 2x slowdown [2ms, 4ms) + stall [6ms, 7ms)",
            plan: FaultPlan::new()
                .with_kernel_failures(0.01)
                .with_slowdown(2.0, ms(2), ms(4))
                .with_stall(ms(6), ms(7)),
        },
        Scenario {
            name: "drift",
            caption: "sustained 1.4x device regression during [1ms, 50ms)",
            plan: FaultPlan::new().with_slowdown(1.4, ms(1), ms(50)),
        },
    ]
}

/// Looks up a scenario by name.
pub fn scenario(name: &str) -> Option<Scenario> {
    scenarios().into_iter().find(|s| s.name == name)
}

fn workload() -> Vec<ClientSpec> {
    vec![ClientSpec::new(models::mini::small(4), BATCHES); CLIENTS]
}

/// Runs the chaos workload once. `plan: None` is the fault-free twin;
/// `olympian` selects Olympian fair sharing (with the token-hold watchdog
/// armed) over the TF-Serving baseline. Trace capture is sampled and
/// telemetry is on, so the run is fully observable — and byte-comparable
/// across worker counts.
pub fn chaos_report(plan: Option<&FaultPlan>, olympian: bool) -> RunReport {
    let clients = workload();
    let mut cfg = default_config()
        .with_trace(TraceConfig::sampled())
        .with_telemetry(TelemetryConfig::enabled(CADENCE));
    // Profiles come from the healthy device: faults are a runtime
    // disturbance, not a property of the offline profile.
    let store = build_store_for(&cfg, &clients);
    if let Some(p) = plan {
        cfg = cfg.with_faults(FaultConfig::new(p.clone()));
    }
    if olympian {
        let mut sched = fair(store, QUANTUM).with_watchdog(WATCHDOG_QUANTA);
        run_experiment(&cfg, clients, &mut sched)
    } else {
        run_experiment(&cfg, clients, &mut FifoScheduler::new())
    }
}

/// The control-plane axis of the `drift` scenario: the same sustained-
/// slowdown workload twice, degradation ladder {off, on}, with the latency
/// objective the fault-free device promises ([`runs::fresh_objective`]).
/// The off cell only observes — burn alerts pile up, nothing acts. In the
/// on cell the repeated burn episodes walk the ladder up to Shedding
/// (shrinking batch hints on the way), and the quiet tail after the
/// slowdown window walks it back down. Every client is admitted at time
/// zero — before the first burn — so the Shedding rung has no admissions
/// left to reject: the ladder degrades the work it already accepted
/// instead of dropping clients, which is exactly the ≤10% shed bound the
/// suite asserts.
///
/// Returns `(control_off, control_on)`.
pub fn control_axis() -> (RunReport, RunReport) {
    let s = scenario("drift").expect("registered scenario");
    let clients = workload();
    let model_name = clients[0].model.name().to_string();
    let objective =
        runs::fresh_objective(&clients, &build_store_for(&default_config(), &clients));

    let cell = |control: bool| -> RunReport {
        let clients = workload();
        let full_batch = clients[0].model.batch();
        let divisor = ControlConfig::new().batch_divisor;
        // Healthy-device profiles, covering the Degraded-rung shrunk batch
        // so ladder escalations re-register without a profile miss.
        let profiled = [
            models::mini::small(full_batch),
            models::mini::small((full_batch / divisor).max(1)),
        ];
        let store = build_store(&default_config(), &profiled);
        let mut cfg = default_config()
            .with_trace(TraceConfig::sampled())
            .with_telemetry(
                TelemetryConfig::enabled(CADENCE)
                    .with_slo(SloSpec::new(&model_name, objective, 0.05))
                    .with_burn(runs::BURN),
            )
            .with_faults(FaultConfig::new(s.plan.clone()));
        if control {
            cfg = cfg.with_control(ControlConfig::new());
        }
        let mut sched = fair(store, QUANTUM).with_watchdog(WATCHDOG_QUANTA);
        run_experiment(&cfg, clients, &mut sched)
    };
    (cell(false), cell(true))
}

/// Headline numbers of one chaos run.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Clients that finished every batch.
    pub finished: usize,
    /// Clients with no terminal outcome (must be zero: no run may wedge).
    pub wedged: usize,
    /// Jain fairness index over survivors' finish times.
    pub jain: f64,
    /// p99 run latency (µs) across completed runs.
    pub p99_us: f64,
    /// max/min survivor finish-time ratio.
    pub spread: f64,
    /// Injected kernel faults observed.
    pub faults: u64,
    /// Backoff retries scheduled.
    pub retries: u64,
    /// Token-hold watchdog revocations.
    pub watchdog: u64,
}

/// Summarises a chaos run.
pub fn outcome(r: &RunReport) -> Outcome {
    let finish = r.finish_times_secs();
    Outcome {
        finished: r.finished_count(),
        wedged: r
            .clients
            .iter()
            .filter(|c| matches!(c.outcome, ClientOutcome::Stalled))
            .count(),
        jain: try_jain_fairness(&finish).unwrap_or(0.0),
        p99_us: r.telemetry.hist("run_latency_us").map_or(0.0, |h| h.p99),
        spread: if finish.len() >= 2 { max_min_ratio(&finish) } else { 1.0 },
        faults: r.telemetry.counter("faults_kernel").unwrap_or(0),
        retries: r.telemetry.counter("kernel_retries").unwrap_or(0),
        watchdog: r.telemetry.counter("watchdog_revocations").unwrap_or(0),
    }
}

fn row(scenario: &str, sched: &str, o: &Outcome, base: &Outcome) -> Vec<String> {
    vec![
        scenario.to_string(),
        sched.to_string(),
        format!("{}/{}", o.finished, CLIENTS),
        format!("{:.4}", o.jain),
        format!("{:.3}", if base.jain > 0.0 { o.jain / base.jain } else { 0.0 }),
        format!("{:.0}", o.p99_us),
        format!("{:.2}", if base.p99_us > 0.0 { o.p99_us / base.p99_us } else { 0.0 }),
        format!("{:.3}", o.spread),
        format!("{}", o.faults),
        format!("{}", o.retries),
        format!("{}", o.watchdog),
    ]
}

/// Runs the whole suite and returns the report and its claims, one per
/// scenario plus the control axis.
pub fn run() -> Figure {
    render(scenarios())
}

/// Renders one scenario's rows and claims as `results/chaos.txt` shows
/// them; the `drift` scenario carries the control axis.
///
/// # Errors
///
/// An unknown name, listing the scenarios.
pub fn scenario_figure(name: &str) -> Result<Figure, String> {
    match scenario(name) {
        Some(s) => Ok(render(vec![s])),
        None => Err(unknown_scenario("chaos", name, scenarios().iter().map(|s| s.name))),
    }
}

/// The report over `selected` scenarios, each replayed on both
/// schedulers against the fault-free twins, plus the control axis when
/// `drift` is among them.
fn render(selected: Vec<Scenario>) -> Figure {
    let mut out = banner(
        "Chaos",
        "Resilience under deterministic fault injection (6 mini clients, Q = 200 us)",
    );
    let base_fifo = outcome(&chaos_report(None, false));
    let base_oly = outcome(&chaos_report(None, true));
    out.push_str(&format!(
        "fault-free twins: fifo Jain {:.4} p99 {:.0} us; olympian Jain {:.4} p99 {:.0} us\n\n",
        base_fifo.jain, base_fifo.p99_us, base_oly.jain, base_oly.p99_us
    ));
    let mut rows = Vec::new();
    let mut claims = Vec::new();
    let mut summaries = Vec::new();
    let control = selected.iter().any(|s| s.name == "drift");
    for s in selected {
        let fifo = outcome(&chaos_report(Some(&s.plan), false));
        let oly = outcome(&chaos_report(Some(&s.plan), true));
        rows.push(row(s.name, "fifo", &fifo, &base_fifo));
        rows.push(row(s.name, "olympian", &oly, &base_oly));
        let jain_ratio = if base_oly.jain > 0.0 { oly.jain / base_oly.jain } else { 0.0 };
        let p99_ratio = if base_oly.p99_us > 0.0 { oly.p99_us / base_oly.p99_us } else { 0.0 };
        let pass = jain_ratio >= JAIN_BAND
            && p99_ratio <= P99_BAND
            && oly.wedged == 0
            && fifo.wedged == 0;
        claims.push(Claim::new(
            format!("chaos.{}.olympian_inside_the_band", s.name),
            pass,
            format!(
                "olympian Jain ratio {jain_ratio:.3} (bound >= {JAIN_BAND}), p99 ratio \
                 {p99_ratio:.2} (bound <= {P99_BAND}); wedged olympian {} fifo {} (bound 0)",
                oly.wedged, fifo.wedged
            ),
        ));
        summaries.push(format!(
            "{:<14} {} — {}: olympian Jain ratio {:.3} (>= {JAIN_BAND}), p99 ratio {:.2} \
             (<= {P99_BAND}), wedged 0; fifo spread {:.3}x vs {:.3}x fault-free",
            s.name,
            if pass { "PASS" } else { "FAIL" },
            s.caption,
            jain_ratio,
            p99_ratio,
            fifo.spread,
            base_fifo.spread,
        ));
    }
    out.push_str(&render_table(
        &[
            "scenario", "sched", "finished", "jain", "jain/base", "p99 (us)", "p99/base",
            "spread", "faults", "retries", "watchdog",
        ],
        &rows,
    ));
    out.push('\n');
    for s in &summaries {
        out.push_str(s);
        out.push('\n');
    }
    out.push_str(&format!(
        "\nresilience band: {}. With recovery on, Olympian absorbs every scenario \
         inside the stated band; the baseline has no watchdog or fairness to \
         defend, so its finish-time spread widens instead.\n",
        if claims.iter().all(|c| c.held) { "PASS" } else { "FAIL" }
    ));
    if !control {
        return Figure { text: out, claims };
    }

    // The control-plane axis: the drift scenario with the degradation
    // ladder off vs on.
    let (off, on) = control_axis();
    let off_o = outcome(&off);
    let on_o = outcome(&on);
    let ctr = |r: &RunReport, n: &str| r.telemetry.counter(n).unwrap_or(0);
    let sheds = ctr(&on, "clients_admission_shed");
    let ctl_pass = on_o.wedged == 0
        && sheds as usize * 10 <= CLIENTS
        && on_o.jain / base_oly.jain >= JAIN_BAND
        && on_o.p99_us / base_oly.p99_us <= P99_BAND;
    out.push_str(&format!(
        "\ncontrol axis (drift scenario, ladder off vs on): {}\n\
         off: finished {}/{CLIENTS}, p99 {:.0} us, burn alerts {}, transitions 0 (by construction)\n\
         on:  finished {}/{CLIENTS}, p99 {:.0} us, transitions {}, batch shrinks {}, sheds {} \
         (bound: <= {}), wedged {}\n\
         The ladder climbs to Shedding under sustained burn, shrinks batch hints on the \
         way, and steps back down over the quiet tail; everything it accepted still \
         finishes inside the resilience band.\n",
        if ctl_pass { "PASS" } else { "FAIL" },
        off_o.finished,
        off_o.p99_us,
        ctr(&off, "alerts_slo_burn"),
        on_o.finished,
        on_o.p99_us,
        ctr(&on, "control_transitions"),
        ctr(&on, "control_batch_shrinks"),
        sheds,
        CLIENTS / 10,
        on_o.wedged,
    ));
    claims.push(Claim::new(
        "chaos.control_axis_inside_the_band",
        ctl_pass,
        format!(
            "ladder on: {sheds} sheds of {CLIENTS} (bound <= 10%), wedged {} (bound 0), Jain \
             ratio {:.3} (bound >= {JAIN_BAND}), p99 ratio {:.2} (bound <= {P99_BAND})",
            on_o.wedged,
            on_o.jain / base_oly.jain,
            on_o.p99_us / base_oly.p99_us
        ),
    ));
    Figure { text: out, claims }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_is_known_and_valid() {
        for s in scenarios() {
            s.plan.validate();
            assert!(scenario(s.name).is_some());
        }
        assert!(scenario("no-such-chaos").is_none());
        let err = scenario_figure("no-such-chaos").unwrap_err();
        assert!(err.contains("kernel-faults, slowdown, stall, mixed, drift"), "{err}");
    }

    #[test]
    fn each_scenario_figure_repeats_its_claims_from_the_report() {
        let full: Vec<String> = run().claims.iter().map(ToString::to_string).collect();
        for s in scenarios() {
            for c in scenario_figure(s.name).unwrap().claims {
                assert!(full.contains(&c.to_string()), "{c}");
            }
        }
    }

    #[test]
    fn control_axis_sheds_nothing_and_holds_the_band() {
        let base = outcome(&chaos_report(None, true));
        let (off, on) = control_axis();
        let off_o = outcome(&off);
        let on_o = outcome(&on);

        // The off cell is PR 3 observability: the burn is detected, nothing
        // acts on it.
        assert!(off.telemetry.counter("alerts_slo_burn").unwrap_or(0) >= 1);
        assert_eq!(off.telemetry.counter("control_transitions").unwrap_or(0), 0);
        assert_eq!(off_o.finished, CLIENTS);

        // The on cell walks the ladder up under sustained burn and back
        // down over the quiet tail, shrinking batch hints in between.
        let transitions = on.telemetry.counter("control_transitions").unwrap_or(0);
        assert!(transitions >= 2, "up and back down, got {transitions}");
        assert!(on.telemetry.counter("control_batch_shrinks").unwrap_or(0) >= 1);

        // The robustness bound: at most 10% of clients shed, nobody
        // wedged, survivors inside the resilience band.
        let sheds = on.telemetry.counter("clients_admission_shed").unwrap_or(0) as usize;
        assert!(sheds * 10 <= CLIENTS, "{sheds} sheds of {CLIENTS} clients");
        assert_eq!(on_o.wedged, 0, "no client may wedge");
        assert_eq!(on_o.finished, CLIENTS, "everyone admitted still finishes");
        assert!(
            on_o.jain / base.jain >= JAIN_BAND,
            "jain {:.4} vs fault-free {:.4}",
            on_o.jain,
            base.jain
        );
        assert!(
            on_o.p99_us / base.p99_us <= P99_BAND,
            "p99 {:.0} vs fault-free {:.0}",
            on_o.p99_us,
            base.p99_us
        );

        // Ladder transitions land on the trace as typed control events.
        assert!(on.chrome_trace_json().contains("\"control-healthy-to-degraded\""));
    }

    #[test]
    fn olympian_absorbs_kernel_faults_inside_the_band() {
        let base = outcome(&chaos_report(None, true));
        let s = scenario("kernel-faults").expect("known scenario");
        let faulted = outcome(&chaos_report(Some(&s.plan), true));
        assert_eq!(faulted.wedged, 0, "no client may wedge");
        assert!(faulted.faults > 0, "the plan must actually fire");
        assert_eq!(faulted.retries, faulted.faults);
        assert!(
            faulted.jain / base.jain >= JAIN_BAND,
            "jain {:.4} vs fault-free {:.4}",
            faulted.jain,
            base.jain
        );
        assert!(
            faulted.p99_us / base.p99_us <= P99_BAND,
            "p99 {:.0} vs fault-free {:.0}",
            faulted.p99_us,
            base.p99_us
        );
    }
}
