//! The two passes of a benchmark run.
//!
//! The end-to-end pass repeats set-up and an uninstrumented run until the
//! measuring time is spent, checking every repetition, and reports
//! medians, with timings normalised for host speed ([`crate::calib`]).
//! The traced pass runs the same workload with every wrapped
//! trait object timed, replays the run's recorded streams through single
//! layers, and reports the per-layer costs; comparing its wall time with an
//! uninstrumented run's gives the instrumentation overhead.

use crate::calib::{Clock, Timing};
use crate::probe::{clock_cost_ns, Probes, HOOKS};
use crate::replay::{self, Inputs};
use crate::workload::{postprocess, Mode, Outcome, PostCost, Workload};
use crate::{alloc, digest};
use serving::{ClientOutcome, RunReport};
use simtime::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions the end-to-end pass makes even when time runs out first.
pub const MIN_REPS: usize = 3;
/// Set-up samples the end-to-end pass collects: workloads whose runs are
/// long and set-up is cheap get extra, set-up-only samples.
pub const MIN_SETUPS: usize = 15;
/// Time the extra set-up samples may add to a pass.
const EXTRA_SETUP_BUDGET: Duration = Duration::from_secs(1);

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// What the value is a median or percentile of; empty when obvious.
    pub note: String,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: String::new(),
    }
}

impl Metric {
    fn noted(self, note: String) -> Metric {
        Metric { note, ..self }
    }
}

/// The result of one pass over one workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// The workload measured.
    pub workload: Workload,
    /// The reported metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Digest of the run's report (and post-processing output).
    pub digest: u64,
    /// Client sessions attempted across the measured runs.
    pub attempted: u64,
    /// Sessions among them that did not finish.
    pub failed: u64,
    /// Every failed correctness check, empty when the run is correct.
    pub failures: Vec<String>,
    /// Measured repetitions.
    pub reps: usize,
    /// Per-repetition samples of the timed metrics.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

/// Median of `xs` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of sorted `xs`.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[idx - 1]
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The digest of one run: its report and post-processing output.
pub fn run_digest(out: &Outcome) -> u64 {
    digest::of_debug(&(&out.report, out.post.as_ref().map(|p| &p.0)))
}

/// When each client was due to issue its first run and how long it thinks
/// between runs — the baselines simulated latency is measured from.
fn issue_plan(clients: &[serving::ClientSpec]) -> Vec<(SimTime, SimDuration)> {
    clients.iter().map(|c| (c.start_at, c.think_time)).collect()
}

/// Simulated user-visible results of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    /// Median run latency, µs.
    pub p50_us: f64,
    /// Tail run latency, µs: p99 with at least 1,000 runs, else p90.
    pub tail_us: f64,
    /// Which percentile `tail_us` is (99 or 90).
    pub tail_pct: u32,
    /// Completed runs the latencies come from.
    pub runs: usize,
    /// Jain fairness index: over finished clients' finish times in a closed
    /// loop, over each model's mean run latency in an open loop.
    pub jain: f64,
    /// Finished sessions ÷ sessions attempted.
    pub finished_share: f64,
}

/// Computes [`Sim`] from a report. A run's latency is timed from when it
/// was due: its client's start for the first run, otherwise the previous
/// run's finish plus think time — so admission, load and retry waits count.
///
/// In an open loop every client is one arrival, so its finish time says
/// when it arrived rather than how it was served; fairness there is taken
/// across models instead, over each model's mean run latency.
pub fn sim_metrics(report: &RunReport, plan: &[(SimTime, SimDuration)], open_loop: bool) -> Sim {
    let mut lat: Vec<f64> = Vec::new();
    let mut per_model: BTreeMap<&str, (f64, u32)> = BTreeMap::new();
    for (c, &(start, think)) in report.clients.iter().zip(plan) {
        let mut due = start;
        for &done in &c.run_finish_times {
            let us = (done - due).as_nanos() as f64 / 1e3;
            lat.push(us);
            let m = per_model.entry(c.model_name.as_str()).or_default();
            *m = (m.0 + us, m.1 + 1);
            due = done + think;
        }
    }
    lat.sort_by(f64::total_cmp);
    let tail_pct = if lat.len() >= 1_000 { 99 } else { 90 };
    let shares: Vec<f64> = if open_loop {
        per_model
            .values()
            .map(|&(sum, n)| sum / f64::from(n))
            .collect()
    } else {
        report.finish_times_secs()
    };
    Sim {
        p50_us: if lat.is_empty() {
            0.0
        } else {
            nearest_rank(&lat, 0.5)
        },
        tail_us: if lat.is_empty() {
            0.0
        } else {
            nearest_rank(&lat, f64::from(tail_pct) / 100.0)
        },
        tail_pct,
        runs: lat.len(),
        jain: metrics::try_jain_fairness(&shares).unwrap_or(0.0),
        finished_share: report.finished_count() as f64 / report.clients.len().max(1) as f64,
    }
}

fn counter(report: &RunReport, name: &str) -> u64 {
    report.telemetry.counter(name).unwrap_or(0)
}

/// The per-workload invariants every run must hold.
pub fn check(w: Workload, report: &RunReport) -> Vec<String> {
    let mut bad = Vec::new();
    let stalled = report
        .clients
        .iter()
        .filter(|c| matches!(c.outcome, ClientOutcome::Stalled))
        .count();
    if stalled > 0 {
        bad.push(format!(
            "{}: {stalled} sessions ended without a terminal outcome",
            w.name()
        ));
    }
    if w.must_finish_all() && !report.all_finished() {
        bad.push(format!(
            "{}: {} of {} sessions did not finish",
            w.name(),
            report.clients.len() - report.finished_count(),
            report.clients.len()
        ));
    }
    if w == Workload::ChaosControl {
        for name in ["faults_kernel", "versions_evicted", "control_transitions"] {
            if counter(report, name) == 0 {
                bad.push(format!("{}: counter {name} stayed at 0", w.name()));
            }
        }
    }
    bad
}

/// Checks that the seed reaches the inputs: two smoke-size runs with
/// adjacent seeds must digest differently.
pub fn seed_check(w: Workload, seed: u64) -> Option<String> {
    let run = |s: u64| run_digest(&w.setup(s, true, Mode::Plain).run());
    let next = seed.wrapping_add(1);
    (run(seed) == run(next))
        .then(|| format!("{}: seeds {seed} and {next} gave the same digest", w.name()))
}

/// The end-to-end pass: repetitions of set-up plus an uninstrumented run
/// until `budget` is spent (at least [`MIN_REPS`]), every one checked.
pub fn end_to_end(w: Workload, seed: u64, smoke: bool, budget: Duration) -> Pass {
    let started = Instant::now();
    let mut failures = Vec::new();
    let (mut setups, mut walls, mut allocs, mut peak_mib) = (vec![], vec![], vec![], vec![]);
    let mut first: Option<(u64, Sim)> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut clock = Clock::new();
    while setups.len() < MIN_REPS || started.elapsed() < budget {
        let (p, setup) = clock.time(|| w.setup(seed, smoke, Mode::Plain));
        setups.push(setup);
        let plan = issue_plan(&p.clients);
        let ((out, section), wall) = clock.time(|| alloc::measure(|| p.run()));
        walls.push(wall);
        allocs.push(section.allocs as f64);
        peak_mib.push(section.peak_bytes as f64 / f64::from(1 << 20));

        let d = run_digest(&out);
        attempted += out.report.clients.len() as u64;
        failed += (out.report.clients.len() - out.report.finished_count()) as u64;
        match &first {
            None => {
                failures.extend(check(w, &out.report));
                first = Some((d, sim_metrics(&out.report, &plan, w.open_loop())));
            }
            Some((d0, _)) if *d0 != d => failures.push(format!(
                "{}: repetition {} digests {d:016x}, repetition 1 {d0:016x}",
                w.name(),
                walls.len()
            )),
            Some(_) => {}
        }
    }
    let extra = Instant::now();
    while setups.len() < MIN_SETUPS && extra.elapsed() < EXTRA_SETUP_BUDGET {
        let (p, setup) = clock.time(|| w.setup(seed, smoke, Mode::Plain));
        setups.push(setup);
        drop(p);
    }
    failures.extend(seed_check(w, seed));
    let (digest, sim) = first.expect("at least one repetition");
    let reps = walls.len();
    let per_rep = format!("median of {reps}");
    let norm = |ts: &[Timing]| ts.iter().map(|t| t.norm_s).collect::<Vec<_>>();
    let (wall_s, setup_s) = (norm(&walls), norm(&setups));
    let metrics = vec![
        metric("wall_s", median(&wall_s), "s").noted(format!("{per_rep}, host-normalised")),
        metric("setup_s", median(&setup_s), "s")
            .noted(format!("median of {}, host-normalised", setup_s.len())),
        metric("peak_heap_mib", median(&peak_mib), "MiB").noted(per_rep.clone()),
        metric("allocs", median(&allocs), "count").noted(per_rep),
        metric("sim_p50_us", sim.p50_us, "us").noted(format!("p50 of {} runs", sim.runs)),
        metric("sim_tail_us", sim.tail_us, "us")
            .noted(format!("p{} of {} runs", sim.tail_pct, sim.runs)),
        metric("sim_jain", sim.jain, "ratio"),
        metric("finished_share", sim.finished_share, "ratio"),
    ];
    Pass {
        workload: w,
        metrics,
        digest,
        attempted,
        failed,
        failures,
        reps,
        samples: vec![
            ("wall_s", wall_s),
            ("setup_s", setup_s),
            ("wall_raw_s", walls.iter().map(|t| t.raw_s).collect()),
            ("setup_raw_s", setups.iter().map(|t| t.raw_s).collect()),
            (
                "reference_s",
                setups.iter().chain(&walls).map(|t| t.reference_s).collect(),
            ),
            ("peak_heap_mib", peak_mib),
            ("allocs", allocs),
        ],
    }
}

/// Per-layer numbers of one traced iteration.
#[derive(Debug)]
struct Layers {
    plain_engine_ns: u64,
    traced_engine_ns: u64,
    probes: Arc<Probes>,
    profile_ns: u64,
    curve_ns: u64,
    post: PostCost,
    wheel: replay::Replayed,
    device: replay::Replayed,
    flow: replay::Replayed,
    clock_ns: f64,
}

/// The traced pass: a recording run feeds the layer replays, then pairs of
/// uninstrumented and wrapped runs repeat until `budget` is spent (at
/// least one pair). Every run must digest like the recording run.
pub fn per_layer(w: Workload, seed: u64, smoke: bool, budget: Duration) -> Pass {
    let started = Instant::now();
    let p = w.setup(seed, smoke, Mode::Record);
    let inputs = Inputs::of(&p);
    let horizon = p.cfg.switch_latency + p.cfg.launch_overhead;
    let recorded = p.run();
    let capture = recorded.capture.as_ref().expect("recording run captures");
    let digest = run_digest(&recorded);
    let mut failures = check(w, &recorded.report);
    let mut iters: Vec<Layers> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    while iters.is_empty() || started.elapsed() < budget {
        let plain = w.setup(seed, smoke, Mode::Plain).run();
        let probes = Arc::new(Probes::default());
        let p = w.setup(seed, smoke, Mode::Timed(Arc::clone(&probes)));
        let cost = p.cost;
        let traced = p.run();
        for (label, out) in [("uninstrumented", &plain), ("wrapped", &traced)] {
            let d = run_digest(out);
            if d != digest {
                failures.push(format!(
                    "{}: {label} run digests {d:016x}, recording run {digest:016x}",
                    w.name()
                ));
            }
        }
        let r = &traced.report;
        attempted += r.clients.len() as u64;
        failed += (r.clients.len() - r.finished_count()) as u64;
        // Post-processing is part of observe-full's run; on the other
        // observed workloads it is run here on the traced report.
        let post = match &traced.post {
            Some((_, c)) => *c,
            None if !r.trace.is_empty() || r.telemetry.enabled => postprocess(r, horizon).1,
            None => PostCost::default(),
        };
        iters.push(Layers {
            plain_engine_ns: plain.engine_ns,
            traced_engine_ns: traced.engine_ns,
            probes,
            profile_ns: cost.profile_ns,
            curve_ns: cost.curve_ns,
            post,
            wheel: replay::wheel(&inputs, capture),
            device: replay::device(&inputs, capture),
            flow: replay::flow(&inputs),
            clock_ns: clock_cost_ns(),
        });
    }
    let reps = iters.len();
    let med = |f: &dyn Fn(&Layers) -> f64| median(&iters.iter().map(f).collect::<Vec<_>>());
    let r = &recorded.report;
    let c = |name: &str| counter(r, name) as f64;
    let events = r.event_count as f64;
    let plain_ns = med(&|l| l.plain_engine_ns as f64);
    let traced_ns = med(&|l| l.traced_engine_ns as f64);
    let completed = iters[0].probes.hooks[3].calls() as f64;
    let shed = r
        .clients
        .iter()
        .filter(|c| {
            matches!(
                c.outcome,
                ClientOutcome::RetriesExhausted { .. }
                    | ClientOutcome::CircuitOpen { .. }
                    | ClientOutcome::AdmissionShed { .. }
            )
        })
        .count() as f64;

    let count = |name: &str, v: f64| metric(name, v, "count");
    let ns = |name: &str, v: f64| metric(name, v, "ns");
    let ratio = |name: &str, v: f64| metric(name, v, "ratio");
    let mut m = vec![
        count("serving.events", events),
        count("serving.kernels", r.kernel_count as f64),
        count("serving.token_switches", r.switch_count as f64),
        ns("serving.ns_per_event", plain_ns / events.max(1.0)),
        ns(
            "serving.self_ns",
            med(&|l| l.traced_engine_ns.saturating_sub(l.probes.wrapped_ns()) as f64),
        ),
        count("simtime.wheel.ops", iters[0].wheel.ops as f64),
        ns("simtime.wheel.ns_per_op", med(&|l| l.wheel.ns_per_op())),
        ns(
            "gpusim.device.ns_per_kernel",
            med(&|l| l.device.ns_per_op()),
        ),
        ratio(
            "gpusim.useful_kernel_ratio",
            completed / (r.kernel_count as f64 + c("faults_kernel")).max(1.0),
        ),
        count("olympian.sched.calls", iters[0].probes.sched().0 as f64),
        ns("olympian.sched.ns", med(&|l| l.probes.sched().1 as f64)),
    ];
    for (i, hook) in HOOKS.iter().enumerate() {
        m.push(count(
            &format!("olympian.sched.{hook}.calls"),
            iters[0].probes.hooks[i].calls() as f64,
        ));
        m.push(ns(
            &format!("olympian.sched.{hook}.ns"),
            med(&|l| l.probes.hooks[i].ns() as f64),
        ));
    }
    m.extend([
        count(
            "olympian.policy.calls",
            iters[0].probes.policy.calls() as f64,
        ),
        ns("olympian.policy.ns", med(&|l| l.probes.policy.ns() as f64)),
        ns(
            "olympian.profiler.profile_ns",
            med(&|l| l.profile_ns as f64),
        ),
        ns("olympian.profiler.curve_ns", med(&|l| l.curve_ns as f64)),
        count(
            "controlplane.oracle.calls",
            iters[0].probes.oracle.calls() as f64,
        ),
        ns(
            "controlplane.oracle.ns",
            med(&|l| l.probes.oracle.ns() as f64),
        ),
        count("controlplane.transitions", c("control_transitions")),
        count("controlplane.laxity_cancels", c("control_laxity_cancels")),
        count(
            "lifecycle.binder.calls",
            iters[0].probes.binder.calls() as f64,
        ),
        ns("lifecycle.binder.ns", med(&|l| l.probes.binder.ns() as f64)),
        count("lifecycle.loads", c("versions_loaded")),
        count("lifecycle.evictions", c("versions_evicted")),
        count("cluster.routes", c("cluster_routes")),
        count("cluster.migrations", c("cluster_migrations")),
        count("cluster.reconfigs", c("cluster_reconfigs")),
        ns("cluster.flow.ns_per_solve", med(&|l| l.flow.ns_per_op())),
        count("faults.kernel_faults", c("faults_kernel")),
        count("faults.retries", c("kernel_retries")),
        count("faults.shed", shed),
        count("trace.events", r.trace.len() as f64),
        count("trace.dropped", r.trace.dropped as f64),
        ns("trace.export_ns", med(&|l| l.post.export_ns as f64)),
        count("trace.export_allocs", iters[0].post.export_allocs as f64),
        count("telemetry.snapshots", r.telemetry.snapshots.len() as f64),
        count("tsdb.points", r.tsdb().total_points() as f64),
        ns("tsdb.ingest_ns", med(&|l| l.post.tsdb_ns as f64)),
        ns("attrib.sweep_ns", med(&|l| l.post.sweep_ns as f64)),
        ns("attrib.critical_ns", med(&|l| l.post.critical_ns as f64)),
        ns("attrib.diff_ns", med(&|l| l.post.diff_ns as f64)),
        ratio("bench.trace_overhead", traced_ns / plain_ns - 1.0),
        ns("bench.clock_ns", med(&|l| l.clock_ns)),
    ]);
    Pass {
        workload: w,
        metrics: m,
        digest,
        attempted,
        failed,
        failures,
        reps,
        samples: vec![
            (
                "plain_engine_s",
                iters.iter().map(|l| secs(l.plain_engine_ns)).collect(),
            ),
            (
                "traced_engine_s",
                iters.iter().map(|l| secs(l.traced_engine_ns)).collect(),
            ),
            (
                "wrapped_s",
                iters.iter().map(|l| secs(l.probes.wrapped_ns())).collect(),
            ),
        ],
    }
}
