//! `perfsuite` — the engine performance suite.
//!
//! Measures the simulator's hot paths and writes `BENCH_engine.json` at the
//! workspace root:
//!
//! * event-queue throughput, for both the optimized 4-ary queue and the
//!   original binary-heap baseline it replaced (the seed reference), plus
//!   the resulting speedup;
//! * the hierarchical timing wheel the engine now runs on, on the same
//!   churn workload, with speedups against both earlier queues;
//! * end-to-end engine throughput in events/second under the TF-Serving
//!   baseline (FIFO) and the Olympian scheduler, with a hard regression
//!   guard: the Olympian rate must stay above 0.7x the PR 5 reference;
//! * the SoA cache proxy: the Olympian engine at 10x the client count, so a
//!   regression in the job tables' cache behavior shows up as a falling
//!   ratio to the 4-client rate;
//! * the device-group sharding check: a three-device run through the
//!   sharded entry point at `shards = 1` vs every core, asserting
//!   byte-identical reports and recording the wall-clock speedup (which
//!   must exceed 1.0 whenever more than one core is available);
//! * total wall-clock of the full `bench::all` experiment suite run through
//!   the parallel harness, with its serial-equivalent time and speedup;
//! * the recorded seed-reference numbers (pre-optimization engine + queue)
//!   and this run's speedups over them;
//! * the tracing guardrail: engine throughput with the trace layer off,
//!   sampled, and full, with a hard assert that the off-mode rate stays
//!   within noise of the PR 1 reference (tracing must be free when off);
//! * the telemetry guardrail: engine throughput with live telemetry off
//!   and on, with a hard assert that the off-mode rate stays within noise
//!   of the PR 2 reference (telemetry must cost one predicted branch per
//!   event when off);
//! * the fault-injection guardrail: engine throughput with fault injection
//!   off (`cfg.faults = None`) and with a live chaos plan, with a hard
//!   assert that the off-mode rate stays within noise of the PR 3
//!   reference (fault hooks must cost one predicted branch when off);
//! * the lifecycle guardrail: engine throughput with the model-lifecycle
//!   manager off (`cfg.cluster = None`) and with every run routed through
//!   a managed deployment on a one-device fleet
//!   (`EngineConfig::with_lifecycle`), with a hard assert that the off-mode
//!   rate stays within noise of the PR 4 reference (an unmanaged engine
//!   must not pay for version routing);
//! * the attribution rate: how fast the post-hoc blame pipeline (phase
//!   sweep, critical path, run diff) rebuilds its report from a fully
//!   traced run — pure post-processing, so it is recorded rather than
//!   guarded (the capture cost lives in the tracing section).
//! * the tsdb guardrail: how fast a telemetry-on run's report ingests into
//!   the time-series store's tiered rings, with hard asserts that the
//!   telemetry-off engine rate stays within noise of the PR 7 reference
//!   (the run-log capture must cost one predicted branch when off) and
//!   that the capture slows the telemetry-on engine by at most a few
//!   percent of its PR 7 reference rate.
//! * the control-plane guardrail: engine throughput with the control plane
//!   off (`cfg.control = None`) and with the full closed loop ticking, with
//!   a hard assert that the off-mode rate stays within noise of the PR 8
//!   reference (an uncontrolled engine must pay one predicted branch, not a
//!   control loop).
//! * the cluster guardrail: engine throughput with the fleet orchestrator
//!   off (`cfg.cluster = None`) and with a two-device fleet routing every
//!   run, with a hard assert that the off-mode rate stays within noise of
//!   the PR 9 reference (a single-pool engine must pay one predicted
//!   branch, not a router).
//!
//! ```text
//! perfsuite [--smoke] [--jobs N] [--out path]
//! ```
//!
//! `--smoke` keeps the run CI-sized: it still measures the queue and engine
//! sections but skips the (minutes-long) experiment suite, emitting the same
//! JSON schema with a zero-experiment suite section.

use bench::harness;
use microjson::Value;
use olympian::{OlympianScheduler, Profiler, ProfileStore, RoundRobin};
use serving::{
    run_experiment, run_sharded_experiment, ClientSpec, EngineConfig, FifoScheduler, Scheduler,
};
use simtime::{BaselineEventQueue, DetRng, EventQueue, SimDuration, SimTime, TimingWheel};
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events pushed through each queue per measured iteration.
const QUEUE_EVENTS: usize = 100_000;

/// Seed-reference numbers: this suite run against the pre-optimization tree
/// (HashMap job/kernel tables, per-run allocation, binary-heap event queue)
/// on the same machine — `perfsuite --smoke` for the engine rates and a
/// timed `all --jobs 1` for the suite wall clock. The queue section needs no
/// recorded number because `BaselineEventQueue` *is* the seed queue and is
/// measured live above.
const SEED_ENGINE_FIFO_EPS: f64 = 3_088_458.0;
const SEED_ENGINE_OLYMPIAN_EPS: f64 = 2_955_628.0;
const SEED_SUITE_WALL_SECS: f64 = 172.5;

/// PR 1 reference numbers (this suite's own `BENCH_engine.json` before the
/// trace layer landed) — the baseline the tracing-off guardrail compares
/// against.
const PR1_ENGINE_FIFO_EPS: f64 = 3_941_153.0;
const PR1_ENGINE_OLYMPIAN_EPS: f64 = 4_228_107.0;

/// PR 2 reference numbers (this suite's own `BENCH_engine.json` before the
/// telemetry layer landed) — the baseline the telemetry-off guardrail
/// compares against.
const PR2_ENGINE_FIFO_EPS: f64 = 4_945_747.0;
const PR2_ENGINE_OLYMPIAN_EPS: f64 = 4_670_088.0;

/// PR 3 reference numbers (this suite's own `BENCH_engine.json` before the
/// fault-injection layer landed) — the baseline the faults-off guardrail
/// compares against.
const PR3_ENGINE_FIFO_EPS: f64 = 4_945_747.0;
const PR3_ENGINE_OLYMPIAN_EPS: f64 = 4_670_088.0;

/// PR 4 reference numbers (this suite's own `BENCH_engine.json` before the
/// lifecycle manager landed) — the baseline the lifecycle-off guardrail
/// compares against.
const PR4_ENGINE_FIFO_EPS: f64 = 4_653_017.0;
const PR4_ENGINE_OLYMPIAN_EPS: f64 = 4_857_083.0;

/// PR 5 reference numbers (this suite's own `BENCH_engine.json` before the
/// timing-wheel queue, SoA job tables and device-group sharding landed) —
/// the floor the engine throughput-regression guard compares against.
const PR5_ENGINE_FIFO_EPS: f64 = 4_783_773.45;
const PR5_ENGINE_OLYMPIAN_EPS: f64 = 4_260_753.98;

/// PR 7 reference numbers (this suite's own `BENCH_engine.json` before the
/// time-series store landed) — the baselines the tsdb guardrail compares
/// against: the telemetry-off engine rate (the run-log capture must cost
/// one predicted branch when telemetry is off) and the telemetry-on rate
/// (capture plus ingest must stay within a few percent of it).
const PR7_ENGINE_FIFO_EPS: f64 = 8_863_691.16;
const PR7_ENGINE_OLYMPIAN_EPS: f64 = 8_334_878.22;
const PR7_TELEMETRY_ON_EPS: f64 = 6_610_719.47;

/// PR 8 reference numbers (this suite's own `BENCH_engine.json` before the
/// control plane landed) — the baseline the control-off guardrail compares
/// against.
const PR8_ENGINE_FIFO_EPS: f64 = 10_654_045.47;
const PR8_ENGINE_OLYMPIAN_EPS: f64 = 10_002_699.59;

/// PR 9 reference numbers (this suite's own `BENCH_engine.json` before the
/// fleet orchestrator landed) — the baseline the cluster-off guardrail
/// compares against.
const PR9_ENGINE_FIFO_EPS: f64 = 8_315_513.87;
const PR9_ENGINE_OLYMPIAN_EPS: f64 = 8_367_731.23;

/// Guardrail: the run-log capture the store ingests may grow the relative
/// cost of turning telemetry on (the within-process on/off throughput
/// ratio, which cancels machine-speed drift) by at most this much over the
/// PR 7 reference ratio.
const TSDB_MAX_INGEST_OVERHEAD: f64 = 0.05;

/// Guardrail: tracing-off throughput must stay above this fraction of the
/// PR 1 reference. Generous, to absorb machine and run-to-run noise — the
/// assert is meant to catch a structural regression (tracing cost leaking
/// into the off path), not a few-percent wobble.
const TRACE_OFF_NOISE_FLOOR: f64 = 0.70;

fn usage() -> ExitCode {
    eprintln!("usage: perfsuite [--smoke] [--jobs N] [--out path]");
    ExitCode::FAILURE
}

/// Pre-generated schedule instants: a mix of near-future times with plenty
/// of same-instant ties, the shape the serving engine produces.
fn queue_workload() -> Vec<SimTime> {
    let mut rng = DetRng::new(0xBEEF);
    (0..QUEUE_EVENTS)
        .map(|_| SimTime::from_nanos(rng.range_u64(0, 4096)))
        .collect()
}

/// Schedules all instants in bursts of 4, popping 3 per burst, then drains —
/// exercising both sift directions under realistic occupancy.
fn churn_optimized(times: &[SimTime]) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(1024);
    let mut acc = 0u64;
    for (i, &t) in times.iter().enumerate() {
        q.schedule(t, i as u64);
        if i % 4 == 3 {
            for _ in 0..3 {
                acc = acc.wrapping_add(q.pop().expect("non-empty").1);
            }
        }
    }
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v);
    }
    acc
}

fn churn_baseline(times: &[SimTime]) -> u64 {
    let mut q: BaselineEventQueue<u64> = BaselineEventQueue::new();
    let mut acc = 0u64;
    for (i, &t) in times.iter().enumerate() {
        q.schedule(t, i as u64);
        if i % 4 == 3 {
            for _ in 0..3 {
                acc = acc.wrapping_add(q.pop().expect("non-empty").1);
            }
        }
    }
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v);
    }
    acc
}

fn queue_section() -> Value {
    let times = queue_workload();
    let opt = harness::run("queue_optimized/4-ary", || black_box(churn_optimized(&times)));
    let base = harness::run("queue_baseline/binary-heap", || {
        black_box(churn_baseline(&times))
    });
    let opt_eps = opt.per_second() * QUEUE_EVENTS as f64;
    let base_eps = base.per_second() * QUEUE_EVENTS as f64;
    let speedup = opt_eps / base_eps;
    println!(
        "  -> queue: optimized {opt_eps:.0} events/s vs seed baseline {base_eps:.0} events/s \
         (speedup {speedup:.2}x)"
    );
    Value::Object(vec![
        ("events_per_iter".into(), Value::UInt(QUEUE_EVENTS as u64)),
        ("seed_baseline_events_per_sec".into(), Value::Float(base_eps)),
        ("optimized_events_per_sec".into(), Value::Float(opt_eps)),
        ("speedup".into(), Value::Float(speedup)),
    ])
}

/// Pre-generated near-future offsets for the monotone churn workload: the
/// engine only ever schedules at `now + delta`, never in the past, with
/// deltas on the kernel/switch-latency scale (microseconds to a couple of
/// milliseconds — a few to a few hundred wheel ticks out, the level-0
/// horizon). That is the shape the timing wheel is built for; the
/// absolute-time workload above would land everything in the wheel's
/// current tick and measure its same-tick insertion buffer instead of the
/// engine-relevant path.
fn wheel_workload() -> Vec<u64> {
    let mut rng = DetRng::new(0xF00D);
    (0..QUEUE_EVENTS).map(|_| rng.range_u64(0, 1 << 20)).collect()
}

/// Monotone churn: schedule `now + delta` in bursts of 4, pop 3 per burst
/// (advancing `now` to each popped time), then drain — the engine's access
/// pattern, on whichever queue `$new` builds.
macro_rules! monotone_churn {
    ($new:expr, $deltas:expr) => {{
        let mut q = $new;
        let mut now = SimTime::ZERO;
        let mut acc = 0u64;
        for (i, &d) in $deltas.iter().enumerate() {
            q.schedule(now + SimDuration::from_nanos(d), i as u64);
            if i % 4 == 3 {
                for _ in 0..3 {
                    let (t, v) = q.pop().expect("non-empty");
                    now = t;
                    acc = acc.wrapping_add(v);
                }
            }
        }
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        acc
    }};
}

/// The hierarchical timing wheel the engine now runs on, against the 4-ary
/// queue and the seed binary heap, all three on the monotone workload.
fn queue_wheel_section() -> Value {
    let deltas = wheel_workload();
    let wheel = harness::run("queue_wheel/timing-wheel", || {
        black_box(monotone_churn!(TimingWheel::<u64>::with_capacity(1024), deltas))
    });
    let four = harness::run("queue_wheel/4-ary", || {
        black_box(monotone_churn!(EventQueue::<u64>::with_capacity(1024), deltas))
    });
    let heap = harness::run("queue_wheel/binary-heap", || {
        black_box(monotone_churn!(BaselineEventQueue::<u64>::new(), deltas))
    });
    let wheel_eps = wheel.per_second() * QUEUE_EVENTS as f64;
    let four_eps = four.per_second() * QUEUE_EVENTS as f64;
    let heap_eps = heap.per_second() * QUEUE_EVENTS as f64;
    let vs_four = wheel_eps / four_eps;
    let vs_heap = wheel_eps / heap_eps;
    println!(
        "  -> queue_wheel: wheel {wheel_eps:.0} events/s \
         ({vs_four:.2}x 4-ary {four_eps:.0}, {vs_heap:.2}x seed heap {heap_eps:.0})"
    );
    Value::Object(vec![
        ("events_per_iter".into(), Value::UInt(QUEUE_EVENTS as u64)),
        ("wheel_events_per_sec".into(), Value::Float(wheel_eps)),
        ("four_ary_events_per_sec".into(), Value::Float(four_eps)),
        ("seed_baseline_events_per_sec".into(), Value::Float(heap_eps)),
        ("speedup_vs_four_ary".into(), Value::Float(vs_four)),
        ("speedup_vs_seed_baseline".into(), Value::Float(vs_heap)),
    ])
}

fn engine_clients(n: usize, batches: u32) -> Vec<ClientSpec> {
    vec![ClientSpec::new(models::mini::small(4), batches); n]
}

fn engine_entry(
    name: &str,
    events_per_run: u64,
    m: &harness::Measurement,
) -> ((String, Value), f64) {
    let eps = m.per_second() * events_per_run as f64;
    println!("  -> {name}: {eps:.0} events/s ({events_per_run} events per run)");
    (
        (
            name.to_string(),
            Value::Object(vec![
                ("events_per_run".into(), Value::UInt(events_per_run)),
                ("runs_per_sec".into(), Value::Float(m.per_second())),
                ("events_per_sec".into(), Value::Float(eps)),
            ]),
        ),
        eps,
    )
}

/// Returns the section plus the measured (fifo, olympian) events/second for
/// the seed-reference comparison.
fn engine_section() -> (Value, f64, f64) {
    let cfg = EngineConfig::default();
    let fifo_probe = run_experiment(&cfg, engine_clients(4, 2), &mut FifoScheduler::new());
    let fifo = harness::run("engine_fifo/clients=4", || {
        black_box(run_experiment(
            &cfg,
            engine_clients(4, 2),
            &mut FifoScheduler::new(),
        ))
    });

    let model = models::mini::small(4);
    let mut store = ProfileStore::new();
    store.insert(Profiler::new(&cfg).profile(&model));
    let store = Arc::new(store);
    let olympian_sched = || {
        OlympianScheduler::new(
            Arc::clone(&store),
            Box::new(RoundRobin::new()),
            SimDuration::from_micros(200),
        )
    };
    let oly_probe = run_experiment(&cfg, engine_clients(4, 2), &mut olympian_sched());
    let oly = harness::run("engine_olympian/clients=4", || {
        black_box(run_experiment(
            &cfg,
            engine_clients(4, 2),
            &mut olympian_sched(),
        ))
    });
    let (fifo_entry, fifo_eps) = engine_entry("fifo", fifo_probe.event_count, &fifo);
    let (oly_entry, oly_eps) = engine_entry("olympian", oly_probe.event_count, &oly);
    let oly_vs_pr5 = oly_eps / PR5_ENGINE_OLYMPIAN_EPS;
    assert!(
        oly_vs_pr5 >= TRACE_OFF_NOISE_FLOOR,
        "olympian engine throughput {oly_eps:.0} events/s fell below \
         {TRACE_OFF_NOISE_FLOOR}x the PR 5 reference {PR5_ENGINE_OLYMPIAN_EPS:.0} — \
         the hot path regressed"
    );
    (
        Value::Object(vec![
            fifo_entry,
            oly_entry,
            (
                "pr5_reference_events_per_sec".into(),
                Value::Object(vec![
                    ("fifo".into(), Value::Float(PR5_ENGINE_FIFO_EPS)),
                    ("olympian".into(), Value::Float(PR5_ENGINE_OLYMPIAN_EPS)),
                ]),
            ),
            ("olympian_vs_pr5".into(), Value::Float(oly_vs_pr5)),
            ("noise_floor".into(), Value::Float(TRACE_OFF_NOISE_FLOOR)),
        ]),
        fifo_eps,
        oly_eps,
    )
}

/// The SoA cache proxy: the same engine workload at 10x the client count.
/// With the hot per-job state packed into structure-of-arrays tables the
/// per-event rate should hold up as the job population grows past what an
/// AoS layout keeps in cache; the section records the rate and its ratio to
/// the 4-client rate so regressions in cache behavior show up as a falling
/// `vs_4_clients`.
fn soa_section(oly_eps_4: f64) -> Value {
    const CLIENTS: usize = 40;
    let cfg = EngineConfig::default();
    let model = models::mini::small(4);
    let mut store = ProfileStore::new();
    store.insert(Profiler::new(&cfg).profile(&model));
    let store = Arc::new(store);
    let sched = || {
        OlympianScheduler::new(
            Arc::clone(&store),
            Box::new(RoundRobin::new()),
            SimDuration::from_micros(200),
        )
    };
    let probe = run_experiment(&cfg, engine_clients(CLIENTS, 2), &mut sched());
    let m = harness::run("engine_olympian/clients=40", || {
        black_box(run_experiment(&cfg, engine_clients(CLIENTS, 2), &mut sched()))
    });
    let eps = m.per_second() * probe.event_count as f64;
    let vs_4 = eps / oly_eps_4.max(1e-9);
    println!(
        "  -> soa: {eps:.0} events/s at {CLIENTS} clients \
         ({vs_4:.2}x of the 4-client rate, {} events per run)",
        probe.event_count
    );
    Value::Object(vec![
        ("clients".into(), Value::UInt(CLIENTS as u64)),
        ("events_per_run".into(), Value::UInt(probe.event_count)),
        ("events_per_sec".into(), Value::Float(eps)),
        ("vs_4_clients".into(), Value::Float(vs_4)),
    ])
}

/// The device-group sharding section: a three-device experiment run through
/// the sharded entry point with one worker thread and with every available
/// core, asserting the two reports are byte-identical (the shard-count
/// invariance contract) and recording the wall-clock speedup.
///
/// # Panics
///
/// Panics if the `shards = 1` and `shards = N` reports differ, or if more
/// than one core is available and the parallel run is not faster. On a
/// single-core machine the section degrades to a no-op comparison (both
/// runs use one thread and the speedup hovers around 1.0).
fn shard_section() -> Value {
    let base = EngineConfig::default();
    let groups = 3u64;
    // Millisecond hand-off latency — the large-model regime sharding
    // targets. The window length equals the hand-off latency, so this keeps
    // each group's per-window work large relative to the barrier cost.
    let mk_cfg = |shards: u32| EngineConfig {
        extra_devices: vec![base.device.clone(), base.device.clone()],
        shards,
        switch_latency: SimDuration::from_millis(1),
        ..base.clone()
    };
    let clients = || -> Vec<ClientSpec> { engine_clients(12, 4) };
    let factory =
        |_g: usize| Box::new(FifoScheduler::new()) as Box<dyn Scheduler>;
    let cores = simpar::default_jobs() as u32;

    let cfg_1 = mk_cfg(1);
    let cfg_n = mk_cfg(cores);
    let probe_1 = run_sharded_experiment(&cfg_1, clients(), &factory);
    let probe_n = run_sharded_experiment(&cfg_n, clients(), &factory);
    assert_eq!(
        format!("{probe_1:?}"),
        format!("{probe_n:?}"),
        "sharded report diverged between shards=1 and shards={cores}"
    );

    let m_1 = harness::run("engine_sharded/shards=1", || {
        black_box(run_sharded_experiment(&cfg_1, clients(), &factory))
    });
    let eps_1 = m_1.per_second() * probe_1.event_count as f64;
    // On one core `shards = N` is the same single-threaded run; re-measuring
    // it would only record measurement noise as a bogus "speedup".
    let eps_n = if cores > 1 {
        let m_n = harness::run(&format!("engine_sharded/shards={cores}"), || {
            black_box(run_sharded_experiment(&cfg_n, clients(), &factory))
        });
        m_n.per_second() * probe_n.event_count as f64
    } else {
        eps_1
    };
    let speedup = eps_n / eps_1.max(1e-9);
    println!(
        "  -> shard: {groups} groups, shards=1 {eps_1:.0} events/s, \
         shards={cores} {eps_n:.0} events/s (speedup {speedup:.2}x), reports identical"
    );
    if cores > 1 {
        assert!(
            speedup > 1.0,
            "sharded run with {cores} worker threads was not faster than one \
             ({eps_n:.0} vs {eps_1:.0} events/s) despite {cores} cores"
        );
    }
    Value::Object(vec![
        ("groups".into(), Value::UInt(groups)),
        ("cores".into(), Value::UInt(u64::from(cores))),
        ("events_per_run".into(), Value::UInt(probe_1.event_count)),
        ("shards_1_events_per_sec".into(), Value::Float(eps_1)),
        ("shards_n_events_per_sec".into(), Value::Float(eps_n)),
        ("speedup".into(), Value::Float(speedup)),
        ("reports_identical".into(), Value::Bool(true)),
    ])
}

/// Measures the Olympian engine config with tracing off / sampled / full and
/// asserts the off rate is within noise of the PR 1 reference.
///
/// # Panics
///
/// Panics if tracing-disabled engine throughput falls below
/// `TRACE_OFF_NOISE_FLOOR` x the PR 1 reference — the trace layer must cost
/// nothing when off.
fn tracing_section(off_eps: f64) -> Value {
    let model = models::mini::small(4);
    let base = EngineConfig::default();
    let mut store = ProfileStore::new();
    store.insert(Profiler::new(&base).profile(&model));
    let store = Arc::new(store);
    let measure = |name: &str, tc: serving::TraceConfig| {
        let cfg = base.with_trace(tc);
        let sched = || {
            OlympianScheduler::new(
                Arc::clone(&store),
                Box::new(RoundRobin::new()),
                SimDuration::from_micros(200),
            )
        };
        let probe = run_experiment(&cfg, engine_clients(4, 2), &mut sched());
        let m = harness::run(name, || {
            black_box(run_experiment(&cfg, engine_clients(4, 2), &mut sched()))
        });
        m.per_second() * probe.event_count as f64
    };
    let sampled_eps = measure("engine_olympian/trace=sampled", serving::TraceConfig::sampled());
    let full_eps = measure("engine_olympian/trace=full", serving::TraceConfig::full());
    let off_vs_pr1 = off_eps / PR1_ENGINE_OLYMPIAN_EPS;
    println!(
        "  -> tracing: off {off_eps:.0} events/s ({:.2}x PR 1 reference), \
         sampled {sampled_eps:.0}, full {full_eps:.0}",
        off_vs_pr1
    );
    assert!(
        off_vs_pr1 >= TRACE_OFF_NOISE_FLOOR,
        "tracing-disabled engine throughput {off_eps:.0} events/s fell below \
         {TRACE_OFF_NOISE_FLOOR}x the PR 1 reference {PR1_ENGINE_OLYMPIAN_EPS:.0} — \
         the trace layer is no longer free when off"
    );
    Value::Object(vec![
        (
            "pr1_reference_events_per_sec".into(),
            Value::Object(vec![
                ("fifo".into(), Value::Float(PR1_ENGINE_FIFO_EPS)),
                ("olympian".into(), Value::Float(PR1_ENGINE_OLYMPIAN_EPS)),
            ]),
        ),
        ("off_events_per_sec".into(), Value::Float(off_eps)),
        ("sampled_events_per_sec".into(), Value::Float(sampled_eps)),
        ("full_events_per_sec".into(), Value::Float(full_eps)),
        ("off_vs_pr1".into(), Value::Float(off_vs_pr1)),
        ("noise_floor".into(), Value::Float(TRACE_OFF_NOISE_FLOOR)),
        ("sampled_cost".into(), Value::Float(1.0 - sampled_eps / off_eps.max(1e-9))),
        ("full_cost".into(), Value::Float(1.0 - full_eps / off_eps.max(1e-9))),
    ])
}

/// Measures the Olympian engine config with live telemetry on and asserts
/// the off rate (measured by `engine_section`, since telemetry defaults to
/// off) is within noise of the PR 2 reference.
///
/// # Panics
///
/// Panics if telemetry-disabled engine throughput falls below
/// `TRACE_OFF_NOISE_FLOOR` x the PR 2 reference — telemetry must cost one
/// predicted branch per event when off.
fn telemetry_section(off_eps: f64) -> Value {
    let model = models::mini::small(4);
    let base = EngineConfig::default();
    let mut store = ProfileStore::new();
    store.insert(Profiler::new(&base).profile(&model));
    let store = Arc::new(store);
    let tc = telemetry::TelemetryConfig::enabled(SimDuration::from_micros(100))
        .with_slo(telemetry::SloSpec::new(
            model.name(),
            SimDuration::from_millis(1),
            0.05,
        ))
        .with_drift(telemetry::DriftConfig::new(SimDuration::from_micros(200), 0.25));
    let cfg = base.with_telemetry(tc);
    let sched = || {
        OlympianScheduler::new(
            Arc::clone(&store),
            Box::new(RoundRobin::new()),
            SimDuration::from_micros(200),
        )
    };
    let probe = run_experiment(&cfg, engine_clients(4, 2), &mut sched());
    let m = harness::run("engine_olympian/telemetry=on", || {
        black_box(run_experiment(&cfg, engine_clients(4, 2), &mut sched()))
    });
    let on_eps = m.per_second() * probe.event_count as f64;
    let off_vs_pr2 = off_eps / PR2_ENGINE_OLYMPIAN_EPS;
    println!(
        "  -> telemetry: off {off_eps:.0} events/s ({off_vs_pr2:.2}x PR 2 reference), \
         on {on_eps:.0}"
    );
    assert!(
        off_vs_pr2 >= TRACE_OFF_NOISE_FLOOR,
        "telemetry-disabled engine throughput {off_eps:.0} events/s fell below \
         {TRACE_OFF_NOISE_FLOOR}x the PR 2 reference {PR2_ENGINE_OLYMPIAN_EPS:.0} — \
         the telemetry layer is no longer free when off"
    );
    Value::Object(vec![
        (
            "pr2_reference_events_per_sec".into(),
            Value::Object(vec![
                ("fifo".into(), Value::Float(PR2_ENGINE_FIFO_EPS)),
                ("olympian".into(), Value::Float(PR2_ENGINE_OLYMPIAN_EPS)),
            ]),
        ),
        ("off_events_per_sec".into(), Value::Float(off_eps)),
        ("on_events_per_sec".into(), Value::Float(on_eps)),
        ("off_vs_pr2".into(), Value::Float(off_vs_pr2)),
        ("noise_floor".into(), Value::Float(TRACE_OFF_NOISE_FLOOR)),
        ("on_cost".into(), Value::Float(1.0 - on_eps / off_eps.max(1e-9))),
    ])
}

/// Measures the Olympian engine config with a live chaos plan and asserts
/// the off rate (measured by `engine_section`, since `cfg.faults` defaults
/// to `None`) is within noise of the PR 3 reference.
///
/// # Panics
///
/// Panics if faults-disabled engine throughput falls below
/// `TRACE_OFF_NOISE_FLOOR` x the PR 3 reference — the fault hooks must cost
/// one predicted branch per event when off.
fn faults_section(off_eps: f64) -> Value {
    let model = models::mini::small(4);
    let base = EngineConfig::default();
    let mut store = ProfileStore::new();
    store.insert(Profiler::new(&base).profile(&model));
    let store = Arc::new(store);
    let plan = serving::faults::FaultPlan::new()
        .with_kernel_failures(0.02)
        .with_slowdown(2.0, SimTime::from_millis(1), SimTime::from_millis(2));
    let cfg = base.with_faults(serving::faults::FaultConfig::new(plan));
    let sched = || {
        OlympianScheduler::new(
            Arc::clone(&store),
            Box::new(RoundRobin::new()),
            SimDuration::from_micros(200),
        )
    };
    let probe = run_experiment(&cfg, engine_clients(4, 2), &mut sched());
    let m = harness::run("engine_olympian/faults=on", || {
        black_box(run_experiment(&cfg, engine_clients(4, 2), &mut sched()))
    });
    let on_eps = m.per_second() * probe.event_count as f64;
    let off_vs_pr3 = off_eps / PR3_ENGINE_OLYMPIAN_EPS;
    println!(
        "  -> faults: off {off_eps:.0} events/s ({off_vs_pr3:.2}x PR 3 reference), \
         on {on_eps:.0}"
    );
    assert!(
        off_vs_pr3 >= TRACE_OFF_NOISE_FLOOR,
        "faults-disabled engine throughput {off_eps:.0} events/s fell below \
         {TRACE_OFF_NOISE_FLOOR}x the PR 3 reference {PR3_ENGINE_OLYMPIAN_EPS:.0} — \
         the fault-injection layer is no longer free when off"
    );
    Value::Object(vec![
        (
            "pr3_reference_events_per_sec".into(),
            Value::Object(vec![
                ("fifo".into(), Value::Float(PR3_ENGINE_FIFO_EPS)),
                ("olympian".into(), Value::Float(PR3_ENGINE_OLYMPIAN_EPS)),
            ]),
        ),
        ("off_events_per_sec".into(), Value::Float(off_eps)),
        ("on_events_per_sec".into(), Value::Float(on_eps)),
        ("off_vs_pr3".into(), Value::Float(off_vs_pr3)),
        ("noise_floor".into(), Value::Float(TRACE_OFF_NOISE_FLOOR)),
        ("on_cost".into(), Value::Float(1.0 - on_eps / off_eps.max(1e-9))),
    ])
}

/// Measures the Olympian engine config with the lifecycle manager routing
/// every run through a managed single-version deployment, and asserts the
/// off rate (measured by `engine_section`, since `cfg.cluster` defaults
/// to `None`) is within noise of the PR 4 reference.
///
/// # Panics
///
/// Panics if lifecycle-disabled engine throughput falls below
/// `TRACE_OFF_NOISE_FLOOR` x the PR 4 reference — an unmanaged engine must
/// not pay for the lifecycle layer.
fn lifecycle_section(off_eps: f64) -> Value {
    use serving::lifecycle::{DeploymentPlan, LifecycleConfig, ModelDeployment};
    let model = models::mini::small(4);
    let base = EngineConfig::default();
    let plan = DeploymentPlan::new()
        .with_model(ModelDeployment::new(model.name(), model.clone()));
    let store = Arc::new(ProfileStore::new());
    let binder = olympian::StoreBinder::calibrate(&base, &plan, Arc::clone(&store));
    let cfg = base.with_lifecycle(LifecycleConfig::new(plan).with_binder(binder));
    let sched = || {
        OlympianScheduler::new(
            Arc::clone(&store),
            Box::new(RoundRobin::new()),
            SimDuration::from_micros(200),
        )
    };
    let probe = run_experiment(&cfg, engine_clients(4, 2), &mut sched());
    let m = harness::run("engine_olympian/lifecycle=on", || {
        black_box(run_experiment(&cfg, engine_clients(4, 2), &mut sched()))
    });
    let on_eps = m.per_second() * probe.event_count as f64;
    let off_vs_pr4 = off_eps / PR4_ENGINE_OLYMPIAN_EPS;
    println!(
        "  -> lifecycle: off {off_eps:.0} events/s ({off_vs_pr4:.2}x PR 4 reference), \
         managed {on_eps:.0}"
    );
    assert!(
        off_vs_pr4 >= TRACE_OFF_NOISE_FLOOR,
        "lifecycle-disabled engine throughput {off_eps:.0} events/s fell below \
         {TRACE_OFF_NOISE_FLOOR}x the PR 4 reference {PR4_ENGINE_OLYMPIAN_EPS:.0} — \
         the lifecycle layer is no longer free when off"
    );
    Value::Object(vec![
        (
            "pr4_reference_events_per_sec".into(),
            Value::Object(vec![
                ("fifo".into(), Value::Float(PR4_ENGINE_FIFO_EPS)),
                ("olympian".into(), Value::Float(PR4_ENGINE_OLYMPIAN_EPS)),
            ]),
        ),
        ("off_events_per_sec".into(), Value::Float(off_eps)),
        ("on_events_per_sec".into(), Value::Float(on_eps)),
        ("off_vs_pr4".into(), Value::Float(off_vs_pr4)),
        ("noise_floor".into(), Value::Float(TRACE_OFF_NOISE_FLOOR)),
        ("on_cost".into(), Value::Float(1.0 - on_eps / off_eps.max(1e-9))),
    ])
}

/// Measures the attribution pipeline — phase sweep, critical path, and
/// run diff — over a fully-traced Olympian run. Attribution is pure
/// post-processing on the finished trace ring (the capture cost is what the
/// tracing section guards), so this section records how fast the blame
/// report can be rebuilt rather than guarding the engine hot path.
fn attribution_section() -> Value {
    use serving::attrib::{critical_path, diff};
    let model = models::mini::small(4);
    let base = EngineConfig::default();
    let cfg = base.with_trace(serving::TraceConfig::full());
    let mut store = ProfileStore::new();
    store.insert(Profiler::new(&cfg).profile(&model));
    let store = Arc::new(store);
    let mut sched = OlympianScheduler::new(
        Arc::clone(&store),
        Box::new(RoundRobin::new()),
        SimDuration::from_micros(200),
    );
    let report = run_experiment(&cfg, engine_clients(4, 2), &mut sched);
    let horizon = cfg.switch_latency + cfg.launch_overhead;
    let trace_events = report.trace.len() as u64;
    let probe = report.attribution(horizon);
    let runs = probe.runs.len() as u64;
    let m = harness::run("attrib/sweep+critical+diff", || {
        let attr = report.attribution(horizon);
        let cp = critical_path(&attr);
        let d = diff(&attr, &attr);
        black_box((attr.runs.len(), cp.segments.len(), d.per_client.len()))
    });
    let per_sec = m.per_second();
    let eps = per_sec * trace_events as f64;
    println!(
        "  -> attribution: {per_sec:.0} full pipelines/s over {trace_events} trace \
         events / {runs} runs ({eps:.0} events/s swept)"
    );
    Value::Object(vec![
        ("trace_events".into(), Value::UInt(trace_events)),
        ("runs".into(), Value::UInt(runs)),
        ("pipelines_per_sec".into(), Value::Float(per_sec)),
        ("events_per_sec".into(), Value::Float(eps)),
    ])
}

/// Measures the time-series store: how fast a telemetry-on run's report
/// ingests into tiered per-series rings, and what fraction of the run's own
/// wall clock that ingest costs.
///
/// # Panics
///
/// Panics if telemetry-disabled engine throughput falls below
/// `TRACE_OFF_NOISE_FLOOR` x the PR 7 reference (the run-log capture the
/// store ingests must cost one predicted branch per event when telemetry is
/// off), or if the relative cost of turning telemetry on — measured
/// back-to-back in this process, so machine-speed drift cancels — grew more
/// than `TSDB_MAX_INGEST_OVERHEAD` over the PR 7 reference ratio (the
/// capture must cost a bounds check and three `Vec` pushes per completed
/// run, nothing more). The post-hoc ingest rate itself is recorded, not
/// guarded — like attribution, it is pure post-processing off the serving
/// hot path.
fn tsdb_section(off_eps: f64) -> Value {
    use serving::tsdb::Store;
    let model = models::mini::small(4);
    let base = EngineConfig::default();
    let mut store = ProfileStore::new();
    store.insert(Profiler::new(&base).profile(&model));
    let store = Arc::new(store);
    let tc = telemetry::TelemetryConfig::enabled(SimDuration::from_micros(100));
    let cfg = base.with_telemetry(tc);
    let sched = || {
        OlympianScheduler::new(
            Arc::clone(&store),
            Box::new(RoundRobin::new()),
            SimDuration::from_micros(200),
        )
    };
    // Back-to-back off/on runs: the ratio between them is immune to the
    // machine running hotter or colder than when the references were cut.
    let off_probe = run_experiment(&base, engine_clients(4, 2), &mut sched());
    let off_m = harness::run("engine_olympian/telemetry=off(run-log)", || {
        black_box(run_experiment(&base, engine_clients(4, 2), &mut sched()))
    });
    let report = run_experiment(&cfg, engine_clients(4, 2), &mut sched());
    let run_m = harness::run("engine_olympian/telemetry=on(run-log)", || {
        black_box(run_experiment(&cfg, engine_clients(4, 2), &mut sched()))
    });
    let off_local_eps = off_m.per_second() * off_probe.event_count as f64;
    let on_eps = run_m.per_second() * report.event_count as f64;

    let probe = Store::from_telemetry(&report.telemetry);
    let (series, points) = (probe.series_count() as u64, probe.total_points() as u64);
    let ingest_m = harness::run("tsdb/ingest", || {
        black_box(Store::from_telemetry(&report.telemetry).total_points())
    });
    let points_per_sec = ingest_m.per_second() * points as f64;

    let off_vs_pr7 = off_eps / PR7_ENGINE_OLYMPIAN_EPS;
    // Relative cost of turning telemetry on, here and at the PR 7 cut —
    // within-process ratios, so machine-speed drift cancels out of the
    // comparison.
    let on_cost = 1.0 - on_eps / off_local_eps.max(1e-9);
    let pr7_on_cost = 1.0 - PR7_TELEMETRY_ON_EPS / PR7_ENGINE_OLYMPIAN_EPS;
    let ingest_overhead = (on_cost - pr7_on_cost).max(0.0);
    println!(
        "  -> tsdb: ingest {points_per_sec:.0} points/s ({series} series, {points} \
         points); off {off_vs_pr7:.2}x PR 7 reference, telemetry-on cost {:.1}% \
         (PR 7 {:.1}%, capture overhead {:.1}%)",
        on_cost * 100.0,
        pr7_on_cost * 100.0,
        ingest_overhead * 100.0
    );
    assert!(
        off_vs_pr7 >= TRACE_OFF_NOISE_FLOOR,
        "telemetry-disabled engine throughput {off_eps:.0} events/s fell below \
         {TRACE_OFF_NOISE_FLOOR}x the PR 7 reference {PR7_ENGINE_OLYMPIAN_EPS:.0} — \
         the run-log capture is no longer free when telemetry is off"
    );
    assert!(
        ingest_overhead <= TSDB_MAX_INGEST_OVERHEAD,
        "run-log capture grew the telemetry-on cost to {:.1}% of engine \
         throughput, more than {:.0}% over the PR 7 reference {:.1}%",
        on_cost * 100.0,
        TSDB_MAX_INGEST_OVERHEAD * 100.0,
        pr7_on_cost * 100.0
    );
    Value::Object(vec![
        (
            "pr7_reference_events_per_sec".into(),
            Value::Object(vec![
                ("fifo".into(), Value::Float(PR7_ENGINE_FIFO_EPS)),
                ("olympian".into(), Value::Float(PR7_ENGINE_OLYMPIAN_EPS)),
                ("telemetry_on".into(), Value::Float(PR7_TELEMETRY_ON_EPS)),
            ]),
        ),
        ("off_vs_pr7".into(), Value::Float(off_vs_pr7)),
        ("off_events_per_sec".into(), Value::Float(off_local_eps)),
        ("on_events_per_sec".into(), Value::Float(on_eps)),
        ("on_cost".into(), Value::Float(on_cost)),
        ("pr7_on_cost".into(), Value::Float(pr7_on_cost)),
        ("series".into(), Value::UInt(series)),
        ("points".into(), Value::UInt(points)),
        ("ingest_points_per_sec".into(), Value::Float(points_per_sec)),
        ("ingest_overhead".into(), Value::Float(ingest_overhead)),
        (
            "max_ingest_overhead".into(),
            Value::Float(TSDB_MAX_INGEST_OVERHEAD),
        ),
        ("noise_floor".into(), Value::Float(TRACE_OFF_NOISE_FLOOR)),
    ])
}

/// Measures the Olympian engine config with the control plane ticking —
/// deadline binding, laxity scans, and the degradation ladder all live —
/// and asserts the off rate (measured by `engine_section`, since
/// `cfg.control` defaults to `None`) is within noise of the PR 8 reference.
///
/// # Panics
///
/// Panics if control-disabled engine throughput falls below
/// `TRACE_OFF_NOISE_FLOOR` x the PR 8 reference — an uncontrolled engine
/// must pay one predicted branch per event, not a control loop.
fn control_section(off_eps: f64) -> Value {
    let model = models::mini::small(4);
    let base = EngineConfig::default();
    let mut store = ProfileStore::new();
    store.insert(Profiler::new(&base).profile(&model));
    let store = Arc::new(store);
    let cfg = base.with_control(
        controlplane::ControlConfig::new()
            .with_cost(olympian::StoreCostOracle::new(Arc::clone(&store))),
    );
    let sched = || {
        OlympianScheduler::new(
            Arc::clone(&store),
            Box::new(RoundRobin::new()),
            SimDuration::from_micros(200),
        )
    };
    let probe = run_experiment(&cfg, engine_clients(4, 2), &mut sched());
    let m = harness::run("engine_olympian/control=on", || {
        black_box(run_experiment(&cfg, engine_clients(4, 2), &mut sched()))
    });
    let on_eps = m.per_second() * probe.event_count as f64;
    let off_vs_pr8 = off_eps / PR8_ENGINE_OLYMPIAN_EPS;
    println!(
        "  -> control: off {off_eps:.0} events/s ({off_vs_pr8:.2}x PR 8 reference), \
         closed-loop {on_eps:.0}"
    );
    assert!(
        off_vs_pr8 >= TRACE_OFF_NOISE_FLOOR,
        "control-disabled engine throughput {off_eps:.0} events/s fell below \
         {TRACE_OFF_NOISE_FLOOR}x the PR 8 reference {PR8_ENGINE_OLYMPIAN_EPS:.0} — \
         the control plane is no longer free when off"
    );
    Value::Object(vec![
        (
            "pr8_reference_events_per_sec".into(),
            Value::Object(vec![
                ("fifo".into(), Value::Float(PR8_ENGINE_FIFO_EPS)),
                ("olympian".into(), Value::Float(PR8_ENGINE_OLYMPIAN_EPS)),
            ]),
        ),
        ("off_events_per_sec".into(), Value::Float(off_eps)),
        ("on_events_per_sec".into(), Value::Float(on_eps)),
        ("off_vs_pr8".into(), Value::Float(off_vs_pr8)),
        ("noise_floor".into(), Value::Float(TRACE_OFF_NOISE_FLOOR)),
        ("on_cost".into(), Value::Float(1.0 - on_eps / off_eps.max(1e-9))),
    ])
}

/// Measures the engine with a two-device fleet routing every run through
/// per-device lifecycle managers, and asserts the off rate (measured by
/// `engine_section`, since `cfg.cluster` defaults to `None`) is within
/// noise of the PR 9 reference.
///
/// # Panics
///
/// Panics if cluster-disabled engine throughput falls below
/// `TRACE_OFF_NOISE_FLOOR` x the PR 9 reference — a single-pool engine must
/// pay one predicted branch per event, not a router.
fn cluster_section(off_eps: f64) -> Value {
    use serving::lifecycle::{DeploymentPlan, LifecycleConfig, ModelDeployment};
    let model = models::mini::small(4);
    let plan = DeploymentPlan::new()
        .with_model(ModelDeployment::new(model.name(), model.clone()));
    let cc = serving::cluster::ClusterConfig::new(
        vec![
            gpusim::DeviceProfile::gtx_1080_ti(),
            gpusim::DeviceProfile::titan_x(),
        ],
        LifecycleConfig::new(plan),
    )
    .with_tick(SimDuration::from_millis(1));
    let cfg = EngineConfig::default().with_cluster(cc);
    let probe = run_experiment(&cfg, engine_clients(4, 2), &mut FifoScheduler::new());
    let m = harness::run("engine_fifo/cluster=on", || {
        black_box(run_experiment(
            &cfg,
            engine_clients(4, 2),
            &mut FifoScheduler::new(),
        ))
    });
    let on_eps = m.per_second() * probe.event_count as f64;
    let off_vs_pr9 = off_eps / PR9_ENGINE_OLYMPIAN_EPS;
    println!(
        "  -> cluster: off {off_eps:.0} events/s ({off_vs_pr9:.2}x PR 9 reference), \
         two-device fleet {on_eps:.0}"
    );
    assert!(
        off_vs_pr9 >= TRACE_OFF_NOISE_FLOOR,
        "cluster-disabled engine throughput {off_eps:.0} events/s fell below \
         {TRACE_OFF_NOISE_FLOOR}x the PR 9 reference {PR9_ENGINE_OLYMPIAN_EPS:.0} — \
         the fleet orchestrator is no longer free when off"
    );
    Value::Object(vec![
        (
            "pr9_reference_events_per_sec".into(),
            Value::Object(vec![
                ("fifo".into(), Value::Float(PR9_ENGINE_FIFO_EPS)),
                ("olympian".into(), Value::Float(PR9_ENGINE_OLYMPIAN_EPS)),
            ]),
        ),
        ("off_events_per_sec".into(), Value::Float(off_eps)),
        ("on_events_per_sec".into(), Value::Float(on_eps)),
        ("off_vs_pr9".into(), Value::Float(off_vs_pr9)),
        ("noise_floor".into(), Value::Float(TRACE_OFF_NOISE_FLOOR)),
        ("on_cost".into(), Value::Float(1.0 - on_eps / off_eps.max(1e-9))),
    ])
}

/// Returns the section plus the measured wall clock (0 in smoke mode).
fn suite_section(smoke: bool, jobs: usize) -> (Value, f64) {
    if smoke {
        return (
            Value::Object(vec![
                ("experiments".into(), Value::UInt(0)),
                ("wall_clock_secs".into(), Value::Float(0.0)),
                ("serial_equivalent_secs".into(), Value::Float(0.0)),
                ("speedup".into(), Value::Float(1.0)),
            ]),
            0.0,
        );
    }
    let experiments = bench::figs::registry();
    let t0 = Instant::now();
    let durations: Vec<Duration> = simpar::par_map_jobs(jobs, &experiments, |_, &(name, f)| {
        let t = Instant::now();
        black_box(f());
        let dt = t.elapsed();
        eprintln!("  ({name} done in {dt:.1?})");
        dt
    });
    let elapsed = t0.elapsed();
    let serial_equivalent: Duration = durations.iter().sum();
    let speedup = serial_equivalent.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
    println!(
        "  -> suite: {} experiments in {elapsed:.1?} with {jobs} jobs \
         (serial-equivalent {serial_equivalent:.1?}, speedup {speedup:.2}x)",
        experiments.len()
    );
    (
        Value::Object(vec![
            ("experiments".into(), Value::UInt(experiments.len() as u64)),
            ("wall_clock_secs".into(), Value::Float(elapsed.as_secs_f64())),
            (
                "serial_equivalent_secs".into(),
                Value::Float(serial_equivalent.as_secs_f64()),
            ),
            ("speedup".into(), Value::Float(speedup)),
        ]),
        elapsed.as_secs_f64(),
    )
}

/// The recorded seed-reference numbers plus speedups of this run over them.
fn seed_reference_section(fifo_eps: f64, oly_eps: f64, suite_secs: f64) -> Value {
    let fifo_speedup = fifo_eps / SEED_ENGINE_FIFO_EPS;
    let oly_speedup = oly_eps / SEED_ENGINE_OLYMPIAN_EPS;
    println!(
        "  -> vs seed: fifo {fifo_speedup:.2}x, olympian {oly_speedup:.2}x \
         (seed {SEED_ENGINE_FIFO_EPS:.0} / {SEED_ENGINE_OLYMPIAN_EPS:.0} events/s)"
    );
    let mut fields = vec![
        (
            "engine_fifo_events_per_sec".into(),
            Value::Float(SEED_ENGINE_FIFO_EPS),
        ),
        (
            "engine_olympian_events_per_sec".into(),
            Value::Float(SEED_ENGINE_OLYMPIAN_EPS),
        ),
        (
            "suite_wall_clock_secs".into(),
            Value::Float(SEED_SUITE_WALL_SECS),
        ),
        ("engine_fifo_speedup".into(), Value::Float(fifo_speedup)),
        ("engine_olympian_speedup".into(), Value::Float(oly_speedup)),
    ];
    if suite_secs > 0.0 {
        fields.push((
            "suite_speedup".into(),
            Value::Float(SEED_SUITE_WALL_SECS / suite_secs),
        ));
    }
    Value::Object(fields)
}

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut jobs = simpar::max_jobs();
    let mut out: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--jobs" => {
                let Some(v) = args.get(i + 1) else {
                    return usage();
                };
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => jobs = n,
                    _ => return usage(),
                }
                i += 2;
            }
            "--out" => {
                let Some(v) = args.get(i + 1) else {
                    return usage();
                };
                out = Some(v.clone());
                i += 2;
            }
            _ => return usage(),
        }
    }
    std::env::set_var(simpar::JOBS_ENV, jobs.to_string());

    println!("perfsuite ({} mode, {jobs} jobs)", if smoke { "smoke" } else { "full" });
    let queue = queue_section();
    let queue_wheel = queue_wheel_section();
    let (engine, fifo_eps, oly_eps) = engine_section();
    let soa = soa_section(oly_eps);
    let shard = shard_section();
    let tracing = tracing_section(oly_eps);
    let telemetry = telemetry_section(oly_eps);
    let faults = faults_section(oly_eps);
    let lifecycle = lifecycle_section(oly_eps);
    let attribution = attribution_section();
    let tsdb = tsdb_section(oly_eps);
    let control = control_section(oly_eps);
    let cluster = cluster_section(oly_eps);
    let (suite, suite_secs) = suite_section(smoke, jobs);
    let seed_reference = seed_reference_section(fifo_eps, oly_eps, suite_secs);

    let doc = Value::Object(vec![
        ("schema".into(), Value::str("BENCH_engine/v1")),
        ("mode".into(), Value::str(if smoke { "smoke" } else { "full" })),
        ("jobs".into(), Value::UInt(jobs as u64)),
        ("queue".into(), queue),
        ("queue_wheel".into(), queue_wheel),
        ("engine".into(), engine),
        ("soa".into(), soa),
        ("shard".into(), shard),
        ("tracing".into(), tracing),
        ("telemetry".into(), telemetry),
        ("faults".into(), faults),
        ("lifecycle".into(), lifecycle),
        ("attribution".into(), attribution),
        ("tsdb".into(), tsdb),
        ("control".into(), control),
        ("cluster".into(), cluster),
        ("suite".into(), suite),
        ("seed_reference".into(), seed_reference),
    ]);
    let mut text = String::new();
    doc.write(&mut text);
    text.push('\n');
    let path = match out {
        Some(p) => std::path::PathBuf::from(p),
        None => workspace_root().join("BENCH_engine.json"),
    };
    if let Err(e) = std::fs::write(&path, &text) {
        eprintln!("error: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    ExitCode::SUCCESS
}
