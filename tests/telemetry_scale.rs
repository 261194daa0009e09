//! Telemetry's heap follows activity, not history. A snapshot stores only
//! the values that moved since the previous boundary, so an open-loop
//! run's telemetry grows linearly with its arrivals, and an idle boundary
//! costs its time and offsets alone. Burn alerts share their model name
//! and reach the engine by reference, so a boundary that raises one
//! allocates nothing. The guards below fold synthetic streams straight
//! through the hub and count a controlled run's allocations; the ignored
//! scale check runs a 48k-arrival fleet with telemetry on and off.

mod counting_alloc;
mod zipf_fleet;

use controlplane::ControlConfig;
use counting_alloc::{allocs_during, peak_live_bytes_during};
use serving::{run_experiment, ClientSpec, EngineConfig, FifoScheduler};
use simtime::{SimDuration, SimTime};
use std::hint::black_box;
use zipf_fleet::zipf_fleet;
use telemetry::{BurnWindows, EngineGauges, ModelNames, SloSpec, TelemetryConfig, TelemetryHub};
use trace::TraceKind;

/// Folds `n` open-loop sessions through a hub with a 100 µs cadence:
/// session `i` is admitted in interval `i`, runs one quantum in each of
/// the next three intervals, then idles for the rest of the run.
fn fold_open_loop(n: u32) {
    let interval = SimDuration::from_micros(100);
    let models = ModelNames::new(vec!["m"; n as usize]);
    let mut hub = TelemetryHub::new(&TelemetryConfig::enabled(interval), &models, []);
    let gauges = EngineGauges::default();
    for step in 0..n + 3 {
        let at = SimTime::ZERO + interval * u64::from(step) + SimDuration::from_micros(10);
        if at >= hub.next_due() {
            hub.tick(at, &gauges);
        }
        if step < n {
            hub.observe(at, &TraceKind::ClientAdmitted { client: step, device: 0 });
        }
        for client in step.saturating_sub(3)..step.min(n) {
            let gpu = SimDuration::from_micros(20);
            hub.observe(at, &TraceKind::QuantumEnd { job: u64::from(client), client, gpu });
        }
    }
    let makespan = SimTime::ZERO + interval * u64::from(n + 4);
    hub.finalize(makespan, &gauges);
    black_box(hub.into_report(makespan));
}

/// Doubling the sessions at most doubles the hub's peak heap, up to Vec
/// growth slack. Dense snapshot rows, one value per session ever seen,
/// would quadruple it.
#[test]
fn telemetry_peak_heap_grows_linearly_with_open_loop_sessions() {
    const N: u32 = 1_000;
    let one = peak_live_bytes_during(|| fold_open_loop(N));
    let two = peak_live_bytes_during(|| fold_open_loop(2 * N));
    assert!(
        two as f64 <= 2.5 * one as f64,
        "peak heap {one} B for {N} sessions but {two} B for {}",
        2 * N
    );
}

/// Folds 20 busy intervals through a hub with a 100 µs cadence, then
/// `idle` boundaries in which nothing happens. In each busy interval,
/// each of eight sessions runs a quantum and completes a run against an
/// objective two of them breach.
fn fold_then_idle(idle: u64) {
    const SESSIONS: u32 = 8;
    const BUSY: u64 = 20;
    let interval = SimDuration::from_micros(100);
    let cfg = TelemetryConfig::enabled(interval)
        .with_slo(SloSpec::new("m", SimDuration::from_micros(150), 0.05));
    let mut hub = TelemetryHub::new(&cfg, &ModelNames::new(["m"; SESSIONS as usize]), []);
    let gauges = EngineGauges { active_jobs: u64::from(SESSIONS), ..EngineGauges::default() };
    for client in 0..SESSIONS {
        hub.observe(SimTime::ZERO, &TraceKind::ClientAdmitted { client, device: 0 });
    }
    for step in 0..BUSY {
        let at = SimTime::ZERO + interval * step + SimDuration::from_micros(10);
        if at >= hub.next_due() {
            hub.tick(at, &gauges);
        }
        for client in 0..SESSIONS {
            let gpu = SimDuration::from_micros(20 + u64::from(client));
            hub.observe(at, &TraceKind::QuantumEnd { job: step, client, gpu });
            let latency = SimDuration::from_micros(100 + 10 * u64::from(client));
            hub.observe(at, &TraceKind::RunCompleted { job: step, client, latency });
        }
    }
    let makespan = SimTime::ZERO + interval * (BUSY + idle);
    hub.finalize(makespan, &gauges);
    black_box(hub.into_report(makespan));
}

/// An idle boundary stores its time and its change offsets, 28 bytes,
/// and no value: N more idle boundaries add at most 64 bytes each, Vec
/// growth slack included. A dense row of every counter, gauge and
/// histogram summary would add over 400.
#[test]
fn idle_boundaries_add_only_their_time_and_offsets() {
    const N: u64 = 4_096;
    let one = peak_live_bytes_during(|| fold_then_idle(N));
    let two = peak_live_bytes_during(|| fold_then_idle(2 * N));
    let per_boundary = two.saturating_sub(one) as f64 / N as f64;
    assert!(
        per_boundary <= 64.0,
        "{N} more idle boundaries added {per_boundary:.1} B each ({one} B, then {two} B)"
    );
}

/// A controlled run of two closed-loop mini-tiny clients, `batches` runs
/// each, with 100 µs telemetry and an objective no run meets, so the
/// objective burns at every boundary. The control plane acknowledges each
/// burn alert, which resets the latch, so every boundary raises one, as
/// in the benchmark's chaos-control run. Returns the alerts raised.
fn burning_run(batches: u32) -> u64 {
    let tc = TelemetryConfig::enabled(SimDuration::from_micros(100))
        .with_slo(SloSpec::new("mini-tiny", SimDuration::from_nanos(1), 0.05))
        .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 });
    let cfg = EngineConfig::default().with_telemetry(tc).with_control(ControlConfig::new());
    let clients = vec![ClientSpec::new(models::mini::tiny(4), batches); 2];
    let report = run_experiment(&cfg, clients, &mut FifoScheduler::new());
    assert!(report.all_finished(), "a burning session did not finish");
    report.telemetry.counter("alerts_slo_burn").expect("counter registered")
}

/// Doubling the burning run doubles its boundaries and its burn alerts,
/// but adds only the amortized growth of the vectors they land in: a
/// burn alert itself allocates nothing.
#[test]
fn burn_alerts_allocate_nothing() {
    const BATCHES: u32 = 400;
    let (mut alerts, mut more_alerts) = (0, 0);
    let one = allocs_during(|| alerts = burning_run(BATCHES));
    let two = allocs_during(|| more_alerts = burning_run(2 * BATCHES));
    assert!(more_alerts >= alerts + alerts / 2, "{alerts} then {more_alerts} burn alerts");
    let added = two.saturating_sub(one);
    assert!(
        added <= 64,
        "{} more burn alerts took {added} more allocations ({one}, then {two})",
        more_alerts - alerts
    );
}

/// Builds and runs the fleet-zipf fleet at `arrivals` arrivals, with 1 ms
/// telemetry when `telemetry` is set.
fn run_zipf_fleet(arrivals: usize, telemetry: bool) {
    let (cfg, clients) = zipf_fleet(arrivals, telemetry);
    let report = run_experiment(&cfg, clients, &mut FifoScheduler::new());
    assert!(report.all_finished(), "a fleet session did not finish");
    black_box(report);
}

/// At 48k arrivals, 1 ms telemetry at most doubles the fleet's peak heap.
/// Dense snapshot rows took it from 64 MiB to about 1 GiB.
#[test]
#[ignore = "scale check: a 48k-arrival fleet; run with `cargo test --release -- --ignored`"]
fn fleet_telemetry_peak_heap_stays_within_twice_the_untelemetered_run() {
    const ARRIVALS: usize = 48_000;
    let on = peak_live_bytes_during(|| run_zipf_fleet(ARRIVALS, true));
    let off = peak_live_bytes_during(|| run_zipf_fleet(ARRIVALS, false));
    let mib = |b: u64| b as f64 / f64::from(1 << 20);
    assert!(
        on <= 2 * off,
        "peak heap {:.1} MiB with telemetry, {:.1} MiB without",
        mib(on),
        mib(off)
    );
}
