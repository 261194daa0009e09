//! End-to-end integration: the whole stack (models → serving engine →
//! Olympian scheduler) on miniature workloads.

use olympian::{OlympianScheduler, Profiler, ProfileStore, RoundRobin};
use serving::{run_experiment, ClientSpec, EngineConfig, FifoScheduler, RunReport};
use simtime::SimDuration;
use std::sync::Arc;

fn fair_run(cfg: &EngineConfig, clients: Vec<ClientSpec>, q_us: u64) -> RunReport {
    let profiler = Profiler::new(cfg);
    let mut store = ProfileStore::new();
    for c in &clients {
        if store.get(c.model.name(), c.model.batch()).is_none() {
            store.insert(profiler.profile(&c.model));
        }
    }
    let mut sched = OlympianScheduler::new(
        Arc::new(store),
        Box::new(RoundRobin::new()),
        SimDuration::from_micros(q_us),
    );
    run_experiment(cfg, clients, &mut sched)
}

#[test]
fn olympian_equalizes_finish_times_where_baseline_spreads() {
    let cfg = EngineConfig::default();
    let clients = vec![ClientSpec::new(models::mini::small(4), 6); 6];

    let base = run_experiment(&cfg, clients.clone(), &mut FifoScheduler::new());
    let oly = fair_run(&cfg, clients, 300);
    assert!(base.all_finished() && oly.all_finished());

    let base_spread = metrics::max_min_ratio(&base.finish_times_secs());
    let oly_spread = metrics::max_min_ratio(&oly.finish_times_secs());
    assert!(oly_spread < 1.02, "olympian spread {oly_spread}");
    assert!(
        oly_spread < base_spread,
        "olympian ({oly_spread}) should be tighter than baseline ({base_spread})"
    );
}

#[test]
fn quantum_gpu_durations_conserve_total_gpu_time() {
    let cfg = EngineConfig::default();
    let clients = vec![ClientSpec::new(models::mini::small(2), 3); 3];
    let report = fair_run(&cfg, clients, 250);
    for c in &report.clients {
        let from_quanta: u64 = c.quantum_marks.iter().map(|(_, d)| d.as_nanos()).sum();
        let from_runs: u64 = c.run_gpu_durations.iter().map(|d| d.as_nanos()).sum();
        assert_eq!(from_quanta, from_runs, "client {}", c.client.0);
        assert_eq!(from_runs, c.total_gpu.as_nanos(), "client {}", c.client.0);
    }
}

#[test]
fn scheduling_intervals_bracket_the_quantum() {
    let cfg = EngineConfig::default();
    let clients = vec![ClientSpec::new(models::mini::small(2), 4); 4];
    let report = fair_run(&cfg, clients, 400);
    assert!(report.switch_count > 10);
    let mean_ms = report.mean_interval_ms().expect("switches happened");
    // Intervals = quantum + switch latency + overshoot; same order as Q.
    assert!(mean_ms > 0.3 && mean_ms < 2.0, "mean interval {mean_ms} ms");
}

#[test]
fn whole_report_is_deterministic_per_seed() {
    let cfg = EngineConfig::default();
    let make = || fair_run(&cfg, vec![ClientSpec::new(models::mini::branchy(2), 3); 4], 200);
    let (a, b) = (make(), make());
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.switch_count, b.switch_count);
    assert_eq!(a.event_count, b.event_count);
    assert_eq!(a.finish_times_secs(), b.finish_times_secs());
    for (ca, cb) in a.clients.iter().zip(&b.clients) {
        assert_eq!(ca.quantum_marks, cb.quantum_marks);
    }
}

#[test]
fn olympian_overhead_is_bounded_on_pairs() {
    let cfg = EngineConfig::default().quiescent();
    let clients = vec![ClientSpec::new(models::mini::small(4), 4); 2];
    let base = run_experiment(&cfg, clients.clone(), &mut FifoScheduler::new());
    let oly = fair_run(&cfg, clients, 800);
    let overhead = (oly.makespan.as_secs_f64() - base.makespan.as_secs_f64())
        / base.makespan.as_secs_f64();
    assert!(overhead < 0.25, "overhead {overhead} at generous quantum");
}

#[test]
fn baseline_two_seeds_give_different_orderings() {
    let clients = || vec![ClientSpec::new(models::mini::small(3), 6); 6];
    let a = run_experiment(
        &EngineConfig::default().with_seed(11),
        clients(),
        &mut FifoScheduler::new(),
    );
    let b = run_experiment(
        &EngineConfig::default().with_seed(22),
        clients(),
        &mut FifoScheduler::new(),
    );
    assert_ne!(
        a.finish_times_secs(),
        b.finish_times_secs(),
        "different seeds should reshuffle the baseline"
    );
}
