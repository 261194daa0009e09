//! End-to-end policy behaviour on miniature workloads: weighted shares and
//! priority ordering.

use olympian::{OlympianScheduler, Priority, Profiler, ProfileStore, WeightedFair};
use serving::{run_experiment, ClientSpec, EngineConfig, RunReport};
use simtime::SimDuration;
use std::sync::Arc;

fn run_with(policy: Box<dyn olympian::Policy>, clients: Vec<ClientSpec>) -> RunReport {
    let cfg = EngineConfig::default();
    let profiler = Profiler::new(&cfg);
    let mut store = ProfileStore::new();
    for c in &clients {
        if store.get(c.model.name(), c.model.batch()).is_none() {
            store.insert(profiler.profile(&c.model));
        }
    }
    let mut sched =
        OlympianScheduler::new(Arc::new(store), policy, SimDuration::from_micros(200));
    run_experiment(&cfg, clients, &mut sched)
}

#[test]
fn weighted_fair_group_ratio_follows_theory() {
    // 2 heavy (weight 2) + 2 light (weight 1), enough batches to average.
    let model = models::mini::small(4);
    let mut clients = vec![ClientSpec::new(model.clone(), 8).with_weight(2); 2];
    clients.extend(vec![ClientSpec::new(model, 8).with_weight(1); 2]);
    let report = run_with(Box::new(WeightedFair::new()), clients);
    assert!(report.all_finished());
    let f = report.finish_times_secs();
    let heavy = (f[0] + f[1]) / 2.0;
    let light = (f[2] + f[3]) / 2.0;
    let expected = 3.0 / 4.0; // (k+1)/2k for k=2
    let got = heavy / light;
    assert!((got - expected).abs() < 0.08, "ratio {got} vs {expected}");
}

#[test]
fn priority_strictly_orders_three_levels() {
    let model = models::mini::small(4);
    let clients = vec![
        ClientSpec::new(model.clone(), 5).with_priority(1),
        ClientSpec::new(model.clone(), 5).with_priority(9),
        ClientSpec::new(model, 5).with_priority(5),
    ];
    let report = run_with(Box::new(Priority::new()), clients);
    assert!(report.all_finished());
    let f = report.finish_times_secs();
    assert!(f[1] < f[2] && f[2] < f[0], "priority order violated: {f:?}");
}

#[test]
fn priority_same_level_fair_shares() {
    let model = models::mini::small(4);
    let clients = vec![ClientSpec::new(model, 5).with_priority(3); 3];
    let report = run_with(Box::new(Priority::new()), clients);
    assert!(report.all_finished());
    let spread = metrics::max_min_ratio(&report.finish_times_secs());
    assert!(spread < 1.02, "same-priority spread {spread}");
}

#[test]
fn late_arriving_high_priority_preempts_at_quantum_boundary() {
    let model = models::mini::small(4);
    let clients = vec![
        ClientSpec::new(model.clone(), 6).with_priority(1),
        ClientSpec::new(model, 2)
            .with_priority(9)
            .with_start(simtime::SimTime::from_millis(1)),
    ];
    let report = run_with(Box::new(Priority::new()), clients);
    assert!(report.all_finished());
    // The late VIP finishes well before the early background job.
    assert!(
        report.clients[1].finish_time() < report.clients[0].finish_time(),
        "VIP should preempt"
    );
}
