//! Failure injection: out-of-memory admission, missing profiles, and
//! worker-thread exhaustion under gang-holding scheduling.

use gpusim::DeviceProfile;
use olympian::{OlympianScheduler, Profiler, ProfileStore, RoundRobin};
use serving::{run_experiment, ClientOutcome, ClientSpec, EngineConfig, FifoScheduler};
use simtime::SimDuration;
use std::sync::Arc;

fn tiny_device(bytes: u64) -> DeviceProfile {
    DeviceProfile::custom("tiny", 1.0, bytes, 4, 0.0)
}

#[test]
fn oom_rejects_latecomers_and_reports_sizes() {
    let model = models::mini::small(4);
    let per_client = model.activation_bytes();
    // Weights + two clients' activations, not three.
    let cfg = EngineConfig {
        device: tiny_device(model.weights_bytes() + 2 * per_client + per_client / 2),
        ..EngineConfig::default()
    };
    let clients = vec![ClientSpec::new(model, 1); 3];
    let report = run_experiment(&cfg, clients, &mut FifoScheduler::new());
    assert_eq!(report.finished_count(), 2);
    match &report.clients[2].outcome {
        ClientOutcome::RejectedOom { requested, available } => {
            assert_eq!(*requested, per_client);
            assert!(available < requested);
        }
        other => panic!("expected OOM, got {other:?}"),
    }
}

#[test]
fn unprofiled_model_is_rejected_by_olympian_not_by_baseline() {
    let cfg = EngineConfig::default();
    let model = models::mini::small(4);
    let clients = vec![ClientSpec::new(model.clone(), 1); 2];

    // Baseline doesn't care about profiles.
    let base = run_experiment(&cfg, clients.clone(), &mut FifoScheduler::new());
    assert!(base.all_finished());

    // Olympian refuses to run without a profile for (model, batch).
    let empty = Arc::new(ProfileStore::new());
    let mut sched =
        OlympianScheduler::new(empty, Box::new(RoundRobin::new()), SimDuration::from_micros(100));
    let report = run_experiment(&cfg, clients, &mut sched);
    assert_eq!(report.finished_count(), 0);
    for c in &report.clients {
        match &c.outcome {
            ClientOutcome::RejectedByScheduler(msg) => {
                assert!(msg.contains("no offline profile"), "msg: {msg}");
            }
            other => panic!("expected scheduler rejection, got {other:?}"),
        }
    }
}

#[test]
fn profile_for_wrong_batch_does_not_admit() {
    let cfg = EngineConfig::default();
    let model_b4 = models::mini::small(4);
    let model_b8 = models::mini::small(8);
    let mut store = ProfileStore::new();
    store.insert(Profiler::new(&cfg).profile(&model_b4));
    let mut sched = OlympianScheduler::new(
        Arc::new(store),
        Box::new(RoundRobin::new()),
        SimDuration::from_micros(100),
    );
    let report = run_experiment(&cfg, vec![ClientSpec::new(model_b8, 1)], &mut sched);
    assert_eq!(report.finished_count(), 0);
}

#[test]
fn gang_holding_exhausts_small_pool_and_stalls() {
    // Chain-shaped jobs hold one gang thread each for their whole run;
    // under Olympian, *suspended* gangs keep holding theirs, so a pool
    // smaller than the client count wedges once enough gangs have parked.
    let model = models::mini::small(4);
    let cfg = EngineConfig {
        pool_size: 3,
        max_gang: 4,
        ..EngineConfig::default()
    };

    let cfg_oly = cfg.clone();
    let profiler = Profiler::new(&cfg_oly);
    let mut store = ProfileStore::new();
    store.insert(profiler.profile(&model));
    let mut sched = OlympianScheduler::new(
        Arc::new(store),
        Box::new(RoundRobin::new()),
        SimDuration::from_micros(100),
    );
    let clients = vec![ClientSpec::new(model.clone(), 2); 4];
    let oly = run_experiment(&cfg_oly, clients.clone(), &mut sched);
    assert!(
        oly.clients.iter().any(|c| c.outcome == ClientOutcome::Stalled),
        "suspended gangs should pin the pool: {:?}",
        oly.clients.iter().map(|c| &c.outcome).collect::<Vec<_>>()
    );

    // The baseline with the same pool merely serializes — it finishes.
    let base = run_experiment(&cfg, clients, &mut FifoScheduler::new());
    assert!(base.all_finished(), "TF-Serving should survive a small pool");
}

#[test]
fn weights_are_shared_across_clients_of_one_model() {
    let model = models::mini::small(4);
    // Enough for ONE copy of the weights plus three activations — only
    // works if weights are loaded once.
    let cfg = EngineConfig {
        device: tiny_device(model.weights_bytes() + 3 * model.activation_bytes()),
        ..EngineConfig::default()
    };
    let report = run_experiment(
        &cfg,
        vec![ClientSpec::new(model, 1); 3],
        &mut FifoScheduler::new(),
    );
    assert!(report.all_finished(), "servable sharing failed");
}

#[test]
fn peak_memory_is_reported() {
    let model = models::mini::small(4);
    let cfg = EngineConfig::default();
    let report = run_experiment(
        &cfg,
        vec![ClientSpec::new(model.clone(), 1); 2],
        &mut FifoScheduler::new(),
    );
    assert_eq!(
        report.peak_memory,
        model.weights_bytes() + 2 * model.activation_bytes()
    );
}
