//! Integration tests for the beyond-the-paper extensions: multi-GPU
//! scheduling, the request batcher, the lottery policy, profiles predicted
//! by a linear fit, and tracing.

use olympian::{Lottery, MultiGpuScheduler, OlympianScheduler, Profiler, ProfileStore, RoundRobin};
use serving::batching::{plan_batches, BatchingConfig};
use serving::workload::poisson_arrivals;
use serving::{run_experiment, ClientSpec, EngineConfig};
use simtime::{SimDuration, SimTime};
use std::sync::Arc;

fn store_for(cfg: &EngineConfig, models: &[models::LoadedModel]) -> Arc<ProfileStore> {
    let profiler = Profiler::new(cfg);
    let mut store = ProfileStore::new();
    for m in models {
        if store.get(m.name(), m.batch()).is_none() {
            store.insert(profiler.profile(m));
        }
    }
    Arc::new(store)
}

#[test]
fn multi_gpu_splits_clients_and_runs_independent_tokens() {
    let cfg = EngineConfig::default().with_device_count(2);
    let model = models::mini::small(4);
    let store = store_for(&cfg, std::slice::from_ref(&model));
    let mut sched =
        MultiGpuScheduler::new(store, || Box::new(RoundRobin::new()), SimDuration::from_micros(200));
    let report = run_experiment(&cfg, vec![ClientSpec::new(model, 4); 6], &mut sched);
    assert!(report.all_finished());
    assert_eq!(report.device_utilizations.len(), 2);
    assert!(sched.active_devices() == 2, "both GPUs used");
    // Both devices did real work.
    for u in &report.device_utilizations {
        assert!(*u > 0.2, "device util {u}");
    }
}

#[test]
fn multi_gpu_roughly_halves_makespan() {
    let model = models::mini::small(4);
    let clients = || vec![ClientSpec::new(model.clone(), 6); 8];
    let run_with = |gpus: usize| {
        let cfg = EngineConfig::default().with_device_count(gpus);
        let store = store_for(&cfg, std::slice::from_ref(&model));
        let mut sched = MultiGpuScheduler::new(
            store,
            || Box::new(RoundRobin::new()),
            SimDuration::from_micros(300),
        );
        run_experiment(&cfg, clients(), &mut sched)
    };
    let one = run_with(1);
    let two = run_with(2);
    assert!(one.all_finished() && two.all_finished());
    let speedup = one.makespan.as_secs_f64() / two.makespan.as_secs_f64();
    assert!(speedup > 1.6 && speedup < 2.4, "speedup {speedup}");
}

#[test]
fn single_gpu_multi_scheduler_equals_plain_olympian() {
    let cfg = EngineConfig::default();
    let model = models::mini::branchy(2);
    let clients = || vec![ClientSpec::new(model.clone(), 3); 3];
    let store = store_for(&cfg, std::slice::from_ref(&model));

    let mut plain = OlympianScheduler::new(
        Arc::clone(&store),
        Box::new(RoundRobin::new()),
        SimDuration::from_micros(200),
    );
    let a = run_experiment(&cfg, clients(), &mut plain);

    let mut multi = MultiGpuScheduler::new(
        store,
        || Box::new(RoundRobin::new()),
        SimDuration::from_micros(200),
    );
    let b = run_experiment(&cfg, clients(), &mut multi);

    assert_eq!(a.makespan, b.makespan, "one device: identical schedules");
    assert_eq!(a.switch_count, b.switch_count);
}

#[test]
fn batched_open_loop_workload_runs_end_to_end() {
    let cfg = EngineConfig::default();
    // Light load of single-request "batches" over the mini model.
    let arrivals = poisson_arrivals(50.0, SimDuration::from_millis(400), 5);
    let plan = plan_batches(&arrivals, &BatchingConfig::new(4, SimDuration::from_millis(10)));
    assert!(!plan.is_empty());
    let mut clients = Vec::new();
    let mut batch_sizes = std::collections::HashSet::new();
    for b in &plan {
        batch_sizes.insert(b.size());
        clients.push(
            ClientSpec::new(models::mini::small(b.size()), 1).with_start(b.formed_at()),
        );
    }
    let model_samples: Vec<models::LoadedModel> = batch_sizes
        .iter()
        .map(|&s| models::mini::small(s))
        .collect();
    let store = store_for(&cfg, &model_samples);
    let mut sched = OlympianScheduler::new(
        store,
        Box::new(RoundRobin::new()),
        SimDuration::from_micros(200),
    );
    let report = run_experiment(&cfg, clients, &mut sched);
    assert!(report.all_finished());
    // Per-request latency is measurable for every request.
    for (client, b) in report.clients.iter().zip(&plan) {
        let done = client.finish_time();
        for &a in b.request_arrivals() {
            assert!(done > a, "completion after arrival");
        }
    }
}

#[test]
fn lottery_policy_runs_and_roughly_tracks_tickets() {
    let cfg = EngineConfig::default();
    let model = models::mini::small(4);
    let store = store_for(&cfg, std::slice::from_ref(&model));
    let mut clients = vec![ClientSpec::new(model.clone(), 10).with_weight(3); 1];
    clients.push(ClientSpec::new(model, 10).with_weight(1));
    let mut sched = OlympianScheduler::new(
        store,
        Box::new(Lottery::new(7)),
        SimDuration::from_micros(150),
    );
    let report = run_experiment(&cfg, clients, &mut sched);
    assert!(report.all_finished());
    // 3-ticket client should finish clearly first.
    assert!(report.clients[0].finish_time() < report.clients[1].finish_time());
    // Shares during contention ∝ tickets, loosely (probabilistic).
    let horizon: SimTime = report.clients[0].finish_time();
    let heavy = report.clients[0].gpu_received_by(horizon).as_secs_f64();
    let light = report.clients[1].gpu_received_by(horizon).as_secs_f64();
    let ratio = heavy / light.max(1e-9);
    assert!(ratio > 1.8 && ratio < 5.0, "ticket ratio {ratio}");
}

#[test]
fn linear_fallback_admits_unprofiled_batches() {
    let cfg = EngineConfig::default();
    let profiler = Profiler::new(&cfg);
    // Zoo model profiled at two batches; a third batch is predicted from
    // the fit and stored next to the measurements, as fig20 does.
    let m50 = models::load(models::ModelKind::ResNet50, 50).expect("zoo model");
    let m100 = models::load(models::ModelKind::ResNet50, 100).expect("zoo model");
    let p50 = profiler.profile(&m50);
    let p100 = profiler.profile(&m100);
    let lin = olympian::LinearCostModel::fit(&[&p50, &p100]).expect("fit");
    let mut store = ProfileStore::new();
    store.insert(p50);
    store.insert(p100);
    store.insert(lin.predict(75));
    let m75 = models::load(models::ModelKind::ResNet50, 75).expect("zoo model");
    let mut sched = OlympianScheduler::new(
        Arc::new(store),
        Box::new(RoundRobin::new()),
        SimDuration::from_micros(1200),
    );
    let report = run_experiment(&cfg, vec![ClientSpec::new(m75, 1); 2], &mut sched);
    assert!(report.all_finished(), "the predicted profile admits batch 75");
}

#[test]
fn cpu_only_jobs_coexist_with_gpu_jobs_under_olympian() {
    let cfg = EngineConfig::default();
    let gpu_model = models::mini::small(4);
    let cpu_model = models::mini::cpu_only(4);
    let store = store_for(&cfg, &[gpu_model.clone(), cpu_model.clone()]);
    let clients = vec![
        ClientSpec::new(gpu_model, 4),
        ClientSpec::new(cpu_model, 4),
        ClientSpec::new(models::mini::small(4), 4),
    ];
    let mut sched = OlympianScheduler::new(
        store,
        Box::new(RoundRobin::new()),
        SimDuration::from_micros(200),
    );
    let report = run_experiment(&cfg, clients, &mut sched);
    assert!(report.all_finished(), "outcomes: {:?}",
        report.clients.iter().map(|c| &c.outcome).collect::<Vec<_>>());
    assert_eq!(report.clients[1].total_gpu, SimDuration::ZERO);
    assert!(report.clients[0].total_gpu > SimDuration::ZERO);
}

#[test]
fn bursty_clients_with_think_time_leave_idle_gaps() {
    let cfg = EngineConfig::default();
    let model = models::mini::small(2);
    let busy = run_experiment(
        &cfg,
        vec![ClientSpec::new(model.clone(), 5)],
        &mut serving::FifoScheduler::new(),
    );
    let bursty = run_experiment(
        &cfg,
        vec![ClientSpec::new(model, 5).with_think_time(SimDuration::from_millis(2))],
        &mut serving::FifoScheduler::new(),
    );
    assert!(busy.all_finished() && bursty.all_finished());
    // Think time stretches the makespan by ~4 gaps and depresses utilization.
    let stretch = bursty.makespan.as_secs_f64() - busy.makespan.as_secs_f64();
    assert!((stretch - 0.008).abs() < 0.002, "stretch {stretch}");
    assert!(bursty.utilization < busy.utilization * 0.7);
}

#[test]
fn trace_records_the_full_lifecycle() {
    use serving::trace::{render_trace, TraceConfig, TraceKind};
    let cfg = EngineConfig::default().with_trace(TraceConfig::sampled());
    let model = models::mini::small(2);
    let store = store_for(&cfg, std::slice::from_ref(&model));
    let mut sched = OlympianScheduler::new(
        store,
        Box::new(RoundRobin::new()),
        SimDuration::from_micros(200),
    );
    let report = run_experiment(&cfg, vec![ClientSpec::new(model, 2); 2], &mut sched);
    assert!(report.all_finished());
    let trace = &report.trace;
    assert!(!trace.is_empty());
    assert_eq!(trace.dropped, 0);
    // Timestamps never go backwards and sequence numbers are dense.
    assert!(trace.events.windows(2).all(|w| w[0].at <= w[1].at));
    assert!(trace.events.iter().enumerate().all(|(i, e)| e.seq == i as u64));
    // Every lifecycle stage appears.
    let count =
        |pred: &dyn Fn(&TraceKind) -> bool| trace.events.iter().filter(|e| pred(&e.kind)).count();
    assert_eq!(count(&|k| matches!(k, TraceKind::ClientAdmitted { .. })), 2);
    assert_eq!(count(&|k| matches!(k, TraceKind::RunRegistered { .. })), 4);
    assert_eq!(count(&|k| matches!(k, TraceKind::RunCompleted { .. })), 4);
    assert_eq!(count(&|k| matches!(k, TraceKind::ClientFinished { .. })), 2);
    // The token holder walks None -> Some -> ... -> None, so grants and
    // revokes pair up exactly, and every engine-counted switch left a mark.
    let grants = count(&|k| matches!(k, TraceKind::TokenGrant { .. })) as u64;
    let revokes = count(&|k| matches!(k, TraceKind::TokenRevoke { .. })) as u64;
    assert_eq!(grants, revokes, "every granted token is eventually revoked");
    assert!(grants >= 1 && grants <= report.switch_count);
    assert!(grants + revokes >= report.switch_count);
    // Sampled mode skips per-kernel events.
    assert_eq!(count(&|k| matches!(k, TraceKind::KernelLaunch { .. })), 0);
    let rendered = render_trace(trace, 10);
    assert!(rendered.lines().count() >= 10);
}

#[test]
fn trace_is_empty_when_disabled() {
    let cfg = EngineConfig::default();
    let report = run_experiment(
        &cfg,
        vec![ClientSpec::new(models::mini::tiny(1), 1)],
        &mut serving::FifoScheduler::new(),
    );
    assert!(report.trace.is_empty());
}
