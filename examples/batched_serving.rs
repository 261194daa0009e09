//! End-to-end serving pipeline: Poisson request arrivals → TF-Serving-style
//! batcher → offline profiles → Olympian fair sharing.
//!
//! ```bash
//! cargo run --release --example batched_serving
//! ```

use metrics::Cdf;
use models::ModelKind;
use olympian::{OlympianScheduler, ProfileStore, Profiler, RoundRobin};
use serving::batching::{plan_batches, BatchingConfig};
use serving::workload::poisson_arrivals;
use serving::{run_experiment, ClientSpec, EngineConfig};
use simtime::SimDuration;
use std::sync::Arc;

fn main() {
    let cfg = EngineConfig::default();

    // 1. Requests arrive open-loop at 30/s for 6 seconds.
    let arrivals = poisson_arrivals(30.0, SimDuration::from_secs(6), 42);
    println!("{} requests arrived over 6 s", arrivals.len());

    // 2. The batcher closes a batch at 32 requests or after 150 ms.
    let plan = plan_batches(
        &arrivals,
        &BatchingConfig::new(32, SimDuration::from_millis(150)),
    );
    println!(
        "batcher formed {} batches (sizes {:?}...)",
        plan.len(),
        plan.iter().take(6).map(|b| b.size()).collect::<Vec<_>>()
    );

    // 3. Each planned batch is one Session::Run starting when the batch
    //    closed, on a model instance of that batch size.
    let clients: Vec<ClientSpec> = plan
        .iter()
        .map(|b| {
            let model = models::load(ModelKind::ResNet50, b.size()).expect("zoo model");
            ClientSpec::new(model, 1).with_start(b.formed_at())
        })
        .collect();

    // 4. Every distinct batch size needs an offline profile.
    let profiler = Profiler::new(&cfg);
    let mut store = ProfileStore::new();
    for c in &clients {
        if store.get(c.model.name(), c.model.batch()).is_none() {
            store.insert(profiler.profile(&c.model));
        }
    }
    let quantum = SimDuration::from_micros(1200);
    println!(
        "profiled {} batch sizes; fair sharing at Q = {quantum}",
        store.len()
    );

    // 5. Serve under Olympian fair sharing.
    let mut sched = OlympianScheduler::new(Arc::new(store), Box::new(RoundRobin::new()), quantum);
    let report = run_experiment(&cfg, clients, &mut sched);
    assert!(report.all_finished());

    // 6. Per-request latency = batch completion − request arrival.
    let mut latencies_ms = Vec::new();
    for (client, b) in report.clients.iter().zip(&plan) {
        let done = client.finish_time();
        for &a in b.request_arrivals() {
            latencies_ms.push((done - a).as_millis_f64());
        }
    }
    let cdf = Cdf::of(latencies_ms);
    println!(
        "per-request latency: p50 = {:.0} ms, p95 = {:.0} ms, p99 = {:.0} ms \
         (GPU util {:.1}%)",
        cdf.quantile(0.50),
        cdf.quantile(0.95),
        cdf.quantile(0.99),
        report.utilization * 100.0
    );
}
