//! Figure 20: the linear batch-size cost model.
//!
//! Instead of profiling every batch size, Olympian profiles two common ones
//! (50 and 100), fits per-node linear models, and predicts profiles for
//! other batches (25, 75, 150). Fair sharing with the *predicted* profiles
//! is as fair as with directly measured ones (Figure 11).

use crate::{banner, default_config, format_finish_times, homogeneous_clients,
    DEFAULT_NUM_BATCHES};
use crate::figs::{fair, Claim, Figure};
use metrics::max_min_ratio;
use models::ModelKind;
use olympian::{LinearCostModel, Profiler, ProfileStore};
use serving::{run_experiment, RunReport};
use simtime::SimDuration;
use std::sync::Arc;

/// Quantum used for the runs (the magnitude chosen in Figure 11).
pub const Q: SimDuration = SimDuration::from_micros(1200);

/// Runs 10 Inception clients at `batch` using a *predicted* profile.
pub fn predicted_run(batch: u64) -> RunReport {
    let cfg = default_config();
    let profiler = Profiler::new(&cfg);
    let p50 = profiler.profile(&models::load(ModelKind::InceptionV4, 50).expect("zoo model"));
    let p100 = profiler.profile(&models::load(ModelKind::InceptionV4, 100).expect("zoo model"));
    let lin = LinearCostModel::fit(&[&p50, &p100]).expect("two distinct batches");
    let mut store = ProfileStore::new();
    store.insert(lin.predict(batch));
    let clients = homogeneous_clients(ModelKind::InceptionV4, batch, 10, DEFAULT_NUM_BATCHES);
    let mut sched = fair(Arc::new(store), Q);
    run_experiment(&cfg, clients, &mut sched)
}

/// Runs the experiment and returns the report and its claims.
pub fn run() -> Figure {
    let mut out = banner(
        "Figure 20",
        "Linear cost model: fairness with profiles predicted from batches 50+100",
    );
    let mut claims = Vec::new();
    for batch in [25u64, 75, 150] {
        let report = predicted_run(batch);
        out.push_str(&format_finish_times(&format!("batch {batch} (predicted profile)"), &report));
        let spread = max_min_ratio(&report.finish_times_secs());
        out.push_str(&format!("spread (max/min) = {spread:.4}\n"));
        claims.push(Claim::new(
            format!("fig20.predicted_profile_is_fair_batch_{batch}"),
            report.all_finished() && spread < 1.02,
            format!(
                "{}/{} finished, max/min {spread:.4}, bound all finish and < 1.02",
                report.finished_count(),
                report.clients.len()
            ),
        ));
    }
    out.push_str(
        "\nPaper shape: completion-time fairness comparable to Figure 11 at every \
         batch size despite never profiling those batches directly.\n",
    );
    Figure { text: out, claims }
}
