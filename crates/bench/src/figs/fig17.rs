//! Figure 17: weighted fair sharing on a homogeneous workload.
//!
//! Ten Inception clients; the first five carry weight `k`, the rest
//! weight 1. Theory (and the paper): with weights k:1, the heavy group
//! finishes at a fraction `(k+1)/2k` of the light group's finish time —
//! 0.75 for 2:1 and 0.55 for 10:1.

use crate::{banner, build_store_for, choose_q, default_config, format_finish_times,
    homogeneous_clients, DEFAULT_BATCH, DEFAULT_NUM_BATCHES, DEFAULT_TOLERANCE};
use crate::figs::{Claim, Figure};
use metrics::Summary;
use models::ModelKind;
use olympian::{OlympianScheduler, WeightedFair};
use serving::{run_experiment, ClientSpec, RunReport};

/// Runs the weighted experiment for one `k`; returns the report.
pub fn weighted_run(k: u32) -> RunReport {
    let cfg = default_config();
    let clients: Vec<ClientSpec> =
        homogeneous_clients(ModelKind::InceptionV4, DEFAULT_BATCH, 10, DEFAULT_NUM_BATCHES)
            .into_iter()
            .enumerate()
            .map(|(i, c)| c.with_weight(if i < 5 { k } else { 1 }))
            .collect();
    let store = build_store_for(&cfg, &clients);
    let q = choose_q(&cfg, &clients, DEFAULT_TOLERANCE);
    let mut sched = OlympianScheduler::new(store, Box::new(WeightedFair::new()), q);
    run_experiment(&cfg, clients, &mut sched)
}

/// Observed heavy-group/light-group finish ratio.
pub fn group_ratio(report: &RunReport) -> f64 {
    let heavy = Summary::of(
        report.clients[..5]
            .iter()
            .map(|c| c.finish_time().as_secs_f64()),
    );
    let light = Summary::of(
        report.clients[5..]
            .iter()
            .map(|c| c.finish_time().as_secs_f64()),
    );
    heavy.mean() / light.mean()
}

/// Runs the experiment and returns the report and its claims.
pub fn run() -> Figure {
    let mut out = banner(
        "Figure 17",
        "Weighted fair sharing, 10 Inception clients, weights k:1",
    );
    let mut claims = Vec::new();
    for k in [2u32, 10] {
        let report = weighted_run(k);
        out.push_str(&format_finish_times(&format!("weights {k}:1"), &report));
        let expected = (k as f64 + 1.0) / (2.0 * k as f64);
        let ratio = group_ratio(&report);
        out.push_str(&format!(
            "heavy/light finish ratio: {ratio:.3} (theory (k+1)/2k = {expected:.3}; \
             paper observed ~0.74 for 2:1 and ~0.55 for 10:1)\n",
        ));
        claims.push(Claim::new(
            format!("fig17.weighted_ratio_k{k}"),
            (ratio - expected).abs() < 0.06,
            format!("heavy/light {ratio:.4} vs (k+1)/2k = {expected:.4}, bound within 0.06"),
        ));
    }
    Figure { text: out, claims }
}
