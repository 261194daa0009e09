//! Figure 3: finish times for ten concurrent clients in stock TF-Serving,
//! two different runs.
//!
//! Ten identical Inception clients (batch 100, 10 batches each) run under
//! the baseline scheduler with two different seeds. The paper's point: jobs
//! with identical resource needs finish at very different times, and the
//! pattern changes run to run — the GPU driver cannot tell DNNs apart.

use crate::figs::{Claim, Figure};
use crate::{banner, default_config, format_finish_times, homogeneous_clients, DEFAULT_BATCH,
    DEFAULT_NUM_BATCHES};
use metrics::max_min_ratio;
use models::ModelKind;
use serving::{run_experiment, FifoScheduler};

/// Runs the experiment and returns the report and its claim.
pub fn run() -> Figure {
    let mut out = banner(
        "Figure 3",
        "TF-Serving finish-time variability, 10 Inception clients, 2 runs",
    );
    let mut ratios = Vec::new();
    let mut orders = Vec::new();
    for (label, seed) in [("Run-1", 1u64), ("Run-2", 2u64)] {
        let cfg = default_config().with_seed(seed);
        let clients =
            homogeneous_clients(ModelKind::InceptionV4, DEFAULT_BATCH, 10, DEFAULT_NUM_BATCHES);
        let report = run_experiment(&cfg, clients, &mut FifoScheduler::new());
        out.push_str(&format_finish_times(label, &report));
        let finish = report.finish_times_secs();
        let ratio = max_min_ratio(&finish);
        out.push_str(&format!(
            "{label}: slowest/fastest client = {ratio:.2}x (paper: spreads up to 1.7x)\n"
        ));
        let mut order: Vec<usize> = (0..finish.len()).collect();
        order.sort_by(|&a, &b| finish[a].total_cmp(&finish[b]));
        ratios.push(ratio);
        orders.push(order);
    }
    out.push_str(
        "\nPaper shape: identical clients spread widely and differently per run. \
         Reproduced if both runs show max/min well above 1.1 with different orderings.\n",
    );
    let claim = Claim::new(
        "fig03.runs_spread_in_different_orders",
        ratios.iter().all(|&r| r > 1.1) && orders[0] != orders[1],
        format!(
            "max/min {:.3} and {:.3}, bound > 1.1; finish orders {:?} vs {:?}",
            ratios[0], ratios[1], orders[0], orders[1]
        ),
    );
    Figure { text: out, claims: vec![claim] }
}
