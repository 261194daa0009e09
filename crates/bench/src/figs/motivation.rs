//! The paper's §1 motivation, quantified: real applications use the GPU
//! intermittently, so a dedicated GPU idles — a serving system multiplexes
//! many bursty clients onto one GPU to recover utilization.
//!
//! We sweep client think time (idle gap between batches) and compare GPU
//! utilization with 1 client (a dedicated GPU) against 10 multiplexed
//! clients on stock TF-Serving.

use crate::{banner, default_config, homogeneous_clients, DEFAULT_BATCH};
use crate::figs::{Claim, Figure};
use metrics::table::render_table;
use models::ModelKind;
use serving::{run_experiment, FifoScheduler};
use simtime::SimDuration;

/// Utilization for `n` clients at the given think time.
pub fn utilization_with(n: usize, think_ms: u64) -> f64 {
    let cfg = default_config();
    let clients = homogeneous_clients(ModelKind::InceptionV4, DEFAULT_BATCH, n, 6)
        .into_iter()
        .map(|c| c.with_think_time(SimDuration::from_millis(think_ms)))
        .collect();
    let report = run_experiment(&cfg, clients, &mut FifoScheduler::new());
    assert!(report.all_finished(), "motivation run completes");
    report.utilization
}

/// Runs the experiment and returns the report and its claim.
pub fn run() -> Figure {
    let mut out = banner(
        "Motivation (§1)",
        "Bursty clients: dedicated GPU vs multiplexed serving (stock TF-Serving)",
    );
    let mut rows = Vec::new();
    let mut claims = Vec::new();
    for think_ms in [0u64, 200, 500, 1_000] {
        let dedicated = utilization_with(1, think_ms);
        let multiplexed = utilization_with(10, think_ms);
        if think_ms == 500 {
            claims.push(Claim::new(
                "motivation.multiplexing_recovers_bursty_utilization",
                dedicated < 0.60 && multiplexed > dedicated * 1.5,
                format!(
                    "at 500 ms think time: dedicated {:.1}% (bound < 60%), multiplexed {:.1}% \
                     (bound > 1.5 x dedicated)",
                    dedicated * 100.0,
                    multiplexed * 100.0
                ),
            ));
        }
        rows.push(vec![
            format!("{think_ms} ms"),
            format!("{:.1}%", dedicated * 100.0),
            format!("{:.1}%", multiplexed * 100.0),
        ]);
    }
    out.push_str(&render_table(
        &["think time", "1 client (dedicated)", "10 clients (multiplexed)"],
        &rows,
    ));
    out.push_str(
        "\nExpected: as clients get burstier, a dedicated GPU's utilization collapses \
         while the multiplexed serving system keeps it high — the reason serving \
         systems share GPUs, and hence why GPU scheduling (Olympian) matters.\n",
    );
    Figure { text: out, claims }
}
