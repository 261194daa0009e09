//! Figure 16: average GPU duration per quantum for the complex workload —
//! 14 clients across all seven DNNs at the Table 2 batch sizes.
//!
//! Even with widely varying graphs and batch sizes, every client receives a
//! near-identical per-quantum GPU share close to the predicted `Q`
//! (paper: Q = 1620 µs at 2% tolerance, observed 1438–1662 µs,
//! std 4.1–12.0%, overhead 1.8%).

use crate::{banner, build_store_for, choose_q, complex_workload, default_config,
    format_quanta, DEFAULT_NUM_BATCHES};
use crate::figs::{fair, Claim, Figure};
use metrics::Summary;
use serving::{run_experiment, FifoScheduler, RunReport};
use simtime::SimDuration;

/// The 2% overhead tolerance the paper uses for this workload.
pub const TOLERANCE: f64 = 0.02;

/// Runs the complex workload; returns `(baseline, olympian, Q)`.
pub fn reports() -> (RunReport, RunReport, SimDuration) {
    let cfg = default_config();
    let clients = complex_workload(DEFAULT_NUM_BATCHES);
    let base = run_experiment(&cfg, clients.clone(), &mut FifoScheduler::new());
    let store = build_store_for(&cfg, &clients);
    let q = choose_q(&cfg, &clients, TOLERANCE);
    let mut sched = fair(store, q);
    let oly = run_experiment(&cfg, clients, &mut sched);
    (base, oly, q)
}

/// Runs the experiment and returns the report and its claim.
pub fn run() -> Figure {
    let mut out = banner(
        "Figure 16",
        "Complex workload: 14 clients x 7 DNNs, per-quantum GPU durations",
    );
    let (base, oly, q) = reports();
    out.push_str(&format!(
        "\nchosen Q for {:.0}% tolerance: {:.0} us (paper: 1620 us)\n",
        TOLERANCE * 100.0,
        q.as_micros_f64()
    ));
    out.push_str(&format_quanta("fig16", &oly));
    let means: Vec<f64> = oly.clients.iter().filter_map(|c| c.mean_quantum_us()).collect();
    let s = Summary::of(means.iter().copied());
    let overhead = (oly.makespan.as_secs_f64() - base.makespan.as_secs_f64())
        / base.makespan.as_secs_f64();
    out.push_str(&format!(
        "\nper-client means span {:.0}-{:.0} us (paper: 1438-1662 us); \
         whole-workload overhead vs TF-Serving: {:.1}% (paper: 1.8% vs 2% predicted)\n",
        s.min(),
        s.max(),
        overhead * 100.0
    ));
    let q_us = q.as_micros_f64();
    let claim = Claim::new(
        "fig16.all_14_clients_get_q",
        means.len() == 14 && means.iter().all(|m| (m - q_us).abs() / q_us < 0.20),
        format!(
            "{} clients' mean quanta span {:.0}-{:.0} us around Q = {q_us:.0} us, \
             bound 14 clients within 20%",
            means.len(),
            s.min(),
            s.max()
        ),
    );
    Figure { text: out, claims: vec![claim] }
}
