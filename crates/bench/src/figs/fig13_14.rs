//! Figures 13 & 14: heterogeneous workload — 5 Inception + 5 ResNet-152
//! clients.
//!
//! Figure 13: finish times for two batch configurations (Inception at 100
//! and at 150, ResNet at 100). Within a model, finish times are equal;
//! across models they differ even when total runtimes are equalized,
//! because Olympian fair-shares the *GPU*, not the CPU.
//!
//! Figure 14: average GPU duration per quantum — every client receives a
//! near-identical GPU share that matches the profiler-predicted `Q`.

use crate::{banner, build_store_for, choose_q, default_config, format_finish_times,
    format_quanta, DEFAULT_NUM_BATCHES, DEFAULT_TOLERANCE};
use crate::figs::{fair, Claim, Figure};
use metrics::Summary;
use models::ModelKind;
use serving::{run_experiment, ClientSpec, RunReport};
use simtime::SimDuration;

/// Builds the 5+5 workload.
pub fn workload(inception_batch: u64) -> Vec<ClientSpec> {
    let inception = models::load(ModelKind::InceptionV4, inception_batch).expect("zoo model");
    let resnet = models::load(ModelKind::ResNet152, 100).expect("zoo model");
    let mut clients = vec![ClientSpec::new(inception, DEFAULT_NUM_BATCHES); 5];
    clients.extend(vec![ClientSpec::new(resnet, DEFAULT_NUM_BATCHES); 5]);
    clients
}

/// Runs one configuration; returns the report and the chosen quantum.
pub fn heterogeneous_run(inception_batch: u64) -> (RunReport, SimDuration) {
    let cfg = default_config();
    let clients = workload(inception_batch);
    let store = build_store_for(&cfg, &clients);
    let q = choose_q(&cfg, &clients, DEFAULT_TOLERANCE);
    let mut sched = fair(store, q);
    (run_experiment(&cfg, clients, &mut sched), q)
}

/// Runs the experiment and returns the report and its claims.
pub fn run() -> Figure {
    let mut out = banner(
        "Figures 13/14",
        "Heterogeneous workload: 5 Inception + 5 ResNet-152 under Olympian fair",
    );
    let mut claims = Vec::new();
    for inception_batch in [100u64, 150] {
        let (report, q) = heterogeneous_run(inception_batch);
        out.push_str(&format!(
            "\n--- Inception batch {inception_batch}, ResNet-152 batch 100; chosen Q = {:.0} us \
             (paper: 1190 us) ---\n",
            q.as_micros_f64()
        ));
        out.push_str(&format_finish_times("fig13", &report));
        out.push_str(&format_quanta("fig14", &report));
        let means: Vec<f64> = report
            .clients
            .iter()
            .filter_map(|c| c.mean_quantum_us())
            .collect();
        let s = Summary::of(means.iter().copied());
        out.push_str(&format!(
            "per-client mean quanta: {:.0}-{:.0} us around Q = {:.0} us \
             (paper: 1084-1257 us around 1190 us)\n",
            s.min(),
            s.max(),
            q.as_micros_f64()
        ));
        let q_us = q.as_micros_f64();
        claims.push(Claim::new(
            format!("fig13_14.quanta_match_q_inception_batch_{inception_batch}"),
            means.len() == report.clients.len()
                && means.iter().all(|m| (m - q_us).abs() / q_us < 0.15),
            format!(
                "{} of {} clients' mean quanta span {:.0}-{:.0} us around Q = {q_us:.0} us, \
                 bound within 15%",
                means.len(),
                report.clients.len(),
                s.min(),
                s.max()
            ),
        ));
    }
    out.push_str(
        "\nPaper shape: same-model clients finish together; the two model groups \
         differ slightly even at equalized runtimes (GPU is shared fairly, CPU is \
         not), while per-quantum GPU durations are equal across all ten clients.\n",
    );
    Figure { text: out, claims }
}
