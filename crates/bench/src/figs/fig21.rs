//! Figure 21: portability — the fair-sharing experiment on a different
//! platform (NVIDIA Titan X instead of the GTX 1080 Ti).
//!
//! Olympian inherits device independence from the middleware layer: no
//! code changes, only re-profiling on the new device. Absolute finish
//! times shift with the hardware; fairness is preserved.

use crate::{banner, build_store_for, choose_q, default_config, format_finish_times,
    homogeneous_clients, DEFAULT_BATCH, DEFAULT_NUM_BATCHES, DEFAULT_TOLERANCE};
use crate::figs::{fair, Claim, Figure};
use gpusim::DeviceProfile;
use metrics::max_min_ratio;
use models::ModelKind;
use serving::{run_experiment, RunReport};

/// Runs fair sharing of 10 Inception clients on the Titan X platform.
pub fn titan_run() -> (RunReport, f64) {
    let mut cfg = default_config();
    cfg.device = DeviceProfile::titan_x();
    let clients =
        homogeneous_clients(ModelKind::InceptionV4, DEFAULT_BATCH, 10, DEFAULT_NUM_BATCHES);
    // Profiles are measured on the *target* device, as the paper's profiler
    // does when the servable is deployed to new hardware.
    let store = build_store_for(&cfg, &clients);
    let q = choose_q(&cfg, &clients, DEFAULT_TOLERANCE);
    let mut sched = fair(store, q);
    (run_experiment(&cfg, clients, &mut sched), q.as_micros_f64())
}

/// Runs the experiment and returns the report and its claim.
pub fn run() -> Figure {
    let mut out = banner(
        "Figure 21",
        "Portability: fair sharing on the Titan X platform",
    );
    let (report, q_us) = titan_run();
    out.push_str(&format!("re-profiled Q on titan-x: {q_us:.0} us\n"));
    out.push_str(&format_finish_times("Olympian fair @ titan-x", &report));
    let spread = max_min_ratio(&report.finish_times_secs());
    out.push_str(&format!(
        "spread (max/min) = {spread:.4}; absolute times are longer than Figure 11's \
         (slower device) but fairness is preserved — the paper's point.\n",
    ));
    let claim = Claim::new(
        "fig21.titan_x_preserves_fairness",
        report.all_finished() && spread < 1.01,
        format!(
            "{}/{} finished, max/min {spread:.4}, bound all finish and < 1.01",
            report.finished_count(),
            report.clients.len()
        ),
    );
    Figure { text: out, claims: vec![claim] }
}
