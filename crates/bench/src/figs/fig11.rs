//! Figure 11: fair sharing on a homogeneous workload — finish times of
//! 10 Inception clients under TF-Serving vs Olympian.
//!
//! The headline result: Olympian's fair scheduler gives all ten identical
//! clients nearly identical finish times, while TF-Serving spreads them.

use crate::figs::{Claim, Figure};
use crate::{
    banner, default_config, format_finish_times, homogeneous_clients, runs, DEFAULT_BATCH,
    DEFAULT_NUM_BATCHES, DEFAULT_TOLERANCE,
};
use metrics::max_min_ratio;
use models::ModelKind;
use serving::{run_experiment, FifoScheduler};

/// Runs the experiment and returns the report and its claim.
pub fn run() -> Figure {
    let mut out = banner(
        "Figure 11",
        "Fair sharing, homogeneous workload: 10 Inception clients",
    );
    let clients =
        homogeneous_clients(ModelKind::InceptionV4, DEFAULT_BATCH, 10, DEFAULT_NUM_BATCHES);
    let base = run_experiment(&default_config(), clients, &mut FifoScheduler::new());
    let run = runs::fig11_untraced();
    let (oly, q_us) = (&run.report, run.quantum.as_micros_f64());
    out.push_str(&format!(
        "profiler-chosen Q for {:.1}% tolerance: {q_us:.0} us (paper: 1190 us)\n",
        DEFAULT_TOLERANCE * 100.0
    ));
    out.push_str(&format_finish_times("TF-Serving", &base));
    out.push_str(&format_finish_times("Olympian fair", oly));
    let base_ratio = max_min_ratio(&base.finish_times_secs());
    let oly_ratio = max_min_ratio(&oly.finish_times_secs());
    out.push_str(&format!(
        "\nspread (max/min): TF-Serving {base_ratio:.3} vs Olympian {oly_ratio:.3} \
         (paper: 42-50 s spread vs 48-50 s near-equal)\n",
    ));
    let claim = Claim::new(
        "fig11.olympian_equalizes_what_baseline_spreads",
        oly_ratio < 1.01 && base_ratio > 1.10,
        format!(
            "max/min olympian {oly_ratio:.4} (bound < 1.01), TF-Serving {base_ratio:.4} \
             (bound > 1.10)"
        ),
    );
    Figure { text: out, claims: vec![claim] }
}
