//! Table 2: the seven models' node counts and single-job runtimes at the
//! complex-workload batch sizes.
//!
//! Node counts come from the calibrated generators (they match the paper by
//! construction — that is the calibration contract); runtimes are
//! *measured* by running each model alone on an idle simulated GPU.

use crate::figs::{Claim, Figure};
use crate::{banner, default_config};
use metrics::table::render_table;
use models::ModelKind;
use serving::{run_experiment, ClientSpec, FifoScheduler};

/// Runs the experiment and returns the report and its claim.
pub fn run() -> Figure {
    let mut out = banner(
        "Table 2",
        "Model inventory: nodes, GPU nodes, measured single-job runtime",
    );
    let cfg = default_config().quiescent();
    let mut rows = Vec::new();
    let mut held = true;
    let mut worst = (0.0_f64, "");
    for kind in ModelKind::ALL {
        let model = models::load(kind, kind.reference_batch()).expect("zoo model");
        let report = run_experiment(
            &cfg,
            vec![ClientSpec::new(model.clone(), 1)],
            &mut FifoScheduler::new(),
        );
        assert!(report.all_finished(), "single-job run completes");
        let measured = report.makespan.as_secs_f64();
        let paper = models::spec(kind).runtime_s;
        let err = (measured / paper - 1.0).abs();
        held &= err < 0.10;
        if err >= worst.0 {
            worst = (err, kind.name());
        }
        rows.push(vec![
            kind.name().to_string(),
            format!("{}", kind.reference_batch()),
            format!("{}", model.graph().node_count()),
            format!("{}", model.graph().gpu_node_count()),
            format!("{measured:.2}"),
            format!("{paper:.2}"),
            format!("{:+.1}%", (measured / paper - 1.0) * 100.0),
        ]);
    }
    out.push_str(&render_table(
        &["model", "batch", "nodes", "gpu nodes", "runtime (s)", "paper (s)", "delta"],
        &rows,
    ));
    let claim = Claim::new(
        "table2.runtimes_within_10pct_of_paper",
        held,
        format!("largest |measured/paper - 1| {:.2}% ({}), bound < 10%", worst.0 * 100.0, worst.1),
    );
    Figure { text: out, claims: vec![claim] }
}
