//! Figure 8: Overhead-Q curves for the seven DNNs.
//!
//! For each model, two instances are raced on stock TF-Serving and on
//! Olympian fair sharing across a sweep of quantum values; overhead falls
//! as the quantum grows. An operator's overhead tolerance is mapped through
//! these curves to pick `Q` (largest over the models in the workload).

use crate::figs::{Claim, Figure};
use crate::{banner, default_config, standard_q_grid};
use metrics::table::render_table;
use models::ModelKind;
use olympian::{OverheadQCurve, Profiler};

/// Measures all seven curves.
pub fn curves() -> Vec<OverheadQCurve> {
    let cfg = default_config();
    let profiler = Profiler::new(&cfg);
    let grid = standard_q_grid();
    ModelKind::ALL
        .iter()
        .map(|&kind| {
            let model = models::load(kind, kind.reference_batch()).expect("zoo model");
            profiler.overhead_q_curve(&model, &grid)
        })
        .collect()
}

/// Runs the experiment and returns the report and its claim.
pub fn run() -> Figure {
    let mut out = banner("Figure 8", "Overhead-Q curves for the 7 DNNs");
    let curves = curves();
    let grid = standard_q_grid();
    let mut header: Vec<String> = vec!["model".into()];
    header.extend(grid.iter().map(|q| format!("{:.1}ms", q.as_millis_f64())));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = curves
        .iter()
        .map(|c| {
            let mut row = vec![c.model.clone()];
            row.extend(c.points.iter().map(|(_, ov)| format!("{:.1}%", ov * 100.0)));
            row
        })
        .collect();
    out.push_str(&render_table(&header_refs, &rows));

    for tol in [0.025, 0.02] {
        let q = Profiler::q_for_tolerance(&curves, tol);
        out.push_str(&format!(
            "Q for tolerance {:.1}%: {}\n",
            tol * 100.0,
            q.map_or("unreachable".into(), |q| format!("{:.0} us", q.as_micros_f64()))
        ));
    }
    out.push_str(
        "\nPaper shape: every curve decreases with Q; a 2.5% tolerance lands near \
         Q ~ 1.2 ms and 2% near Q ~ 1.6 ms.\n",
    );
    let mut held = true;
    let mut ends = Vec::new();
    for c in &curves {
        let first = c.points.first().expect("non-empty").1;
        let last = c.points.last().expect("non-empty").1;
        held &= first > last;
        ends.push(format!("{} {:.2}% -> {:.2}%", c.model, first * 100.0, last * 100.0));
    }
    let claim = Claim::new(
        "fig08.every_curve_declines",
        held,
        format!("overhead at the smallest -> largest Q: {}; bound first > last", ends.join(", ")),
    );
    Figure { text: out, claims: vec![claim] }
}
