//! Figure 4: node-duration CDF for one Inception job at batch sizes 10
//! and 100.
//!
//! Motivates the choice of the TensorFlow node as the interleaving unit:
//! the vast majority of nodes run for tens of microseconds, so switching at
//! node boundaries is fine-grained enough without hardware preemption.

use crate::banner;
use crate::figs::Figure;
use metrics::table::render_series;
use metrics::Cdf;
use models::ModelKind;

/// Runs the experiment and returns the report.
pub fn run() -> Figure {
    let mut out = banner(
        "Figure 4",
        "Node-duration CDF, Inception, batch 10 vs batch 100",
    );
    for batch in [10u64, 100] {
        let model = models::load(ModelKind::InceptionV4, batch).expect("zoo model");
        let durations: Vec<f64> = model
            .graph()
            .iter()
            .filter(|(_, n)| n.is_gpu())
            .map(|(_, n)| n.duration().as_micros_f64())
            .collect();
        let cdf = Cdf::of(durations);
        out.push_str(&format!(
            "\nbatch {batch}: {} GPU nodes; F(20us) = {:.1}%, F(100us) = {:.1}%, F(1ms) = {:.1}%, p50 = {:.1}us, p99 = {:.0}us\n",
            cdf.len(),
            cdf.fraction_below(20.0) * 100.0,
            cdf.fraction_below(100.0) * 100.0,
            cdf.fraction_below(1_000.0) * 100.0,
            cdf.quantile(0.5),
            cdf.quantile(0.99),
        ));
        out.push_str("duration_us\tcdf\n");
        out.push_str(&render_series(&cdf.series(24)));
    }
    out.push_str(
        "\nPaper shape: >80% of nodes under ~20us and >90% under 1ms, with the \
         batch-10 curve shifted left of batch-100.\n",
    );
    Figure { text: out, claims: Vec::new() }
}

#[cfg(test)]
mod tests {
    #[test]
    fn cdf_matches_paper_shape() {
        let out = super::run().text;
        assert!(out.contains("batch 10"));
        assert!(out.contains("batch 100"));
    }
}
