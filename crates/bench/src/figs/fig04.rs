//! Figure 4: node-duration CDF for one Inception job at batch sizes 10
//! and 100.
//!
//! Motivates the choice of the TensorFlow node as the interleaving unit:
//! the vast majority of nodes run for tens of microseconds, so switching at
//! node boundaries is fine-grained enough without hardware preemption.

use crate::banner;
use crate::figs::{Claim, Figure};
use metrics::table::render_series;
use metrics::Cdf;
use models::ModelKind;

/// Runs the experiment and returns the report and its claims: most
/// batch-10 nodes run under 20 µs, nearly all nodes of both batches under
/// 1 ms, and the batch-10 curve lies left of batch 100's.
pub fn run() -> Figure {
    let mut out = banner(
        "Figure 4",
        "Node-duration CDF, Inception, batch 10 vs batch 100",
    );
    // Per batch, the printed F(20us), F(100us) and F(1ms) in percent,
    // then p50 and p99 in us.
    let mut shapes: Vec<[f64; 5]> = Vec::new();
    for batch in [10u64, 100] {
        let model = models::load(ModelKind::InceptionV4, batch).expect("zoo model");
        let durations: Vec<f64> = model
            .graph()
            .iter()
            .filter(|(_, n)| n.is_gpu())
            .map(|(_, n)| n.duration().as_micros_f64())
            .collect();
        let cdf = Cdf::of(durations);
        let pct = |us: f64| cdf.fraction_below(us) * 100.0;
        let shape @ [f20, f100, f1ms, p50, p99] =
            [pct(20.0), pct(100.0), pct(1_000.0), cdf.quantile(0.5), cdf.quantile(0.99)];
        out.push_str(&format!(
            "\nbatch {batch}: {} GPU nodes; F(20us) = {f20:.1}%, F(100us) = {f100:.1}%, F(1ms) = {f1ms:.1}%, p50 = {p50:.1}us, p99 = {p99:.0}us\n",
            cdf.len(),
        ));
        shapes.push(shape);
        out.push_str("duration_us\tcdf\n");
        out.push_str(&render_series(&cdf.series(24)));
    }
    out.push_str(
        "\nPaper shape: >80% of nodes under ~20us and >90% under 1ms, with the \
         batch-10 curve shifted left of batch-100.\n",
    );
    let ([f20, f100, f1ms, p50, p99], [g20, g100, g1ms, q50, q99]) = (shapes[0], shapes[1]);
    let claims = vec![
        Claim::new(
            "fig04.batch10_nodes_mostly_under_20us",
            f20 > 80.0,
            format!("batch 10 F(20us) = {f20:.1}%, bound > 80%"),
        ),
        Claim::new(
            "fig04.nodes_under_1ms_at_both_batches",
            f1ms > 90.0 && g1ms > 90.0,
            format!("F(1ms) = {f1ms:.1}% (batch 10), {g1ms:.1}% (batch 100), bound > 90% each"),
        ),
        Claim::new(
            "fig04.batch10_left_of_batch100",
            f20 >= g20 && f100 >= g100 && p50 < q50 && p99 < q99,
            format!(
                "batch 10 vs 100: F(20us) {f20:.1}% vs {g20:.1}%, F(100us) {f100:.1}% vs \
                 {g100:.1}% (bound >=), p50 {p50:.1} vs {q50:.1} us, p99 {p99:.0} vs {q99:.0} us \
                 (bound <)"
            ),
        ),
    ];
    Figure { text: out, claims }
}

#[cfg(test)]
mod tests {
    #[test]
    fn cdf_matches_paper_shape() {
        let fig = super::run();
        assert!(fig.claims.iter().all(|c| c.held), "{:?}", fig.claims);
        assert!(fig.text.contains("batch 10") && fig.text.contains("batch 100"));
    }
}
