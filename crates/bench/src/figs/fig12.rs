//! Figure 12: duration of successive scheduling intervals under Olympian
//! fair sharing (average ≈ 1.8 ms in the paper).
//!
//! Individual intervals vary widely — quantum completion is cost-driven and
//! jobs do not accumulate cost evenly — but average out to the configured
//! quantum plus switch costs.

use crate::figs::{Claim, Figure};
use crate::{banner, runs};
use metrics::table::render_series;
use metrics::Summary;

/// Runs the experiment and returns the report and its claim.
pub fn run() -> Figure {
    let mut out = banner(
        "Figure 12",
        "Scheduling-interval durations under Olympian fair sharing",
    );
    let run = runs::fig11_untraced();
    let (oly, q_us) = (&run.report, run.quantum.as_micros_f64());
    let intervals_ms: Vec<f64> = oly
        .scheduling_intervals
        .iter()
        .map(|d| d.as_millis_f64())
        .collect();
    let s = Summary::of(intervals_ms.iter().copied());
    out.push_str(&format!(
        "\nQ = {q_us:.0} us; {} intervals; mean = {:.2} ms (paper: 1.8 ms), \
         median = {:.2} ms, p99 = {:.2} ms, max = {:.2} ms\n",
        s.count(),
        s.mean(),
        s.median(),
        {
            let mut v = intervals_ms.clone();
            v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            v[(v.len() as f64 * 0.99) as usize]
        },
        s.max()
    ));
    out.push_str("\nfirst 60 intervals (interval_id, duration_ms):\n");
    let series: Vec<(f64, f64)> = intervals_ms
        .iter()
        .take(60)
        .enumerate()
        .map(|(i, &d)| (i as f64, d))
        .collect();
    out.push_str(&render_series(&series));
    out.push_str(
        "\nPaper shape: millisecond-scale intervals with wide variation around the mean.\n",
    );
    let mean = oly.mean_interval_ms().expect("intervals recorded");
    let q_ms = q_us / 1000.0;
    let claim = Claim::new(
        "fig12.mean_interval_brackets_the_quantum",
        mean > q_ms * 0.8 && mean < q_ms * 3.0,
        format!("mean interval {mean:.3} ms, bound 0.8-3.0 x Q = {q_ms:.3} ms"),
    );
    Figure { text: out, claims: vec![claim] }
}
