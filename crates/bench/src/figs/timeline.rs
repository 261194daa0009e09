//! A token-ownership timeline: which client's quanta occupied the GPU over
//! the first few tens of milliseconds of the Figure 11 run — the picture
//! behind the paper's Figure 9 ("time-slicing simply spreads out the
//! execution of a DNN").
//!
//! Rendered from the structured trace's `QuantumEnd` events rather than the
//! reports' private `quantum_marks` plumbing, so the gantt shows exactly
//! what a Perfetto view of the same trace would.

use crate::figs::{Claim, Figure};
use crate::{banner, runs};
use metrics::table::render_gantt;
use serving::{RunReport, TraceConfig};
use trace::TraceKind;

/// Window rendered, in seconds.
pub const WINDOW_S: f64 = 0.05;

/// Gantt rows — one per client, labelled `client N` — built from the
/// trace's `QuantumEnd` spans, clipped to `[0, window_s]`.
pub fn gantt_rows(report: &RunReport, window_s: f64) -> Vec<(String, Vec<(f64, f64)>)> {
    let mut rows: Vec<(String, Vec<(f64, f64)>)> = report
        .clients
        .iter()
        .map(|c| (format!("client {}", c.client.0), Vec::new()))
        .collect();
    for e in &report.trace.events {
        if let TraceKind::QuantumEnd { client, gpu, .. } = e.kind {
            let end = e.at.as_secs_f64();
            let start = (end - gpu.as_secs_f64()).max(0.0);
            if start < window_s {
                if let Some((_, spans)) = rows.get_mut(client as usize) {
                    spans.push((start, end.min(window_s)));
                }
            }
        }
    }
    rows
}

/// Runs the experiment and returns the report and its claim.
pub fn run() -> Figure {
    let mut out = banner(
        "Timeline",
        "Token ownership over the first 50 ms of fair sharing (5 Inception clients)",
    );
    let report = runs::timeline(TraceConfig::sampled(), None).report;
    let rows = gantt_rows(&report, WINDOW_S);
    out.push_str(&format!("\n0 ms {:>74} ms\n", WINDOW_S * 1e3));
    out.push_str(&render_gantt(&rows, WINDOW_S, 72));
    out.push_str(
        "\nEach '#' block is GPU time attributed to one client's quanta: the token \
         walks round-robin through the clients at millisecond granularity, exactly \
         the interleaving the paper's Figure 9 sketches.\n",
    );
    let spans: Vec<usize> = rows.iter().map(|(_, s)| s.len()).collect();
    let claim = Claim::new(
        "timeline.every_client_holds_the_token_in_the_window",
        spans.len() == 5 && spans.iter().all(|&n| n > 0),
        format!("quanta per client in the first 50 ms: {spans:?}, bound 5 clients, each > 0"),
    );
    Figure { text: out, claims: vec![claim] }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scaled-down tier-1 cover for the trace-driven gantt path: the
    /// `smoke` run's mini models, 3 clients — runs in milliseconds.
    #[test]
    fn trace_driven_gantt_covers_every_client_scaled_down() {
        let report = runs::smoke(TraceConfig::sampled(), None).report;
        assert!(report.all_finished());

        // A window past the makespan keeps every span unclipped, so the
        // trace-derived rows must agree exactly with the quantum_marks the
        // reports still carry.
        let window = report.makespan.as_secs_f64() * 1.01;
        let rows = gantt_rows(&report, window);
        assert_eq!(rows.len(), 3);
        for (c, (label, spans)) in report.clients.iter().zip(&rows) {
            assert_eq!(label, &format!("client {}", c.client.0));
            assert_eq!(spans.len(), c.quantum_marks.len());
            for (&(start, end), &(mark_end, dur)) in spans.iter().zip(&c.quantum_marks) {
                assert!((end - mark_end.as_secs_f64()).abs() < 1e-12);
                assert!((start - (mark_end.as_secs_f64() - dur.as_secs_f64()).max(0.0)).abs()
                    < 1e-12);
            }
            assert!(!spans.is_empty(), "every client received quanta");
        }

        let gantt = render_gantt(&rows, window, 40);
        for i in 0..3 {
            assert!(gantt.contains(&format!("client {i}")));
        }
    }
}
