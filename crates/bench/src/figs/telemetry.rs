//! Live-telemetry report: what an operator dashboard would show during the
//! `drifted` incident run — per-snapshot sparklines of the key series, the
//! final counter totals and the alert log.
//!
//! The underlying run is the catalog's `drifted` incident: a deployment
//! whose GPU regressed 40% after profiling, so both online monitors
//! (streaming drift detection and SLO burn rate) fire mid-run.

use crate::figs::{Claim, Figure};
use crate::{banner, runs};
use metrics::table::{render_sparkline, render_table};
use serving::TraceConfig;
use simtime::SimDuration;
use telemetry::{Alert, SnapshotView};

/// Snapshot cadence of the report run.
pub const INTERVAL: SimDuration = SimDuration::from_micros(100);

/// Sparkline width the per-snapshot series are downsampled to.
const SPARK_WIDTH: usize = 96;

/// Bucket-means a series down to at most `width` points, so a run with
/// thousands of snapshots still renders as one terminal line.
fn downsample(values: &[f64], width: usize) -> Vec<f64> {
    if values.len() <= width {
        return values.to_vec();
    }
    (0..width)
        .map(|i| {
            let a = i * values.len() / width;
            let b = ((i + 1) * values.len() / width).max(a + 1);
            values[a..b].iter().sum::<f64>() / (b - a) as f64
        })
        .collect()
}

/// One value per snapshot, read through the series' cursor.
fn per_snapshot(
    t: &serving::TelemetryReport,
    mut value: impl FnMut(SnapshotView<'_>) -> f64,
) -> Vec<f64> {
    let mut rows = t.snapshots.cursor();
    let mut out = Vec::with_capacity(t.snapshots.len());
    while let Some((s, _)) = rows.advance() {
        out.push(value(s));
    }
    out
}

/// Per-snapshot values of one named series, for sparkline rendering.
fn gauge_series(t: &serving::TelemetryReport, name: &str) -> Vec<f64> {
    let Some(i) = t.gauge_names.iter().position(|n| *n == name) else {
        return Vec::new();
    };
    per_snapshot(t, |s| s.gauges[i])
}

/// Per-snapshot deltas of a cumulative counter.
fn counter_deltas(t: &serving::TelemetryReport, name: &str) -> Vec<f64> {
    let Some(i) = t.counter_names.iter().position(|n| *n == name) else {
        return Vec::new();
    };
    let mut prev = 0u64;
    per_snapshot(t, |s| {
        let v = s.counters[i];
        let d = v - prev;
        prev = v;
        d as f64
    })
}

/// Runs the experiment and returns the report and its claims: the drift
/// detector and the SLO burn-rate monitor each raise at least one alert.
pub fn run() -> Figure {
    let mut out = banner(
        "telemetry",
        "Live telemetry during a profile-drift incident (regressed device, fresh profiles)",
    );
    let report = runs::drifted(runs::DRIFT, TraceConfig::sampled(), Some(INTERVAL)).report;
    let t = &report.telemetry;
    out.push_str(&format!(
        "\nscheduler={} makespan={:.3}ms snapshots={} (every {})\n",
        report.scheduler_name,
        report.makespan.as_secs_f64() * 1e3,
        t.snapshots.len(),
        t.interval,
    ));

    out.push_str(&format!(
        "\nper-snapshot series (downsampled to {SPARK_WIDTH} buckets, low..high):\n"
    ));
    let series: &[(&str, Vec<f64>)] = &[
        ("runs completed (delta)", counter_deltas(t, "runs_completed")),
        ("token switches (delta)", counter_deltas(t, "token_switches")),
        ("SLO breaches (delta)", counter_deltas(t, "slo_breaches")),
        ("scheduler active jobs", gauge_series(t, "scheduler_active_jobs")),
        ("holder cost ratio", gauge_series(t, "holder_cost_ratio")),
        ("GPU-share fairness", gauge_series(t, "gpu_share_fairness")),
    ];
    for (label, values) in series {
        let line = render_sparkline(&downsample(values, SPARK_WIDTH));
        out.push_str(&format!("  {label:<24} |{line}|\n"));
    }

    out.push_str("\nfinal totals:\n");
    let last = t.last().expect("telemetry ran");
    let rows: Vec<Vec<String>> = t
        .counter_names
        .iter()
        .zip(last.counters)
        .map(|(n, v)| vec![(*n).to_string(), v.to_string()])
        .collect();
    out.push_str(&render_table(&["counter", "total"], &rows));

    if let Some(q) = t.hist("quantum_us") {
        out.push_str(&format!(
            "\nquantum (us): p50 {:.0}, p99 {:.0}, max {} over {} quanta (target {})\n",
            q.p50,
            q.p99,
            q.max,
            q.count,
            runs::QUANTUM,
        ));
    }
    if let Some(h) = t.hist("handoff_us") {
        out.push_str(&format!(
            "hand-off (us): p50 {:.0}, p99 {:.0} over {} grants\n",
            h.p50, h.p99, h.count
        ));
    }

    out.push_str(&format!("\nalerts ({}):\n", t.alerts.len()));
    for a in &t.alerts {
        match a {
            Alert::Drift { at, client, observed_us, expected_us, deviation } => {
                out.push_str(&format!(
                    "  {at}  drift     client {client}: quanta {observed_us:.0}us vs \
                     {expected_us:.0}us expected ({:+.0}%) — re-profile\n",
                    deviation * 100.0
                ));
            }
            Alert::SloBurn { at, model, short_burn, long_burn, .. } => {
                out.push_str(&format!(
                    "  {at}  slo-burn  {model}: burn rate {short_burn:.1}x short / \
                     {long_burn:.1}x long of budget\n"
                ));
            }
            Alert::FaultRecovery { at, client, action, detail } => {
                out.push_str(&format!(
                    "  {at}  recovery  client {client}: {action} ({detail})\n"
                ));
            }
            Alert::Rollout { at, model, version, action, cand_us, base_us } => {
                out.push_str(&format!(
                    "  {at}  rollout   {model}@v{version}: {action} \
                     (candidate {cand_us}us vs incumbent {base_us}us)\n"
                ));
            }
        }
    }

    out.push_str(
        "\nShape: the regressed device stretches quanta ~40% past Q, so the streaming \
         detector flags every client's profile stale within a few quanta, and the \
         latency objective calibrated on the fresh device burns its error budget \
         immediately.\n",
    );
    let fired = |kind: &str| t.alerts.iter().filter(|a| a.kind() == kind).count();
    let (drift, burn) = (fired("drift"), fired("slo-burn"));
    let claims = vec![
        Claim::new(
            "telemetry.drift_detector_flags_the_regression",
            drift >= 1,
            format!("{drift} drift alerts, bound >= 1"),
        ),
        Claim::new(
            "telemetry.slo_burn_monitor_fires",
            burn >= 1,
            format!("{burn} slo-burn alerts, bound >= 1"),
        ),
    ];
    Figure { text: out, claims }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_carries_sparklines_and_alerts() {
        let fig = run();
        assert!(fig.claims.iter().all(|c| c.held), "{:?}", fig.claims);
        let out = fig.text;
        assert!(out.contains("per-snapshot series"));
        assert!(out.contains("GPU-share fairness"));
        assert!(out.contains("drift"));
        assert!(out.contains("slo-burn"));
        assert!(out.contains("re-profile"));
    }
}
