//! Latency blame report: the attribution layer pointed at the `drifted`
//! incident run.
//!
//! The underlying runs are the catalog's `drifted` incident (a deployment
//! whose GPU regressed 40% after profiling) and its healthy `smoke` twin.
//! Every traced run is decomposed into phases that tile its span exactly,
//! the cross-request critical path of the makespan is walked, and the
//! drifted run is diffed against the baseline — the report should pin
//! nearly the whole p99 regression on the execute (compute) cause, which
//! is what actually changed between the two runs.

use crate::figs::{Claim, Figure};
use crate::runs::{self, RunFn};
use crate::{banner, default_config};
use serving::{attrib, TraceConfig};
use simtime::SimDuration;

/// Snapshot cadence of the underlying telemetered runs.
pub const INTERVAL: SimDuration = SimDuration::from_micros(100);

/// Runs a catalog run with a sampled trace and telemetry every
/// [`INTERVAL`], and attributes its trace. The hand-off horizon is the
/// engine default the runs use: token switch latency plus first launch
/// overhead.
pub fn attribute(run: RunFn) -> (serving::RunReport, attrib::Attribution) {
    let report = run(TraceConfig::sampled(), Some(INTERVAL)).report;
    let cfg = default_config();
    let attr = report.attribution(cfg.switch_latency + cfg.launch_overhead);
    (report, attr)
}

/// The catalog's `drifted` entry.
fn drifted() -> RunFn {
    runs::lookup("drifted").expect("catalogued")
}

/// Renders the blame report (saved as `results/blame.txt`) and its claim:
/// execute owns at least 90% of a positive p99 delta.
pub fn run() -> Figure {
    let mut out = banner(
        "blame",
        "latency attribution of the drifted incident run vs the healthy baseline",
    );
    let (_, target) = attribute(drifted());
    let (_, base) = attribute(runs::smoke);
    let cp = attrib::critical_path(&target);
    let d = attrib::diff(&target, &base);
    out.push_str(&attrib::render_text("drifted", &target, &cp, Some(("smoke", &d))));
    out.push_str(
        "\nReading: phases tile every run span exactly (the decomposition is\n\
         asserted, not approximated); token-wait on the critical path and in\n\
         the diff is re-attributed to whatever the concurrent token holder\n\
         was doing, and hand-off growth at an unchanged per-switch cost is\n\
         rolled into the execute cause — so a pure compute regression shows\n\
         up as (almost) pure execute blame.\n",
    );
    let claim = Claim::new(
        "blame.execute_owns_the_p99_delta",
        d.delta_total_ns > 0 && d.execute_share >= 0.9,
        format!(
            "execute share {:.3} (bound >= 0.9) of a {:+.1} us p99 delta (bound > 0)",
            d.execute_share,
            d.delta_total_ns as f64 / 1e3
        ),
    );
    Figure { text: out, claims: vec![claim] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serving::attrib::Phase;

    #[test]
    fn report_holds_its_claim_and_causes_sum_to_each_delta() {
        let fig = run();
        assert!(fig.claims.iter().all(|c| c.held), "{:?}", fig.claims);
        for line in ["execute share", "latency attribution: drifted", "blame vs baseline: smoke"] {
            assert!(fig.text.contains(line), "{line}");
        }
        let (target, base) = (attribute(drifted()).1, attribute(runs::smoke).1);
        assert!(target.token_based && base.token_based);
        assert!(!target.runs.is_empty() && !base.runs.is_empty());
        let d = attrib::diff(&target, &base);
        for cd in &d.per_client {
            assert_eq!(cd.cause_ns.iter().sum::<i64>(), cd.delta_ns);
        }
    }

    #[test]
    fn critical_path_tiles_the_makespan() {
        let (_, attr) = attribute(drifted());
        let cp = attrib::critical_path(&attr);
        assert_eq!(cp.span_ns, attr.makespan_ns);
        let blamed: u64 = cp.blame_ns.iter().map(|&(_, v)| v).sum();
        assert_eq!(blamed, cp.span_ns);
        // A quantum-sharing run spends real time executing and handing off.
        let exec = cp
            .blame_ns
            .iter()
            .find(|&&(n, _)| n == Phase::Execute.name())
            .unwrap()
            .1;
        assert!(exec > 0);
    }
}
