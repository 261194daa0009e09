//! Latency blame report: the attribution layer pointed at the `drifted`
//! incident run.
//!
//! The underlying runs are `bench::telemetered`'s `drifted` experiment (a
//! deployment whose GPU regressed 40% after profiling) and its healthy
//! `smoke` twin. Every traced run is decomposed into phases that tile its
//! span exactly, the cross-request critical path of the makespan is walked,
//! and the drifted run is diffed against the baseline — the report should
//! pin nearly the whole p99 regression on the execute (compute) cause,
//! which is what actually changed between the two runs.

use crate::banner;
use crate::default_config;
use crate::figs::Figure;
use crate::telemetered::telemetered_experiment;
use serving::attrib;
use simtime::SimDuration;

/// Snapshot cadence of the underlying telemetered runs.
pub const INTERVAL: SimDuration = SimDuration::from_micros(100);

/// Attributes a telemetered experiment's trace. The hand-off horizon is the
/// engine default the experiments run with: token switch latency plus first
/// launch overhead.
pub fn attribute(experiment: &str) -> (serving::RunReport, attrib::Attribution) {
    let f = telemetered_experiment(experiment).expect("known telemetered experiment");
    let report = f(INTERVAL);
    let cfg = default_config();
    let attr = report.attribution(cfg.switch_latency + cfg.launch_overhead);
    (report, attr)
}

/// Renders the blame report (saved as `results/blame.txt`).
pub fn run() -> Figure {
    let mut out = banner(
        "blame",
        "latency attribution of the drifted incident run vs the healthy baseline",
    );
    let (_, target) = attribute("drifted");
    let (_, base) = attribute("smoke");
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
    Figure { text: out, claims: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serving::attrib::Phase;

    #[test]
    fn drifted_blame_pins_the_regression_on_execute() {
        let (_, target) = attribute("drifted");
        let (_, base) = attribute("smoke");
        assert!(target.token_based && base.token_based);
        assert!(!target.runs.is_empty() && !base.runs.is_empty());
        let d = attrib::diff(&target, &base);
        assert!(d.delta_total_ns > 0, "regressed device must be slower");
        assert!(
            d.execute_share >= 0.9,
            "compute drift must own >=90% of the p99 delta, got {:.3}",
            d.execute_share
        );
        // The cause vector still accounts for the whole delta.
        for cd in &d.per_client {
            let sum: i64 = cd.cause_ns.iter().sum();
            assert_eq!(sum, cd.delta_ns);
        }
    }

    #[test]
    fn critical_path_tiles_the_makespan() {
        let (_, attr) = attribute("drifted");
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

    #[test]
    fn report_mentions_the_headline_number() {
        let out = run().text;
        assert!(out.contains("execute share"));
        assert!(out.contains("latency attribution: drifted"));
        assert!(out.contains("blame vs baseline: smoke"));
    }
}
