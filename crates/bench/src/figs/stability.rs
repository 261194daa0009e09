//! §4.4 stability: are cost and GPU duration stable enough to profile
//! offline once and reuse?
//!
//! The paper profiles Inception (batch 100) 100 times: total cost
//! σ/µ ≈ 2.5% and GPU duration σ/µ ≈ 1.7%. We repeat the measurement with
//! 100 differently seeded profiling runs.

use crate::figs::{Claim, Figure};
use crate::{banner, default_config};
use metrics::Summary;
use models::ModelKind;
use olympian::Profiler;

/// Number of profiling repetitions.
pub const RUNS: usize = 100;

/// Profiles Inception `RUNS` times; returns `(costs, durations_us)`.
///
/// Each replication derives its configuration (and hence all randomness)
/// from its own seed, so the replications run in parallel and `par_map`'s
/// seed-ordered results are byte-identical to the serial loop.
pub fn samples() -> (Vec<f64>, Vec<f64>) {
    let model = models::load(ModelKind::InceptionV4, 100).expect("zoo model");
    let seeds: Vec<u64> = (0..RUNS as u64).collect();
    let pairs = simpar::par_map(&seeds, |_, &seed| {
        let cfg = default_config().with_seed(seed * 7919 + 13);
        let p = Profiler::new(&cfg).profile(&model);
        (p.total_cost as f64, p.gpu_duration.as_micros_f64())
    });
    pairs.into_iter().unzip()
}

/// Runs the experiment and returns the report and its claim.
pub fn run() -> Figure {
    let mut out = banner(
        "§4.4 stability",
        "Cost and GPU-duration stability over 100 profiling runs (Inception, batch 100)",
    );
    let (costs, durations) = samples();
    let c = Summary::of(costs.iter().copied());
    let d = Summary::of(durations.iter().copied());
    out.push_str(&format!(
        "\ntotal cost:   mean = {:.3e} units, std = {:.3e} ({:.2}%)  [paper: σ/µ ≈ 2.5%]\n",
        c.mean(),
        c.std_dev(),
        c.cv() * 100.0
    ));
    out.push_str(&format!(
        "GPU duration: mean = {:.0} us, std = {:.0} us ({:.2}%)      [paper: σ/µ ≈ 1.7%]\n",
        d.mean(),
        d.std_dev(),
        d.cv() * 100.0
    ));
    out.push_str(
        "\nPaper shape: both quantities are stable to a few percent across runs, \
         validating one-shot offline profiling.\n",
    );
    let claim = Claim::new(
        "stability.cost_and_duration_stable",
        c.cv() > 0.005 && c.cv() < 0.05 && d.cv() > 0.005 && d.cv() < 0.04,
        format!(
            "cost std/mean {:.2}% (bound 0.5-5%), GPU duration std/mean {:.2}% (bound 0.5-4%)",
            c.cv() * 100.0,
            d.cv() * 100.0
        ),
    );
    Figure { text: out, claims: vec![claim] }
}
