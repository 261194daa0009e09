//! Seed-robustness study: the headline results across 8 independent seeds.
//!
//! A reproduction's numbers should not depend on a lucky seed. For each
//! seed we re-run the Figure 11 core comparison and report the spread of
//! the headline metrics: baseline unfairness, Olympian fairness, overhead
//! and mean quantum accuracy.

use crate::{banner, build_store_for, default_config, homogeneous_clients, DEFAULT_BATCH};
use crate::figs::{fair, Claim, Figure};
use metrics::table::render_table;
use metrics::{max_min_ratio, Summary};
use models::ModelKind;
use serving::{run_experiment, FifoScheduler};
use simtime::SimDuration;

/// Seeds swept.
pub const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// Headline metrics for one seed.
#[derive(Debug, Clone, Copy)]
pub struct SeedOutcome {
    /// Baseline max/min finish-time ratio.
    pub baseline_spread: f64,
    /// Olympian max/min finish-time ratio.
    pub olympian_spread: f64,
    /// Olympian-vs-baseline makespan overhead.
    pub overhead: f64,
    /// Mean per-quantum GPU duration across clients, µs.
    pub mean_quantum_us: f64,
}

/// Runs the core comparison for one seed at a fixed Q of 1.2 ms.
pub fn outcome_for(seed: u64) -> SeedOutcome {
    let cfg = default_config().with_seed(seed);
    let clients = homogeneous_clients(ModelKind::InceptionV4, DEFAULT_BATCH, 10, 5);
    let base = run_experiment(&cfg, clients.clone(), &mut FifoScheduler::new());
    let store = build_store_for(&cfg, &clients);
    let mut sched = fair(store, SimDuration::from_micros(1200));
    let oly = run_experiment(&cfg, clients, &mut sched);
    let quanta: Vec<f64> = oly
        .clients
        .iter()
        .filter_map(|c| c.mean_quantum_us())
        .collect();
    SeedOutcome {
        baseline_spread: max_min_ratio(&base.finish_times_secs()),
        olympian_spread: max_min_ratio(&oly.finish_times_secs()),
        overhead: (oly.makespan.as_secs_f64() - base.makespan.as_secs_f64())
            / base.makespan.as_secs_f64(),
        mean_quantum_us: Summary::of(quanta.iter().copied()).mean(),
    }
}

/// Runs the study and returns the report and its claim.
pub fn run() -> Figure {
    let mut out = banner(
        "Robustness",
        "Headline metrics across 8 seeds (10 Inception clients, Q = 1.2 ms)",
    );
    let outcomes: Vec<(u64, SeedOutcome)> =
        SEEDS.iter().map(|&s| (s, outcome_for(s))).collect();
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|(s, o)| {
            vec![
                format!("{s}"),
                format!("{:.3}", o.baseline_spread),
                format!("{:.4}", o.olympian_spread),
                format!("{:.2}%", o.overhead * 100.0),
                format!("{:.0}", o.mean_quantum_us),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &["seed", "baseline max/min", "olympian max/min", "overhead", "mean quantum (us)"],
        &rows,
    ));
    let base = Summary::of(outcomes.iter().map(|(_, o)| o.baseline_spread));
    let oly = Summary::of(outcomes.iter().map(|(_, o)| o.olympian_spread));
    let q = Summary::of(outcomes.iter().map(|(_, o)| o.mean_quantum_us));
    out.push_str(&format!(
        "\nacross seeds: baseline spread {:.2}-{:.2}x, olympian spread ≤ {:.4}x, \
         mean quantum {:.0}±{:.0} us around the configured 1200 us.\n\
         Every seed reproduces the paper's qualitative result.\n",
        base.min(),
        base.max(),
        oly.max(),
        q.mean(),
        q.std_dev()
    ));
    let held = outcomes.iter().all(|(_, o)| {
        o.baseline_spread > 1.08
            && o.olympian_spread < 1.01
            && o.overhead < 0.08
            && (o.mean_quantum_us - 1200.0).abs() / 1200.0 < 0.06
    });
    let overhead = Summary::of(outcomes.iter().map(|(_, o)| o.overhead));
    let claim = Claim::new(
        "robustness.every_seed_reproduces_the_headline",
        held,
        format!(
            "over {} seeds: baseline max/min {:.3}-{:.3} (bound > 1.08), olympian max/min \
             <= {:.4} (bound < 1.01), overhead <= {:.2}% (bound < 8%), mean quantum \
             {:.0}-{:.0} us (bound within 6% of 1200 us)",
            outcomes.len(),
            base.min(),
            base.max(),
            oly.max(),
            overhead.max() * 100.0,
            q.min(),
            q.max()
        ),
    );
    Figure { text: out, claims: vec![claim] }
}
