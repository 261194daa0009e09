//! Ablations over the design constants DESIGN.md calls out: how overhead
//! and fairness respond to the switch latency, the gang width (in-flight
//! kernel depth), and the driver's inter-kernel gap.

use crate::{banner, build_store_for, default_config, homogeneous_clients, DEFAULT_BATCH};
use crate::figs::{fair, Claim, Figure};
use metrics::table::render_table;
use models::ModelKind;
use serving::{run_experiment, EngineConfig, FifoScheduler};
use simtime::SimDuration;

const Q: SimDuration = SimDuration::from_micros(1200);

/// Overhead of a two-instance Inception race under `cfg` at quantum `Q`.
fn pair_overhead(cfg: &EngineConfig) -> f64 {
    let quiet = cfg.quiescent();
    let clients = homogeneous_clients(ModelKind::InceptionV4, DEFAULT_BATCH, 2, 3);
    let base = run_experiment(&quiet, clients.clone(), &mut FifoScheduler::new());
    let store = build_store_for(&quiet, &clients);
    let mut sched = fair(store, Q);
    let oly = run_experiment(&quiet, clients, &mut sched);
    (oly.makespan.as_secs_f64() - base.makespan.as_secs_f64()) / base.makespan.as_secs_f64()
}

/// Sweep of the token hand-off latency.
pub fn switch_latency_sweep() -> Vec<(u64, f64)> {
    [10u64, 40, 80, 160, 320]
        .into_iter()
        .map(|us| {
            let mut cfg = default_config();
            cfg.switch_latency = SimDuration::from_micros(us);
            (us, pair_overhead(&cfg))
        })
        .collect()
}

/// Sweep of gang width: deeper gangs keep more kernels in flight, masking
/// more of the switch bubble (and enlarging overflow variance).
pub fn gang_width_sweep() -> Vec<(u32, f64)> {
    [1u32, 2, 4, 8]
        .into_iter()
        .map(|g| {
            let mut cfg = default_config();
            cfg.max_gang = g;
            (g, pair_overhead(&cfg))
        })
        .collect()
}

/// Sweep of the device's inter-kernel gap: larger gaps depress utilization
/// for everyone (the baseline's sub-100% utilization knob).
pub fn kernel_gap_sweep() -> Vec<(u64, f64)> {
    [0u64, 3, 6, 12]
        .into_iter()
        .map(|gap| {
            let mut cfg = default_config();
            cfg.device = cfg.device.with_kernel_gap(SimDuration::from_micros(gap));
            let clients = homogeneous_clients(ModelKind::InceptionV4, DEFAULT_BATCH, 4, 2);
            let report = run_experiment(&cfg, clients, &mut FifoScheduler::new());
            (gap, report.utilization)
        })
        .collect()
}

/// Runs the ablations and returns the report and its claims.
pub fn run() -> Figure {
    let mut out = banner(
        "Ablations",
        "Design-constant sweeps: switch latency, gang width, kernel gap",
    );

    out.push_str("\nswitch latency vs two-instance overhead at Q = 1.2 ms:\n");
    let switch_sweep = switch_latency_sweep();
    let rows: Vec<Vec<String>> = switch_sweep
        .iter()
        .map(|(us, ov)| vec![format!("{us} us"), format!("{:.2}%", ov * 100.0)])
        .collect();
    out.push_str(&render_table(&["switch latency", "overhead"], &rows));

    out.push_str("\ngang width vs two-instance overhead (masking by in-flight kernels):\n");
    let rows: Vec<Vec<String>> = gang_width_sweep()
        .into_iter()
        .map(|(g, ov)| vec![format!("{g}"), format!("{:.2}%", ov * 100.0)])
        .collect();
    out.push_str(&render_table(&["gang width", "overhead"], &rows));

    out.push_str("\ninter-kernel gap vs baseline utilization:\n");
    let gap_sweep = kernel_gap_sweep();
    let rows: Vec<Vec<String>> = gap_sweep
        .iter()
        .map(|(gap, util)| vec![format!("{gap} us"), format!("{:.1}%", util * 100.0)])
        .collect();
    out.push_str(&render_table(&["kernel gap", "utilization"], &rows));

    out.push_str(
        "\nExpected: overhead grows with switch latency and falls with gang width \
         (overflow masks the bubble); utilization falls as the per-launch gap grows.\n",
    );
    let overheads: Vec<f64> = switch_sweep.iter().map(|&(_, ov)| ov).collect();
    let utils: Vec<f64> = gap_sweep.iter().map(|&(_, u)| u).collect();
    let claims = vec![
        Claim::new(
            "ablations.overhead_grows_with_switch_latency",
            overheads.windows(2).all(|w| w[0] <= w[1] + 0.004)
                && overheads.last() > overheads.first(),
            format!(
                "overhead {overheads:.4?} over switch latencies {:?} us, bound each step \
                 down by at most 0.004 and last > first",
                switch_sweep.iter().map(|&(us, _)| us).collect::<Vec<_>>()
            ),
        ),
        Claim::new(
            "ablations.utilization_falls_with_kernel_gap",
            utils.first() > utils.last(),
            format!(
                "utilization {utils:.4?} over kernel gaps {:?} us, bound first > last",
                gap_sweep.iter().map(|&(gap, _)| gap).collect::<Vec<_>>()
            ),
        ),
    ];
    Figure { text: out, claims }
}
