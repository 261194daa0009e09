//! Figure 19: the ablation — replacing the profiled cost-accumulation
//! quantum with a plain CPU (wall-clock) timer.
//!
//! Left panel: homogeneous workload finish times drift apart again.
//! Right panel: heterogeneous workload GPU durations per quantum diverge —
//! a wall-clock slice buys different amounts of GPU depending on each
//! model's CPU/GPU mix, so "equal time" is not "equal GPU".

use crate::{banner, build_store_for, default_config, format_finish_times, format_quanta,
    homogeneous_clients, DEFAULT_BATCH, DEFAULT_NUM_BATCHES};
use crate::figs::{fig13_14, Claim, Figure};
use metrics::Summary;
use models::ModelKind;
use olympian::{OlympianScheduler, RoundRobin};
use serving::{run_experiment, RunReport};
use simtime::SimDuration;

/// The wall-clock quantum used for the ablation (the paper reuses the
/// cost-chosen Q's magnitude).
pub const WALL_Q: SimDuration = SimDuration::from_micros(1200);

fn timer_sched(store: std::sync::Arc<olympian::ProfileStore>) -> OlympianScheduler {
    OlympianScheduler::new(store, Box::new(RoundRobin::new()), WALL_Q).with_wall_clock_meter()
}

/// Homogeneous workload under the CPU-timer scheduler.
pub fn homogeneous_timer_run() -> RunReport {
    let cfg = default_config();
    let clients =
        homogeneous_clients(ModelKind::InceptionV4, DEFAULT_BATCH, 10, DEFAULT_NUM_BATCHES);
    let store = build_store_for(&cfg, &clients);
    let mut sched = timer_sched(store);
    run_experiment(&cfg, clients, &mut sched)
}

/// Heterogeneous workload under the CPU-timer scheduler.
pub fn heterogeneous_timer_run() -> RunReport {
    let cfg = default_config();
    let clients = fig13_14::workload(100);
    let store = build_store_for(&cfg, &clients);
    let mut sched = timer_sched(store);
    run_experiment(&cfg, clients, &mut sched)
}

/// Runs the experiment and returns the report and its claim.
pub fn run() -> Figure {
    let mut out = banner(
        "Figure 19",
        "CPU-timer quantum ablation: wall-clock slicing fails to equalize GPU usage",
    );
    let homo = homogeneous_timer_run();
    out.push_str(&format_finish_times("homogeneous, CPU timer", &homo));
    let hetero = heterogeneous_timer_run();
    out.push_str(&format_quanta("heterogeneous, CPU timer", &hetero));
    let means: Vec<f64> = hetero
        .clients
        .iter()
        .filter_map(|c| c.mean_quantum_us())
        .collect();
    let s = Summary::of(means.iter().copied());
    out.push_str(&format!(
        "\nheterogeneous per-client mean GPU/quantum spans {:.0}-{:.0} us \
         (ratio {:.2}x), with per-quantum std blowing up to 25-40% — compare \
         Figure 14's near-equal, low-variance shares under cost accumulation \
         (paper's extreme: one client got 1872 us, others far less).\n",
        s.min(),
        s.max(),
        s.max() / s.min()
    ));
    let claim = Claim::new(
        "fig19.wall_clock_quanta_skew_gpu_shares",
        s.max() / s.min() > 1.04,
        format!(
            "per-client mean GPU/quantum {:.0}-{:.0} us, max/min {:.4}, bound > 1.04",
            s.min(),
            s.max(),
            s.max() / s.min()
        ),
    );
    Figure { text: out, claims: vec![claim] }
}
