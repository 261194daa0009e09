//! Extension experiment (paper §7 future work): multi-GPU serving.
//!
//! Two questions:
//!
//! 1. does adding GPUs scale client capacity (the §4.3 memory limit is
//!    per-device)?
//! 2. is per-device fairness preserved when clients are spread across
//!    devices?

use crate::{banner, bisect_capacity, build_store_for, default_config, format_finish_times,
    homogeneous_clients, DEFAULT_BATCH};
use crate::figs::{Claim, Figure};
use metrics::table::render_table;
use models::ModelKind;
use olympian::{MultiGpuScheduler, RoundRobin};
use serving::{run_experiment, FifoScheduler, RunReport};
use simtime::SimDuration;

/// Runs 12 ResNet-152 clients on `gpus` devices under multi-GPU fair
/// sharing.
pub fn fair_on(gpus: usize) -> RunReport {
    let cfg = default_config().with_device_count(gpus);
    let clients = homogeneous_clients(ModelKind::ResNet152, DEFAULT_BATCH, 12, 4);
    let store = build_store_for(&cfg, &clients);
    let mut sched =
        MultiGpuScheduler::new(store, || Box::new(RoundRobin::new()), SimDuration::from_micros(1200));
    run_experiment(&cfg, clients, &mut sched)
}

/// Largest ResNet-152 client count (on the step-5 grid up to `max`) that
/// finishes on `gpus` devices under the baseline scheduler. The grid is
/// bisected ([`bisect_capacity`]), which needs the outcome to be monotone:
/// a count that runs a device out of memory does so at every larger count.
pub fn capacity_with(gpus: usize, max: usize) -> usize {
    let cfg = default_config().with_device_count(gpus);
    let model = models::load(ModelKind::ResNet152, DEFAULT_BATCH).expect("zoo model");
    let (cap, _) = bisect_capacity(5, max, |n| {
        let clients = vec![serving::ClientSpec::new(model.clone(), 1); n];
        let report = run_experiment(&cfg, clients, &mut FifoScheduler::new());
        if report.all_finished() {
            Ok(())
        } else {
            Err(())
        }
    });
    cap
}

/// Runs the experiment and returns the report and its claims.
pub fn run() -> Figure {
    let mut out = banner(
        "Extension: multi-GPU",
        "Client capacity and per-device fairness with 1-3 GPUs",
    );
    let mut rows = Vec::new();
    let mut caps = Vec::new();
    for gpus in 1..=3usize {
        let cap = capacity_with(gpus, 160);
        rows.push(vec![format!("{gpus}"), format!("{cap}")]);
        caps.push(cap);
    }
    out.push_str(&render_table(&["GPUs", "max ResNet-152 clients"], &rows));
    out.push_str("(memory is per-device, so capacity scales with GPU count)\n");

    let report = fair_on(2);
    out.push_str(&format_finish_times("12 clients on 2 GPUs, fair per device", &report));
    out.push_str(&format!(
        "per-device utilization: {}\n",
        report
            .device_utilizations
            .iter()
            .map(|u| format!("{:.1}%", u * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(
        "\nExpected: clients split 6/6 across devices; each device's cohort finishes \
         together at about half the single-GPU makespan.\n",
    );

    let (one, two) = (caps[0], caps[1]);
    let capacity = Claim::new(
        "multi_gpu.two_gpus_double_capacity",
        two + 5 >= one * 2,
        format!("{one} -> {two} clients on 1 -> 2 GPUs, bound at least 2 x {one} - 5"),
    );
    let single = fair_on(1);
    let speedup = single.makespan.as_secs_f64() / report.makespan.as_secs_f64();
    let makespan = Claim::new(
        "multi_gpu.two_gpus_halve_makespan",
        single.all_finished()
            && report.all_finished()
            && report.device_utilizations.len() == 2
            && speedup > 1.7
            && speedup < 2.3,
        format!(
            "makespan {:.3} s on 1 GPU vs {:.3} s on {} GPUs, speedup {speedup:.3}, bound \
             all finish and 1.7-2.3",
            single.makespan.as_secs_f64(),
            report.makespan.as_secs_f64(),
            report.device_utilizations.len()
        ),
    );
    Figure { text: out, claims: vec![capacity, makespan] }
}
