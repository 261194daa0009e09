//! §4.3 utilization: GPU utilization under TF-Serving vs Olympian's three
//! policies, 10 Inception clients.
//!
//! Paper: TF-Serving 84.74%, fair 78.62%, weighted fair 78.10%, priority
//! 76.35% — Olympian gives up a few points of utilization for isolation,
//! and strict priorities (fully serialized, no inter-job overlap at
//! switches) sit lowest.

use crate::{banner, build_store_for, choose_q, default_config, homogeneous_clients,
    DEFAULT_BATCH, DEFAULT_NUM_BATCHES, DEFAULT_TOLERANCE};
use crate::figs::{Claim, Figure};
use metrics::table::render_table;
use models::ModelKind;
use olympian::{OlympianScheduler, Priority, RoundRobin, WeightedFair};
use serving::{run_experiment, ClientSpec, FifoScheduler, Scheduler};

fn workload(policy: &str) -> Vec<ClientSpec> {
    homogeneous_clients(ModelKind::InceptionV4, DEFAULT_BATCH, 10, DEFAULT_NUM_BATCHES)
        .into_iter()
        .enumerate()
        .map(|(i, c)| match policy {
            "weighted" => c.with_weight(if i < 5 { 2 } else { 1 }),
            "priority" => c.with_priority((10 - i) as u32),
            _ => c,
        })
        .collect()
}

/// Measures utilization for each scheduler; returns `(name, util)` pairs.
pub fn measurements() -> Vec<(String, f64)> {
    let cfg = default_config();
    let base_clients = workload("fair");
    let store = build_store_for(&cfg, &base_clients);
    let q = choose_q(&cfg, &base_clients, DEFAULT_TOLERANCE);
    let mut results = Vec::new();

    let base = run_experiment(&cfg, base_clients, &mut FifoScheduler::new());
    results.push(("tf-serving".to_string(), base.utilization));

    type PolicyFactory = Box<dyn Fn() -> Box<dyn olympian::Policy>>;
    let policies: Vec<(&str, PolicyFactory)> = vec![
        ("fair", Box::new(|| Box::new(RoundRobin::new()))),
        ("weighted", Box::new(|| Box::new(WeightedFair::new()))),
        ("priority", Box::new(|| Box::new(Priority::new()))),
    ];
    for (name, mk_policy) in policies {
        let mut sched = OlympianScheduler::new(store.clone(), mk_policy(), q);
        let report = run_experiment(&cfg, workload(name), &mut sched);
        assert!(report.all_finished(), "{} run completes", sched.name());
        results.push((sched.name().to_string(), report.utilization));
    }
    results
}

/// Runs the experiment and returns the report and its claim.
pub fn run() -> Figure {
    let mut out = banner(
        "§4.3 utilization",
        "GPU utilization: TF-Serving vs Olympian policies",
    );
    let paper = [
        ("tf-serving", 84.74),
        ("olympian-fair", 78.62),
        ("olympian-weighted-fair", 78.10),
        ("olympian-priority", 76.35),
    ];
    let measured = measurements();
    let rows: Vec<Vec<String>> = measured
        .iter()
        .zip(paper)
        .map(|((name, util), (pname, putil))| {
            debug_assert_eq!(name, pname);
            vec![
                name.clone(),
                format!("{:.2}%", util * 100.0),
                format!("{putil:.2}%"),
            ]
        })
        .collect();
    out.push_str(&render_table(&["scheduler", "measured util", "paper util"], &rows));
    out.push_str(
        "\nPaper shape: TF-Serving highest; Olympian's time-sliced policies lower \
         (exclusive quanta lose inter-job gap filling). Two known deviations of the \
         temporal-only device model: the absolute gap is smaller than the paper's \
         6-8 points, and priority does not land *lowest* here — the paper attributes \
         priority's extra loss to missing spatial overlap at switches, an effect a \
         serial kernel engine cannot express. See EXPERIMENTS.md.\n",
    );
    // The reproducible part of the paper's ordering: stock TF-Serving beats
    // every time-sliced policy. (The paper's "priority lowest" relies on
    // spatial overlap, outside this device model's scope.) `measured` is in
    // the table's order.
    let [tf, fair, weighted, priority] = [0, 1, 2, 3].map(|i| measured[i].1);
    let claim = Claim::new(
        "utilization.tf_serving_highest",
        tf > fair && tf > weighted && tf >= priority,
        format!(
            "tf-serving {:.2}% vs fair {:.2}%, weighted {:.2}% (bound below), priority {:.2}% \
             (bound at or below)",
            tf * 100.0,
            fair * 100.0,
            weighted * 100.0,
            priority * 100.0
        ),
    );
    Figure { text: out, claims: vec![claim] }
}
