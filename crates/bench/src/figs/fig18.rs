//! Figure 18: priority scheduling on a homogeneous workload.
//!
//! Ten Inception clients under two priority assignments:
//!
//! * **10-level**: strictly decreasing priorities — execution is
//!   effectively serialized, client 0 first;
//! * **2-level**: clients 0–4 share a high priority (and fair-share among
//!   themselves, finishing ≈ half-way), clients 5–9 run afterwards.

use crate::{banner, build_store_for, choose_q, default_config, format_finish_times,
    homogeneous_clients, DEFAULT_BATCH, DEFAULT_NUM_BATCHES, DEFAULT_TOLERANCE};
use crate::figs::{Claim, Figure};
use models::ModelKind;
use olympian::{OlympianScheduler, Priority};
use serving::{run_experiment, ClientSpec, RunReport};

/// Priority assignment schemes from the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Levels {
    /// Strictly decreasing: client 0 highest … client 9 lowest.
    Ten,
    /// Clients 0–4 high, 5–9 low.
    Two,
}

/// Runs the priority experiment; returns the report.
pub fn priority_run(levels: Levels) -> RunReport {
    let cfg = default_config();
    let clients: Vec<ClientSpec> =
        homogeneous_clients(ModelKind::InceptionV4, DEFAULT_BATCH, 10, DEFAULT_NUM_BATCHES)
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let priority = match levels {
                    Levels::Ten => (10 - i) as u32,
                    Levels::Two => {
                        if i < 5 {
                            2
                        } else {
                            1
                        }
                    }
                };
                c.with_priority(priority)
            })
            .collect();
    let store = build_store_for(&cfg, &clients);
    let q = choose_q(&cfg, &clients, DEFAULT_TOLERANCE);
    let mut sched = OlympianScheduler::new(store, Box::new(Priority::new()), q);
    run_experiment(&cfg, clients, &mut sched)
}

/// Runs the experiment and returns the report and its claims.
pub fn run() -> Figure {
    let mut out = banner(
        "Figure 18",
        "Priority scheduling, 10 Inception clients, two priority assignments",
    );
    let ten = priority_run(Levels::Ten);
    out.push_str(&format_finish_times("10-level priority", &ten));
    out.push_str("expected: staircase — client 0 first, client 9 last (serialized).\n");
    let two = priority_run(Levels::Two);
    out.push_str(&format_finish_times("2-level priority", &two));
    out.push_str(
        "expected: clients 0-4 fair-share and finish together around the halfway \
         point; clients 5-9 finish together at the end (paper: ~25 s then ~50 s).\n",
    );

    let f = ten.finish_times_secs();
    let staircase = Claim::new(
        "fig18.ten_levels_finish_in_priority_order",
        f.len() == 10 && f.windows(2).all(|w| w[0] < w[1]),
        format!("finish times {f:.3?} s, bound strictly increasing by client"),
    );
    let f = two.finish_times_secs();
    let (high, low) = f.split_at(f.len().min(5));
    let high_max = high.iter().fold(0.0_f64, |a, &b| a.max(b));
    let low_min = low.iter().fold(f64::MAX, |a, &b| a.min(b));
    let high_mean = high.iter().sum::<f64>() / 5.0;
    let mid = f.get(9).map_or(f64::NAN, |&t| t / 2.0);
    let two_step = Claim::new(
        "fig18.two_levels_finish_in_two_steps",
        f.len() == 10 && high_max < low_min && (high_mean - mid).abs() / mid < 0.15,
        format!(
            "high group last {high_max:.3} s < low group first {low_min:.3} s; high mean \
             {high_mean:.3} s vs half of client 9's {mid:.3} s, bound within 15%"
        ),
    );
    Figure { text: out, claims: vec![staircase, two_step] }
}
