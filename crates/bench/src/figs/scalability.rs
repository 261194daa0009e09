//! §4.3 scalability: how many concurrent clients fit?
//!
//! Two limits exist:
//!
//! * **GPU memory** — activations scale with clients; both systems hit this
//!   (paper: ~45 clients of ResNet-152-class models on a 1080 Ti).
//! * **Worker threads** — Olympian's suspended gangs *hold* their pool
//!   threads, so for thread-hungry models it saturates the pool well before
//!   TF-Serving does (paper: 40–60 Inception clients vs ~100).

use crate::{banner, bisect_capacity, build_store, default_config};
use crate::figs::{fair, Claim, Figure};
use metrics::table::render_table;
use models::ModelKind;
use serving::{run_experiment, ClientSpec, FifoScheduler, RunReport};
use simtime::SimDuration;
use std::sync::Arc;

/// Outcome of one admission probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// All clients finished.
    Ok,
    /// Some clients were rejected (GPU memory).
    Oom,
    /// Some clients stalled (worker-thread exhaustion).
    Stalled,
}

fn classify(report: &RunReport) -> Probe {
    use serving::ClientOutcome;
    if report.all_finished() {
        return Probe::Ok;
    }
    if report
        .clients
        .iter()
        .any(|c| matches!(c.outcome, ClientOutcome::Stalled))
    {
        return Probe::Stalled;
    }
    Probe::Oom
}

/// Largest client count (on the step-5 grid up to `max`) at which all
/// clients finish, plus the failure mode of the smallest count that does
/// not (`Ok` if every count finishes). The grid is bisected
/// ([`bisect_capacity`]), which needs the outcome to be monotone: a count
/// that runs out of GPU memory or worker threads does so at every larger
/// count.
pub fn capacity(kind: ModelKind, olympian: bool, max: usize) -> (usize, Probe) {
    let cfg = default_config();
    let model = models::load(kind, 100).expect("zoo model");
    let store = olympian.then(|| build_store(&cfg, std::slice::from_ref(&model)));
    let (cap, failure) = bisect_capacity(5, max, |n| {
        let clients = vec![ClientSpec::new(model.clone(), 1); n];
        let report = match &store {
            Some(store) => {
                let mut sched = fair(Arc::clone(store), SimDuration::from_micros(1200));
                run_experiment(&cfg, clients, &mut sched)
            }
            None => run_experiment(&cfg, clients, &mut FifoScheduler::new()),
        };
        match classify(&report) {
            Probe::Ok => Ok(()),
            other => Err(other),
        }
    });
    (cap, failure.unwrap_or(Probe::Ok))
}

/// Runs the experiment and returns the report and its claims.
pub fn run() -> Figure {
    let mut out = banner(
        "§4.3 scalability",
        "Maximum concurrent clients (batch 100, 1 batch each, step 5)",
    );
    let mut rows = Vec::new();
    let mut claims = Vec::new();
    for (kind, max, paper_tf, paper_oly) in [
        (ModelKind::ResNet152, 70, "~45 (memory)", "~45 (memory)"),
        (ModelKind::InceptionV4, 130, "~100 (memory)", "40-60 (threads)"),
    ] {
        let (tf_cap, tf_fail) = capacity(kind, false, max);
        let (oly_cap, oly_fail) = capacity(kind, true, max);
        claims.push(match kind {
            ModelKind::ResNet152 => Claim::new(
                "scalability.memory_caps_resnet",
                tf_fail == Probe::Oom && (40..=55).contains(&tf_cap),
                format!("tf-serving {tf_cap} clients ({tf_fail:?} beyond), bound Oom at 40-55"),
            ),
            _ => Claim::new(
                "scalability.olympian_thread_bound_below_tf_for_inception",
                oly_cap < tf_cap && oly_fail == Probe::Stalled && (40..=60).contains(&oly_cap),
                format!(
                    "olympian {oly_cap} ({oly_fail:?} beyond) vs tf-serving {tf_cap}, bound \
                     Stalled at 40-60 and below tf-serving"
                ),
            ),
        });
        rows.push(vec![
            kind.name().to_string(),
            format!("{tf_cap} ({tf_fail:?} beyond)"),
            paper_tf.to_string(),
            format!("{oly_cap} ({oly_fail:?} beyond)"),
            paper_oly.to_string(),
        ]);
    }
    out.push_str(&render_table(
        &["model", "tf-serving max", "paper", "olympian max", "paper"],
        &rows,
    ));
    out.push_str(
        "\nPaper shape: memory caps both systems near 45 clients for big-activation \
         models; for Inception, Olympian saturates the worker-thread pool (suspended \
         gangs hold threads) at roughly half of TF-Serving's client count.\n",
    );
    Figure { text: out, claims }
}
