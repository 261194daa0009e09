#![deny(missing_docs)]

//! Shared plumbing for the experiments.
//!
//! Each [`figs`] module regenerates one table or figure of the paper, and
//! the `all` binary runs them; this library holds what they share: the
//! default platform configuration, workload builders, profile-store
//! construction and result printing.

pub mod figs;
pub mod harness;
pub mod telemetered;
pub mod traced;

use metrics::table::{render_bars, render_table};
use metrics::Summary;
use models::{LoadedModel, ModelKind};
use olympian::{OverheadQCurve, Profiler, ProfileStore};
use serving::{ClientSpec, EngineConfig, RunReport};
use simtime::SimDuration;
use std::sync::Arc;

/// The paper's default workload: batch size 100, 10 batches per client.
pub const DEFAULT_BATCH: u64 = 100;
/// Batches each client submits sequentially.
pub const DEFAULT_NUM_BATCHES: u32 = 10;
/// The operator overhead tolerance used for the homogeneous/heterogeneous
/// experiments (paper §4.1: 2.5%).
pub const DEFAULT_TOLERANCE: f64 = 0.025;

/// The default platform (GTX 1080 Ti host), seed 1.
pub fn default_config() -> EngineConfig {
    EngineConfig::default()
}

/// The candidate quantum grid for Overhead-Q curves (0.1 ms – 10 ms, log-ish
/// spacing as in Figure 8).
pub fn standard_q_grid() -> Vec<SimDuration> {
    [100, 200, 400, 800, 1_200, 1_600, 2_400, 4_000, 6_000, 10_000]
        .into_iter()
        .map(SimDuration::from_micros)
        .collect()
}

/// `n` identical clients of one model.
///
/// # Panics
///
/// Panics if the model cannot be loaded at `batch`.
pub fn homogeneous_clients(kind: ModelKind, batch: u64, n: usize, batches: u32) -> Vec<ClientSpec> {
    let model = models::load(kind, batch).expect("zoo model loads");
    vec![ClientSpec::new(model, batches); n]
}

/// The paper's complex workload (Table 2): two clients of each of the seven
/// models, at the Table 2 batch sizes — 14 clients total.
pub fn complex_workload(batches: u32) -> Vec<ClientSpec> {
    let mut clients = Vec::new();
    for kind in ModelKind::ALL {
        let model = models::load(kind, kind.reference_batch()).expect("zoo model loads");
        clients.push(ClientSpec::new(model.clone(), batches));
        clients.push(ClientSpec::new(model, batches));
    }
    clients
}

/// Builds a profile store covering the given models.
///
/// Distinct models are profiled in parallel (each profiling pass is an
/// independent deterministic simulation) and inserted in first-seen order,
/// so the store is identical to a serial build.
pub fn build_store(cfg: &EngineConfig, models: &[LoadedModel]) -> Arc<ProfileStore> {
    let profiler = Profiler::new(cfg);
    let mut distinct: Vec<&LoadedModel> = Vec::new();
    for m in models {
        if !distinct
            .iter()
            .any(|d| d.name() == m.name() && d.batch() == m.batch())
        {
            distinct.push(m);
        }
    }
    let profiles = simpar::par_map(&distinct, |_, m| profiler.profile(m));
    let mut store = ProfileStore::new();
    for p in profiles {
        store.insert(p);
    }
    Arc::new(store)
}

/// Builds a store covering every distinct model in a client list.
pub fn build_store_for(cfg: &EngineConfig, clients: &[ClientSpec]) -> Arc<ProfileStore> {
    let models: Vec<LoadedModel> = clients.iter().map(|c| c.model.clone()).collect();
    build_store(cfg, &models)
}

/// Measures Overhead-Q curves for the distinct models in a client list and
/// picks `Q` for the tolerance (paper §3.3). Falls back to the largest grid
/// point if no quantum meets the tolerance.
pub fn choose_q(cfg: &EngineConfig, clients: &[ClientSpec], tolerance: f64) -> SimDuration {
    let profiler = Profiler::new(cfg).with_pair_batches(3);
    let grid = standard_q_grid();
    let mut seen: Vec<(String, u64)> = Vec::new();
    let mut distinct: Vec<&ClientSpec> = Vec::new();
    for c in clients {
        let key = (c.model.name().to_string(), c.model.batch());
        if !seen.contains(&key) {
            seen.push(key);
            distinct.push(c);
        }
    }
    // One curve per distinct model, measured in parallel and collected in
    // first-seen order (identical to the serial sweep).
    let curves: Vec<OverheadQCurve> =
        simpar::par_map(&distinct, |_, c| profiler.overhead_q_curve(&c.model, &grid));
    Profiler::q_for_tolerance(&curves, tolerance)
        .unwrap_or_else(|| *grid.last().expect("non-empty grid"))
}

/// Formats a figure header.
pub fn banner(id: &str, caption: &str) -> String {
    format!(
        "==============================================================\n\
         {id} — {caption}\n\
         ==============================================================\n"
    )
}

/// Formats per-client finish times as the bar chart the paper plots.
pub fn format_finish_times(label: &str, report: &RunReport) -> String {
    let mut out = format!(
        "\n[{label}] scheduler={} makespan={:.2}s util={:.1}%\n",
        report.scheduler_name,
        report.makespan.as_secs_f64(),
        report.utilization * 100.0
    );
    let bars: Vec<(String, f64)> = report
        .clients
        .iter()
        .map(|c| {
            let v = if c.is_finished() {
                c.finish_time().as_secs_f64()
            } else {
                0.0
            };
            (format!("client {:>2} ({})", c.client.0, c.model_name), v)
        })
        .collect();
    out.push_str(&render_bars(&bars, 48));
    let finished = report.finish_times_secs();
    if finished.len() >= 2 {
        let s = Summary::of(finished.iter().copied());
        out.push_str(&format!(
            "finish times: {s}; max/min = {:.3}, Jain = {:.4}\n",
            s.max() / s.min(),
            metrics::jain_fairness(&finished)
        ));
    }
    out
}

/// Prints per-client finish times (see [`format_finish_times`]).
pub fn print_finish_times(label: &str, report: &RunReport) {
    print!("{}", format_finish_times(label, report));
}

/// Formats per-client mean quantum GPU durations (Figures 14/16).
pub fn format_quanta(label: &str, report: &RunReport) -> String {
    let mut out = format!("\n[{label}] average GPU duration per quantum\n");
    let mut rows = Vec::new();
    for c in &report.clients {
        let q = c.trimmed_quanta_us();
        if q.is_empty() {
            continue;
        }
        let s = Summary::of(q.iter().copied());
        rows.push(vec![
            format!("client {}", c.client.0),
            c.model_name.clone(),
            format!("{}", c.batch),
            format!("{:.0}", s.mean()),
            format!("{:.1}%", s.cv() * 100.0),
            format!("{}", s.count()),
        ]);
    }
    out.push_str(&render_table(
        &["client", "model", "batch", "mean quantum (us)", "std/mean", "quanta"],
        &rows,
    ));
    out
}

/// Prints per-client mean quantum GPU durations (see [`format_quanta`]).
pub fn print_quanta(label: &str, report: &RunReport) {
    print!("{}", format_quanta(label, report));
}

/// Writes a result file under `results/` (created on demand) and returns
/// its path. The same content is expected to have been printed already.
pub fn save_result(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write result file");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_grid_is_ascending() {
        let g = standard_q_grid();
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(g.first().copied(), Some(SimDuration::from_micros(100)));
    }

    #[test]
    fn homogeneous_clients_share_graph() {
        let clients = homogeneous_clients(ModelKind::ResNet152, 10, 3, 2);
        assert_eq!(clients.len(), 3);
        assert!(Arc::ptr_eq(
            clients[0].model.graph(),
            clients[1].model.graph()
        ));
    }

    #[test]
    fn complex_workload_has_fourteen_clients() {
        let w = complex_workload(1);
        assert_eq!(w.len(), 14);
        let names: std::collections::HashSet<&str> =
            w.iter().map(|c| c.model.name()).collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn store_covers_distinct_models_once() {
        let cfg = default_config();
        let m = models::mini::tiny(2);
        let store = build_store(&cfg, &[m.clone(), m.clone()]);
        assert_eq!(store.len(), 1);
        assert!(store.get(m.name(), 2).is_some());
    }
}
