//! End-to-end checks of the time-series store: byte-determinism of the
//! persisted run documents across worker counts, save/load/save round-trip
//! stability, the run catalog, and the headline guarantee — a quantile
//! diff over *stored* history reproduces the attribution layer's p99 blame
//! delta without re-simulating anything.

use olympian::{OlympianScheduler, ProfileStore, Profiler, RoundRobin};
use serving::attrib;
use serving::{run_experiment, ClientSpec, EngineConfig, RunReport, TraceConfig};
use simtime::SimDuration;
use std::collections::BTreeSet;
use std::sync::Arc;
use telemetry::{BurnWindows, DriftConfig, SloSpec, TelemetryConfig};
use tsdb::{diff_rows, evaluate, Expr, RunCatalog};

const QUANTUM: SimDuration = SimDuration::from_micros(200);
const INTERVAL: SimDuration = SimDuration::from_micros(100);

/// Builds the profile store through `simpar::par_map` — the code path
/// `--jobs N` parallelizes — so the determinism matrix actually covers
/// the parallel harness.
fn store_for(cfg: &EngineConfig) -> Arc<ProfileStore> {
    let models = [models::mini::small(4)];
    let profiles = simpar::par_map(&models, |_, m| Profiler::new(cfg).profile(m));
    let mut store = ProfileStore::new();
    for p in profiles {
        store.insert(p);
    }
    Arc::new(store)
}

fn clients() -> Vec<ClientSpec> {
    vec![ClientSpec::new(models::mini::small(4), 8); 3]
}

fn fair(store: Arc<ProfileStore>) -> OlympianScheduler {
    OlympianScheduler::new(store, Box::new(RoundRobin::new()), QUANTUM)
}

/// Healthy baseline: fresh device, generous objective, nothing fires.
fn healthy_run() -> RunReport {
    let tc = TelemetryConfig::enabled(INTERVAL).with_slo(SloSpec::new(
        "mini-small",
        SimDuration::from_secs(1),
        0.05,
    ));
    let cfg = EngineConfig::default()
        .with_trace(TraceConfig::sampled())
        .with_telemetry(tc);
    let store = store_for(&cfg);
    run_experiment(&cfg, clients(), &mut fair(store))
}

/// Incident run: the device regressed 40% after profiling, so the stale
/// profiles overshoot the quantum and every run breaches the objective
/// calibrated on the fresh device — both monitors fire mid-run.
fn drifted_run() -> RunReport {
    let fresh = EngineConfig::default();
    let store = store_for(&fresh);

    let probe_cfg = fresh.with_telemetry(TelemetryConfig::enabled(INTERVAL));
    let probe = run_experiment(&probe_cfg, clients(), &mut fair(Arc::clone(&store)));
    let fresh_p50_us =
        probe.telemetry.hist("run_latency_us").expect("latency histogram").p50;
    let objective = SimDuration::from_micros((fresh_p50_us * 1.15).ceil() as u64);

    let mut cfg = EngineConfig::default();
    cfg.device = gpusim::DeviceProfile::custom(
        "regressed",
        1.4,
        cfg.device.memory_bytes(),
        cfg.device.sm_count(),
        0.0,
    );
    let tc = TelemetryConfig::enabled(INTERVAL)
        .with_slo(SloSpec::new("mini-small", objective, 0.05))
        .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 })
        .with_drift(DriftConfig::new(QUANTUM, 0.25));
    let cfg = cfg.with_trace(TraceConfig::sampled()).with_telemetry(tc);
    run_experiment(&cfg, clients(), &mut fair(store))
}

fn stored_bytes(report: &RunReport, run: &str) -> String {
    let mut text = report.tsdb().to_json(run).to_string();
    text.push('\n');
    text
}

#[test]
fn stored_runs_are_byte_identical_across_job_counts() {
    std::env::remove_var(simpar::JOBS_ENV);
    let serial = drifted_run();
    assert!(serial.all_finished());
    let serial_doc = stored_bytes(&serial, "drifted");

    std::env::set_var(simpar::JOBS_ENV, "2");
    let parallel = drifted_run();
    std::env::remove_var(simpar::JOBS_ENV);

    assert_eq!(
        serial_doc,
        stored_bytes(&parallel, "drifted"),
        "persisted run document must not depend on the worker count"
    );
}

#[test]
fn catalog_roundtrip_is_byte_identical() {
    let dir = std::env::temp_dir()
        .join(format!("olympian-tsdb-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let catalog = RunCatalog::open(&dir).expect("open catalog");

    let report = drifted_run();
    let store = report.tsdb();
    let path = catalog.store_run("drifted", &store).expect("store run");
    let first = std::fs::read_to_string(&path).expect("read run");

    // load → save must reproduce the file byte-for-byte: totals, eviction
    // counts and the raw window all survive the round trip.
    let loaded = catalog.load_run("drifted").expect("load run");
    catalog.store_run("drifted", &loaded).expect("re-store run");
    let second = std::fs::read_to_string(&path).expect("re-read run");
    assert_eq!(first, second, "save(load(x)) must equal save(x)");

    assert_eq!(catalog.runs().expect("index"), vec!["drifted".to_string()]);
    assert_eq!(
        catalog.latest(None).expect("index").as_deref(),
        Some("drifted")
    );
    assert_eq!(catalog.latest(Some("drifted")).expect("index"), None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A catalog index that does not parse, has another schema or lists a run
/// that is not a string is an error, not an empty catalog: storing another
/// run fails before it writes anything, so the runs the index listed are
/// not dropped from it.
#[test]
fn malformed_catalog_index_fails_the_next_store_and_is_left_alone() {
    let dir = std::env::temp_dir().join(format!("olympian-tsdb-malformed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let catalog = RunCatalog::open(&dir).expect("open catalog");
    let mut store = tsdb::Store::new();
    store.push("m", &[], 1, 1.0);
    catalog.store_run("smoke", &store).expect("store smoke");

    let index = dir.join("catalog.json");
    let text = std::fs::read(&index).expect("read index");
    let listing = || -> BTreeSet<_> {
        let entries = std::fs::read_dir(&dir).expect("list catalog");
        entries.map(|e| e.expect("entry").file_name()).collect()
    };
    let files = listing();
    let malformed: [&[u8]; 5] = [
        &text[..text.len() / 2],
        b"\xff",
        br#"{"schema":"tsdb-catalog/v0","runs":["smoke"]}"#,
        br#"{"schema":"tsdb-catalog/v1"}"#,
        br#"{"schema":"tsdb-catalog/v1","runs":["smoke",7]}"#,
    ];
    for bad in malformed {
        std::fs::write(&index, bad).expect("break index");
        let err = catalog
            .store_run("drifted", &store)
            .expect_err("a malformed index must not read as an empty catalog");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("catalog.json"), "{err}");
        assert_eq!(std::fs::read(&index).expect("read index"), bad);
        assert_eq!(listing(), files);
        assert!(catalog.latest(None).is_err(), "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The headline guarantee: `p99{client=*}` diffed between two *stored*
/// runs reproduces the attribution layer's total p99 blame delta exactly —
/// the store keeps the loss-free latency stream, not histogram summaries,
/// so nothing about the incident is lost by going through disk.
#[test]
fn stored_quantile_diff_reproduces_the_blame_delta() {
    let dir = std::env::temp_dir()
        .join(format!("olympian-tsdb-blame-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let catalog = RunCatalog::open(&dir).expect("open catalog");

    let base = healthy_run();
    let target = drifted_run();
    catalog.store_run("smoke", &base.tsdb()).expect("store smoke");
    catalog.store_run("drifted", &target.tsdb()).expect("store drifted");

    // Ground truth: the attribution layer's per-client nearest-rank p99
    // diff over the traced run spans.
    let cfg = EngineConfig::default();
    let horizon = cfg.switch_latency + cfg.launch_overhead;
    let blame =
        attrib::diff(&target.attribution(horizon), &base.attribution(horizon));
    assert!(blame.delta_total_ns > 0, "regressed device must be slower");

    // Replay the question from disk alone.
    let t = catalog.load_run("drifted").expect("load drifted");
    let b = catalog.load_run("smoke").expect("load smoke");
    let expr = Expr::parse("p99{client=*}").expect("parse");
    let rows = diff_rows(&t, &b, &expr);
    assert_eq!(rows.len(), 3, "one row per client");
    let total: f64 = rows.iter().filter_map(|r| r.delta()).sum();
    assert_eq!(
        total as i64, blame.delta_total_ns,
        "stored-history p99 delta must equal the blame report's total"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dashboard_and_queries_cover_the_stored_run() {
    let report = drifted_run();
    let store = report.tsdb();
    assert!(store.series_count() > 0 && !store.alerts().is_empty());

    // Every series draws exactly one sparkline SVG.
    let html = tsdb::render_dashboard("drifted", &store, None);
    assert_eq!(html.matches("class=\"series\"").count(), store.series_count());
    assert_eq!(
        html.matches("<!DOCTYPE html>").count(),
        1,
        "dashboard must be a single self-contained document"
    );

    // Counter rates and latency quantiles evaluate over the full window.
    let runs = report.telemetry.counter("runs_completed").expect("counter") as f64;
    let rate = evaluate(&store, &Expr::parse("rate:runs_completed").expect("parse"));
    assert_eq!(rate.len(), 1);
    let makespan_s = report.makespan.as_secs_f64();
    assert!(
        (rate[0].value - runs / makespan_s).abs() / (runs / makespan_s) < 0.05,
        "rate over the stored window must approximate completions/makespan: \
         {} vs {}",
        rate[0].value,
        runs / makespan_s
    );
    let p99 = evaluate(&store, &Expr::parse("p99{client=\"0\"}").expect("parse"));
    assert_eq!(p99.len(), 1);
    assert!(p99[0].value > 0.0);
}
