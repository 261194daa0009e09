//! `olympctl` — a small operator CLI over the Olympian stack.
//!
//! `USAGE` is the synopsis of every command and flag; `olympctl` prints it
//! on any invocation it cannot parse. Every command also takes `--jobs N`,
//! and rejects a flag it does not read, listing the ones it does.
//!
//! `models` lists the model zoo; `inspect`, `profile` and `curve` print one
//! model's graph statistics (`--dot` also writes the graph), offline
//! profile and Overhead-Q curve; `run` serves one model to a set of clients
//! under a scheduling policy.
//!
//! `trace`, `metrics`, `blame` and `top` replay a named run of the catalog
//! the figures share (`bench::runs::CATALOG`: `smoke`, `drifted`,
//! `timeline`, `fig11`):
//!
//! * `trace` captures its trace (sampled by default) and writes Chrome
//!   trace-event JSON loadable in Perfetto (<https://ui.perfetto.dev>) or
//!   `chrome://tracing`.
//! * `metrics` turns live telemetry on at the given virtual-time snapshot
//!   cadence and writes the JSON-lines time series; `--prom` also writes
//!   the final registry state as Prometheus text exposition, and
//!   `--store` files the run in a `tsdb` catalog directory.
//! * `blame` prints the run's latency attribution: the per-phase
//!   decomposition of every request (the phases tile each span exactly),
//!   the critical path of the makespan, and — with `--vs` — a p99 blame
//!   diff against a baseline run. `--out` writes the machine-readable
//!   `blame/v1` JSON document; `--trace` writes Chrome trace-event JSON
//!   with the phase slices and the highlighted critical path on their own
//!   process.
//! * `top` replays the run as a live-refreshing ASCII dashboard: the run
//!   executes once (virtual time), then its time-series store is played
//!   back frame by frame — per-series sparklines growing toward each
//!   snapshot boundary, with the alert feed underneath.
//!
//! `chaos`, `lifecycle`, `control` and `fleet` print one scenario of the
//! `chaos`, `lifecycle`, `closedloop` and `fleet` reports, rendered by the
//! code that renders `results/<report>.txt`, then write its claims to
//! stderr, one `claim <name> held|BROKEN: …` line each, and exit 1 if one
//! broke:
//!
//! * `chaos` replays a fault-injection scenario (see
//!   `bench::figs::chaos::scenarios`) on both schedulers, with the full
//!   recovery stack on, against the fault-free twins; `drift` also runs
//!   the control plane's ladder axis.
//! * `lifecycle` runs `churn` (memory-budgeted eviction and reload of
//!   versioned models) or `canary` (a version 2 rolled out both healthy,
//!   promoted, and regressed, rolled back).
//! * `control` runs `drifted`: the regressed-device incident open-loop
//!   (telemetry only) and closed-loop (deadline-aware hand-off, laxity
//!   cancellation, in-run recalibration and the degradation ladder).
//! * `fleet` runs `zipf` or `steady`: the same Zipf-skewed arrival trace
//!   through static hash placement and through cost-aware routing plus
//!   the min-cost-flow reconfiguration loop.
//!
//! `query` evaluates a `tsdb` expression against runs stored in the
//! catalog directory (`metrics --store <dir>` or `import-bench` fill
//! it): `p99{client=*}` for nearest-rank latency quantiles,
//! `rate:counter` for event rates, any metric name for its latest value.
//! `--vs <run>` joins a baseline run into a delta report — regression
//! checks over stored history alone, no re-simulation. `--dash` writes
//! the self-contained HTML dashboard (per-series SVG sparklines,
//! heatmaps, alert markers and — with `--vs` — the delta table).
//!
//! `import-bench` stores the benchmark's `--out` document (see
//! `benchmark/README.md`) in the catalog, one series per metric and
//! workload, so perf baselines are queryable: `olympctl query
//! 'wall_s{workload=*}' --run seed --vs seed`.

use bench::runs;
use olympian::{
    DeadlineMode, Lottery, MultiGpuScheduler, OlympianScheduler, Policy, Priority, Profiler,
    ProfileStore, RoundRobin, WeightedFair,
};
use serving::{run_experiment, ClientSpec, EngineConfig, FifoScheduler, TraceConfig};
use simtime::SimDuration;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

/// Every command, whether it takes a positional argument (a run,
/// scenario, query expression or file) before its flags, and the flags it
/// reads besides `--jobs`.
const COMMANDS: &[(&str, bool, &[&str])] = &[
    ("models", false, &[]),
    ("inspect", false, &["model", "batch", "dot"]),
    ("profile", false, &["model", "batch"]),
    ("curve", false, &["model", "batch", "tolerance"]),
    ("run", false, &["model", "batch", "clients", "batches", "policy", "quantum-us", "gpus",
        "seed", "deadline-ms", "trace"]),
    ("trace", true, &["out", "mode"]),
    ("metrics", true, &["interval-us", "out", "prom", "store"]),
    ("blame", true, &["vs", "out", "trace"]),
    ("top", true, &["interval-us", "fps", "rows"]),
    ("chaos", true, &[]),
    ("lifecycle", true, &[]),
    ("control", true, &["policy", "out"]),
    ("fleet", true, &["out"]),
    ("query", true, &["dir", "run", "vs", "dash"]),
    ("import-bench", true, &["dir", "as"]),
];

/// One entry per command of `COMMANDS`, in its order, naming its
/// positional argument and every flag it reads; continuation lines are
/// indented deeper than the entry they continue.
const USAGE: &str = "usage:
  olympctl models
  olympctl inspect --model <name> --batch <n> [--dot <graph.dot>]
  olympctl profile --model <name> --batch <n>
  olympctl curve --model <name> --batch <n> [--tolerance <frac>]
  olympctl run --model <name> --batch <n> --clients <n> [--batches <n>]
               --policy <fair|weighted|priority|lottery|baseline>
               [--quantum-us <n>] [--gpus <n>] [--seed <n>]
               [--deadline-ms <n>] [--trace <n>]
  olympctl trace <run> [--out <trace.json>] [--mode sampled|full]
  olympctl metrics <run> [--interval-us <n>] [--out <telemetry.jsonl>]
                   [--prom <metrics.prom>] [--store <dir>]
  olympctl blame <run> [--vs <run>] [--out <blame.json>] [--trace <phases.json>]
  olympctl top <run> [--interval-us <n>] [--fps <n>] [--rows <n>]
  olympctl chaos <scenario>
  olympctl lifecycle <scenario>
  olympctl control <scenario> [--policy <edf|laxity>] [--out <report.txt>]
  olympctl fleet <scenario> [--out <report.txt>]
  olympctl query <expr> [--dir <runs>] [--run <a>] [--vs <b>] [--dash <out.html>]
  olympctl import-bench <bench.json> [--dir <runs>] [--as <seed>]
  any command also accepts --jobs <n> (worker threads for parallel
  sweeps; default: all cores, or OLYMPIAN_JOBS)";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

/// Parses `--key value` pairs, rejecting any key `cmd` does not read and
/// any key given twice.
fn parse_flags(
    cmd: &str,
    accepted: &[&str],
    args: &[String],
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {:?}", args[i]))?;
        if key != "jobs" && !accepted.contains(&key) {
            let known: Vec<String> =
                accepted.iter().chain(&["jobs"]).map(|f| format!("--{f}")).collect();
            return Err(format!(
                "{cmd} does not take --{key}; it accepts {}",
                known.join(", ")
            ));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        if flags.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("--{key} given twice"));
        }
        i += 2;
    }
    Ok(flags)
}

fn lookup_model(name: &str) -> Option<models::ModelKind> {
    models::ModelKind::ALL.into_iter().find(|k| k.name() == name)
}

fn get<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn get_num<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T)
    -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse {v:?}")),
    }
}

/// Writes `contents` to `path`; the error names the path.
fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

fn cmd_models() -> Result<(), String> {
    println!("{:<14} {:>9} {:>7} {:>10} {:>12} {:>12}",
        "model", "ref batch", "nodes", "gpu nodes", "weights (MB)", "runtime (s)");
    for kind in models::ModelKind::ALL {
        let cal = models::spec(kind);
        println!(
            "{:<14} {:>9} {:>7} {:>10} {:>12} {:>12.2}",
            kind.name(),
            cal.reference_batch,
            cal.total_nodes,
            cal.gpu_nodes,
            cal.weights_mb,
            cal.runtime_s
        );
    }
    Ok(())
}

fn cmd_inspect(flags: &HashMap<String, String>) -> Result<(), String> {
    let name = get(flags, "model")?;
    let kind = lookup_model(name).ok_or_else(|| format!("unknown model {name:?}"))?;
    let batch: u64 = get(flags, "batch")?.parse().map_err(|_| "--batch: not a number")?;
    let model = models::load(kind, batch).map_err(|e| e.to_string())?;
    let g = model.graph();
    println!("model {} @ batch {batch}", model.name());
    println!("  nodes          : {} ({} gpu / {} cpu)", g.node_count(), g.gpu_node_count(), g.cpu_node_count());
    println!("  critical path  : {} nodes", g.critical_path_len());
    println!("  gpu busy (ex.) : {}", g.total_gpu_time());
    println!("  cpu work       : {}", g.total_cpu_time());
    println!("  memory         : {} MB weights + {} MB activations",
        model.weights_bytes() / (1 << 20), model.activation_bytes() / (1 << 20));
    println!("  op histogram (by GPU time):");
    for (op, count, total) in g.op_histogram() {
        println!("    {op:<15} x{count:<6} {total}");
    }
    if let Some(path) = flags.get("dot") {
        write_file(path, g.to_dot(model.name()))?;
        println!("wrote DOT graph to {path}");
    }
    Ok(())
}

fn cmd_profile(flags: &HashMap<String, String>) -> Result<(), String> {
    let name = get(flags, "model")?;
    let kind = lookup_model(name).ok_or_else(|| format!("unknown model {name:?}"))?;
    let batch: u64 = get(flags, "batch")?.parse().map_err(|_| "--batch: not a number")?;
    let model = models::load(kind, batch).map_err(|e| e.to_string())?;
    let cfg = EngineConfig::default();
    let profile = Profiler::new(&cfg).profile(&model);
    println!("model         : {}", profile.model);
    println!("batch         : {}", profile.batch);
    println!("total cost C  : {} units", profile.total_cost);
    println!("GPU duration D: {}", profile.gpu_duration);
    println!("rate C/D      : {:.3} units/ns", profile.rate());
    println!("T at Q=1.2ms  : {} units", profile.threshold(SimDuration::from_micros(1200)));
    Ok(())
}

fn cmd_curve(flags: &HashMap<String, String>) -> Result<(), String> {
    let name = get(flags, "model")?;
    let kind = lookup_model(name).ok_or_else(|| format!("unknown model {name:?}"))?;
    let batch: u64 = get(flags, "batch")?.parse().map_err(|_| "--batch: not a number")?;
    let tolerance: f64 = get_num(flags, "tolerance", 0.025)?;
    if tolerance.is_nan() || tolerance < 0.0 {
        return Err("--tolerance: must be a non-negative number".into());
    }
    let model = models::load(kind, batch).map_err(|e| e.to_string())?;
    let cfg = EngineConfig::default();
    let curve = Profiler::new(&cfg).overhead_q_curve(&model, &bench::standard_q_grid());
    println!("Overhead-Q curve for {name} @ batch {batch}:");
    for (q, ov) in &curve.points {
        println!("  Q = {:>8}  overhead = {:>6.2}%", q.to_string(), ov * 100.0);
    }
    match curve.q_at_tolerance(tolerance) {
        Some(q) => println!("Q for {:.2}% tolerance: {}", tolerance * 100.0, q),
        None => println!("no measured Q meets {:.2}% tolerance", tolerance * 100.0),
    }
    Ok(())
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<(), String> {
    let name = get(flags, "model")?;
    let kind = lookup_model(name).ok_or_else(|| format!("unknown model {name:?}"))?;
    let batch: u64 = get(flags, "batch")?.parse().map_err(|_| "--batch: not a number")?;
    let clients: usize = get(flags, "clients")?.parse().map_err(|_| "--clients: not a number")?;
    let batches: u32 = get_num(flags, "batches", 10)?;
    let quantum_us: u64 = get_num(flags, "quantum-us", 1200)?;
    let gpus: usize = get_num(flags, "gpus", 1)?;
    let seed: u64 = get_num(flags, "seed", 1)?;
    let deadline_ms: u64 = get_num(flags, "deadline-ms", 0)?;
    let trace_lines: usize = get_num(flags, "trace", 0)?;
    let policy = get(flags, "policy")?;
    if gpus == 0 {
        return Err("--gpus: must be positive".into());
    }
    if quantum_us == 0 {
        return Err("--quantum-us: must be positive".into());
    }
    if batches == 0 {
        return Err("--batches: must be positive".into());
    }

    let model = models::load(kind, batch).map_err(|e| e.to_string())?;
    let mut cfg = EngineConfig::default().with_device_count(gpus).with_seed(seed);
    if trace_lines > 0 {
        cfg.trace = TraceConfig::sampled();
    }
    let specs: Vec<ClientSpec> = (0..clients)
        .map(|i| {
            let mut spec = ClientSpec::new(model.clone(), batches)
                .with_weight(if i < clients / 2 { 2 } else { 1 })
                .with_priority((clients - i) as u32);
            if deadline_ms > 0 {
                spec = spec.with_run_deadline(SimDuration::from_millis(deadline_ms));
            }
            spec
        })
        .collect();

    let q = SimDuration::from_micros(quantum_us);
    let report = if policy == "baseline" {
        run_experiment(&cfg, specs, &mut FifoScheduler::new())
    } else {
        let mut store = ProfileStore::new();
        store.insert(Profiler::new(&cfg).profile(&model));
        let store = Arc::new(store);
        let factory: Box<dyn Fn() -> Box<dyn Policy> + Send> = match policy {
            "fair" => Box::new(|| Box::new(RoundRobin::new())),
            "weighted" => Box::new(|| Box::new(WeightedFair::new())),
            "priority" => Box::new(|| Box::new(Priority::new())),
            "lottery" => Box::new(move || Box::new(Lottery::new(seed))),
            other => return Err(format!("unknown policy {other:?}")),
        };
        if gpus > 1 {
            let mut sched = MultiGpuScheduler::new(store, factory, q);
            run_experiment(&cfg, specs, &mut sched)
        } else {
            let mut sched = OlympianScheduler::new(store, factory(), q);
            run_experiment(&cfg, specs, &mut sched)
        }
    };
    print_report(&report);
    print_trace(&report, trace_lines);
    Ok(())
}

fn print_trace(report: &serving::RunReport, lines: usize) {
    if lines > 0 {
        println!("--- trace (first {lines} events) ---");
        print!("{}", serving::trace::render_trace(&report.trace, lines));
    }
}

fn cmd_trace(experiment: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    let tc = match flags.get("mode").map(String::as_str).unwrap_or("sampled") {
        "sampled" => TraceConfig::sampled(),
        "full" => TraceConfig::full(),
        other => return Err(format!("--mode: expected sampled|full, got {other:?}")),
    };
    let out = flags.get("out").map(String::as_str).unwrap_or("trace.json");
    let report = runs::lookup(experiment)?(tc, None).report;
    write_file(out, report.chrome_trace_json())?;
    let cfg = EngineConfig::default();
    let stats =
        trace::TraceStats::from_trace(&report.trace, cfg.switch_latency + cfg.launch_overhead);
    println!("experiment     : {experiment}");
    println!("scheduler      : {}", report.scheduler_name);
    println!("makespan       : {:.3} s", report.makespan.as_secs_f64());
    println!(
        "events         : {} captured, {} dropped",
        report.trace.len(),
        report.trace.dropped
    );
    print_track_summary(&report.trace);
    println!("token switches : {}", stats.token_switches);
    if stats.quantum.count > 0 {
        println!(
            "quantum (us)   : mean {:.0}, p50 {:.0}, p90 {:.0} over {} quanta",
            stats.quantum.mean_us, stats.quantum.p50_us, stats.quantum.p90_us, stats.quantum.count
        );
    }
    if let Some(frac) = stats.overhead_fraction() {
        println!(
            "sched overhead : {:.0} us = {:.3}% of makespan",
            stats.scheduler_overhead_us.unwrap_or(0.0),
            frac * 100.0
        );
    }
    println!("wrote {out} — open it at https://ui.perfetto.dev or chrome://tracing");
    Ok(())
}

/// Per-track event counts: one line per client track (ascending id) plus
/// the ownerless scheduler track, so a truncated or lopsided capture is
/// visible before anyone opens the export in Perfetto.
fn print_track_summary(trace: &serving::trace::Trace) {
    let mut per_client: Vec<u64> = Vec::new();
    let mut scheduler = 0u64;
    for e in &trace.events {
        match e.kind.client() {
            Some(c) => {
                if per_client.len() <= c as usize {
                    per_client.resize(c as usize + 1, 0);
                }
                per_client[c as usize] += 1;
            }
            None => scheduler += 1,
        }
    }
    println!("track summary  :");
    for (c, n) in per_client.iter().enumerate() {
        println!("  {:<13}: {n} events", format!("client{c}"));
    }
    println!("  {:<13}: {scheduler} events", "scheduler");
}

fn cmd_blame(experiment: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    use bench::figs::blame::attribute;
    use serving::attrib;
    let target = runs::lookup(experiment)?;
    let base = flags
        .get("vs")
        .map(|b| runs::lookup(b).map(|run| (b.as_str(), run)))
        .transpose()?;
    let (report, attr) = attribute(target);
    let cp = attrib::critical_path(&attr);
    let diffed = base.map(|(name, run)| (name, attrib::diff(&attr, &attribute(run).1)));
    let baseline = diffed.as_ref().map(|(n, d)| (*n, d));
    print!("{}", attrib::render_text(experiment, &attr, &cp, baseline));
    if let Some(out) = flags.get("out") {
        let doc = attrib::to_json(experiment, &attr, &cp, baseline);
        let mut text = String::new();
        doc.write(&mut text);
        write_file(out, text)?;
        println!("wrote {out}");
    }
    if let Some(path) = flags.get("trace") {
        let json = report.chrome_trace_json_with_phases(&attr, &cp);
        write_file(path, json)?;
        println!(
            "wrote {path} (phase slices + critical path on the \"phases\" \
             process) — open it at https://ui.perfetto.dev"
        );
    }
    Ok(())
}

fn cmd_metrics(experiment: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    let interval_us: u64 = get_num(flags, "interval-us", 100)?;
    if interval_us == 0 {
        return Err("--interval-us: must be positive".into());
    }
    let out = flags.get("out").map(String::as_str).unwrap_or("telemetry.jsonl");
    let interval = SimDuration::from_micros(interval_us);
    let run = runs::lookup(experiment)?;
    // A catalog the run cannot be stored into fails before the run is
    // simulated and any file is written.
    let catalog = match flags.get("store") {
        Some(dir) => {
            let catalog = serving::tsdb::RunCatalog::open(dir).map_err(|e| e.to_string())?;
            catalog.runs().map_err(|e| e.to_string())?;
            Some(catalog)
        }
        None => None,
    };
    let report = run(TraceConfig::sampled(), Some(interval)).report;
    write_file(out, report.telemetry_jsonl())?;
    if let Some(prom) = flags.get("prom") {
        write_file(prom, report.prometheus_text())?;
    }
    if let Some(catalog) = catalog {
        let store = report.tsdb();
        let path = catalog.store_run(experiment, &store).map_err(|e| e.to_string())?;
        println!(
            "stored run {experiment:?} ({} series, {} points) at {}",
            store.series_count(),
            store.total_points(),
            path.display()
        );
    }
    let t = &report.telemetry;
    println!("experiment     : {experiment}");
    println!("scheduler      : {}", report.scheduler_name);
    println!("makespan       : {:.3} s", report.makespan.as_secs_f64());
    println!(
        "snapshots      : {} (every {}, virtual time)",
        t.snapshots.len(),
        t.interval
    );
    for name in ["runs_completed", "token_switches", "slo_breaches"] {
        if let Some(v) = t.counter(name) {
            println!("{name:<15}: {v}");
        }
    }
    if let Some(q) = t.hist("quantum_us") {
        println!(
            "quantum (us)   : p50 {:.0}, p99 {:.0} over {} quanta",
            q.p50, q.p99, q.count
        );
    }
    let drift = t.alerts.iter().filter(|a| a.kind() == "drift").count();
    let burn = t.alerts.len() - drift;
    println!("alerts         : {} ({drift} drift, {burn} slo-burn)", t.alerts.len());
    println!("wrote {out}");
    if let Some(prom) = flags.get("prom") {
        println!("wrote {prom}");
    }
    Ok(())
}

fn cmd_query(expr_text: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    use serving::tsdb;
    let expr = tsdb::Expr::parse(expr_text)?;
    let dir = flags.get("dir").map(String::as_str).unwrap_or("runs");
    let catalog = tsdb::RunCatalog::open(dir).map_err(|e| e.to_string())?;
    let runs = catalog.runs().map_err(|e| e.to_string())?;
    if runs.is_empty() {
        return Err(format!(
            "no stored runs under {dir:?}; fill it with `olympctl metrics <experiment> \
             --store {dir}` or `olympctl import-bench <bench.json> --dir {dir}`"
        ));
    }
    let vs = flags.get("vs").map(String::as_str);
    let run = match flags.get("run") {
        Some(r) => r.clone(),
        None => catalog
            .latest(vs)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("no stored run other than the baseline under {dir:?}"))?,
    };
    let store = catalog.load_run(&run)?;
    let unit = expr.unit();
    // Quantiles over the run-latency stream evaluate in ns; print µs.
    let show = |v: f64| -> String {
        match unit {
            "us" => format!("{:.1} us", v / 1_000.0),
            "/s" => format!("{v:.0} /s"),
            _ => format!("{v}"),
        }
    };

    println!("expr           : {expr_text}");
    println!("catalog        : {dir} ({} runs)", runs.len());
    println!("run            : {run}");
    let base = match vs {
        Some(b) => {
            println!("baseline       : {b}");
            Some((b, catalog.load_run(b)?))
        }
        None => None,
    };

    match &base {
        None => {
            let rows = tsdb::evaluate(&store, &expr);
            if rows.is_empty() {
                return Err(format!("expression matched no series in run {run:?}"));
            }
            let w = rows.iter().map(|r| r.key.len()).max().unwrap_or(0);
            for r in &rows {
                println!("{:<w$} : {}", r.key, show(r.value));
            }
        }
        Some((bname, bstore)) => {
            let rows = tsdb::diff_rows(&store, bstore, &expr);
            if rows.is_empty() {
                return Err(format!(
                    "expression matched no series in {run:?} or {bname:?}"
                ));
            }
            let w = rows.iter().map(|r| r.key.len()).max().unwrap_or(0);
            let mut delta_sum = 0.0f64;
            let mut joined = 0usize;
            for r in &rows {
                let t = r.target.map_or("·".to_string(), show);
                let b = r.base.map_or("·".to_string(), show);
                match r.delta() {
                    Some(d) => {
                        delta_sum += d;
                        joined += 1;
                        let d_txt = match unit {
                            "us" => format!("{:+.1} us", d / 1_000.0),
                            _ => format!("{d:+}"),
                        };
                        println!("{:<w$} : {t} (baseline {b}, delta {d_txt})", r.key);
                    }
                    None => println!("{:<w$} : {t} (baseline {b})", r.key),
                }
            }
            if joined > 0 {
                let total = match unit {
                    "us" => format!("{:+.1} us", delta_sum / 1_000.0),
                    _ => format!("{delta_sum:+}"),
                };
                println!("total delta    : {total} over {joined} series");
            }
        }
    }

    if let Some(path) = flags.get("dash") {
        let html = tsdb::render_dashboard(
            &run,
            &store,
            base.as_ref().map(|(n, s)| (*n, s)),
        );
        write_file(path, html)?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_import_bench(path: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    use serving::tsdb;
    let name = flags.get("as").map(String::as_str).unwrap_or("seed");
    let dir = flags.get("dir").map(String::as_str).unwrap_or("runs");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = microjson::Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let store = tsdb::catalog::import_bench(&doc).map_err(|e| format!("{path}: {e}"))?;
    if store.series_count() == 0 {
        return Err(format!("{path}: no metrics to import"));
    }
    let catalog = tsdb::RunCatalog::open(dir).map_err(|e| e.to_string())?;
    let stored = catalog.store_run(name, &store).map_err(|e| e.to_string())?;
    println!(
        "imported {path} as run {name:?}: {} series at {}",
        store.series_count(),
        stored.display()
    );
    let keys: Vec<String> =
        store.sorted_series().iter().take(4).map(|s| store.series_key(s)).collect();
    println!("sample series  : {}", keys.join(", "));
    Ok(())
}

fn cmd_top(experiment: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    use serving::tsdb;
    let interval_us: u64 = get_num(flags, "interval-us", 100)?;
    if interval_us == 0 {
        return Err("--interval-us: must be positive".into());
    }
    let fps: u64 = get_num(flags, "fps", 12)?;
    let rows: usize = get_num(flags, "rows", 20)?;
    let interval = SimDuration::from_micros(interval_us);
    let report = runs::lookup(experiment)?(TraceConfig::sampled(), Some(interval)).report;
    let store = report.tsdb();

    // Pre-extract per-series points once; frames then just slice by time.
    let series: Vec<(String, Vec<tsdb::Point>)> = store
        .sorted_series()
        .into_iter()
        .map(|s| (store.series_key(s), s.raw().copied().collect()))
        .take(rows)
        .collect();
    let boundaries: Vec<u64> =
        report.telemetry.snapshots.at().iter().map(|at| at.as_nanos()).collect();
    if boundaries.is_empty() {
        return Err("the run produced no telemetry snapshots".into());
    }
    // Cap the replay at ~120 frames however long the run was.
    let stride = boundaries.len().div_ceil(120).max(1);
    const WIDTH: usize = 48;
    let key_w = series.iter().map(|(k, _)| k.len()).max().unwrap_or(0).min(44);
    for (i, &t) in boundaries.iter().enumerate() {
        let last_frame = i + 1 == boundaries.len();
        if i % stride != 0 && !last_frame {
            continue;
        }
        // Clear screen + home; plain ANSI so any terminal replays it.
        print!("\x1b[2J\x1b[H");
        println!(
            "olympctl top — {experiment} @ {:.3} ms (snapshot {}/{})",
            t as f64 / 1e6,
            i + 1,
            boundaries.len()
        );
        for (key, pts) in &series {
            let upto = pts.partition_point(|p| p.at_ns <= t);
            let visible = &pts[..upto];
            let window = &visible[visible.len().saturating_sub(WIDTH)..];
            let values: Vec<f64> = window.iter().map(|p| p.value).collect();
            let spark = metrics::table::render_sparkline(&values);
            let last = window.last().map_or(String::from("·"), |p| format!("{}", p.value));
            println!("{key:<key_w$} |{spark:<WIDTH$}| {last}");
        }
        let fired: Vec<&tsdb::AlertMark> =
            store.alerts().iter().filter(|a| a.at_ns <= t).collect();
        println!("alerts         : {}", fired.len());
        for a in fired.iter().rev().take(3) {
            println!("  [{:.3} ms] {} — {}", a.at_ns as f64 / 1e6, a.kind, a.detail);
        }
        if !last_frame && fps > 0 {
            std::thread::sleep(std::time::Duration::from_millis(1000 / fps.max(1)));
        }
    }
    println!("\nreplay done — {} snapshots, {} alerts", boundaries.len(), store.alerts().len());
    Ok(())
}

/// Prints one scenario of a report (and writes it to `--out`), then its
/// claims to stderr; any broken claim is the command's error.
fn cmd_scenario(cmd: &str, name: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    use bench::figs::{chaos, closedloop, fleet, lifecycle};
    let fig = match cmd {
        "chaos" => chaos::scenario_figure(name),
        "lifecycle" => lifecycle::scenario_figure(name),
        "fleet" => fleet::scenario_figure(name),
        _ => {
            let mode = match flags.get("policy").map(String::as_str).unwrap_or("edf") {
                "edf" => DeadlineMode::Edf,
                "laxity" => DeadlineMode::LeastLaxity,
                other => return Err(format!("--policy: expected edf|laxity, got {other:?}")),
            };
            closedloop::scenario_figure(name, mode)
        }
    }?;
    print!("{}", fig.text);
    if let Some(path) = flags.get("out") {
        write_file(path, &fig.text)?;
        println!("wrote {path}");
    }
    for c in &fig.claims {
        eprintln!("{c}");
    }
    bench::figs::evaluate(&fig.claims)
}

fn print_report(report: &serving::RunReport) {
    println!("scheduler      : {}", report.scheduler_name);
    println!("makespan       : {:.3} s", report.makespan.as_secs_f64());
    println!("utilization    : {:.1}%", report.utilization * 100.0);
    println!("kernels        : {}", report.kernel_count);
    for c in &report.clients {
        match &c.outcome {
            serving::ClientOutcome::Finished(t) => {
                println!("  client {:>3}: finished {:.3} s (GPU {:.3} s)",
                    c.client.0, t.as_secs_f64(), c.total_gpu.as_secs_f64());
            }
            other => println!("  client {:>3}: {other}", c.client.0),
        }
    }
    println!("token switches : {}", report.switch_count);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let Some(&(_, takes_arg, accepted)) = COMMANDS.iter().find(|(name, ..)| name == cmd) else {
        return usage();
    };
    let (arg, flag_args) = if takes_arg {
        match args.get(1) {
            Some(a) if !a.starts_with("--") => (a.as_str(), &args[2..]),
            _ => {
                eprintln!("error: {cmd} needs an argument");
                return usage();
            }
        }
    } else {
        ("", &args[1..])
    };
    let flags = match parse_flags(cmd, accepted, flag_args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if let Some(j) = flags.get("jobs") {
        match j.parse::<usize>() {
            // Parallel sweeps (e.g. the Overhead-Q grid) size themselves via
            // `simpar::max_jobs`, which reads this variable.
            Ok(n) if n > 0 => std::env::set_var(simpar::JOBS_ENV, n.to_string()),
            _ => {
                eprintln!("error: --jobs: expected a positive integer, got {j:?}");
                return usage();
            }
        }
    }
    let result = match cmd.as_str() {
        "models" => cmd_models(),
        "inspect" => cmd_inspect(&flags),
        "profile" => cmd_profile(&flags),
        "curve" => cmd_curve(&flags),
        "run" => cmd_run(&flags),
        "trace" => cmd_trace(arg, &flags),
        "metrics" => cmd_metrics(arg, &flags),
        "blame" => cmd_blame(arg, &flags),
        "top" => cmd_top(arg, &flags),
        "query" => cmd_query(arg, &flags),
        "import-bench" => cmd_import_bench(arg, &flags),
        _ => cmd_scenario(cmd, arg, &flags),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{COMMANDS, USAGE};

    /// Each command's usage entry names its positional argument and
    /// exactly the flags `COMMANDS` lets it read, as whole words: `blame`
    /// and `run` both take a `--trace`.
    #[test]
    fn usage_names_every_command_and_flag() {
        // An entry is an `olympctl <cmd>` line plus the deeper indented
        // lines that continue it.
        let mut entries: Vec<String> = Vec::new();
        for line in USAGE.lines().skip(1) {
            match line.strip_prefix("  olympctl ") {
                Some(entry) => entries.push(entry.to_string()),
                None if line.starts_with("   ") => {
                    entries.last_mut().expect("an entry").push_str(line)
                }
                None => {}
            }
        }
        assert_eq!(entries.len(), COMMANDS.len(), "{entries:#?}");
        for (entry, &(cmd, takes_arg, accepted)) in entries.iter().zip(COMMANDS) {
            let mut words = entry.split([' ', '[', ']']).filter(|w| !w.is_empty());
            assert_eq!(words.next(), Some(cmd), "{entry}");
            let flags: Vec<&str> = words.clone().filter_map(|w| w.strip_prefix("--")).collect();
            assert_eq!(flags, accepted, "{cmd}: {entry}");
            let positional = words.next().is_some_and(|w| w.starts_with('<'));
            assert_eq!(positional, takes_arg, "{cmd}: {entry}");
        }
    }
}
