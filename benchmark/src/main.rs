//! The benchmark's command line.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out FILE]
//! ```
//!
//! Prints one `workload metric value unit` line per metric, then a JSON
//! summary as the last line of standard output. Exits 1 when a
//! correctness check fails and 2 on a usage error.

use microjson::Value;
use olympian_benchmark::calib;
use olympian_benchmark::measure::{end_to_end, per_layer, Pass};
use olympian_benchmark::workload::{Workload, WORKLOADS};
use std::process::ExitCode;
use std::time::Duration;

/// Measuring time per workload when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`, so a run with or without the flag
/// measures the same.
const DEFAULT_SECONDS: u64 = 20;

const USAGE: &str = "usage: olympian-benchmark [--workload NAME] [--seed N] [--seconds N] \
                     [--trace 0|1] [--smoke] [--out FILE]";

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let w = Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?;
                args.workloads = vec![w];
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("--out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The `--out` document for one pass: metrics, samples, digest, checks.
fn detail(p: &Pass, seed: u64) -> Value {
    let metrics = p
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Object(vec![
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::str(m.unit)),
                    ("note".into(), Value::str(m.note.clone())),
                ]),
            )
        })
        .collect();
    let samples = p
        .samples
        .iter()
        .map(|(k, xs)| {
            (
                k.to_string(),
                Value::Array(xs.iter().map(|&x| Value::Float(x)).collect()),
            )
        })
        .collect();
    Value::Object(vec![
        ("workload".into(), Value::str(p.workload.name())),
        ("seed".into(), Value::UInt(seed)),
        ("digest".into(), Value::str(format!("{:016x}", p.digest))),
        ("repetitions".into(), Value::UInt(p.reps as u64)),
        ("metrics".into(), Value::Object(metrics)),
        ("samples".into(), Value::Object(samples)),
        (
            "failures".into(),
            Value::Array(p.failures.iter().map(|f| Value::str(f.clone())).collect()),
        ),
    ])
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One worker thread: the numbers measure the program, not the OS
    // scheduler. Set before any simulator code reads it.
    std::env::set_var(simpar::JOBS_ENV, "1");
    calib::keep_heap();
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0 } else { DEFAULT_SECONDS });
    let budget = Duration::from_secs(seconds);
    let single = args.workloads.len() == 1;
    let mut passes = Vec::new();
    for &w in &args.workloads {
        let pass = if args.trace {
            per_layer(w, args.seed, args.smoke, budget)
        } else {
            end_to_end(w, args.seed, args.smoke, budget)
        };
        for m in &pass.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!(" ({})", m.note)
            };
            println!("{} {} {} {}{note}", w.name(), m.name, m.value, m.unit);
        }
        println!(
            "{} digest {:016x} over {} repetitions",
            w.name(),
            pass.digest,
            pass.reps
        );
        for f in &pass.failures {
            println!("FAIL {f}");
        }
        passes.push(pass);
    }

    let correct = passes.iter().all(|p| p.failures.is_empty());
    if let Some(path) = &args.out {
        let doc = Value::Array(passes.iter().map(|p| detail(p, args.seed)).collect());
        if let Err(e) = std::fs::write(path, doc.to_string()) {
            eprintln!("--out {path}: {e}");
            return ExitCode::from(2);
        }
    }
    let metrics = passes
        .iter()
        .flat_map(|p| {
            p.metrics.iter().map(move |m| {
                let key = if single {
                    m.name.clone()
                } else {
                    format!("{}.{}", p.workload.name(), m.name)
                };
                let v = Value::Object(vec![
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::str(m.unit)),
                ]);
                (key, v)
            })
        })
        .collect();
    let summary = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        (
            "attempted".into(),
            Value::UInt(passes.iter().map(|p| p.attempted).sum()),
        ),
        (
            "failed".into(),
            Value::UInt(passes.iter().map(|p| p.failed).sum()),
        ),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{summary}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
