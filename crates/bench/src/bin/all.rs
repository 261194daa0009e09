//! Runs the table/figure experiments and saves each report under
//! `results/`. With no names this is the one-command reproduction of the
//! paper's entire evaluation section; `all fig08 fleet` runs just those
//! entries of `bench::figs::registry`.
//!
//! Experiments are independent deterministic simulations, so they run in
//! parallel (`--jobs N` or `OLYMPIAN_JOBS=N`, default: all cores) and the
//! reports are printed and saved in registry order — the output is
//! byte-identical to a serial run. Wall-clock diagnostics go to stderr.

use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!("usage: all [--jobs N] [NAME...]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut jobs = simpar::max_jobs();
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => jobs = n,
                _ => return usage(),
            }
        } else if arg.starts_with('-') {
            return usage();
        } else {
            names.push(arg);
        }
    }
    let experiments = match bench::figs::select(&names) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("all: {e}");
            return usage();
        }
    };
    // Propagate the cap to the nested replication/sweep loops, which size
    // themselves via `simpar::max_jobs`.
    std::env::set_var(simpar::JOBS_ENV, jobs.to_string());

    let t0 = Instant::now();
    let results: Vec<(String, Duration)> = simpar::par_map_jobs(jobs, &experiments, |_, &(_, f)| {
        let t = Instant::now();
        (f(), t.elapsed())
    });
    let mut serial_equivalent = Duration::ZERO;
    for ((name, _), (out, dt)) in experiments.iter().zip(&results) {
        print!("{out}");
        let path = bench::save_result(&format!("{name}.txt"), out);
        eprintln!("({name} done in {dt:.1?}, saved to {})\n", path.display());
        serial_equivalent += *dt;
    }
    let elapsed = t0.elapsed();
    eprintln!(
        "all: {} experiments in {:.1?} with {} jobs (serial-equivalent {:.1?}, speedup {:.2}x)",
        experiments.len(),
        elapsed,
        jobs,
        serial_equivalent,
        serial_equivalent.as_secs_f64() / elapsed.as_secs_f64().max(1e-9),
    );
    ExitCode::SUCCESS
}
