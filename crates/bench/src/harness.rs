//! A minimal, dependency-free wall-clock measurement harness, used by
//! `olympctl bench --shards` to time the sharded runner.
//!
//! The workspace builds hermetically (no registry access), so it cannot use
//! an external harness. This module provides the small slice the repo
//! needs: warm up, auto-calibrate an iteration count to a target sample
//! duration, take several samples and report the median — robust against
//! one-off scheduling noise.

use std::time::{Duration, Instant};

/// Samples collected per measurement; the median is reported.
const SAMPLES: usize = 7;

/// Target wall-clock per sample. Short enough that a measurement takes
/// about half a second, long enough to amortize timer quantization.
const TARGET_SAMPLE: Duration = Duration::from_millis(60);

/// One benchmark result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name.
    pub name: String,
    /// Iterations per sample after calibration.
    pub iters: u64,
    /// Median nanoseconds per iteration across samples.
    pub ns_per_iter: f64,
}

impl Measurement {
    /// Iterations per second implied by the median sample.
    pub fn per_second(&self) -> f64 {
        if self.ns_per_iter > 0.0 {
            1e9 / self.ns_per_iter
        } else {
            f64::INFINITY
        }
    }

    /// A single human-readable result line.
    pub fn report(&self) -> String {
        format!(
            "{:<40} {:>14} ns/iter  ({:>12} iters/s, {} iters/sample)",
            self.name,
            format_scaled(self.ns_per_iter),
            format_scaled(self.per_second()),
            self.iters
        )
    }
}

fn format_scaled(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.2}k", x / 1e3)
    } else {
        format!("{x:.1}")
    }
}

/// Measures `f`, returning the median time per call.
///
/// The closure runs `iters` times per sample; `iters` is calibrated so one
/// sample lasts roughly [`TARGET_SAMPLE`]. Use `std::hint::black_box` inside
/// `f` on inputs/outputs the optimizer might otherwise delete.
pub fn measure<R, F: FnMut() -> R>(name: &str, mut f: F) -> Measurement {
    // Calibration: time single calls until the estimate stabilizes.
    let mut one = Duration::ZERO;
    let cal_start = Instant::now();
    let mut cal_runs = 0u32;
    while cal_start.elapsed() < Duration::from_millis(20) || cal_runs < 3 {
        let t = Instant::now();
        std::hint::black_box(f());
        one = t.elapsed().max(Duration::from_nanos(1));
        cal_runs += 1;
        if cal_runs >= 1_000 {
            break;
        }
    }
    let iters = (TARGET_SAMPLE.as_nanos() / one.as_nanos()).clamp(1, 50_000_000) as u64;

    let mut samples: Vec<f64> = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        samples.push(t.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    Measurement {
        name: name.to_string(),
        iters,
        ns_per_iter: samples[samples.len() / 2],
    }
}

/// Measures `f` and prints the result line; returns the measurement so
/// callers can derive rates from it.
pub fn run<R, F: FnMut() -> R>(name: &str, f: F) -> Measurement {
    let m = measure(name, f);
    println!("{}", m.report());
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let m = measure("noop_loop", || std::hint::black_box(3u64 * 7));
        assert!(m.ns_per_iter > 0.0);
        assert!(m.iters >= 1);
        assert!(m.per_second() > 0.0);
    }

    #[test]
    fn report_contains_name() {
        let m = Measurement {
            name: "x".into(),
            iters: 10,
            ns_per_iter: 1234.5,
        };
        assert!(m.report().contains('x'));
        assert!(m.report().contains("1.23k"));
    }
}
