//! Determinism regression tests for the parallel experiment harness.
//!
//! The harness rule (see `simpar`): parallel output must be byte-identical
//! to serial output. These tests run representative workloads — replicated
//! simulations with forked seeds and an Overhead-Q grid sweep — once with
//! one worker and once with many, and compare the *formatted* results
//! byte for byte. They also pin same-seed repeatability end to end.

use olympian::Profiler;
use serving::{run_experiment, ClientSpec, EngineConfig, FifoScheduler};

/// Formats a run report to the digits the experiment reports print, so a
/// byte comparison is as strict as the real output.
fn render(report: &serving::RunReport) -> String {
    format!(
        "makespan={:.9}s events={} kernels={} switches={} finishes={:?}",
        report.makespan.as_secs_f64(),
        report.event_count,
        report.kernel_count,
        report.switch_count,
        report.finish_times_secs(),
    )
}

/// One replication: seed-forked, shares nothing mutable — the closure shape
/// every parallel loop in the harness uses.
fn replication(seed: u64) -> String {
    let cfg = EngineConfig::default().with_seed(seed * 7919 + 13);
    let clients = vec![ClientSpec::new(models::mini::small(4), 2); 3];
    let report = run_experiment(&cfg, clients, &mut FifoScheduler::new());
    render(&report)
}

#[test]
fn parallel_replications_match_serial_byte_for_byte() {
    let seeds: Vec<u64> = (0..16).collect();
    let serial = simpar::par_map_jobs(1, &seeds, |_, &s| replication(s));
    let parallel = simpar::par_map_jobs(8, &seeds, |_, &s| replication(s));
    assert_eq!(serial, parallel);
}

#[test]
fn same_seed_twice_is_identical() {
    assert_eq!(replication(42), replication(42));
    let a: Vec<String> = (0..4).map(replication).collect();
    let b: Vec<String> = (0..4).map(replication).collect();
    assert_eq!(a, b);
}

#[test]
fn q_grid_sweep_serial_matches_parallel() {
    // `overhead_q_curve` sweeps its grid with `simpar::par_map`, and
    // `Profiler::q_at_tolerance` races it in waves of `simpar::max_jobs()`;
    // both read OLYMPIAN_JOBS, so drive it through the env var. Runs in one
    // process with no other test touching the variable concurrently
    // (integration tests in this file share a binary but env mutation is
    // confined to this test).
    let model = models::mini::small(4);
    let cfg = EngineConfig::default();
    let profiler = Profiler::new(&cfg);
    let grid = bench::standard_q_grid();
    std::env::set_var(simpar::JOBS_ENV, "1");
    let serial = profiler.overhead_q_curve(&model, &grid);
    std::env::set_var(simpar::JOBS_ENV, "8");
    let parallel = profiler.overhead_q_curve(&model, &grid);
    assert_eq!(serial.model, parallel.model);
    assert_eq!(serial.points.len(), parallel.points.len());
    for (a, b) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "overhead must be bit-equal");
    }

    // The early-stopping race must give the full curve's answer at every
    // wave width: for a tolerance the first point meets, one interpolated
    // between the third and fourth points, and one no point meets.
    let ov = |i: usize| serial.points[i].1;
    let lowest = serial.points.iter().map(|&(_, o)| o).fold(f64::INFINITY, f64::min);
    assert!(ov(2) > ov(3) && lowest > 0.0, "curve shape: {:?}", serial.points);
    let (first, between, none) = (ov(0), (ov(2) + ov(3)) / 2.0, lowest / 2.0);
    assert_eq!(serial.q_at_tolerance(first), Some(grid[0]));
    let q = serial.q_at_tolerance(between).expect("interpolated");
    assert!(grid[2] < q && q < grid[3], "{q} not between {} and {}", grid[2], grid[3]);
    assert_eq!(serial.q_at_tolerance(none), None);
    for jobs in ["1", "3", "8"] {
        std::env::set_var(simpar::JOBS_ENV, jobs);
        for tol in [first, between, none] {
            assert_eq!(
                profiler.q_at_tolerance(&model, &grid, tol),
                serial.q_at_tolerance(tol),
                "tolerance {tol} at {jobs} jobs"
            );
        }
    }
    // `choose_q` falls back to the largest grid point when no Q qualifies.
    let clients = [ClientSpec::new(model, 1)];
    assert_eq!(bench::choose_q(&cfg, &clients, none), *grid.last().unwrap());
    std::env::remove_var(simpar::JOBS_ENV);
}
