//! A torn-down session allocates nothing of its own. A run that misses its
//! deadline cancels its queued kernels by context on the device, returns
//! its gang and job slot, and ends its session through the same exit as a
//! finished one, so no list of its kernels is built. Forty sessions torn
//! down with kernels still queued therefore cost no more allocations than
//! the same forty run to completion. Measured: 228 torn down against 255
//! completed. When a teardown collected its run's queued kernels into a
//! `Vec` and a `HashSet`, the same runs made 308 against 257.

mod counting_alloc;

use counting_alloc::allocs_during;
use serving::{run_experiment, ClientOutcome, ClientSpec, EngineConfig, FifoScheduler, RunReport};
use simtime::SimDuration;

/// Sessions in each run, all starting at time zero.
const SESSIONS: usize = 40;

/// One FIFO run of [`SESSIONS`] one-batch `mini-small` sessions, and the
/// allocations it made, set-up excluded.
fn run(deadline: Option<SimDuration>) -> (RunReport, u64) {
    let spec = ClientSpec::new(models::mini::small(4), 1);
    let spec = match deadline {
        Some(d) => spec.with_run_deadline(d),
        None => spec,
    };
    let (cfg, clients) = (EngineConfig::default(), vec![spec; SESSIONS]);
    let mut report = None;
    let allocs = allocs_during(|| {
        report = Some(run_experiment(&cfg, clients, &mut FifoScheduler::new()));
    });
    (report.expect("the run returned"), allocs)
}

#[test]
fn torn_down_sessions_allocate_no_more_than_finished_ones() {
    let (finished, completed) = run(None);
    assert!(finished.all_finished(), "a session without a deadline did not finish");
    // Each run has about 1.6 ms of GPU work and all forty share one
    // device, so a 1 ms deadline tears every run down mid-way.
    let (torn, torn_down) = run(Some(SimDuration::from_millis(1)));
    for c in &torn.clients {
        assert!(
            matches!(c.outcome, ClientOutcome::DeadlineExceeded(_)),
            "client {:?} ended {:?}",
            c.client,
            c.outcome
        );
    }
    assert!(torn.kernel_count < finished.kernel_count, "no queued kernel was cancelled");
    assert!(
        torn_down <= completed,
        "{SESSIONS} torn-down sessions took {torn_down} allocations, {completed} when they finish"
    );
}
