//! Fleet sessions allocate nothing of their own. A completed run lands in
//! the engine's run-wide logs, a new device context takes a queue buffer
//! an emptied one gave back, lifecycle effects come from a pool, and the
//! reconfiguration tick refills one flow instance and solver. So an
//! open-loop fleet's allocations grow only with those buffers' doubling,
//! logarithmically in its arrivals. The ignored check runs the 48k-arrival
//! fleet once and bounds its allocations. Nor does a fleet copy its plan
//! per device: its managers share one deployment table.

mod counting_alloc;
mod zipf_fleet;

use counting_alloc::allocs_during;
use serving::cluster::Fleet;
use serving::{run_experiment, FifoScheduler, RunReport};
use zipf_fleet::zipf_fleet;

/// The allocations of one fleet-zipf run at `arrivals` arrivals, with
/// telemetry and the sampled trace on, set-up excluded.
fn run_allocs(arrivals: usize) -> u64 {
    let (cfg, clients) = zipf_fleet(arrivals, true);
    let mut report: Option<RunReport> = None;
    let allocs = allocs_during(|| {
        report = Some(run_experiment(&cfg, clients, &mut FifoScheduler::new()));
    });
    let report = report.expect("the run returned");
    assert!(report.all_finished(), "a fleet session did not finish");
    assert_eq!(report.clients.len(), arrivals);
    allocs
}

/// Quadrupling the arrivals adds only buffer growth. Measured: 863
/// allocations at 500 arrivals and 972 at 2,000, 109 more. They are the
/// doublings of about 50 run-wide buffers (the run log, telemetry's
/// series, the devices' context tables), twice each, and a few new
/// high-water marks: more runs in flight at once, more clients waiting on
/// one model's load. The bound leaves room for a few more. One allocation
/// per session would add 1,500; the per-session buffers this replaced
/// added 13,349.
#[test]
fn fleet_sessions_add_only_buffer_growth() {
    let small = run_allocs(500);
    let large = run_allocs(2_000);
    let added = large.saturating_sub(small);
    assert!(
        added <= 160,
        "1,500 more sessions took {added} more allocations ({small}, then {large})"
    );
}

/// The 48k-arrival fleet makes as many allocations as a few thousand
/// arrivals do: measured, 1,120, against 426,640 with a buffer per
/// session.
#[test]
#[ignore = "scale check: a 48k-arrival fleet; run with `cargo test --release -- --ignored`"]
fn fleet_of_48k_arrivals_allocates_like_a_few_thousand() {
    const ARRIVALS: usize = 48_000;
    let allocs = run_allocs(ARRIVALS);
    assert!(allocs <= 2_500, "{allocs} allocations for {ARRIVALS} arrivals");
}

/// The fleet builds one copy of its plan, whatever its device count: each
/// version's servable and versioned name live in one deployment table
/// that every device's manager shares, and a manager adds only its
/// device's residency, rollout and canary state. Measured over the zipf
/// fleet's 24-deployment plan: `Fleet::new` makes 105 allocations on 1
/// device and 155 on its 3, so 25 more per added device: each
/// deployment's version states and the list of them. The bound leaves
/// room for 14 more; a per-device copy of the versioned names alone would
/// add 48. With a copy of the plan per manager it made 180 and 528, 174
/// per added device.
#[test]
fn fleet_devices_share_one_copy_of_the_plan() {
    let (cfg, _) = zipf_fleet(1, false);
    let cc = cfg.cluster.expect("the zipf fleet is a cluster");
    assert_eq!(cc.devices.len(), 3);
    let allocs = |devices: usize| {
        allocs_during(|| {
            let fleet = Fleet::new(&cc, &cc.devices[..devices]).expect("a valid plan");
            assert_eq!(fleet.devices(), devices);
        })
    };
    let (one, three) = (allocs(1), allocs(3));
    let added = three.saturating_sub(one);
    assert!(added <= 64, "2 more devices took {added} more allocations ({one}, then {three})");
}
