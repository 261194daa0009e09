//! Integration tests of the real-thread cooperative gang scheduler.

use olympian::threaded::{GangPool, GangWorkload};

#[test]
fn three_real_gangs_share_fairly() {
    // 50 µs of spin per node and 15 ms per gang, so an OS time slice on a
    // loaded host is noise against the fair rotation.
    let pool = GangPool::fair(5_000);
    let outcome = pool.run(vec![GangWorkload::new(300, 500, 2); 3]);
    assert_eq!(outcome.finish_order.len(), 3);
    let secs: Vec<f64> = outcome.finish_times.iter().map(|t| t.as_secs_f64()).collect();
    let max = secs.iter().cloned().fold(0.0_f64, f64::max);
    let min = secs.iter().cloned().fold(f64::MAX, f64::min);
    // Cooperative slicing keeps identical gangs within a loose band even
    // under real-scheduler noise.
    assert!(max / min < 1.8, "finish spread {}", max / min);
    assert!(outcome.switches >= 3);
}

#[test]
fn uneven_workloads_finish_in_size_order() {
    let pool = GangPool::fair(200);
    let outcome = pool.run(vec![
        GangWorkload::new(20, 20, 2),
        GangWorkload::new(120, 20, 2),
    ]);
    assert_eq!(outcome.finish_order.first().map(|g| g.0), Some(0));
    assert!(outcome.finish_times[0] < outcome.finish_times[1]);
}

#[test]
fn wide_gangs_do_not_deadlock() {
    let pool = GangPool::fair(150);
    let outcome = pool.run(vec![
        GangWorkload::new(40, 15, 4),
        GangWorkload::new(40, 15, 4),
        GangWorkload::new(40, 15, 1),
    ]);
    assert_eq!(outcome.finish_order.len(), 3);
}
