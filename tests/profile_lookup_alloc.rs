//! Profile lookups allocate nothing.
//!
//! The scheduler resolves a profile per run, and the control plane asks
//! the cost oracle for a run's expected cost when it registers and on
//! every laxity walk, so a lookup that builds an owned key costs an
//! allocation per call. This test counts the
//! heap allocations its thread makes with a counting `#[global_allocator]`.

mod counting_alloc;

use controlplane::CostOracle;
use counting_alloc::allocs_during;
use dataflow::CostModel;
use olympian::{ModelProfile, ProfileStore, StoreCostOracle};
use simtime::SimDuration;
use std::hint::black_box;
use std::sync::Arc;

fn profile(model: &str, batch: u64) -> ModelProfile {
    ModelProfile {
        model: model.into(),
        batch,
        costs: CostModel::from_costs(vec![10 * batch, 20 * batch]),
        total_cost: 30 * batch,
        gpu_duration: SimDuration::from_nanos(100 * batch),
    }
}

#[test]
fn exact_dynamic_and_override_hits_allocate_nothing() {
    let mut store = ProfileStore::new();
    store.insert(profile("exact", 8));
    store.insert(profile("drifted", 2));
    let store = Arc::new(store);
    store.register_dynamic(profile("svc@v2", 4));
    assert!(store.override_scaled("drifted", 2, 1_300_000));
    let oracle = StoreCostOracle::new(Arc::clone(&store));

    // (model, batch, expected GPU ns): an exact measurement, a dynamically
    // registered version, a recalibration override, and a miss.
    let hits = [
        ("exact", 8, Some(800)),
        ("svc@v2", 4, Some(400)),
        ("drifted", 2, Some(260)),
        ("ghost", 1, None),
    ];
    let n = allocs_during(|| {
        for _ in 0..1_000 {
            for &(model, batch, want) in &hits {
                let got = black_box(store.resolve(black_box(model), batch));
                assert_eq!(got.map(|p| p.gpu_duration.as_nanos()), want, "{model}");
                assert_eq!(black_box(oracle.expected_gpu_ns(model, batch)), want);
            }
            black_box(store.get("exact", 8));
            black_box(store.resolve_base("drifted", 2));
        }
    });
    assert_eq!(n, 0, "profile lookups allocated {n} times");

    // The counter is live: an override builds a fresh profile.
    let n = allocs_during(|| assert!(store.override_scaled("exact", 8, 1_500_000)));
    assert!(n > 0, "an override should allocate");
}
