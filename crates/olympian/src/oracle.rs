//! The control plane's window into the profile store.
//!
//! [`controlplane`] is deliberately ignorant of profiles — it sees GPU
//! costs only through its [`CostOracle`] trait.
//! [`StoreCostOracle`] implements that trait over the shared
//! [`ProfileStore`], which gives the engine's control loops exactly two
//! powers: read a model's expected whole-run GPU duration (the laxity
//! estimate), and install a rescaled override when telemetry detects drift
//! (the in-run recalibration path — the scheduler's next `resolve` sees
//! the corrected `D_j` without any run stopping).

use crate::ProfileStore;
use controlplane::CostOracle;
use std::sync::Arc;

/// A [`CostOracle`] over a shared [`ProfileStore`].
#[derive(Debug)]
pub struct StoreCostOracle {
    store: Arc<ProfileStore>,
}

impl StoreCostOracle {
    /// Wraps `store` for the control plane. The same `Arc` should back the
    /// scheduler, so rebinds land where thresholds are computed.
    pub fn new(store: Arc<ProfileStore>) -> Arc<StoreCostOracle> {
        Arc::new(StoreCostOracle { store })
    }
}

impl CostOracle for StoreCostOracle {
    fn expected_gpu_ns(&self, model: &str, batch: u64) -> Option<u64> {
        self.store
            .resolve(model, batch)
            .map(|p| p.gpu_duration.as_nanos())
    }

    fn rebind_scaled(&self, model: &str, batch: u64, scale_ppm: u64) -> bool {
        self.store.override_scaled(model, batch, scale_ppm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelProfile;
    use dataflow::CostModel;
    use simtime::SimDuration;

    #[test]
    fn oracle_reads_and_rebinds_through_the_store() {
        let mut s = ProfileStore::new();
        s.insert(ModelProfile {
            model: "m".into(),
            batch: 2,
            costs: CostModel::from_costs(vec![100]),
            total_cost: 100,
            gpu_duration: SimDuration::from_micros(50),
        });
        let store = Arc::new(s);
        let oracle = StoreCostOracle::new(Arc::clone(&store));
        assert_eq!(oracle.expected_gpu_ns("m", 2), Some(50_000));
        assert_eq!(oracle.expected_gpu_ns("m", 4), None);
        assert!(oracle.rebind_scaled("m", 2, 1_400_000));
        // The rebind is visible through both the oracle and the store the
        // scheduler resolves against.
        assert_eq!(oracle.expected_gpu_ns("m", 2), Some(70_000));
        assert_eq!(
            store.resolve("m", 2).unwrap().gpu_duration,
            SimDuration::from_micros(70)
        );
        assert!(!oracle.rebind_scaled("ghost", 1, 2_000_000));
    }
}
