//! Offline profiles and the store the scheduler resolves them from.

use dataflow::{CostModel, NodeId};
use simtime::SimDuration;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The offline profile of one `(model, batch)` configuration.
///
/// Contains everything Olympian's online scheduler needs: the per-node cost
/// table, the total cost `C_j`, and the exclusive-access GPU duration `D_j`.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Model name (the serving-layer profile key).
    pub model: String,
    /// Batch size.
    pub batch: u64,
    /// Per-node measured costs.
    pub costs: CostModel,
    /// Total cost `C_j` (sum of `costs`).
    pub total_cost: u64,
    /// GPU duration `D_j`: total time ≥ 1 node of the job occupied the GPU
    /// during an exclusive-access run.
    pub gpu_duration: SimDuration,
}

impl ModelProfile {
    /// The cost-accumulation rate `C_j / D_j` in cost units per nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if the profile recorded zero GPU duration.
    pub fn rate(&self) -> f64 {
        let d = self.gpu_duration.as_nanos();
        assert!(d > 0, "profile for {} has zero GPU duration", self.model);
        self.total_cost as f64 / d as f64
    }

    /// The quantum threshold `T_j = Q · C_j / D_j` (paper §3.3): a job has
    /// consumed one quantum of GPU duration `q` once it accumulates this
    /// much cost.
    ///
    /// A profile with zero GPU duration (a CPU-only model) yields
    /// `u64::MAX`: such a job never consumes GPU quanta, so its turn never
    /// expires on cost — it simply runs to completion and deregisters.
    pub fn threshold(&self, q: SimDuration) -> u64 {
        if self.gpu_duration == SimDuration::ZERO {
            return u64::MAX;
        }
        ((q.as_nanos() as f64 * self.rate()).round() as u64).max(1)
    }

    /// Cost of a single node.
    pub fn node_cost(&self, node: NodeId) -> u64 {
        self.costs.cost(node)
    }
}

/// A collection of offline profiles keyed by `(model, batch)`.
///
/// The paper profiles each model offline (§3.3); here the
/// [`crate::Profiler`] measures them in-process before a run and the
/// store holds them for its duration. A batch size that was not measured
/// resolves to nothing; to serve it, insert a prediction from a
/// [`crate::LinearCostModel`] fitted to measured batches (paper §4.4).
///
/// ```
/// use olympian::{ModelProfile, ProfileStore};
/// use dataflow::CostModel;
/// use simtime::SimDuration;
///
/// let mut store = ProfileStore::new();
/// store.insert(ModelProfile {
///     model: "m".into(),
///     batch: 8,
///     costs: CostModel::from_costs(vec![10, 20]),
///     total_cost: 30,
///     gpu_duration: SimDuration::from_micros(3),
/// });
/// assert!(store.get("m", 8).is_some());
/// assert!(store.get("m", 16).is_none());
/// ```
#[derive(Debug, Default)]
pub struct ProfileStore {
    profiles: ProfileTable,
    /// Profiles registered at model-load time and retired at unload (the
    /// lifecycle manager's per-version cost rates). Interior mutability:
    /// the store is shared `Arc<ProfileStore>` by the time versions load,
    /// so registration must work through `&self`.
    dynamic: std::sync::Mutex<ProfileTable>,
    /// Online recalibration layer: rescaled copies installed by
    /// [`override_scaled`](Self::override_scaled) when drift is detected.
    /// Checked *first* by [`resolve`](Self::resolve) — a rebind must win
    /// over the stale base measurement it corrects. Interior mutability
    /// for the same reason as `dynamic`.
    overrides: std::sync::Mutex<ProfileTable>,
    /// Moves on every change made through `&self`; see
    /// [`epoch`](Self::epoch).
    epoch: AtomicU64,
}

/// Profiles keyed by model name, then batch, so every lookup probes with a
/// borrowed `&str` and allocates nothing.
#[derive(Debug, Default)]
struct ProfileTable(HashMap<String, HashMap<u64, Arc<ModelProfile>>>);

impl ProfileTable {
    fn get(&self, model: &str, batch: u64) -> Option<&Arc<ModelProfile>> {
        self.0.get(model)?.get(&batch)
    }

    /// Files `profile` under its own `(model, batch)`, returning the one it
    /// replaced.
    fn insert(&mut self, profile: Arc<ModelProfile>) -> Option<Arc<ModelProfile>> {
        if let Some(batches) = self.0.get_mut(profile.model.as_str()) {
            return batches.insert(profile.batch, profile);
        }
        self.0.insert(
            profile.model.clone(),
            HashMap::from([(profile.batch, profile)]),
        );
        None
    }

    /// Removes `(model, batch)`, and the model's entry with its last batch,
    /// so no empty inner table is ever left behind.
    fn remove(&mut self, model: &str, batch: u64) {
        if let Some(batches) = self.0.get_mut(model) {
            batches.remove(&batch);
            if batches.is_empty() {
                self.0.remove(model);
            }
        }
    }

    fn len(&self) -> usize {
        self.0.values().map(HashMap::len).sum()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl ProfileStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a profile, returning the previous one if present.
    pub fn insert(&mut self, profile: ModelProfile) -> Option<Arc<ModelProfile>> {
        self.profiles.insert(Arc::new(profile))
    }

    /// A counter that moves whenever what [`resolve`](Self::resolve)
    /// returns may have changed while the store is shared: on every
    /// [`register_dynamic`](Self::register_dynamic),
    /// [`retire_dynamic`](Self::retire_dynamic) and successful
    /// [`override_scaled`](Self::override_scaled), never on a lookup.
    /// ([`insert`](Self::insert) takes `&mut self`, so no reader can hold
    /// an answer across it.) An answer read while the epoch was `e` is
    /// still current while it reads `e`, so a reader can keep it instead
    /// of resolving again.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Moves the epoch after a change, so a reader that sees the new epoch
    /// also sees the change.
    fn bump(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Looks up the profile for `(model, batch)`.
    pub fn get(&self, model: &str, batch: u64) -> Option<Arc<ModelProfile>> {
        self.profiles.get(model, batch).cloned()
    }

    /// Registers a profile for a dynamically loaded model version. Unlike
    /// [`insert`](Self::insert), this works through `&self` (the store is
    /// already shared when versions load), and
    /// [`retire_dynamic`](Self::retire_dynamic) drops it again.
    ///
    /// # Panics
    ///
    /// Panics if the dynamic-section lock is poisoned.
    pub fn register_dynamic(&self, profile: ModelProfile) {
        self.dynamic
            .lock()
            .expect("dynamic profile lock poisoned")
            .insert(Arc::new(profile));
        self.bump();
    }

    /// Retires a dynamically registered profile (the version unloaded).
    /// Unknown keys are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the dynamic-section lock is poisoned.
    pub fn retire_dynamic(&self, model: &str, batch: u64) {
        self.dynamic
            .lock()
            .expect("dynamic profile lock poisoned")
            .remove(model, batch);
        self.bump();
    }

    /// Installs a recalibrated copy of the `(model, batch)` profile whose
    /// GPU duration is the *base* profile's duration scaled by
    /// `scale_ppm` parts-per-million (clamped to at least 1 ns). Returns
    /// false when no base profile resolves.
    ///
    /// The scale is always applied to the original measurement, never to a
    /// previous override, so repeated drift alerts converge on the observed
    /// rate instead of compounding. Node costs are untouched: drift models
    /// a *device* running slower, which stretches `D_j` while the profiled
    /// cost totals (TensorFlow cost-model units) stay what they were.
    ///
    /// # Panics
    ///
    /// Panics if the override lock is poisoned.
    pub fn override_scaled(&self, model: &str, batch: u64, scale_ppm: u64) -> bool {
        let Some(base) = self.resolve_base(model, batch) else {
            return false;
        };
        let scaled_ns = ((base.gpu_duration.as_nanos() as u128 * scale_ppm as u128)
            / 1_000_000) as u64;
        // `base` resolved for `(model, batch)`, so the copy files under it.
        let mut rebound = (*base).clone();
        rebound.gpu_duration = SimDuration::from_nanos(scaled_ns.max(1));
        self.overrides
            .lock()
            .expect("override lock poisoned")
            .insert(Arc::new(rebound));
        self.bump();
        true
    }

    /// Resolves a profile: a live recalibration override if one is
    /// installed, otherwise a stored measurement, otherwise a live
    /// dynamically registered one, otherwise `None`. Lookups allocate
    /// nothing.
    pub fn resolve(&self, model: &str, batch: u64) -> Option<Arc<ModelProfile>> {
        if let Some(p) = self
            .overrides
            .lock()
            .expect("override lock poisoned")
            .get(model, batch)
        {
            return Some(Arc::clone(p));
        }
        self.resolve_base(model, batch)
    }

    /// [`resolve`](Self::resolve) without the recalibration layer: the
    /// profile as measured offline or registered at load time.
    pub fn resolve_base(&self, model: &str, batch: u64) -> Option<Arc<ModelProfile>> {
        self.get(model, batch).or_else(|| {
            let dynamic = self.dynamic.lock().expect("dynamic profile lock poisoned");
            dynamic.get(model, batch).cloned()
        })
    }

    /// Number of stored profiles.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(model: &str, batch: u64) -> ModelProfile {
        ModelProfile {
            model: model.into(),
            batch,
            costs: CostModel::from_costs(vec![5, 0, 10]),
            total_cost: 15,
            gpu_duration: SimDuration::from_nanos(10),
        }
    }

    #[test]
    fn rate_and_threshold() {
        let p = sample("m", 4);
        assert!((p.rate() - 1.5).abs() < 1e-12);
        assert_eq!(p.threshold(SimDuration::from_nanos(100)), 150);
        assert_eq!(p.threshold(SimDuration::ZERO), 1, "threshold is at least 1");
    }

    #[test]
    fn cpu_only_profile_never_expires() {
        let mut p = sample("cpu", 1);
        p.gpu_duration = SimDuration::ZERO;
        assert_eq!(p.threshold(SimDuration::from_micros(1)), u64::MAX);
    }

    #[test]
    fn insert_replaces() {
        let mut store = ProfileStore::new();
        store.insert(sample("a", 1));
        let mut newer = sample("a", 1);
        newer.total_cost = 99;
        let old = store.insert(newer);
        assert_eq!(old.unwrap().total_cost, 15);
        assert_eq!(store.get("a", 1).unwrap().total_cost, 99);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn dynamic_profiles_resolve_until_retired() {
        let mut store = ProfileStore::new();
        store.insert(sample("svc@v1", 4));
        store.register_dynamic(sample("svc@v2", 4));
        // Exact static profiles win; dynamic ones fill the gaps.
        assert!(store.resolve("svc@v1", 4).is_some());
        assert_eq!(store.resolve("svc@v2", 4).unwrap().total_cost, 15);
        assert!(store.resolve("svc@v2", 8).is_none(), "batch must match");
        store.retire_dynamic("svc@v2", 4);
        assert!(store.resolve("svc@v2", 4).is_none());
        // Retiring an unknown key is a no-op.
        store.retire_dynamic("ghost", 1);
    }

    #[test]
    fn override_scaled_wins_resolve_and_scales_from_base() {
        let store = {
            let mut s = ProfileStore::new();
            s.insert(sample("m", 4)); // gpu_duration 10 ns
            s
        };
        assert!(store.override_scaled("m", 4, 1_400_000), "base exists");
        assert_eq!(
            store.resolve("m", 4).unwrap().gpu_duration,
            SimDuration::from_nanos(14)
        );
        // Costs are untouched; only the duration stretches.
        assert_eq!(store.resolve("m", 4).unwrap().total_cost, 15);
        // A second rebind scales the *base*, not the previous override.
        assert!(store.override_scaled("m", 4, 2_000_000));
        assert_eq!(
            store.resolve("m", 4).unwrap().gpu_duration,
            SimDuration::from_nanos(20)
        );
        // The base layer still serves the original measurement.
        assert_eq!(
            store.resolve_base("m", 4).unwrap().gpu_duration,
            SimDuration::from_nanos(10)
        );
        // No base profile: the rebind reports failure.
        assert!(!store.override_scaled("ghost", 1, 1_500_000));
    }

    /// Requires `change` to move the store's epoch, and lookups before and
    /// after it not to.
    fn moves_epoch(store: &ProfileStore, what: &str, change: impl FnOnce(&ProfileStore)) {
        let lookups = |s: &ProfileStore| {
            let at = s.epoch();
            s.get("m", 4);
            s.resolve("m", 4);
            s.resolve_base("m", 4);
            s.resolve("ghost", 1);
            assert_eq!(s.epoch(), at, "a lookup moved the epoch");
        };
        lookups(store);
        let before = store.epoch();
        change(store);
        assert!(store.epoch() > before, "{what} did not move the epoch");
        lookups(store);
    }

    #[test]
    fn changes_move_the_epoch_and_lookups_never_do() {
        let mut store = ProfileStore::new();
        store.insert(sample("m", 4));
        moves_epoch(&store, "register_dynamic", |s| {
            s.register_dynamic(sample("m@v2", 4))
        });
        moves_epoch(&store, "override_scaled", |s| {
            assert!(s.override_scaled("m", 4, 1_500_000))
        });
        moves_epoch(&store, "retire_dynamic", |s| s.retire_dynamic("m@v2", 4));
        // A rebind with no base profile to scale changes nothing.
        let before = store.epoch();
        assert!(!store.override_scaled("ghost", 1, 1_500_000));
        assert_eq!(store.epoch(), before);
    }

    #[test]
    fn override_duration_never_collapses_to_zero() {
        let mut s = ProfileStore::new();
        s.insert(sample("m", 1)); // 10 ns
        assert!(s.override_scaled("m", 1, 1)); // would be 0 ns unclamped
        assert_eq!(
            s.resolve("m", 1).unwrap().gpu_duration,
            SimDuration::from_nanos(1)
        );
    }

    #[test]
    #[should_panic(expected = "zero GPU duration")]
    fn zero_duration_rate_panics() {
        let mut p = sample("m", 1);
        p.gpu_duration = SimDuration::ZERO;
        let _ = p.rate();
    }
}
