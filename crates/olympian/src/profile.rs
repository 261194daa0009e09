//! Offline profiles and their persistent store.

use dataflow::{CostModel, NodeId};
use microjson::Value;
use simtime::SimDuration;
use std::collections::HashMap;
use std::fmt;
use std::io::{Read, Write};
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

    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("model".into(), Value::str(&self.model)),
            ("batch".into(), Value::UInt(self.batch)),
            ("costs".into(), self.costs.to_json()),
            ("total_cost".into(), Value::UInt(self.total_cost)),
            ("gpu_duration".into(), Value::UInt(self.gpu_duration.as_nanos())),
        ])
    }

    fn from_json(v: &Value) -> Result<ModelProfile, microjson::Error> {
        let u64_field = |key: &str| -> Result<u64, microjson::Error> {
            v.field(key)?.as_u64().ok_or_else(|| {
                microjson::Error::decode(format!("field {key:?} is not a non-negative integer"))
            })
        };
        Ok(ModelProfile {
            model: v
                .field("model")?
                .as_str()
                .ok_or_else(|| microjson::Error::decode("field \"model\" is not a string"))?
                .to_string(),
            batch: u64_field("batch")?,
            costs: CostModel::from_json(v.field("costs")?)?,
            total_cost: u64_field("total_cost")?,
            gpu_duration: SimDuration::from_nanos(u64_field("gpu_duration")?),
        })
    }
}

/// Error from loading or saving a profile store.
#[derive(Debug)]
pub enum StoreError {
    /// I/O failure.
    Io(std::io::Error),
    /// Malformed serialized store.
    Format(microjson::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "profile store I/O error: {e}"),
            StoreError::Format(e) => write!(f, "malformed profile store: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Format(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<microjson::Error> for StoreError {
    fn from(e: microjson::Error) -> Self {
        StoreError::Format(e)
    }
}

/// A collection of offline profiles keyed by `(model, batch)`.
///
/// Profiles are computed once per model and persisted — the paper's
/// profiler writes them alongside the servable. A batch size that was not
/// measured resolves to nothing; to serve it, insert a prediction from a
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
    /// so registration must work through `&self`. Never persisted.
    dynamic: std::sync::Mutex<ProfileTable>,
    /// Online recalibration layer: rescaled copies installed by
    /// [`override_scaled`](Self::override_scaled) when drift is detected.
    /// Checked *first* by [`resolve`](Self::resolve) — a rebind must win
    /// over the stale base measurement it corrects. Interior mutability
    /// for the same reason as `dynamic`; never persisted.
    overrides: std::sync::Mutex<ProfileTable>,
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

    fn values(&self) -> impl Iterator<Item = &Arc<ModelProfile>> {
        self.0.values().flat_map(HashMap::values)
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

    /// Looks up the profile for `(model, batch)`.
    pub fn get(&self, model: &str, batch: u64) -> Option<Arc<ModelProfile>> {
        self.profiles.get(model, batch).cloned()
    }

    /// Registers a profile for a dynamically loaded model version. Unlike
    /// [`insert`](Self::insert), this works through `&self` (the store is
    /// already shared when versions load) and the profile is dropped by
    /// [`retire_dynamic`](Self::retire_dynamic), not persisted.
    ///
    /// # Panics
    ///
    /// Panics if the dynamic-section lock is poisoned.
    pub fn register_dynamic(&self, profile: ModelProfile) {
        self.dynamic
            .lock()
            .expect("dynamic profile lock poisoned")
            .insert(Arc::new(profile));
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

    /// Iterates over stored profiles in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<ModelProfile>> {
        self.profiles.values()
    }

    /// Serializes the store as JSON to a writer.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O or serialization failure.
    pub fn save<W: Write>(&self, mut writer: W) -> Result<(), StoreError> {
        let mut items: Vec<&ModelProfile> = self.profiles.values().map(|p| p.as_ref()).collect();
        items.sort_by(|a, b| (&a.model, a.batch).cmp(&(&b.model, b.batch)));
        let doc = Value::Array(items.iter().map(|p| p.to_json()).collect());
        writer.write_all(doc.to_string().as_bytes())?;
        Ok(())
    }

    /// Loads a store previously written by [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O failure or malformed input.
    pub fn load<R: Read>(reader: R) -> Result<ProfileStore, StoreError> {
        let doc = Value::from_reader(reader)?;
        let items = doc
            .as_array()
            .ok_or_else(|| microjson::Error::decode("profile store is not an array"))?;
        let mut store = ProfileStore::new();
        for item in items {
            store.insert(ModelProfile::from_json(item)?);
        }
        Ok(store)
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
    fn store_roundtrip_through_json() {
        let mut store = ProfileStore::new();
        store.insert(sample("a", 1));
        store.insert(sample("b", 2));
        let mut buf = Vec::new();
        store.save(&mut buf).unwrap();
        let loaded = ProfileStore::load(buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.get("a", 1).unwrap().total_cost, 15);
        assert!(loaded.get("a", 2).is_none());
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
        // Dynamic entries are not persisted.
        let mut buf = Vec::new();
        store.register_dynamic(sample("svc@v3", 4));
        store.save(&mut buf).unwrap();
        let loaded = ProfileStore::load(buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), 1);
        assert!(loaded.resolve("svc@v3", 4).is_none());
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
    fn load_rejects_garbage() {
        assert!(matches!(
            ProfileStore::load(&b"not json"[..]),
            Err(StoreError::Format(_))
        ));
    }

    #[test]
    #[should_panic(expected = "zero GPU duration")]
    fn zero_duration_rate_panics() {
        let mut p = sample("m", 1);
        p.gpu_duration = SimDuration::ZERO;
        let _ = p.rate();
    }
}
