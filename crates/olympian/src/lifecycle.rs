//! Profile wiring for the model-lifecycle manager: pre-calibrated
//! per-version cost profiles, registered into the shared [`ProfileStore`]
//! when a version loads and retired when it unloads.
//!
//! The paper's profiler runs *offline* on an idle GPU, so version profiles
//! cannot be measured mid-simulation. [`StoreBinder::calibrate`] profiles
//! every version of a deployment plan up front (as the operator would at
//! model-publish time) and keeps them in a catalog; the lifecycle manager
//! then calls [`bind`](serving::lifecycle::ProfileBinder::bind) /
//! [`unbind`](serving::lifecycle::ProfileBinder::unbind) as versions come
//! and go, which flips the catalog entries into and out of the store's
//! dynamic section. The Olympian scheduler resolves jobs registered under
//! versioned names (`"{name}@v{n}"`) against exactly these entries.
//!
//! All device managers of a fleet share one binder, so an entry counts its
//! binds: the profile stays registered while any device holds the version.

use crate::{ModelProfile, ProfileStore, Profiler};
use serving::lifecycle::{DeploymentPlan, ProfileBinder};
use serving::EngineConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Arc;

/// A [`ProfileBinder`] over a shared [`ProfileStore`]: holds one
/// pre-calibrated profile per `(versioned name, batch)` and registers or
/// retires it as lifecycle managers load and unload versions.
#[derive(Debug)]
pub struct StoreBinder {
    store: Arc<ProfileStore>,
    /// Versioned name -> (its profile, devices binding it). The count
    /// publishes nothing (the store has its own lock), hence `Relaxed`.
    catalog: HashMap<String, (ModelProfile, AtomicU32)>,
}

impl StoreBinder {
    /// Profiles every version in `plan` on an idle, quiescent device (the
    /// paper's offline-profiling condition) and returns a binder over
    /// `store`. Profiles are catalogued under versioned names
    /// (`"{name}@v{n}"`), matching the names the manager registers jobs
    /// with.
    pub fn calibrate(
        cfg: &EngineConfig,
        plan: &DeploymentPlan,
        store: Arc<ProfileStore>,
    ) -> Arc<StoreBinder> {
        let profiler = Profiler::new(cfg);
        let mut catalog = HashMap::new();
        for dep in &plan.models {
            for (k, spec) in dep.versions.iter().enumerate() {
                let mut p = profiler.profile(&spec.model);
                p.model = format!("{}@v{}", dep.name, k + 1);
                catalog.insert(p.model.clone(), (p, AtomicU32::new(0)));
            }
        }
        Arc::new(StoreBinder { store, catalog })
    }

    /// Number of catalogued version profiles.
    pub fn len(&self) -> usize {
        self.catalog.len()
    }

    /// The catalog entry for `(versioned_name, batch)`, if any.
    fn entry(&self, versioned_name: &str, batch: u64) -> Option<&(ModelProfile, AtomicU32)> {
        self.catalog.get(versioned_name).filter(|(p, _)| p.batch == batch)
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.catalog.is_empty()
    }
}

impl ProfileBinder for StoreBinder {
    fn bind(&self, versioned_name: &str, batch: u64) {
        if let Some((p, binds)) = self.entry(versioned_name, batch) {
            if binds.fetch_add(1, Relaxed) == 0 {
                self.store.register_dynamic(p.clone());
            }
        }
    }

    fn unbind(&self, versioned_name: &str, batch: u64) {
        let Some((_, binds)) = self.entry(versioned_name, batch) else {
            return;
        };
        if binds.fetch_update(Relaxed, Relaxed, |n| n.checked_sub(1)) == Ok(1) {
            self.store.retire_dynamic(versioned_name, batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serving::lifecycle::ModelDeployment;
    use simtime::SimTime;

    fn named(name: &str) -> models::LoadedModel {
        let m = models::mini::tiny(4);
        models::LoadedModel::from_parts(
            name,
            None,
            m.batch(),
            Arc::clone(m.graph()),
            m.weights_bytes(),
            m.activation_bytes(),
        )
    }

    #[test]
    fn calibrate_profiles_every_version_under_its_versioned_name() {
        let plan = DeploymentPlan::new().with_model(
            ModelDeployment::new("svc", named("svc"))
                .with_version(named("svc"), SimTime::from_millis(5)),
        );
        let store = Arc::new(ProfileStore::new());
        let binder = StoreBinder::calibrate(&EngineConfig::default(), &plan, Arc::clone(&store));
        assert_eq!(binder.len(), 2);
        assert!(!binder.is_empty());
        // Nothing resolves until a version binds.
        assert!(store.resolve("svc@v1", 4).is_none());
        binder.bind("svc@v1", 4);
        let p = store.resolve("svc@v1", 4).expect("bound profile resolves");
        assert!(p.total_cost > 0);
        binder.unbind("svc@v1", 4);
        assert!(store.resolve("svc@v1", 4).is_none());
        // Unknown names bind as no-ops.
        binder.bind("ghost@v9", 4);
        assert!(store.resolve("ghost@v9", 4).is_none());
    }

    #[test]
    fn profile_stays_bound_while_any_device_holds_the_version() {
        let plan = DeploymentPlan::new().with_model(ModelDeployment::new("svc", named("svc")));
        let store = Arc::new(ProfileStore::new());
        let binder = StoreBinder::calibrate(&EngineConfig::default(), &plan, Arc::clone(&store));
        // Two devices load the version; one unloads it.
        binder.bind("svc@v1", 4);
        binder.bind("svc@v1", 4);
        binder.unbind("svc@v1", 4);
        assert!(store.resolve("svc@v1", 4).is_some(), "the other device still serves it");
        binder.unbind("svc@v1", 4);
        assert!(store.resolve("svc@v1", 4).is_none(), "the last unbind retires it");
        // A stray unbind does not underflow into a stale registration.
        binder.unbind("svc@v1", 4);
        binder.bind("svc@v1", 4);
        assert!(store.resolve("svc@v1", 4).is_some());
    }
}
