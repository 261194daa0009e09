//! Deployment plans and manager configuration.

use crate::{LifecycleError, ProfileBinder};
use models::LoadedModel;
use simtime::SimTime;
use std::sync::Arc;

/// One version of a served model: the servable itself plus the instant the
/// rollout controller starts aspiring to it (TF-Serving's Source emitting a
/// new aspired version).
#[derive(Debug, Clone)]
pub struct VersionSpec {
    /// The servable. Its name must equal the deployment's served name; the
    /// manager keys profiles and trace events by `"{name}@v{n}"`.
    pub model: LoadedModel,
    /// When this version is published (becomes aspired).
    pub publish_at: SimTime,
}

impl VersionSpec {
    /// A version published at time zero.
    pub fn new(model: LoadedModel) -> Self {
        VersionSpec { model, publish_at: SimTime::ZERO }
    }

    /// Sets the publish instant.
    pub fn published_at(mut self, at: SimTime) -> Self {
        self.publish_at = at;
        self
    }
}

/// A named model with its ordered version history (version numbers are
/// 1-based and monotonically increasing, as in TF-Serving).
#[derive(Debug, Clone)]
pub struct ModelDeployment {
    /// The served name clients address (their `ClientSpec` model name).
    pub name: String,
    /// Versions in publication order; `versions[k]` is version `k + 1`.
    pub versions: Vec<VersionSpec>,
}

impl ModelDeployment {
    /// A deployment with one initial version published at time zero.
    pub fn new(name: impl Into<String>, v1: LoadedModel) -> Self {
        ModelDeployment {
            name: name.into(),
            versions: vec![VersionSpec::new(v1)],
        }
    }

    /// Appends the next version, published at `at`.
    pub fn with_version(mut self, model: LoadedModel, at: SimTime) -> Self {
        self.versions.push(VersionSpec::new(model).published_at(at));
        self
    }
}

/// The versioned model registry: every deployment the manager owns.
#[derive(Debug, Clone, Default)]
pub struct DeploymentPlan {
    /// Deployments in declaration order (the deterministic scan order for
    /// publishes and eviction).
    pub models: Vec<ModelDeployment>,
}

impl DeploymentPlan {
    /// An empty plan.
    pub fn new() -> Self {
        DeploymentPlan::default()
    }

    /// Adds a deployment.
    pub fn with_model(mut self, deployment: ModelDeployment) -> Self {
        self.models.push(deployment);
        self
    }

    /// Validates the registry invariants.
    ///
    /// # Errors
    ///
    /// Returns the first [`LifecycleError`] found: empty version lists,
    /// duplicate served names, version-name or batch mismatches, or
    /// regressing publish times.
    pub fn validate(&self) -> Result<(), LifecycleError> {
        for (i, dep) in self.models.iter().enumerate() {
            if dep.versions.is_empty() {
                return Err(LifecycleError::NoVersions { model: dep.name.clone() });
            }
            if self.models[..i].iter().any(|d| d.name == dep.name) {
                return Err(LifecycleError::DuplicateModel { model: dep.name.clone() });
            }
            let batch = dep.versions[0].model.batch();
            let mut last_publish = SimTime::ZERO;
            for (k, v) in dep.versions.iter().enumerate() {
                let version = (k + 1) as u32;
                if v.model.name() != dep.name {
                    return Err(LifecycleError::NameMismatch {
                        model: dep.name.clone(),
                        version,
                        got: v.model.name().to_string(),
                    });
                }
                if v.model.batch() != batch {
                    return Err(LifecycleError::BatchMismatch {
                        model: dep.name.clone(),
                        version,
                        expected: batch,
                        got: v.model.batch(),
                    });
                }
                if v.publish_at < last_publish {
                    return Err(LifecycleError::PublishOrder {
                        model: dep.name.clone(),
                        version,
                    });
                }
                last_publish = v.publish_at;
            }
        }
        Ok(())
    }
}

/// Canary rollout parameters.
#[derive(Debug, Clone, Copy)]
pub struct CanaryConfig {
    /// Every `stride`-th new run of a model under canary goes to the
    /// candidate version (the rest stay on the incumbent) — a
    /// deterministic traffic split.
    pub stride: u64,
    /// Completed runs each arm must observe before the promote/rollback
    /// decision, which [`CANARY_TOLERANCE`](crate::CANARY_TOLERANCE) gates.
    pub min_runs: u32,
}

impl Default for CanaryConfig {
    fn default() -> Self {
        CanaryConfig { stride: 4, min_runs: 6 }
    }
}

/// Configuration of the lifecycle manager.
#[derive(Debug, Clone)]
pub struct LifecycleConfig {
    /// The versioned model registry.
    pub plan: DeploymentPlan,
    /// Effective PCIe bandwidth for weight loads, in gigabytes/second —
    /// the source of the simulated load latency
    /// ([`gpusim::MemoryPool::transfer_time`]).
    pub load_gbps: f64,
    /// Canary rollout parameters.
    pub canary: CanaryConfig,
    /// Profile wiring into the scheduling layer; `None` runs without
    /// per-version cost profiles (baseline schedulers).
    pub binder: Option<Arc<dyn ProfileBinder>>,
}

impl LifecycleConfig {
    /// A manager over `plan` with default load bandwidth (12 GB/s) and
    /// default canary parameters.
    pub fn new(plan: DeploymentPlan) -> Self {
        LifecycleConfig {
            plan,
            load_gbps: 12.0,
            canary: CanaryConfig::default(),
            binder: None,
        }
    }

    /// Sets the canary parameters.
    pub fn with_canary(mut self, canary: CanaryConfig) -> Self {
        self.canary = canary;
        self
    }

    /// Wires the scheduler profile binder.
    pub fn with_binder(mut self, binder: Arc<dyn ProfileBinder>) -> Self {
        self.binder = Some(binder);
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid, the load bandwidth is not positive,
    /// or the canary's `stride` or `min_runs` is zero.
    pub fn validate(&self) {
        if let Err(e) = self.plan.validate() {
            panic!("invalid deployment plan: {e}");
        }
        assert!(self.load_gbps > 0.0, "load bandwidth must be positive");
        assert!(self.canary.stride >= 1, "canary stride must be at least 1");
        assert!(self.canary.min_runs >= 1, "canary needs at least one run per arm");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimDuration;

    fn named(name: &str, batch: u64) -> LoadedModel {
        let m = models::mini::tiny(batch);
        LoadedModel::from_parts(
            name,
            None,
            m.batch(),
            std::sync::Arc::clone(m.graph()),
            m.weights_bytes(),
            m.activation_bytes(),
        )
    }

    #[test]
    fn valid_plan_passes() {
        let plan = DeploymentPlan::new().with_model(
            ModelDeployment::new("svc", named("svc", 4))
                .with_version(named("svc", 4), SimTime::ZERO + SimDuration::from_millis(5)),
        );
        plan.validate().expect("valid plan");
        LifecycleConfig::new(plan).validate();
    }

    #[test]
    fn empty_versions_rejected() {
        let plan = DeploymentPlan::new()
            .with_model(ModelDeployment { name: "svc".into(), versions: vec![] });
        assert_eq!(
            plan.validate().unwrap_err(),
            LifecycleError::NoVersions { model: "svc".into() }
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let plan = DeploymentPlan::new()
            .with_model(ModelDeployment::new("svc", named("svc", 4)))
            .with_model(ModelDeployment::new("svc", named("svc", 4)));
        assert_eq!(
            plan.validate().unwrap_err(),
            LifecycleError::DuplicateModel { model: "svc".into() }
        );
    }

    #[test]
    fn name_mismatch_rejected() {
        let plan = DeploymentPlan::new()
            .with_model(ModelDeployment::new("svc", named("other", 4)));
        assert!(matches!(
            plan.validate().unwrap_err(),
            LifecycleError::NameMismatch { version: 1, .. }
        ));
    }

    #[test]
    fn batch_mismatch_rejected() {
        let plan = DeploymentPlan::new().with_model(
            ModelDeployment::new("svc", named("svc", 4))
                .with_version(named("svc", 8), SimTime::ZERO),
        );
        assert!(matches!(
            plan.validate().unwrap_err(),
            LifecycleError::BatchMismatch { version: 2, expected: 4, got: 8, .. }
        ));
    }

    #[test]
    fn publish_regression_rejected() {
        let plan = DeploymentPlan::new().with_model(
            ModelDeployment::new("svc", named("svc", 4))
                .with_version(named("svc", 4), SimTime::from_millis(4))
                .with_version(named("svc", 4), SimTime::from_millis(2)),
        );
        assert!(matches!(
            plan.validate().unwrap_err(),
            LifecycleError::PublishOrder { version: 3, .. }
        ));
    }
}
