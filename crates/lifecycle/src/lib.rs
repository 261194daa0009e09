#![deny(missing_docs)]

//! The model-lifecycle manager: a dynamic model plane for the serving
//! engine.
//!
//! Olympian extends TF-Serving, whose production core is the
//! Source→Loader→Manager version pipeline: models are *named*, each name
//! carries monotonically increasing *versions*, and an aspired-versions
//! state machine loads, warms, serves, drains and unloads them under a
//! hard device-memory budget. This crate reproduces that plane on the
//! simulator's virtual clock, deterministically:
//!
//! * a **versioned registry** ([`DeploymentPlan`]): named models × ordered
//!   [`VersionSpec`]s, each a [`models::LoadedModel`] plus a publish time;
//! * a **memory-budgeted residency manager**: explicit load/unload against
//!   [`gpusim::MemoryPool`] with simulated PCIe load latency
//!   ([`gpusim::MemoryPool::transfer_time`]) and warm-up runs, cost-aware
//!   LRU eviction of idle versions when a load does not fit, and a hard
//!   in-sim assertion that resident bytes never exceed the budget;
//! * a **rollout controller**: per-model aspired-versions state machine
//!   (`Loading → Warming → Serving → Draining → Unloaded`) with canary
//!   splits that route a deterministic fraction of new `Session::Run`s to
//!   the candidate version and promote it when its mean run latency stays
//!   within [`CANARY_TOLERANCE`] of the incumbent's, or roll it back.
//!   Draining versions complete every in-flight run before their weights
//!   are unloaded.
//!
//! A run resolves its plan once, into a [`DeploymentTable`] that every
//! device's manager shares; a manager keeps only its device's state.
//!
//! The manager is engine-agnostic: it owns no clock and no event queue.
//! The serving engine calls [`LifecycleManager::route`] per new run, by
//! the deployment index it resolved once per client,
//! [`LifecycleManager::run_finished`] per completed run and
//! [`LifecycleManager::tick`] at requested instants; every call fills an
//! [`Effects`] record (trace events, clients to wake, ticks to schedule):
//! the engine records the events as they are and turns the rest into
//! event-queue operations. Scheduler cost profiles are wired through the
//! [`ProfileBinder`] trait: each version's calibrated cost-accumulation
//! profile is bound when the version starts serving and retired when it is
//! unloaded.

mod config;
mod manager;

pub use config::{CanaryConfig, DeploymentPlan, LifecycleConfig, ModelDeployment, VersionSpec};
pub use manager::{
    DeploymentTable, Effects, LifecycleManager, Route, VersionKey, VersionState, CANARY_TOLERANCE,
};

use std::fmt;

/// Binds a version's calibrated scheduler profile while it is servable.
///
/// Implemented by the scheduling layer (for Olympian, an adapter over
/// `ProfileStore`): [`ProfileBinder::bind`] registers the versioned
/// profile under `"{model}@v{version}"` when the version starts serving,
/// and [`ProfileBinder::unbind`] retires it when the version is unloaded,
/// so the scheduler resolves exactly the versions resident on at least one
/// device. A fleet's device managers share one binder, each binding and
/// unbinding for its own device.
pub trait ProfileBinder: fmt::Debug + Send + Sync {
    /// Registers the profile for `versioned_name` (e.g. `"svc@v2"`) at
    /// `batch`. Called when a version transitions into `Serving`.
    fn bind(&self, versioned_name: &str, batch: u64);
    /// Releases the profile for `versioned_name` at `batch`. Called when a
    /// version is unloaded (drained or evicted).
    fn unbind(&self, versioned_name: &str, batch: u64);
}

/// Errors detected when validating a deployment plan.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleError {
    /// A deployment declared no versions.
    NoVersions {
        /// The served model name.
        model: String,
    },
    /// Two deployments share the same served name.
    DuplicateModel {
        /// The served model name.
        model: String,
    },
    /// A version's `LoadedModel` name differs from the deployment name.
    NameMismatch {
        /// The served model name.
        model: String,
        /// The offending version number (1-based).
        version: u32,
        /// The version model's actual name.
        got: String,
    },
    /// A version's batch size differs from version 1's (sessions are
    /// issued against whichever version serves, so batch must be stable).
    BatchMismatch {
        /// The served model name.
        model: String,
        /// The offending version number (1-based).
        version: u32,
        /// The batch size of version 1.
        expected: u64,
        /// The offending version's batch size.
        got: u64,
    },
    /// Version publish times regress (versions must be published in
    /// monotonically non-decreasing order).
    PublishOrder {
        /// The served model name.
        model: String,
        /// The offending version number (1-based).
        version: u32,
    },
    /// A version's weights exceed the whole device budget: it could never
    /// be resident, so every route to it would wait forever.
    OversizedVersion {
        /// The served model name.
        model: String,
        /// The offending version number (1-based).
        version: u32,
        /// The version's weight bytes.
        bytes: u64,
        /// The device memory budget.
        budget: u64,
    },
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LifecycleError::NoVersions { model } => {
                write!(f, "deployment {model:?} declares no versions")
            }
            LifecycleError::DuplicateModel { model } => {
                write!(f, "deployment {model:?} is declared twice")
            }
            LifecycleError::NameMismatch { model, version, got } => write!(
                f,
                "deployment {model:?} version {version} wraps a model named {got:?}"
            ),
            LifecycleError::BatchMismatch { model, version, expected, got } => write!(
                f,
                "deployment {model:?} version {version} has batch {got}, expected {expected}"
            ),
            LifecycleError::PublishOrder { model, version } => write!(
                f,
                "deployment {model:?} version {version} is published before its predecessor"
            ),
            LifecycleError::OversizedVersion { model, version, bytes, budget } => write!(
                f,
                "deployment {model:?} version {version} needs {bytes} bytes, \
                 over the {budget}-byte device budget"
            ),
        }
    }
}

impl std::error::Error for LifecycleError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_errors() -> Vec<LifecycleError> {
        vec![
            LifecycleError::NoVersions { model: "svc".into() },
            LifecycleError::DuplicateModel { model: "svc".into() },
            LifecycleError::NameMismatch {
                model: "svc".into(),
                version: 2,
                got: "other".into(),
            },
            LifecycleError::BatchMismatch {
                model: "svc".into(),
                version: 2,
                expected: 4,
                got: 8,
            },
            LifecycleError::PublishOrder { model: "svc".into(), version: 2 },
            LifecycleError::OversizedVersion {
                model: "svc".into(),
                version: 1,
                bytes: 2048,
                budget: 1024,
            },
        ]
    }

    #[test]
    fn display_mentions_the_model_and_version() {
        for e in all_errors() {
            let text = e.to_string();
            assert!(text.contains("svc"), "{text}");
        }
        let text = LifecycleError::BatchMismatch {
            model: "svc".into(),
            version: 2,
            expected: 4,
            got: 8,
        }
        .to_string();
        assert!(text.contains("batch 8") && text.contains("expected 4"), "{text}");
    }

    #[test]
    fn errors_round_trip_through_the_error_trait() {
        for e in all_errors() {
            let boxed: Box<dyn std::error::Error> = Box::new(e.clone());
            assert_eq!(boxed.to_string(), e.to_string());
            assert!(boxed.source().is_none());
        }
    }
}
