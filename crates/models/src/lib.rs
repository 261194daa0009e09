#![deny(missing_docs)]

//! The model zoo: synthetic dataflow graphs calibrated to the seven DNNs the
//! paper evaluates.
//!
//! The paper's Table 2 fixes, per model, the total node count, GPU-node
//! count and single-job runtime at a reference batch size; Figure 4 fixes
//! the node-duration distribution. The generators here reproduce those
//! aggregates with deterministic synthetic graphs:
//!
//! * graph *structure* is fixed per model (independent of batch size, as in
//!   TensorFlow),
//! * node *durations* scale affinely with batch size (a fixed launch part
//!   plus a batch-proportional part),
//! * node *costs* follow each op's cost density, landing whole-model
//!   cost/duration rates near the paper's ≈15× ratio.
//!
//! ```
//! use models::{load, ModelKind};
//!
//! let m = load(ModelKind::InceptionV4, 100)?;
//! assert_eq!(m.kind(), Some(ModelKind::InceptionV4));
//! assert!(m.graph().gpu_node_count() > 10_000);
//! # Ok::<(), models::ModelError>(())
//! ```

mod calibration;
mod gen;
pub mod mini;

pub use calibration::{spec, Calibration};

use dataflow::Graph;
use std::fmt;
use std::sync::Arc;

/// The seven DNN models of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Inception-v4 (the paper's default workload).
    InceptionV4,
    /// GoogLeNet.
    GoogLeNet,
    /// AlexNet.
    AlexNet,
    /// VGG-16.
    Vgg,
    /// ResNet-50.
    ResNet50,
    /// ResNet-101.
    ResNet101,
    /// ResNet-152 (the paper's heterogeneous-workload partner).
    ResNet152,
}

impl ModelKind {
    /// All models, in Table 2 order.
    pub const ALL: [ModelKind; 7] = [
        ModelKind::InceptionV4,
        ModelKind::GoogLeNet,
        ModelKind::AlexNet,
        ModelKind::Vgg,
        ModelKind::ResNet50,
        ModelKind::ResNet101,
        ModelKind::ResNet152,
    ];

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::InceptionV4 => "inception-v4",
            ModelKind::GoogLeNet => "googlenet",
            ModelKind::AlexNet => "alexnet",
            ModelKind::Vgg => "vgg",
            ModelKind::ResNet50 => "resnet-50",
            ModelKind::ResNet101 => "resnet-101",
            ModelKind::ResNet152 => "resnet-152",
        }
    }

    /// The batch size Table 2 characterizes this model at.
    pub fn reference_batch(self) -> u64 {
        spec(self).reference_batch
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors from model loading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// Batch size must be at least 1.
    ZeroBatch,
    /// Batch size exceeds what the serving system supports (guards against
    /// pathological memory sizing).
    BatchTooLarge {
        /// The requested batch.
        requested: u64,
        /// The maximum supported batch.
        max: u64,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::ZeroBatch => write!(f, "batch size must be at least 1"),
            ModelError::BatchTooLarge { requested, max } => {
                write!(f, "batch size {requested} exceeds maximum {max}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Largest batch size the zoo will generate.
pub const MAX_BATCH: u64 = 1024;

/// A model instantiated at a concrete batch size: the graph plus its memory
/// footprint.
#[derive(Debug, Clone)]
pub struct LoadedModel {
    name: String,
    kind: Option<ModelKind>,
    batch: u64,
    graph: Arc<Graph>,
    weights_bytes: u64,
    activation_bytes: u64,
}

impl LoadedModel {
    /// The model's name — the key profiles are stored under. Zoo models use
    /// their [`ModelKind::name`]; miniatures (see [`mini`]) use `mini-*`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Which zoo model this is, if it is one ([`None`] for miniatures).
    pub fn kind(&self) -> Option<ModelKind> {
        self.kind
    }

    /// The batch size the graph was instantiated at.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// The dataflow graph (shared; jobs never mutate it).
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Bytes of model weights. Loaded once per model and *shared* by every
    /// client of that model, as in TF-Serving.
    pub fn weights_bytes(&self) -> u64 {
        self.weights_bytes
    }

    /// Bytes of per-job activation memory (scales with batch size; allocated
    /// per concurrent client).
    pub fn activation_bytes(&self) -> u64 {
        self.activation_bytes
    }

    /// Assembles a model from explicit parts. Used by the [`mini`] builders;
    /// experiments should go through [`load`].
    pub fn from_parts(
        name: impl Into<String>,
        kind: Option<ModelKind>,
        batch: u64,
        graph: Arc<Graph>,
        weights_bytes: u64,
        activation_bytes: u64,
    ) -> LoadedModel {
        LoadedModel {
            name: name.into(),
            kind,
            batch,
            graph,
            weights_bytes,
            activation_bytes,
        }
    }
}

/// Instantiates a model at a batch size. Deterministic: the same
/// `(kind, batch)` always yields the identical graph.
///
/// # Errors
///
/// * [`ModelError::ZeroBatch`] if `batch == 0`.
/// * [`ModelError::BatchTooLarge`] if `batch > MAX_BATCH`.
pub fn load(kind: ModelKind, batch: u64) -> Result<LoadedModel, ModelError> {
    if batch == 0 {
        return Err(ModelError::ZeroBatch);
    }
    if batch > MAX_BATCH {
        return Err(ModelError::BatchTooLarge {
            requested: batch,
            max: MAX_BATCH,
        });
    }
    let cal = spec(kind);
    let graph = gen::generate(kind, cal, batch);
    Ok(LoadedModel {
        name: kind.name().to_string(),
        kind: Some(kind),
        batch,
        graph: Arc::new(graph),
        weights_bytes: cal.weights_mb * 1024 * 1024,
        activation_bytes: cal.activation_kb_per_sample * 1024 * batch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_batch_rejected() {
        assert_eq!(load(ModelKind::Vgg, 0).unwrap_err(), ModelError::ZeroBatch);
    }

    #[test]
    fn oversize_batch_rejected() {
        match load(ModelKind::Vgg, MAX_BATCH + 1).unwrap_err() {
            ModelError::BatchTooLarge { requested, max } => {
                assert_eq!(requested, MAX_BATCH + 1);
                assert_eq!(max, MAX_BATCH);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn loading_is_deterministic() {
        let a = load(ModelKind::ResNet50, 32).unwrap();
        let b = load(ModelKind::ResNet50, 32).unwrap();
        assert_eq!(a.graph().as_ref(), b.graph().as_ref());
    }

    #[test]
    fn structure_is_batch_independent() {
        let a = load(ModelKind::ResNet50, 16).unwrap();
        let b = load(ModelKind::ResNet50, 128).unwrap();
        assert_eq!(a.graph().node_count(), b.graph().node_count());
        assert_eq!(a.graph().gpu_node_count(), b.graph().gpu_node_count());
    }

    #[test]
    fn durations_scale_with_batch() {
        let small = load(ModelKind::InceptionV4, 10).unwrap();
        let big = load(ModelKind::InceptionV4, 100).unwrap();
        let r = big.graph().total_gpu_time().as_nanos() as f64
            / small.graph().total_gpu_time().as_nanos() as f64;
        assert!(r > 2.0 && r < 10.0, "scale ratio {r}");
    }

    #[test]
    fn activation_memory_scales_with_batch() {
        let a = load(ModelKind::ResNet152, 10).unwrap();
        let b = load(ModelKind::ResNet152, 100).unwrap();
        assert_eq!(b.activation_bytes(), a.activation_bytes() * 10);
        assert_eq!(a.weights_bytes(), b.weights_bytes());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ModelKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }
}
