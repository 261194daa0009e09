#![deny(missing_docs)]

//! Dataflow graphs: the TensorFlow-graph substrate of the Olympian
//! reproduction.
//!
//! A [`Graph`] is an immutable DAG of [`Node`]s. Each node carries:
//!
//! * an operation kind ([`OpKind`]) — convolution, matmul, decode, …
//! * a [`Placement`] — CPU or GPU, mirroring TensorFlow's device placement,
//! * a *true* execution duration (what the simulated device will take), and
//! * a *true* cost (what TensorFlow's cost-model API would report after an
//!   instrumented run; the paper's `C_j` is the sum of these).
//!
//! The serving engine (crate `serving`) walks graphs with the same
//! breadth-first, readiness-driven processing loop as TF-Serving
//! (Algorithm 1 of the paper); Olympian's scheduler hooks in at node
//! boundaries (Algorithm 2).
//!
//! ```
//! use dataflow::{GraphBuilder, NodeTemplate, OpKind, Placement};
//! use simtime::SimDuration;
//!
//! let mut b = GraphBuilder::new();
//! let decode = b.add_node(NodeTemplate::cpu("decode", OpKind::InputDecode,
//!     SimDuration::from_micros(50)));
//! let conv = b.add_node(NodeTemplate::gpu("conv1", OpKind::Conv2d,
//!     SimDuration::from_micros(200), 3000));
//! b.add_edge(decode, conv).unwrap();
//! let g = b.build().unwrap();
//! assert_eq!(g.node_count(), 2);
//! assert_eq!(g.gpu_node_count(), 1);
//! ```

mod builder;
mod cost;
mod graph;
mod node;

pub use builder::{GraphBuilder, NodeTemplate};
pub use cost::CostModel;
pub use graph::{Graph, GraphError};
pub use node::{Node, NodeId, OpKind, Placement};
