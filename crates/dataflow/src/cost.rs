//! The cost-model API.
//!
//! Mirrors TensorFlow's cost-model interface that Olympian's profiler
//! consumes: a per-node cost table for one `(model, batch)` configuration.
//! In TensorFlow the table is filled by the CUPTI-based cost profiler; here
//! it is filled by the simulated profiler in `olympian::profiler`, which
//! measures each node's true cost with realistic noise.

use crate::graph::Graph;
use crate::node::NodeId;

/// Per-node cost table for one graph, in TensorFlow cost-model units.
///
/// ```
/// use dataflow::CostModel;
///
/// let cm = CostModel::from_costs(vec![10, 0, 25]);
/// assert_eq!(cm.total(), 35);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    costs: Vec<u64>,
}

impl CostModel {
    /// Builds a cost model from a dense per-node cost vector (indexed by
    /// `NodeId::index`).
    pub fn from_costs(costs: Vec<u64>) -> Self {
        CostModel { costs }
    }

    /// The exact cost model of a graph — the table a noise-free profiler
    /// would produce. Real profiling adds measurement noise on top; tests
    /// use this as the oracle.
    pub fn exact(graph: &Graph) -> Self {
        CostModel {
            costs: graph.nodes.iter().map(|n| n.true_cost).collect(),
        }
    }

    /// Cost of one node; 0 for CPU nodes.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the graph this model was built for.
    pub fn cost(&self, id: NodeId) -> u64 {
        self.costs[id.index()]
    }

    /// Sum of all node costs — the paper's `C_j`.
    pub fn total(&self) -> u64 {
        self.costs.iter().sum()
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// Returns a scaled copy: every cost multiplied by `factor` (used by the
    /// linear batch-size model to synthesize tables for unprofiled batches).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `factor` is negative or NaN.
    pub fn scaled(&self, factor: f64) -> CostModel {
        debug_assert!(factor >= 0.0, "negative cost scale {factor}");
        CostModel {
            costs: self
                .costs
                .iter()
                .map(|&c| (c as f64 * factor).round() as u64)
                .collect(),
        }
    }

    /// Iterates over `(NodeId, cost)`.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.costs
            .iter()
            .enumerate()
            .map(|(i, &c)| (NodeId(i as u32), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{GraphBuilder, NodeTemplate};
    use crate::node::OpKind;
    use simtime::SimDuration;

    fn sample_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(NodeTemplate::cpu("a", OpKind::Bookkeeping, SimDuration::from_nanos(1)));
        let c = b.add_node(NodeTemplate::gpu("c", OpKind::Conv2d, SimDuration::from_nanos(10), 180));
        b.add_edge(a, c).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn exact_matches_graph_costs() {
        let g = sample_graph();
        let cm = CostModel::exact(&g);
        assert_eq!(cm.total(), g.total_true_cost());
        assert_eq!(cm.cost(NodeId(0)), 0);
        assert_eq!(cm.cost(NodeId(1)), 180);
    }

    #[test]
    fn scaling_rounds() {
        let cm = CostModel::from_costs(vec![10, 15]);
        let s = cm.scaled(1.5);
        assert_eq!(s.cost(NodeId(0)), 15);
        assert_eq!(s.cost(NodeId(1)), 23);
    }
}
