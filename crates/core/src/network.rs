//! The capacitated network `N = (V, E, c)` of paper §2.

use crate::error::TeError;
use segrout_graph::{Digraph, EdgeId, NodeId};

/// A directed capacitated network: a [`Digraph`] plus a positive real
/// capacity per link and optional human-readable node names.
#[derive(Clone, Debug)]
pub struct Network {
    graph: Digraph,
    capacity: Vec<f64>,
    names: Vec<String>,
}

impl Network {
    /// Builds a network from a graph and per-edge capacities.
    ///
    /// Node names default to the node indices; use
    /// [`Network::with_names`] for topologies with real router names.
    pub fn new(graph: Digraph, capacity: Vec<f64>) -> Result<Self, TeError> {
        if capacity.len() != graph.edge_count() {
            return Err(TeError::DimensionMismatch {
                what: "capacities",
                expected: graph.edge_count(),
                actual: capacity.len(),
            });
        }
        for (i, &c) in capacity.iter().enumerate() {
            if !(c.is_finite() && c > 0.0) {
                return Err(TeError::InvalidCapacity { edge: i, value: c });
            }
        }
        let names = (0..graph.node_count()).map(|i| i.to_string()).collect();
        Ok(Self {
            graph,
            capacity,
            names,
        })
    }

    /// Replaces the default node names.
    pub fn with_names(mut self, names: Vec<String>) -> Result<Self, TeError> {
        if names.len() != self.graph.node_count() {
            return Err(TeError::DimensionMismatch {
                what: "node names",
                expected: self.graph.node_count(),
                actual: names.len(),
            });
        }
        self.names = names;
        Ok(self)
    }

    /// The underlying directed graph.
    #[inline]
    pub fn graph(&self) -> &Digraph {
        &self.graph
    }

    /// Capacity of link `e` (the paper's `c_ℓ`).
    #[inline]
    pub fn capacity(&self, e: EdgeId) -> f64 {
        self.capacity[e.index()]
    }

    /// All capacities, indexed by edge id.
    #[inline]
    pub fn capacities(&self) -> &[f64] {
        &self.capacity
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of directed links `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// The range check of a node id passed in by a caller: a demand
    /// endpoint, a waypoint or a waypoint candidate.
    ///
    /// # Errors
    /// [`TeError::OutOfRange`] (`what: "node"`) unless `v` is a node of the
    /// network.
    pub fn check_node(&self, v: NodeId) -> Result<(), TeError> {
        let node_count = self.node_count();
        if v.index() < node_count {
            return Ok(());
        }
        Err(TeError::OutOfRange {
            what: "node",
            index: v.index(),
            count: node_count,
        })
    }

    /// Human-readable name of a node.
    #[inline]
    pub fn node_name(&self, v: NodeId) -> &str {
        &self.names[v.index()]
    }

    /// Looks up a node by its name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| NodeId(i as u32))
    }

    /// `true` when every link has the same capacity (the special case of
    /// paper §3.4 / Theorem 4.2, where `LWO = OPT` for single-pair demands).
    pub fn has_uniform_capacities(&self) -> bool {
        match self.capacity.first() {
            None => true,
            Some(&c0) => self
                .capacity
                .iter()
                .all(|&c| segrout_graph::approx_eq(c, c0)),
        }
    }

    /// Builder for assembling networks edge by edge.
    pub fn builder(n: usize) -> NetworkBuilder {
        NetworkBuilder {
            graph: Digraph::new(n),
            capacity: Vec::new(),
        }
    }
}

/// Incremental [`Network`] constructor used by topology code and tests.
#[derive(Clone, Debug)]
pub struct NetworkBuilder {
    graph: Digraph,
    capacity: Vec<f64>,
}

impl NetworkBuilder {
    /// Adds a directed link `u -> v` with the given capacity.
    pub fn link(&mut self, u: NodeId, v: NodeId, capacity: f64) -> EdgeId {
        let e = self.graph.add_edge(u, v);
        self.capacity.push(capacity);
        e
    }

    /// Adds the two directed links `u -> v` and `v -> u`, both with the given
    /// capacity (the "bi-directed arc" convention of the paper's figures).
    pub fn bilink(&mut self, u: NodeId, v: NodeId, capacity: f64) -> (EdgeId, EdgeId) {
        (self.link(u, v, capacity), self.link(v, u, capacity))
    }

    /// Appends an extra node.
    pub fn node(&mut self) -> NodeId {
        self.graph.add_node()
    }

    /// Finalizes the network, validating capacities.
    pub fn build(self) -> Result<Network, TeError> {
        Network::new(self.graph, self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let mut b = Network::builder(3);
        b.link(NodeId(0), NodeId(1), 10.0);
        b.bilink(NodeId(1), NodeId(2), 5.0);
        let net = b.build().unwrap();
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.edge_count(), 3);
        assert_eq!(net.capacity(EdgeId(0)), 10.0);
        assert_eq!(net.capacity(EdgeId(2)), 5.0);
    }

    #[test]
    fn rejects_nonpositive_capacity() {
        let mut b = Network::builder(2);
        b.link(NodeId(0), NodeId(1), 0.0);
        assert!(matches!(
            b.build(),
            Err(TeError::InvalidCapacity { edge: 0, .. })
        ));
    }

    #[test]
    fn rejects_nan_capacity() {
        let mut b = Network::builder(2);
        b.link(NodeId(0), NodeId(1), f64::NAN);
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_capacity_length_mismatch() {
        let g = Digraph::new(2);
        assert!(matches!(
            Network::new(g, vec![1.0]),
            Err(TeError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn uniform_capacity_detection() {
        let mut b = Network::builder(3);
        b.link(NodeId(0), NodeId(1), 2.0);
        b.link(NodeId(1), NodeId(2), 2.0);
        let net = b.build().unwrap();
        assert!(net.has_uniform_capacities());

        let mut b = Network::builder(3);
        b.link(NodeId(0), NodeId(1), 2.0);
        b.link(NodeId(1), NodeId(2), 3.0);
        assert!(!b.build().unwrap().has_uniform_capacities());
    }

    #[test]
    fn names_lookup() {
        let mut b = Network::builder(2);
        b.link(NodeId(0), NodeId(1), 1.0);
        let net = b
            .build()
            .unwrap()
            .with_names(vec!["vienna".into(), "dortmund".into()])
            .unwrap();
        assert_eq!(net.node_name(NodeId(1)), "dortmund");
        assert_eq!(net.node_by_name("vienna"), Some(NodeId(0)));
        assert_eq!(net.node_by_name("berlin"), None);
    }

    #[test]
    fn wrong_name_count_rejected() {
        let mut b = Network::builder(2);
        b.link(NodeId(0), NodeId(1), 1.0);
        assert!(b.build().unwrap().with_names(vec!["x".into()]).is_err());
    }
}
