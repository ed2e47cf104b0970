//! A compact directed multigraph with stable integer node and edge ids.
//!
//! Nodes are created up front (`Digraph::new(n)`); edges are appended and
//! receive consecutive [`EdgeId`]s. Edge ids are the universal index into the
//! per-edge attribute vectors used across the workspace (capacities, weights,
//! loads), which keeps all hot paths allocation-free and cache friendly.

use std::fmt;

/// Identifier of a node (router). Wraps a dense index in `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of a directed edge (link). Wraps a dense index in `0..m`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The node id as a usable vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The edge id as a usable vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A directed multigraph.
///
/// Parallel edges are allowed (several of the paper's constructions use
/// parallel two-hop paths, and SNDLib topologies occasionally carry parallel
/// links); self-loops are rejected because no TE flow ever uses one.
#[derive(Clone, Debug, Default)]
pub struct Digraph {
    /// `edges[e] = (src, dst)`.
    edges: Vec<(NodeId, NodeId)>,
    /// Outgoing edge ids per node.
    out: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per node.
    inn: Vec<Vec<EdgeId>>,
}

impl Digraph {
    /// Creates a graph with `n` isolated nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        Self {
            edges: Vec::new(),
            out: vec![Vec::new(); n],
            inn: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Appends one more isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        NodeId((self.out.len() - 1) as u32)
    }

    /// Adds a directed edge `u -> v` and returns its id.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range, if `u == v` (self-loop),
    /// or if the edge count would overflow the `u32` id/offset domain the
    /// CSR arenas index with.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> EdgeId {
        assert!(
            u.index() < self.node_count() && v.index() < self.node_count(),
            "edge endpoint out of range: ({u:?}, {v:?}) with {} nodes",
            self.node_count()
        );
        assert!(u != v, "self-loops are not allowed ({u:?})");
        assert!(
            self.edges.len() < u32::MAX as usize,
            "edge count overflows the u32 id domain"
        );
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push((u, v));
        self.out[u.index()].push(id);
        self.inn[v.index()].push(id);
        id
    }

    /// The `(source, destination)` pair of an edge.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e.index()]
    }

    /// Source node of an edge.
    #[inline]
    pub fn src(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].0
    }

    /// Destination node of an edge.
    #[inline]
    pub fn dst(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].1
    }

    /// Outgoing edges of `v`.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.out[v.index()]
    }

    /// Incoming edges of `v`.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.inn[v.index()]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out[v.index()].len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.inn[v.index()].len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edge_count() as u32).map(EdgeId)
    }

    /// Iterator over `(edge, src, dst)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| (EdgeId(i as u32), u, v))
    }

    /// Looks up the first edge `u -> v`, if any.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.out[u.index()]
            .iter()
            .copied()
            .find(|&e| self.dst(e) == v)
    }

    /// The largest out-degree over all nodes (the paper's `Δ*`).
    pub fn max_out_degree(&self) -> usize {
        self.out.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Returns the reverse graph (every edge flipped). Edge ids are preserved,
    /// i.e. edge `e` in the reverse graph is edge `e` of `self` with swapped
    /// endpoints.
    pub fn reversed(&self) -> Digraph {
        let mut g = Digraph::new(self.node_count());
        for &(u, v) in &self.edges {
            // preserves ids because edges are appended in order
            g.add_edge(v, u);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Digraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut g = Digraph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        g
    }

    #[test]
    fn counts_and_degrees() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.out_degree(NodeId(3)), 0);
        assert_eq!(g.max_out_degree(), 2);
    }

    #[test]
    fn endpoints_round_trip() {
        let g = diamond();
        for (e, u, v) in g.edges() {
            assert_eq!(g.endpoints(e), (u, v));
            assert_eq!(g.src(e), u);
            assert_eq!(g.dst(e), v);
            assert!(g.out_edges(u).contains(&e));
            assert!(g.in_edges(v).contains(&e));
        }
    }

    #[test]
    fn parallel_edges_are_distinct() {
        let mut g = Digraph::new(2);
        let a = g.add_edge(NodeId(0), NodeId(1));
        let b = g.add_edge(NodeId(0), NodeId(1));
        assert_ne!(a, b);
        assert_eq!(g.out_degree(NodeId(0)), 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut g = Digraph::new(1);
        g.add_edge(NodeId(0), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut g = Digraph::new(1);
        g.add_edge(NodeId(0), NodeId(5));
    }

    #[test]
    fn reversed_preserves_edge_ids() {
        let g = diamond();
        let r = g.reversed();
        for e in g.edge_ids() {
            assert_eq!(g.src(e), r.dst(e));
            assert_eq!(g.dst(e), r.src(e));
        }
    }

    #[test]
    fn find_edge_finds_first_match() {
        let g = diamond();
        assert_eq!(g.find_edge(NodeId(0), NodeId(1)), Some(EdgeId(0)));
        assert_eq!(g.find_edge(NodeId(1), NodeId(0)), None);
    }

    #[test]
    fn add_node_extends_graph() {
        let mut g = diamond();
        let v = g.add_node();
        assert_eq!(v, NodeId(4));
        assert_eq!(g.node_count(), 5);
        g.add_edge(NodeId(3), v);
        assert_eq!(g.in_degree(v), 1);
    }
}
