//! # segrout-graph
//!
//! Directed-graph substrate for the `segrout` traffic-engineering workspace.
//!
//! This crate provides every graph primitive the paper
//! *Traffic Engineering with Joint Link Weight and Segment Optimization*
//! (CoNEXT'21) relies on, implemented from scratch:
//!
//! * [`Digraph`] — a compact directed multigraph with stable node/edge ids,
//! * [`dijkstra`] — single-target shortest-path distances and the induced
//!   shortest-path DAG used by ECMP routing,
//! * [`topo`] — topological orderings and cycle detection,
//! * [`maxflow`] — Dinic maximum flow on real-valued capacities, cycle
//!   cancellation to obtain *acyclic* maximum flows (paper §2, "Acyclic
//!   Maximum Flow"), and flow decomposition into paths (paper Theorem 4.3),
//! * [`traversal`] — BFS/DFS reachability helpers,
//! * [`disjoint`] — edge-disjoint path extraction (Menger's theorem,
//!   paper Theorem 4.2).
//!
//! The graphs here are small (ISP backbones, tens to hundreds of nodes), so
//! the implementations favour clarity and robustness over asymptotic heroics,
//! in line with the repository's networking style guides.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digraph;
pub mod dijkstra;
pub mod disjoint;
pub mod maxflow;
pub mod metrics;
pub mod mincut;
pub mod topo;
pub mod traversal;

pub use digraph::{Digraph, EdgeId, NodeId};
pub use dijkstra::{
    csr_offsets, disable_edge_update, edge_change_affects_dag, edge_disabled, shortest_path_dag,
    single_target_distances, single_target_distances_heap, update_shortest_path_dag, SpDag,
    SpDagUpdate, INFINITY, MAX_DIAL_WEIGHT,
};
pub use maxflow::{acyclic_max_flow, decompose_into_paths, max_flow, Flow, FlowPath};
pub use metrics::{metrics, strongly_connected_components, GraphMetrics};
pub use mincut::{min_cut, MinCut};
pub use topo::{is_acyclic, topological_order};

/// Absolute tolerance used when comparing real-valued weights, capacities and
/// flow amounts throughout the workspace.
///
/// All inputs in the paper's evaluation are "human scale" (capacities in
/// Mbit/s, weights in `[1, 2 * max-degree * n]`), so an absolute epsilon is
/// appropriate; callers working at wildly different magnitudes should
/// normalise first.
pub const EPS: f64 = 1e-9;

/// Returns `true` when `a` and `b` are equal within [`EPS`] scaled by the
/// magnitude of the operands (so that comparisons stay meaningful for values
/// far from 1.0).
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    let scale = 1.0_f64.max(a.abs()).max(b.abs());
    (a - b).abs() <= EPS * scale
}

/// Returns `true` when `a` is strictly less than `b` beyond the scaled
/// tolerance of [`approx_eq`].
#[inline]
pub fn approx_lt(a: f64, b: f64) -> bool {
    !approx_eq(a, b) && a < b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_tolerates_tiny_differences() {
        assert!(approx_eq(1.0, 1.0 + 1e-12));
        assert!(approx_eq(0.0, 1e-10));
        assert!(!approx_eq(1.0, 1.001));
    }

    #[test]
    fn approx_eq_scales_with_magnitude() {
        assert!(approx_eq(1e12, 1e12 + 1.0));
        assert!(!approx_eq(1e12, 1.1e12));
    }

    #[test]
    fn approx_lt_is_strict() {
        assert!(approx_lt(1.0, 2.0));
        assert!(!approx_lt(1.0, 1.0 + 1e-12));
        assert!(!approx_lt(2.0, 1.0));
    }
}
