//! The ECMP flow engine: destination-driven shortest-path routing with even
//! splits (paper §1.1, §2).
//!
//! Given a weight setting, a packet destined to `t` is forwarded at every
//! node over *all* outgoing links on shortest paths to `t`, and the flow
//! splits **evenly** among them (fine-grained packet-level splitting,
//! paper \[14\]). Segment routing decomposes each demand into consecutive
//! shortest-path *segments* between waypoints; each segment is an independent
//! ECMP flow towards the segment's destination.
//!
//! The engine aggregates all segments sharing a destination into a single
//! propagation pass over that destination's shortest-path DAG, which makes
//! evaluating a full demand matrix `O(Σ_t (E log V))` — one Dijkstra and one
//! linear sweep per distinct destination.
//!
//! Destination passes are independent, so [`Router::add_segment_loads`] fans
//! them out over the `segrout-par` pool. Destinations are grouped in a
//! `BTreeMap` and their per-destination load vectors are summed **in
//! destination order on the calling thread**, so the result is bit-identical
//! at any thread count (`f64` accumulation order never depends on
//! scheduling).

use crate::cost::max_link_utilization;
use crate::demand::DemandList;
use crate::error::TeError;
use crate::network::Network;
use crate::waypoints::WaypointSetting;
use crate::weights::WeightSetting;
use segrout_graph::{shortest_path_dag, EdgeId, NodeId, SpDag, EPS};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

thread_local! {
    /// Per-thread node-flow scratch of [`Router::append_segment_loads`],
    /// all zero between calls.
    static NODE_FLOW: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// One routing segment: `amount` units of flow from `src` to `dst`, routed
/// as an ECMP flow towards `dst`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Segment entry node.
    pub src: NodeId,
    /// Segment destination (a waypoint or the demand's final target).
    pub dst: NodeId,
    /// Flow amount carried by the segment.
    pub amount: f64,
}

/// Result of evaluating a routed demand set: per-link loads and the MLU.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// `loads[e]` = total flow on link `e`.
    pub loads: Vec<f64>,
    /// Maximum link utilization `max_e loads[e] / c(e)`.
    pub mlu: f64,
}

/// An ECMP router for one fixed `(network, weights)` pair.
///
/// Shortest-path DAGs are computed lazily per destination and cached, so the
/// waypoint optimizers can evaluate thousands of candidate routings against
/// the same weight setting cheaply. The cache is a `OnceLock` per
/// destination, making the router `Sync`: optimizer workers probe candidate
/// waypoints against one shared router concurrently, and each DAG is still
/// computed at most once.
///
/// ```
/// use segrout_core::{DemandList, Network, NodeId, Router, WaypointSetting, WeightSetting};
///
/// // Two equal-cost paths from 0 to 3: ECMP splits a 2-unit demand evenly.
/// let mut b = Network::builder(4);
/// b.link(NodeId(0), NodeId(1), 1.0);
/// b.link(NodeId(1), NodeId(3), 1.0);
/// b.link(NodeId(0), NodeId(2), 1.0);
/// b.link(NodeId(2), NodeId(3), 1.0);
/// let net = b.build()?;
///
/// let mut demands = DemandList::new();
/// demands.push(NodeId(0), NodeId(3), 2.0);
///
/// let router = Router::new(&net, &WeightSetting::unit(&net));
/// let report = router.evaluate(&demands, &WaypointSetting::none(1))?;
/// assert_eq!(report.loads, vec![1.0; 4]);
/// assert!((report.mlu - 1.0).abs() < 1e-12);
/// # Ok::<(), segrout_core::TeError>(())
/// ```
pub struct Router<'n> {
    net: &'n Network,
    weights: Vec<f64>,
    dags: Vec<OnceLock<Arc<SpDag>>>,
    // Handle resolved once per process so neither router construction nor
    // cache misses pay a registry lookup (HeurOSPF builds a router per
    // scored candidate on the from-scratch path).
    recomputes: &'static Arc<segrout_obs::Counter>,
}

/// The `ecmp.recomputes` counter handle, resolved once per process. Every
/// full per-destination DAG construction — by [`Router`] or by the
/// incremental evaluator — increments it; bounded repairs do not.
pub(crate) fn recompute_counter() -> &'static Arc<segrout_obs::Counter> {
    static HANDLE: OnceLock<Arc<segrout_obs::Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| segrout_obs::counter("ecmp.recomputes"))
}

impl<'n> Router<'n> {
    /// Creates a router for the given network and weight setting.
    pub fn new(net: &'n Network, weights: &WeightSetting) -> Self {
        Self {
            net,
            weights: weights.as_slice().to_vec(),
            dags: (0..net.node_count()).map(|_| OnceLock::new()).collect(),
            recomputes: recompute_counter(),
        }
    }

    /// The network this router operates on.
    #[inline]
    pub fn network(&self) -> &Network {
        self.net
    }

    /// The weight vector in use.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The (cached) shortest-path DAG towards `t`.
    pub fn dag(&self, t: NodeId) -> Arc<SpDag> {
        Arc::clone(self.cached_dag(t))
    }

    /// The cache slot of the DAG towards `t`, built on first use.
    fn cached_dag(&self, t: NodeId) -> &Arc<SpDag> {
        self.dags[t.index()].get_or_init(|| {
            self.recomputes.inc();
            Arc::new(shortest_path_dag(self.net.graph(), &self.weights, t, &[]))
        })
    }

    /// Shortest-path distance from `s` to `t` under the router's weights.
    pub fn distance(&self, s: NodeId, t: NodeId) -> f64 {
        self.dag(t).dist[s.index()]
    }

    /// Computes per-link loads of the ECMP flow induced by a set of routing
    /// segments. Segments sharing a destination are aggregated into one
    /// propagation pass.
    ///
    /// # Panics
    /// Panics when a segment endpoint is not a node of the network.
    pub fn loads_for_segments(&self, segments: &[Segment]) -> Result<Vec<f64>, TeError> {
        let mut loads = vec![0.0; self.net.edge_count()];
        self.add_segment_loads(segments, &mut loads)?;
        Ok(loads)
    }

    /// Adds the loads of `segments` onto an existing load vector.
    ///
    /// Destination passes run on the `segrout-par` pool; the per-destination
    /// load vectors are summed in ascending destination order on the calling
    /// thread, so the result does not depend on the thread count.
    pub fn add_segment_loads(
        &self,
        segments: &[Segment],
        loads: &mut [f64],
    ) -> Result<(), TeError> {
        // Group injected amounts by destination, in deterministic order.
        let dests: Vec<(NodeId, Vec<(NodeId, f64)>)> =
            group_by_destination(segments).into_iter().collect();
        let per_dest = segrout_par::par_map(dests.len(), |i| {
            let (t, injections) = &dests[i];
            self.destination_loads(*t, injections)
        });
        for dest_loads in per_dest {
            for (slot, l) in loads.iter_mut().zip(dest_loads?) {
                *slot += l;
            }
        }
        Ok(())
    }

    /// One propagation pass: the dense load vector of all `injections`
    /// routed towards `t`. Pure per-destination work, safe to run on any
    /// worker thread.
    fn destination_loads(
        &self,
        t: NodeId,
        injections: &[(NodeId, f64)],
    ) -> Result<Vec<f64>, TeError> {
        let dag = self.dag(t);
        let mut loads = vec![0.0; self.net.edge_count()];
        let mut node_flow = vec![0.0; self.net.node_count()];
        propagate_destination(self.net, &dag, injections, &mut loads, &mut node_flow)?;
        Ok(loads)
    }

    /// Appends the loads of one segment `src → dst` of size `amount` to
    /// `out` as `(edge, load)` pairs, in the order the propagation pass
    /// splits them: nodes in topological order, each node's next hops in
    /// ascending edge id. Every edge appears at most once per call. This is
    /// the inner walk of GreedyWPO and of the WPO MILP's option loads, which
    /// route `|D| · |V|` candidate segments.
    ///
    /// Allocation-free apart from `out`'s growth: it borrows the cached DAG
    /// and splits through a per-thread node-flow scratch, which is all zero
    /// again on return. Each share is the same `f64` operation on the same
    /// inputs as in [`Router::loads_for_segments`], so the pairs equal the
    /// dense loads bit for bit. A degenerate segment (`src == dst` or
    /// `amount <= EPS`) appends nothing.
    ///
    /// # Errors
    /// [`TeError::Unroutable`] when `src` cannot reach `dst`; `out` is then
    /// left as it was.
    ///
    /// # Panics
    /// Panics when `src` or `dst` is not a node of the network; the callers
    /// range-check their candidates once, outside this inner walk.
    pub fn append_segment_loads(
        &self,
        src: NodeId,
        dst: NodeId,
        amount: f64,
        out: &mut Vec<(EdgeId, f64)>,
    ) -> Result<(), TeError> {
        if src == dst || amount <= EPS {
            return Ok(());
        }
        let dag = self.cached_dag(dst);
        if !dag.reaches_target(src) {
            return Err(TeError::Unroutable { src, dst });
        }
        let graph = self.net.graph();
        NODE_FLOW.with(|scratch| {
            let mut node_flow = scratch.borrow_mut();
            if node_flow.len() < self.net.node_count() {
                node_flow.resize(self.net.node_count(), 0.0);
            }
            node_flow[src.index()] = amount;
            // `order` is sorted by decreasing distance and flow only moves
            // to strictly closer nodes, so the walk starts at the first node
            // no farther than `src`. Every node that receives flow is on
            // the DAG, hence in `order` (the target last), so taking each
            // entry as it is visited leaves the scratch zeroed.
            let d_src = dag.dist[src.index()];
            let start = dag.order.partition_point(|v| dag.dist[v.index()] > d_src);
            for &v in &dag.order[start..] {
                let f = std::mem::take(&mut node_flow[v.index()]);
                if f <= EPS || v == dst {
                    continue;
                }
                let outs = dag.dag_out(v);
                let share = f / outs.len() as f64;
                for &e in outs {
                    out.push((e, share));
                    node_flow[graph.dst(e).index()] += share;
                }
            }
        });
        Ok(())
    }

    /// Evaluates a full demand list under a waypoint setting, producing loads
    /// and MLU. Use [`WaypointSetting::none`] for pure OSPF/ECMP routing.
    /// A demand endpoint or waypoint outside the network is a
    /// [`TeError::OutOfRange`].
    pub fn evaluate(
        &self,
        demands: &DemandList,
        waypoints: &WaypointSetting,
    ) -> Result<LoadReport, TeError> {
        let (segments, _) = segments(self.net, demands, waypoints)?;
        let loads = self.loads_for_segments(&segments)?;
        let mlu = max_link_utilization(&loads, self.net.capacities());
        Ok(LoadReport { loads, mlu })
    }

    /// Convenience: MLU of the plain ECMP flow (no waypoints).
    pub fn mlu(&self, demands: &DemandList) -> Result<f64, TeError> {
        Ok(self
            .evaluate(demands, &WaypointSetting::none(demands.len()))?
            .mlu)
    }
}

/// The segment decomposition of a workload under a waypoint setting, in
/// demand order, with each demand's run: demand `k`'s segments are
/// `segments[runs[k]..runs[k + 1]]`. [`TeError::InvalidWaypoints`] when the
/// waypoint table has a different row count than the demand list, and the
/// [`Network::check_node`] error when a demand endpoint or a waypoint is not
/// a node of `net`.
pub(crate) fn segments(
    net: &Network,
    demands: &DemandList,
    waypoints: &WaypointSetting,
) -> Result<(Vec<Segment>, Vec<u32>), TeError> {
    if waypoints.len() != demands.len() {
        return Err(TeError::InvalidWaypoints(format!(
            "waypoint table has {} rows for {} demands",
            waypoints.len(),
            demands.len()
        )));
    }
    let mut segments = Vec::with_capacity(demands.len());
    let mut runs = Vec::with_capacity(demands.len() + 1);
    runs.push(0);
    for (i, d) in demands.iter().enumerate() {
        for (src, dst, amount) in waypoints.hops(i, d) {
            net.check_node(src)?;
            net.check_node(dst)?;
            segments.push(Segment { src, dst, amount });
        }
        runs.push(segments.len() as u32);
    }
    Ok((segments, runs))
}

/// Whether a segment injects flow: a segment to its own source or of an
/// amount at or below `EPS` routes nothing.
pub(crate) fn injects(seg: &Segment) -> bool {
    seg.src != seg.dst && seg.amount > EPS
}

/// Groups segments by destination in deterministic (ascending) order,
/// aggregating the injected amounts. Shared by [`Router::add_segment_loads`]
/// and the incremental evaluator so both see identical injection lists (same
/// order, hence the same `f64` accumulation sequence).
pub(crate) fn group_by_destination(segments: &[Segment]) -> BTreeMap<NodeId, Vec<(NodeId, f64)>> {
    let mut by_dest: BTreeMap<NodeId, Vec<(NodeId, f64)>> = BTreeMap::new();
    for seg in segments.iter().filter(|seg| injects(seg)) {
        by_dest
            .entry(seg.dst)
            .or_default()
            .push((seg.src, seg.amount));
    }
    by_dest
}

/// [`TeError::Unroutable`] naming the first of `injections`, in list order,
/// whose source cannot reach `dag.target`.
pub(crate) fn check_reachable(dag: &SpDag, injections: &[(NodeId, f64)]) -> Result<(), TeError> {
    match injections.iter().find(|&&(s, _)| !dag.reaches_target(s)) {
        Some(&(src, _)) => Err(TeError::Unroutable {
            src,
            dst: dag.target,
        }),
        None => Ok(()),
    }
}

/// Adds `injections` into `node_flow` in list order: the injection fold of
/// every propagation, and of the incremental evaluator's cached seed rows.
pub(crate) fn inject(injections: &[(NodeId, f64)], node_flow: &mut [f64]) {
    for &(s, amount) in injections {
        node_flow[s.index()] += amount;
    }
}

/// The ECMP propagation pass for one destination: routes all `injections`
/// towards `dag.target`, adding the resulting per-edge flow into `loads`
/// (which must be zeroed, `edge_count` long). `node_flow` is caller-provided
/// zeroed scratch of `node_count` length — it is left dirty on return so hot
/// loops can re-zero and reuse it instead of reallocating.
///
/// This is the single propagation code path in the workspace: the router and
/// the incremental evaluator both call it, so their per-destination partials
/// are bit-identical by construction.
pub(crate) fn propagate_destination(
    net: &Network,
    dag: &SpDag,
    injections: &[(NodeId, f64)],
    loads: &mut [f64],
    node_flow: &mut [f64],
) -> Result<(), TeError> {
    check_reachable(dag, injections)?;
    inject(injections, node_flow);
    spread_seeded(net, dag, loads, node_flow);
    Ok(())
}

/// The splitting half of [`propagate_destination`]: `node_flow` already holds
/// the injected amounts per source. Reachability is a property of the graph
/// alone (weights are always positive finite), so hot loops that validated a
/// destination once may seed `node_flow` from a cached slab — bitwise the
/// same values the injection fold produces — and skip the per-call check.
pub(crate) fn spread_seeded(net: &Network, dag: &SpDag, loads: &mut [f64], node_flow: &mut [f64]) {
    let t = dag.target;
    // `dag.order` is topological (decreasing distance), so each node has
    // received its full inflow before we split it.
    for &v in &dag.order {
        let f = node_flow[v.index()];
        if f <= EPS || v == t {
            continue;
        }
        let outs = dag.dag_out(v);
        debug_assert!(!outs.is_empty(), "non-target node on DAG without out-edge");
        let share = f / outs.len() as f64;
        for &e in outs {
            loads[e.index()] += share;
            node_flow[net.graph().dst(e).index()] += share;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;

    /// Diamond with unit weights: two equal-cost 2-hop paths from 0 to 3.
    fn diamond() -> Network {
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), 1.0);
        b.link(NodeId(1), NodeId(3), 1.0);
        b.link(NodeId(0), NodeId(2), 1.0);
        b.link(NodeId(2), NodeId(3), 1.0);
        b.build().unwrap()
    }

    #[test]
    fn even_split_over_two_paths() {
        let net = diamond();
        let w = WeightSetting::unit(&net);
        let router = Router::new(&net, &w);
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 2.0);
        let report = router.evaluate(&d, &WaypointSetting::none(1)).unwrap();
        assert_eq!(report.loads, vec![1.0, 1.0, 1.0, 1.0]);
        assert!((report.mlu - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weight_change_steers_all_flow_one_way() {
        let net = diamond();
        let mut w = WeightSetting::unit(&net);
        w.set(EdgeId(2), 5.0); // make path via node 2 longer
        let router = Router::new(&net, &w);
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 2.0);
        let report = router.evaluate(&d, &WaypointSetting::none(1)).unwrap();
        assert_eq!(report.loads, vec![2.0, 2.0, 0.0, 0.0]);
        assert!((report.mlu - 2.0).abs() < 1e-12);
    }

    #[test]
    fn waypoint_forces_detour() {
        let net = diamond();
        let mut w = WeightSetting::unit(&net);
        w.set(EdgeId(2), 5.0); // shortest path avoids node 2 ...
        let router = Router::new(&net, &w);
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 2.0);
        let mut wp = WaypointSetting::none(1);
        wp.set(0, vec![NodeId(2)]); // ... but the waypoint pins it through 2
        let report = router.evaluate(&d, &wp).unwrap();
        assert_eq!(report.loads, vec![0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn recursive_splitting() {
        // Binary fan-out: 0 splits to 1,2; both split to 3,4 via 4 parallel
        // length-2 routes; all reconverge at 5.
        let mut b = Network::builder(6);
        b.link(NodeId(0), NodeId(1), 1.0); // e0
        b.link(NodeId(0), NodeId(2), 1.0); // e1
        b.link(NodeId(1), NodeId(3), 1.0); // e2
        b.link(NodeId(1), NodeId(4), 1.0); // e3
        b.link(NodeId(2), NodeId(3), 1.0); // e4
        b.link(NodeId(2), NodeId(4), 1.0); // e5
        b.link(NodeId(3), NodeId(5), 1.0); // e6
        b.link(NodeId(4), NodeId(5), 1.0); // e7
        let net = b.build().unwrap();
        let router = Router::new(&net, &WeightSetting::unit(&net));
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(5), 4.0);
        let r = router.evaluate(&d, &WaypointSetting::none(1)).unwrap();
        assert!((r.loads[0] - 2.0).abs() < 1e-12);
        assert!((r.loads[2] - 1.0).abs() < 1e-12);
        assert!((r.loads[6] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn multiple_demands_same_destination_aggregate() {
        let net = diamond();
        let router = Router::new(&net, &WeightSetting::unit(&net));
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 1.0);
        d.push(NodeId(1), NodeId(3), 1.0);
        let r = router.evaluate(&d, &WaypointSetting::none(2)).unwrap();
        // Demand from 1 rides only edge 1; demand from 0 splits.
        assert!((r.loads[1] - 1.5).abs() < 1e-12);
        assert!((r.loads[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unroutable_segment_is_an_error() {
        let mut b = Network::builder(3);
        b.link(NodeId(0), NodeId(1), 1.0);
        let net = b.build().unwrap();
        let router = Router::new(&net, &WeightSetting::unit(&net));
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(2), 1.0);
        assert_eq!(
            router.mlu(&d).unwrap_err(),
            TeError::Unroutable {
                src: NodeId(0),
                dst: NodeId(2)
            }
        );
    }

    /// The node-flow scratch of the calling thread is all zero.
    fn assert_scratch_zeroed(ctx: &str) {
        NODE_FLOW.with(|s| assert!(s.borrow().iter().all(|&f| f.to_bits() == 0), "{ctx}"));
    }

    /// The segment walk of every ordered pair, on the diamond and the
    /// binary fan-out (both with ECMP splits), equals the dense evaluation
    /// of that one segment bit for bit: each touched edge once, at the dense
    /// load, every other edge at zero load. The scratch is all zero after
    /// every call, also after an unroutable one (edges point one way, so
    /// most reverse pairs are unroutable) and a degenerate one.
    #[test]
    fn segment_walk_matches_dense_loads_and_leaves_scratch_zeroed() {
        let mut b = Network::builder(6);
        for (u, v) in [
            (0, 1),
            (0, 2),
            (1, 3),
            (1, 4),
            (2, 3),
            (2, 4),
            (3, 5),
            (4, 5),
        ] {
            b.link(NodeId(u), NodeId(v), 1.0);
        }
        let fan_out = b.build().unwrap();
        let (mut routed, mut unroutable) = (0, 0);
        for net in [diamond(), fan_out] {
            let router = Router::new(&net, &WeightSetting::unit(&net));
            for (src, dst) in net
                .graph()
                .nodes()
                .flat_map(|s| net.graph().nodes().map(move |t| (s, t)))
            {
                let ctx = format!("{} nodes, {src:?} -> {dst:?}", net.node_count());
                let mut out = vec![(EdgeId(0), 7.0)]; // appended to, not cleared
                let walked = router.append_segment_loads(src, dst, 3.0, &mut out);
                assert_scratch_zeroed(&ctx);
                let seg = Segment {
                    src,
                    dst,
                    amount: 3.0,
                };
                let Ok(dense) = router.loads_for_segments(&[seg]) else {
                    assert!(walked.is_err(), "{ctx}: walk routed an unroutable segment");
                    assert_eq!(out, vec![(EdgeId(0), 7.0)], "{ctx}: error appended");
                    unroutable += 1;
                    continue;
                };
                walked.unwrap();
                assert_eq!(out[0], (EdgeId(0), 7.0), "{ctx}");
                let mut seen = vec![false; net.edge_count()];
                for &(e, l) in &out[1..] {
                    assert!(!seen[e.index()], "{ctx}: {e:?} twice");
                    seen[e.index()] = true;
                    assert_eq!(l.to_bits(), dense[e.index()].to_bits(), "{ctx}: {e:?}");
                }
                for (e, &l) in dense.iter().enumerate() {
                    assert!(seen[e] || l == 0.0, "{ctx}: edge {e} missed");
                }
                routed += usize::from(src != dst);
            }
        }
        assert!(
            routed > 10 && unroutable > 10,
            "{routed} routed, {unroutable} unroutable"
        );
    }

    #[test]
    fn flow_is_conserved_end_to_end() {
        let net = diamond();
        let router = Router::new(&net, &WeightSetting::unit(&net));
        let loads = router
            .loads_for_segments(&[Segment {
                src: NodeId(0),
                dst: NodeId(3),
                amount: 3.0,
            }])
            .unwrap();
        let into_target: f64 = net
            .graph()
            .in_edges(NodeId(3))
            .iter()
            .map(|e| loads[e.index()])
            .sum();
        assert!((into_target - 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_segments_are_ignored() {
        let net = diamond();
        let router = Router::new(&net, &WeightSetting::unit(&net));
        let loads = router
            .loads_for_segments(&[Segment {
                src: NodeId(1),
                dst: NodeId(1),
                amount: 5.0,
            }])
            .unwrap();
        assert!(loads.iter().all(|&l| l == 0.0));
    }

    #[test]
    fn dag_cache_is_reused() {
        let net = diamond();
        let router = Router::new(&net, &WeightSetting::unit(&net));
        let a = router.dag(NodeId(3));
        let b = router.dag(NodeId(3));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn distance_matches_weights() {
        let net = diamond();
        let router = Router::new(&net, &WeightSetting::unit(&net));
        assert_eq!(router.distance(NodeId(0), NodeId(3)), 2.0);
        assert_eq!(router.distance(NodeId(3), NodeId(3)), 0.0);
    }
}
