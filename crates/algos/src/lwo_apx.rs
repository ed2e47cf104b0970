//! Algorithm 1 (LWO-APX): the `O(n log n)`-approximation for link-weight
//! optimization with single source–target demands (paper §5).
//!
//! The algorithm
//!
//! 1. computes an acyclic maximum `(s,t)`-flow `f*` and keeps its support
//!    DAG `G*` with *usable capacities* `c*(ℓ) = f*(ℓ)`;
//! 2. walks the nodes of `G*` in reverse topological order and, at each node
//!    `v`, keeps the prefix of outgoing links (sorted by decreasing effective
//!    capacity) maximizing `j · ec(ℓ_j)` — the best even-split — pruning the
//!    rest (lines 5–10);
//! 3. emits the Lemma 4.1 weight setting realizing the pruned DAG (line 11).
//!
//! The effective capacity of `s` on the pruned DAG is the size of the
//! ES-flow the weight setting supports; Theorem 5.4 shows it is within a
//! factor `n⌈ln Δ*⌉` of the maximum flow.

use crate::dag_weights::dag_realizing_weights;
use segrout_core::esflow::es_flow_loads;
use segrout_core::{Network, NodeId, TeError, WeightSetting};
use segrout_graph::{acyclic_max_flow, topological_order, EPS};

/// Output of [`lwo_apx`].
#[derive(Clone, Debug)]
pub struct LwoApxResult {
    /// The computed weight setting (integral weights).
    pub weights: WeightSetting,
    /// The pruned DAG the weights realize (edge mask).
    pub dag_mask: Vec<bool>,
    /// The exact size of the even-split flow deliverable under `weights`
    /// while respecting the usable capacities `c*` — computed by routing the
    /// realized splits, not from the (optimistic) per-node recursion.
    pub es_flow_value: f64,
    /// Size `|f*|` of the maximum `(s,t)`-flow (the OPT denominator).
    pub max_flow_value: f64,
}

impl LwoApxResult {
    /// The a-posteriori approximation ratio `|f*| / ec(s)` actually achieved
    /// on this instance (Theorem 5.4 guarantees it is `O(n log n)`).
    pub fn achieved_ratio(&self) -> f64 {
        if self.es_flow_value <= EPS {
            f64::INFINITY
        } else {
            self.max_flow_value / self.es_flow_value
        }
    }
}

/// Runs LWO-APX for the single source–target pair `(s, t)`.
///
/// ```
/// use segrout_algos::lwo_apx;
/// use segrout_core::{Network, NodeId};
///
/// // Three disjoint equal paths: even splitting is optimal, ratio 1.
/// let mut b = Network::builder(5);
/// for i in 1..=3u32 {
///     b.link(NodeId(0), NodeId(i), 2.0);
///     b.link(NodeId(i), NodeId(4), 2.0);
/// }
/// let net = b.build()?;
/// let r = lwo_apx(&net, NodeId(0), NodeId(4))?;
/// assert!((r.max_flow_value - 6.0).abs() < 1e-9);
/// assert!((r.es_flow_value - 6.0).abs() < 1e-9);
/// assert!((r.achieved_ratio() - 1.0).abs() < 1e-9);
/// # Ok::<(), segrout_core::TeError>(())
/// ```
///
/// # Errors
/// Returns [`TeError::Unroutable`] when `t` is unreachable from `s`.
pub fn lwo_apx(net: &Network, s: NodeId, t: NodeId) -> Result<LwoApxResult, TeError> {
    let _span = segrout_obs::span("lwo_apx");
    let g = net.graph();
    let flow = acyclic_max_flow(g, net.capacities(), s, t);
    if flow.value <= EPS {
        return Err(TeError::Unroutable { src: s, dst: t });
    }

    // G*: support of the acyclic max flow; c* = flow amounts.
    let mut mask = flow.support_mask();
    let usable: Vec<f64> = flow.on_edge.clone();

    let order = topological_order(g, &mask).expect("support of an acyclic flow must be acyclic");

    // Effective capacities, maximizing j * ec(l_j) at every node and pruning
    // the losing links (Algorithm 1 lines 5-10). Nodes are processed in
    // reverse topological order, so all out-edges are final when visited.
    let mut ec_node = vec![0.0; g.node_count()];
    let mut ec_edge = vec![0.0; g.edge_count()];
    ec_node[t.index()] = f64::INFINITY;

    for &v in order.iter().rev() {
        if v == t {
            for &e in g.in_edges(v) {
                if mask[e.index()] {
                    ec_edge[e.index()] = usable[e.index()];
                }
            }
            continue;
        }
        let mut outs: Vec<_> = g
            .out_edges(v)
            .iter()
            .copied()
            .filter(|e| mask[e.index()])
            .collect();
        if outs.is_empty() {
            // Node not on any s-t flow path (or a dead end after pruning
            // upstream): contributes nothing.
            for &e in g.in_edges(v) {
                if mask[e.index()] {
                    ec_edge[e.index()] = 0.0;
                }
            }
            continue;
        }
        // Sort by decreasing effective capacity (line 6).
        outs.sort_by(|a, b| {
            ec_edge[b.index()]
                .partial_cmp(&ec_edge[a.index()])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        // j* = argmax_j j * ec(l_j) (line 7); ties prefer splitting wider,
        // matching the paper's "break ties by always splitting".
        let mut j_star = 0usize;
        let mut best: f64 = -1.0;
        for (j, e) in outs.iter().enumerate() {
            let val = (j + 1) as f64 * ec_edge[e.index()];
            if val >= best - EPS * (1.0 + best.abs()) {
                if val > best {
                    best = val;
                }
                j_star = j;
            }
        }
        ec_node[v.index()] = (j_star + 1) as f64 * ec_edge[outs[j_star].index()];
        // Prune links past j* (line 10).
        for e in &outs[j_star + 1..] {
            mask[e.index()] = false;
        }
        // Effective capacity of incoming links (line 9).
        for &e in g.in_edges(v) {
            if mask[e.index()] {
                ec_edge[e.index()] = usable[e.index()].min(ec_node[v.index()]);
            }
        }
    }

    // Drop edges that can no longer reach t in the pruned DAG (dead ends):
    // iterate removals to a fixed point so the realized DAG routes all flow
    // to t.
    prune_dead_ends(net, &mut mask, t);

    // The recursion above decides the pruning, but its value ec(s) can
    // overestimate the deliverable flow: it bounds each in-edge of v by
    // min(c*, ec(v)) without bounding their sum, so where several kept
    // in-edges converge the even split pushes more through v than its kept
    // out-links can forward. Emit the exact value instead: route a unit
    // even-split flow through the realized splits and scale it to the
    // tightest usable capacity, so routing `es_flow_value` under the
    // Lemma 4.1 weights never exceeds c*.
    let es_flow_value = exact_es_flow(net, &mask, &usable, s, t);

    let weights = dag_realizing_weights(net, &mask)?;
    segrout_obs::counter("lwoapx.runs").inc();
    segrout_obs::event!(
        segrout_obs::Level::Debug,
        "lwoapx.done",
        es_flow = es_flow_value,
        max_flow = flow.value,
        kept_edges = mask.iter().filter(|&&b| b).count(),
    );
    Ok(LwoApxResult {
        weights,
        dag_mask: mask,
        es_flow_value,
        max_flow_value: flow.value,
    })
}

/// The exact maximum even-split flow on the pruned DAG under capacities
/// `usable`: per-edge loads of a unit ES-flow from `s`, scaled to the
/// tightest edge; 0 when `s` is cut off from `t` or no flow reaches `t`.
fn exact_es_flow(net: &Network, mask: &[bool], usable: &[f64], s: NodeId, t: NodeId) -> f64 {
    let g = net.graph();
    let unit_load = match es_flow_loads(g, mask, s, t, 1.0) {
        Ok(loads) => loads,
        Err(TeError::Unroutable { .. }) => return 0.0, // s cut off from t
        Err(e) => panic!("pruned DAG stays acyclic: {e}"),
    };
    let at_t: f64 = g.in_edges(t).iter().map(|e| unit_load[e.index()]).sum();
    if at_t <= EPS {
        return 0.0;
    }
    let mut scale = f64::INFINITY;
    for e in 0..g.edge_count() {
        if unit_load[e] > EPS {
            scale = scale.min(usable[e] / unit_load[e]);
        }
    }
    if scale.is_finite() {
        scale
    } else {
        0.0
    }
}

/// Removes masked edges that lead to nodes with no masked path to `t`.
fn prune_dead_ends(net: &Network, mask: &mut [bool], t: NodeId) {
    let g = net.graph();
    loop {
        let mut changed = false;
        for v in g.nodes() {
            if v == t {
                continue;
            }
            let has_out = g.out_edges(v).iter().any(|e| mask[e.index()]);
            if !has_out {
                for &e in g.in_edges(v) {
                    if mask[e.index()] {
                        mask[e.index()] = false;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segrout_core::{DemandList, Router, WaypointSetting};

    /// Paper Figure 3b network (capacities = usable capacities).
    fn figure_3b() -> Network {
        let mut b = Network::builder(6); // s=0, v1=1, v2=2, v3=3, v4=4, t=5
        b.link(NodeId(0), NodeId(1), 0.5);
        b.link(NodeId(0), NodeId(2), 1.0);
        b.link(NodeId(1), NodeId(3), 1.0 / 6.0);
        b.link(NodeId(1), NodeId(4), 1.0 / 3.0);
        b.link(NodeId(2), NodeId(3), 1.0 / 3.0);
        b.link(NodeId(2), NodeId(4), 2.0 / 3.0);
        b.link(NodeId(3), NodeId(5), 0.5);
        b.link(NodeId(4), NodeId(5), 1.0);
        b.build().unwrap()
    }

    #[test]
    fn prunes_the_bad_split_at_v2() {
        // Discussed under Figure 3b: splitting evenly at v2 yields 1/2; not
        // splitting (keeping only (v2,v4)) yields 2/3. LWO-APX must pick the
        // larger option, so ec(v2) = 2/3.
        let net = figure_3b();
        let r = lwo_apx(&net, NodeId(0), NodeId(5)).unwrap();
        assert!((r.max_flow_value - 1.5).abs() < 1e-9);
        // v2's two out-edges sorted by ec: (v2,v4) -> 2/3, (v2,v3) -> 1/3.
        // j=1: 2/3; j=2: 2*1/3 = 2/3. Tie broken towards splitting, giving
        // ec(v2) = 2/3 either way. At s: out-ec are min(c, ec): (s,v1) and
        // (s,v2). ec(v1) = 2 * 1/6 = 1/3 (or keep only (v1,v4): 1/3 — tie).
        // ec(s) = max(1*2/3, 2*1/3) = 2/3.
        assert!((r.es_flow_value - 2.0 / 3.0).abs() < 1e-9);
        assert!(r.achieved_ratio() > 2.0 && r.achieved_ratio() < 2.5);
    }

    #[test]
    fn weight_setting_realizes_the_es_flow() {
        // Route ec(s) units under the produced weights: no capacity excess.
        let net = figure_3b();
        let r = lwo_apx(&net, NodeId(0), NodeId(5)).unwrap();
        let router = Router::new(&net, &r.weights);
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(5), r.es_flow_value);
        let report = router.evaluate(&d, &WaypointSetting::none(1)).unwrap();
        assert!(
            report.mlu <= 1.0 + 1e-9,
            "ES-flow of size ec(s) must fit: mlu = {}",
            report.mlu
        );
    }

    #[test]
    fn single_path_network_is_exact() {
        let mut b = Network::builder(3);
        b.link(NodeId(0), NodeId(1), 5.0);
        b.link(NodeId(1), NodeId(2), 3.0);
        let net = b.build().unwrap();
        let r = lwo_apx(&net, NodeId(0), NodeId(2)).unwrap();
        assert!((r.max_flow_value - 3.0).abs() < 1e-9);
        assert!((r.es_flow_value - 3.0).abs() < 1e-9);
        assert!((r.achieved_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_equal_paths_split() {
        // k equal disjoint paths: even split is optimal, ratio 1.
        let k = 4u32;
        let mut b = Network::builder(2 + k as usize);
        for i in 0..k {
            let mid = NodeId(2 + i);
            b.link(NodeId(0), mid, 1.0);
            b.link(mid, NodeId(1), 1.0);
        }
        let net = b.build().unwrap();
        let r = lwo_apx(&net, NodeId(0), NodeId(1)).unwrap();
        assert!((r.es_flow_value - k as f64).abs() < 1e-9);
        assert!((r.achieved_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn harmonic_fan_keeps_prefix() {
        // TE-Instance 2 structure: parallel 2-hop paths with harmonic
        // capacities 1, 1/2, ..., 1/m. Max ES-flow = 1 (Lemma 3.10): any
        // prefix j gives j * (1/j) = 1.
        let m = 6u32;
        let mut b = Network::builder(2 + m as usize);
        for j in 1..=m {
            let mid = NodeId(1 + j);
            let c = 1.0 / j as f64;
            b.link(NodeId(0), mid, c);
            b.link(mid, NodeId(1), c);
        }
        let net = b.build().unwrap();
        let r = lwo_apx(&net, NodeId(0), NodeId(1)).unwrap();
        let h: f64 = (1..=m).map(|j| 1.0 / j as f64).sum();
        assert!((r.max_flow_value - h).abs() < 1e-9);
        assert!((r.es_flow_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn theorem_5_4_bound_holds() {
        // On every test network the achieved ratio must respect the
        // n * ceil(ln Delta*) guarantee.
        {
            let net = figure_3b();
            let r = lwo_apx(&net, NodeId(0), NodeId(5)).unwrap();
            let n = net.node_count() as f64;
            let delta = net.graph().max_out_degree() as f64;
            let bound = n * delta.ln().ceil().max(1.0);
            assert!(r.achieved_ratio() <= bound + 1e-9);
        }
    }

    #[test]
    fn unroutable_pair_errors() {
        let mut b = Network::builder(3);
        b.link(NodeId(0), NodeId(1), 1.0);
        let net = b.build().unwrap();
        assert!(lwo_apx(&net, NodeId(0), NodeId(2)).is_err());
    }
}
