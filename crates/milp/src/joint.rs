//! The Joint (and LWO) mixed-integer formulation: integer link weights,
//! shortest-path indicator variables with big-M coupling, exact ECMP
//! even-splitting, and binary waypoint selection (paper §1.2 / artifact
//! \[18\]).
//!
//! # Model
//!
//! For every *commodity destination* `t` (demand targets plus waypoint
//! candidates) and every edge `e = (u, v)`:
//!
//! ```text
//! (a)  d_u^t ≤ w_e + d_v^t                       (distance optimality)
//! (b)  d_u^t ≥ w_e + d_v^t − M_d (1 − x_e^t)     (x = 1 ⇒ tight)
//! (c)  w_e + d_v^t − d_u^t ≥ 1 − M_d x_e^t       (x = 0 ⇒ slack ≥ 1)
//! (f1) f_e^{t,k} ≤ M_f^k x_e^t
//! (f2) f_e^{t,k} ≤ m_u^{t,k}
//! (f3) f_e^{t,k} ≥ m_u^{t,k} − M_f^k (1 − x_e^t)  (even split: share m_u)
//! ```
//!
//! plus flow conservation with waypoint-dependent injections, one-of-`k`
//! waypoint selection per demand, and `Σ_t f_e^{t,k} ≤ θ c_e`.
//!
//! # Robust multi-matrix extension
//!
//! [`joint_milp_robust`] solves the same model against a [`DemandSet`] of
//! `K` aligned traffic matrices. The weight-dependent variables (`w`,
//! distance labels `d`, tight-edge indicators `x`) and the waypoint
//! selectors `y` are **shared** — one configuration serves every matrix —
//! while each matrix `k` gets its own flow/share block `(f^k, m^k)`,
//! conservation rows, and capacity rows `Σ_t f_e^{t,k} ≤ θ c_e`. The
//! single `θ` bounded by every matrix's capacity rows is the FIGRET/TROD
//! *max-envelope* trick: minimizing `θ` minimizes the worst-case MLU over
//! the set. `K = 1` degenerates to exactly the classic model (same
//! variables, same constraints, in the same order), so [`joint_milp`]
//! delegates here bit-identically.
//!
//! # Exactness
//!
//! With integer weights, (a)–(c) make `x` *exactly* the tight-edge set of the
//! distance labels, and an induction along flow-carrying nodes shows the
//! labels equal true shortest distances wherever flow exists: a flow path
//! has cost `d_s` by telescoping, every path costs at least the true
//! distance, and (a) bounds `d_s` by it — so they coincide, and (c) then
//! forces *every* truly tight edge at a flow-carrying node active, i.e. the
//! even split is over the full ECMP next-hop set. The model is therefore an
//! exact encoding of the paper's Joint problem (for `W ≤ 1` waypoints).
//!
//! Like the paper's Gurobi runs, exact solves are practical only on small
//! instances; on Abilene-scale inputs use the node/time limits plus the
//! JOINT-Heur warm start and report the incumbent.

use segrout_core::{
    DemandList, DemandSet, Network, NodeId, RobustObjective, Router, TeError, WaypointSetting,
    WeightSetting,
};
use segrout_lp::{solve_milp, Cmp, MilpOptions, MilpResult, MilpStatus, Problem, Sense, VarId};
use std::collections::HashMap;

/// Options for the Joint MILP.
#[derive(Clone, Debug)]
pub struct JointMilpOptions {
    /// Largest integer weight.
    pub max_weight: u32,
    /// Waypoint budget per demand: 0 (pure LWO) or 1.
    pub waypoints: usize,
    /// Candidate waypoint nodes (defaults to all nodes).
    pub candidates: Option<Vec<NodeId>>,
    /// Branch-and-bound limits.
    pub milp: MilpOptions,
    /// Optional warm start: a joint setting to seed the incumbent.
    pub warm_start: Option<(WeightSetting, WaypointSetting)>,
}

impl Default for JointMilpOptions {
    fn default() -> Self {
        Self {
            max_weight: 8,
            waypoints: 1,
            candidates: None,
            milp: MilpOptions::default(),
            warm_start: None,
        }
    }
}

/// Result of the Joint MILP.
#[derive(Clone, Debug)]
pub struct JointMilpOutcome {
    /// The selected integer weight setting.
    pub weights: WeightSetting,
    /// The selected waypoints.
    pub waypoints: WaypointSetting,
    /// MLU of the configuration, re-evaluated with the ECMP engine (ground
    /// truth, independent of the MILP's internal θ). For robust solves this
    /// is the worst-case MLU over the set's matrices.
    pub mlu: f64,
    /// Per-matrix MLU of the configuration, in set order (a one-element
    /// vector for the single-matrix entry points).
    pub matrix_mlus: Vec<f64>,
    /// Solver status.
    pub status: MilpStatus,
    /// Dual bound on the optimal Joint MLU (worst-case over matrices for
    /// robust solves).
    pub bound: f64,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
}

/// Per-destination variable block. The weight-dependent variables (`dist`,
/// `x`) are shared by every matrix; flows and shares are per matrix
/// (`f[k][e]`, `share[k][v]`).
struct DestBlock {
    /// `d_v` distance vars (`None` at the destination itself: fixed 0).
    dist: Vec<Option<VarId>>,
    /// `x_e` indicator vars.
    x: Vec<VarId>,
    /// Per-matrix `f_e` flow vars.
    f: Vec<Vec<VarId>>,
    /// Per-matrix `m_v` share vars.
    share: Vec<Vec<Option<VarId>>>,
}

/// Solves the Joint problem (weights + up to one waypoint per demand).
///
/// # Errors
/// Returns [`TeError::Unroutable`] when the model is proven infeasible
/// (some demand pair is disconnected), [`TeError::SolverLimit`] when the
/// search hit its node/time limit without finding any incumbent, and
/// [`TeError::OutOfRange`] when a waypoint candidate is not a node
/// of the network.
pub fn joint_milp(
    net: &Network,
    demands: &DemandList,
    options: &JointMilpOptions,
) -> Result<JointMilpOutcome, TeError> {
    joint_milp_with(net, demands, options, solve_milp)
}

/// [`joint_milp`] with the MILP solver passed in: it builds the Joint model
/// and hands it, with the branch-and-bound options, to `solve`, so a test
/// can run the same model through another solver (the LP oracle of
/// `segrout-check`).
///
/// # Errors
/// As [`joint_milp`].
pub fn joint_milp_with(
    net: &Network,
    demands: &DemandList,
    options: &JointMilpOptions,
    solve: impl FnOnce(&Problem, &MilpOptions) -> MilpResult,
) -> Result<JointMilpOutcome, TeError> {
    solve_joint(
        net,
        &DemandSet::single(demands.clone()),
        RobustObjective::WorstCase,
        options,
        solve,
    )
}

/// Solves the robust Joint problem over an aligned set of traffic matrices:
/// one weight/waypoint configuration whose **worst-case** MLU over the set
/// is minimized, via per-matrix flow blocks under a shared max-envelope θ.
/// A single-matrix set is bit-identical to [`joint_milp`].
///
/// Only the worst-case objective has an exact MILP encoding (`θ` bounds
/// every matrix); use the robust heuristics for general quantiles.
///
/// # Errors
/// Returns [`TeError::Unroutable`] when the model is proven infeasible,
/// [`TeError::SolverLimit`] on a limit abort without incumbent,
/// [`TeError::InvalidWaypoints`] for misaligned sets, and
/// [`TeError::OutOfRange`] when a waypoint candidate is not a node
/// of the network.
///
/// # Panics
/// Panics on an empty set, a non-worst-case objective (`Quantile(q)` with
/// `q < 1`), `waypoints > 1`, or `max_weight < 1`.
pub fn joint_milp_robust(
    net: &Network,
    set: &DemandSet,
    robust: RobustObjective,
    options: &JointMilpOptions,
) -> Result<JointMilpOutcome, TeError> {
    solve_joint(net, set, robust, options, solve_milp)
}

/// Builds the (robust) Joint model, solves it with `solve` and decodes the
/// result: the body of [`joint_milp_robust`] and [`joint_milp_with`].
fn solve_joint(
    net: &Network,
    set: &DemandSet,
    robust: RobustObjective,
    options: &JointMilpOptions,
    solve: impl FnOnce(&Problem, &MilpOptions) -> MilpResult,
) -> Result<JointMilpOutcome, TeError> {
    assert!(options.waypoints <= 1, "only W <= 1 is modelled");
    assert!(options.max_weight >= 1);
    assert!(!set.is_empty(), "demand set must hold at least one matrix");
    assert!(
        robust.is_worst_case(),
        "the MILP encodes only the worst-case objective (θ bounds every \
         matrix); quantile objectives need the robust heuristics"
    );
    set.require_aligned()?;
    let nmat = set.len();
    let pairs = set.pairs();
    let g = net.graph();
    let n = g.node_count();
    let w_max = options.max_weight as f64;
    let m_dist = (n as f64) * w_max + w_max; // big-M for distances
                                             // Big-M for flows, per matrix (a matrix's flow never exceeds its own
                                             // total demand).
    let m_flow: Vec<f64> = set.matrices().map(DemandList::total_size).collect();

    let all_nodes: Vec<NodeId> = g.nodes().collect();
    let candidates: Vec<NodeId> = if options.waypoints == 0 {
        Vec::new()
    } else {
        options
            .candidates
            .clone()
            .unwrap_or_else(|| all_nodes.clone())
    };
    for &w in &candidates {
        net.check_node(w)?;
    }

    // Commodity destinations: demand targets plus waypoint candidates.
    let mut dests: Vec<NodeId> = Vec::new();
    for &(_, dst) in &pairs {
        if !dests.contains(&dst) {
            dests.push(dst);
        }
    }
    for &w in &candidates {
        if !dests.contains(&w) {
            dests.push(w);
        }
    }

    let mut p = Problem::new(Sense::Minimize);
    let theta = p.add_var(0.0, f64::INFINITY, 1.0);
    let wvar: Vec<VarId> = g
        .edge_ids()
        .map(|_| p.add_int_var(1.0, w_max, 0.0))
        .collect();

    // Destination blocks.
    let mut blocks: HashMap<NodeId, DestBlock> = HashMap::new();
    for &t in &dests {
        let dist: Vec<Option<VarId>> = all_nodes
            .iter()
            .map(|&v| (v != t).then(|| p.add_var(0.0, (n as f64) * w_max, 0.0)))
            .collect();
        let x: Vec<VarId> = g.edge_ids().map(|_| p.add_bin_var(0.0)).collect();
        let f: Vec<Vec<VarId>> = (0..nmat)
            .map(|_| {
                g.edge_ids()
                    .map(|_| p.add_var(0.0, f64::INFINITY, 0.0))
                    .collect()
            })
            .collect();
        let share: Vec<Vec<Option<VarId>>> = (0..nmat)
            .map(|_| {
                all_nodes
                    .iter()
                    .map(|&v| (v != t).then(|| p.add_var(0.0, f64::INFINITY, 0.0)))
                    .collect()
            })
            .collect();

        for (e, u, v) in g.edges() {
            let ei = e.index();
            let du = dist[u.index()];
            let dv = dist[v.index()];
            // terms for d_u - d_v - w_e (handling the fixed-0 destination).
            let mut base: Vec<(VarId, f64)> = vec![(wvar[ei], -1.0)];
            if let Some(du) = du {
                base.push((du, 1.0));
            }
            if let Some(dv) = dv {
                base.push((dv, -1.0));
            }
            // (a) d_u - d_v - w_e <= 0
            p.add_constraint(base.clone(), Cmp::Le, 0.0);
            // (b) d_u - d_v - w_e >= -M_d (1 - x) <=> base + (-M_d) x >= -M_d
            let mut b = base.clone();
            b.push((x[ei], -m_dist));
            p.add_constraint(b, Cmp::Ge, -m_dist);
            // (c) w_e + d_v - d_u >= 1 - M_d x <=> -base + M_d x >= 1
            let mut c: Vec<(VarId, f64)> = base.iter().map(|&(v, a)| (v, -a)).collect();
            c.push((x[ei], m_dist));
            p.add_constraint(c, Cmp::Ge, 1.0);
            // Per-matrix flow coupling against the shared indicator.
            for k in 0..nmat {
                // (f1) f <= M_f x
                p.add_constraint(vec![(f[k][ei], 1.0), (x[ei], -m_flow[k])], Cmp::Le, 0.0);
                // (f2) f <= m_u ; (f3) f >= m_u - M_f (1 - x)
                if let Some(mu) = share[k][u.index()] {
                    p.add_constraint(vec![(f[k][ei], 1.0), (mu, -1.0)], Cmp::Le, 0.0);
                    p.add_constraint(
                        vec![(f[k][ei], 1.0), (mu, -1.0), (x[ei], -m_flow[k])],
                        Cmp::Ge,
                        -m_flow[k],
                    );
                }
            }
        }

        blocks.insert(t, DestBlock { dist, x, f, share });
    }

    // Waypoint selection variables, shared by every matrix (the set is
    // aligned, so demand index i is the same pair everywhere).
    // y[i][0] = direct; y[i][k] = candidate k.
    let mut yvars: Vec<Vec<(Option<NodeId>, VarId)>> = Vec::new();
    for &(src, dst) in &pairs {
        let mut row: Vec<(Option<NodeId>, VarId)> = vec![(None, p.add_bin_var(0.0))];
        for &w in &candidates {
            if w != src && w != dst {
                row.push((Some(w), p.add_bin_var(0.0)));
            }
        }
        p.add_constraint(row.iter().map(|&(_, y)| (y, 1.0)).collect(), Cmp::Eq, 1.0);
        yvars.push(row);
    }

    // Conservation with waypoint-dependent injections, per matrix:
    // out - in - Σ_i d_i^k (injection coefficient of y) = 0.
    for &t in &dests {
        let block = &blocks[&t];
        for (k, demands) in set.matrices().enumerate() {
            for &v in &all_nodes {
                if v == t {
                    continue;
                }
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                for &e in g.out_edges(v) {
                    terms.push((block.f[k][e.index()], 1.0));
                }
                for &e in g.in_edges(v) {
                    terms.push((block.f[k][e.index()], -1.0));
                }
                // Injection of each demand option into commodity t at node v.
                for (i, d) in demands.iter().enumerate() {
                    for &(wp, y) in &yvars[i] {
                        let mut coeff = 0.0;
                        match wp {
                            None => {
                                // direct: d units from s_i toward t_i
                                if t == d.dst && v == d.src {
                                    coeff += d.size;
                                }
                            }
                            Some(w) => {
                                // segment 1: s_i -> w; segment 2: w -> t_i
                                if t == w && v == d.src {
                                    coeff += d.size;
                                }
                                if t == d.dst && v == w {
                                    coeff += d.size;
                                }
                            }
                        }
                        if coeff != 0.0 {
                            terms.push((y, -coeff));
                        }
                    }
                }
                p.add_constraint(terms, Cmp::Eq, 0.0);
            }
        }
    }

    // Capacity rows: the max-envelope θ bounds every matrix's load on every
    // edge, so minimizing θ minimizes the worst-case MLU over the set.
    for e in g.edge_ids() {
        for k in 0..nmat {
            let mut terms: Vec<(VarId, f64)> = dests
                .iter()
                .map(|t| (blocks[t].f[k][e.index()], 1.0))
                .collect();
            terms.push((theta, -net.capacity(e)));
            p.add_constraint(terms, Cmp::Le, 0.0);
        }
    }

    // Warm start.
    let warm = options.warm_start.as_ref().and_then(|(w, wp)| {
        build_warm_start(
            &p,
            net,
            set,
            &dests,
            &blocks,
            &yvars,
            theta,
            &wvar,
            w,
            wp,
            options.max_weight,
        )
    });
    let milp_opts = MilpOptions {
        warm_start: warm,
        ..options.milp.clone()
    };

    let result = solve(&p, &milp_opts);
    let Some(values) = result.values else {
        // No incumbent: only a proven-infeasible model means a disconnected
        // pair; a limit abort without an incumbent is a solver failure.
        return Err(match result.status {
            MilpStatus::Infeasible => {
                let (src, dst) = pairs.first().copied().unwrap_or((NodeId(0), NodeId(0)));
                TeError::Unroutable { src, dst }
            }
            MilpStatus::LimitReached => TeError::SolverLimit {
                what: "Joint MILP",
                status: "node/time limit without incumbent",
            },
            _ => TeError::SolverLimit {
                what: "Joint MILP",
                status: "no incumbent",
            },
        });
    };

    // Decode.
    let weights = WeightSetting::new(
        net,
        wvar.iter().map(|v| values[v.0].round().max(1.0)).collect(),
    )
    .expect("decoded weights are in range");
    let mut waypoints = WaypointSetting::none(pairs.len());
    for (i, row) in yvars.iter().enumerate() {
        for &(wp, y) in row {
            if values[y.0] > 0.5 {
                if let Some(w) = wp {
                    waypoints.set(i, vec![w]);
                }
            }
        }
    }
    // Ground truth: re-evaluate the decoded configuration per matrix with
    // the independent ECMP engine; the reported MLU is the worst case.
    let router = Router::new(net, &weights);
    let mut matrix_mlus = Vec::with_capacity(nmat);
    for demands in set.matrices() {
        matrix_mlus.push(router.evaluate(demands, &waypoints)?.mlu);
    }
    let mlu = RobustObjective::WorstCase.aggregate(&matrix_mlus);
    Ok(JointMilpOutcome {
        weights,
        waypoints,
        mlu,
        matrix_mlus,
        status: result.status,
        bound: result.bound,
        nodes: result.nodes,
    })
}

/// Solves pure LWO as the `W = 0` restriction of the Joint MILP (paper
/// §7.1: "for LWO, we simply set W = 0").
pub fn lwo_ilp(
    net: &Network,
    demands: &DemandList,
    options: &JointMilpOptions,
) -> Result<JointMilpOutcome, TeError> {
    lwo_ilp_robust(
        net,
        &DemandSet::single(demands.clone()),
        RobustObjective::WorstCase,
        options,
    )
}

/// Solves robust LWO as the `W = 0` restriction of [`joint_milp_robust`].
///
/// # Errors
/// As [`joint_milp_robust`].
pub fn lwo_ilp_robust(
    net: &Network,
    set: &DemandSet,
    robust: RobustObjective,
    options: &JointMilpOptions,
) -> Result<JointMilpOutcome, TeError> {
    let opts = JointMilpOptions {
        waypoints: 0,
        warm_start: options
            .warm_start
            .clone()
            .map(|(w, _)| (w, WaypointSetting::none(set.pair_count()))),
        ..options.clone()
    };
    joint_milp_robust(net, set, robust, &opts)
}

/// Builds a full variable assignment for a known joint configuration; returns
/// `None` when the configuration does not route (disconnected segment).
#[allow(clippy::too_many_arguments)]
fn build_warm_start(
    p: &Problem,
    net: &Network,
    set: &DemandSet,
    dests: &[NodeId],
    blocks: &HashMap<NodeId, DestBlock>,
    yvars: &[Vec<(Option<NodeId>, VarId)>],
    theta: VarId,
    wvar: &[VarId],
    weights: &WeightSetting,
    waypoints: &WaypointSetting,
    max_weight: u32,
) -> Option<Vec<f64>> {
    // Weights must be integral and within range for the warm start to be
    // feasible; clamp-round defensively.
    let int_weights: Vec<f64> = weights
        .as_slice()
        .iter()
        .map(|&w| w.round().clamp(1.0, max_weight as f64))
        .collect();
    let ws = WeightSetting::new(net, int_weights.clone()).ok()?;
    if ws.as_slice() != weights.as_slice() {
        // Rounding changed the setting; the waypoint choice may no longer be
        // meaningful but the configuration is still feasible, so proceed.
    }
    let g = net.graph();
    let n = g.node_count();
    let router = Router::new(net, &ws);
    // θ must cover every matrix: the warm incumbent's objective is the
    // worst-case MLU of the configuration.
    let mut worst_mlu = 0.0f64;
    for demands in set.matrices() {
        worst_mlu = worst_mlu.max(router.evaluate(demands, waypoints).ok()?.mlu);
    }

    let mut vals = vec![0.0; p.num_vars()];
    vals[theta.0] = worst_mlu.max(0.0) + 1e-9;
    for (e, v) in wvar.iter().enumerate() {
        vals[v.0] = int_weights[e];
    }
    // y values (shared across matrices; the set is aligned).
    for (i, &(_, _)) in set.pairs().iter().enumerate() {
        let wp = waypoints.get(i).first().copied();
        for &(cand, y) in &yvars[i] {
            if cand == wp {
                vals[y.0] = 1.0;
            }
        }
    }
    // Per-matrix, per-destination segment injections.
    let inj_per_matrix: Vec<HashMap<NodeId, Vec<(NodeId, f64)>>> = set
        .matrices()
        .map(|demands| {
            let mut inj: HashMap<NodeId, Vec<(NodeId, f64)>> = HashMap::new();
            for (i, d) in demands.iter().enumerate() {
                for (s, t, amount) in waypoints.segments_of(i, d) {
                    inj.entry(t).or_default().push((s, amount));
                }
            }
            inj
        })
        .collect();
    let dmax = (n as f64) * (max_weight as f64);
    for &t in dests {
        let block = &blocks[&t];
        let dag = router.dag(t);
        // Distances (unreachable nodes pinned at the upper bound).
        for v in g.nodes() {
            if let Some(dv) = block.dist[v.index()] {
                let dist = dag.dist[v.index()];
                vals[dv.0] = if dist.is_finite() { dist } else { dmax };
            }
        }
        // Indicators.
        for e in g.edge_ids() {
            vals[block.x[e.index()].0] = if dag.edge_on_dag[e.index()] { 1.0 } else { 0.0 };
        }
        // Flows + shares, per matrix: propagate this destination's
        // injections.
        for (k, inj) in inj_per_matrix.iter().enumerate() {
            if let Some(sources) = inj.get(&t) {
                let mut node_flow = vec![0.0; n];
                for &(s, amount) in sources {
                    if !dag.reaches_target(s) {
                        return None;
                    }
                    node_flow[s.index()] += amount;
                }
                for &v in &dag.order {
                    let fl = node_flow[v.index()];
                    if v == t || fl <= 0.0 {
                        continue;
                    }
                    let outs = dag.dag_out(v);
                    let share = fl / outs.len() as f64;
                    if let Some(mv) = block.share[k][v.index()] {
                        vals[mv.0] = share;
                    }
                    for &e in outs {
                        vals[block.f[k][e.index()].0] += share;
                        node_flow[g.dst(e).index()] += share;
                    }
                }
            }
        }
    }
    Some(vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// TE-Instance 1 with m = 3 (4 nodes): Joint achieves MLU 1 with one
    /// waypoint per demand; LWO is stuck at (n-1)/2 = 1.5.
    fn instance1_m3() -> (Network, DemandList) {
        let m = 3u32;
        let mut b = Network::builder(m as usize + 1);
        for i in 0..m - 1 {
            b.link(NodeId(i), NodeId(i + 1), m as f64);
        }
        for i in 0..m {
            b.link(NodeId(i), NodeId(m), 1.0);
        }
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        for _ in 0..m {
            d.push(NodeId(0), NodeId(m), 1.0);
        }
        (net, d)
    }

    fn fast_opts() -> JointMilpOptions {
        JointMilpOptions {
            max_weight: 4,
            milp: segrout_lp::MilpOptions {
                node_limit: 20_000,
                time_limit: Duration::from_secs(120),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn joint_reaches_opt_on_instance1() {
        let (net, d) = instance1_m3();
        let r = joint_milp(&net, &d, &fast_opts()).unwrap();
        assert!(
            r.mlu <= 1.0 + 1e-6,
            "Joint MILP should reach MLU 1 (Lemma 3.5), got {} (status {:?})",
            r.mlu,
            r.status
        );
    }

    #[test]
    fn lwo_ilp_hits_the_gap() {
        let (net, d) = instance1_m3();
        let r = lwo_ilp(&net, &d, &fast_opts()).unwrap();
        // Lemma 3.6: best even-split flow is 2, so LWO >= m/2 = 1.5.
        assert!(
            r.mlu >= 1.5 - 1e-6,
            "LWO cannot beat (n-1)/2 on Instance 1, got {}",
            r.mlu
        );
        // And 1.5 is achievable (split at s over (s,t) and (s,v2,t)).
        if r.status == MilpStatus::Optimal {
            assert!(r.mlu <= 1.5 + 1e-6, "optimal LWO is 1.5, got {}", r.mlu);
        }
    }

    #[test]
    fn warm_start_is_accepted() {
        let (net, d) = instance1_m3();
        let weights = WeightSetting::unit(&net);
        let wp = WaypointSetting::none(d.len());
        let opts = JointMilpOptions {
            warm_start: Some((weights, wp)),
            milp: segrout_lp::MilpOptions {
                node_limit: 0, // no exploration: incumbent must come from warm start
                time_limit: Duration::from_secs(5),
                ..Default::default()
            },
            ..fast_opts()
        };
        let r = joint_milp(&net, &d, &opts).unwrap();
        // With zero nodes the outcome is exactly the warm configuration.
        assert!(r.mlu.is_finite());
    }

    #[test]
    fn tiny_diamond_joint_equals_lwo_when_no_waypoint_needed() {
        // Symmetric diamond: LWO alone reaches OPT; Joint cannot be worse.
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), 1.0);
        b.link(NodeId(1), NodeId(3), 1.0);
        b.link(NodeId(0), NodeId(2), 1.0);
        b.link(NodeId(2), NodeId(3), 1.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 2.0);
        let joint = joint_milp(&net, &d, &fast_opts()).unwrap();
        let lwo = lwo_ilp(&net, &d, &fast_opts()).unwrap();
        assert!(joint.mlu <= lwo.mlu + 1e-6);
        assert!((joint.mlu - 1.0).abs() < 1e-6, "even split is optimal");
    }

    /// `joint_milp_with` hands its model to `solve` exactly once and decodes
    /// what comes back: a stub's `Infeasible` is a disconnected pair.
    #[test]
    fn joint_milp_with_solves_through_the_given_solver() {
        let (net, d) = instance1_m3();
        let calls = std::cell::Cell::new(0);
        let r = joint_milp_with(&net, &d, &fast_opts(), |p, _| {
            calls.set(calls.get() + 1);
            assert!(p.num_vars() > 0);
            MilpResult {
                status: MilpStatus::Infeasible,
                objective: None,
                values: None,
                bound: f64::INFINITY,
                nodes: 1,
            }
        });
        assert_eq!(calls.get(), 1);
        assert!(matches!(r, Err(TeError::Unroutable { .. })), "{r:?}");
    }

    #[test]
    fn eq_2_1_opt_le_joint_le_min() {
        // Verify OPT <= Joint <= min(LWO, WPO) on the tiny instance.
        let (net, d) = instance1_m3();
        let opt = crate::opt_lp::opt_mlu_lp(&net, &d).unwrap().objective;
        let joint = joint_milp(&net, &d, &fast_opts()).unwrap();
        let lwo = lwo_ilp(&net, &d, &fast_opts()).unwrap();
        assert!(opt <= joint.mlu + 1e-6);
        assert!(joint.mlu <= lwo.mlu + 1e-6);
    }
    #[test]
    fn milp_theta_matches_reevaluated_mlu() {
        // The strongest internal-consistency check of the formulation: when
        // the MILP proves optimality, its objective (the dual bound) must
        // coincide with the MLU obtained by re-routing the decoded weights
        // and waypoints through the independent ECMP engine. Any gap would
        // mean the big-M ECMP coupling admits flows the real protocol does
        // not (or vice versa).
        let (net, d) = instance1_m3();
        let r = joint_milp(&net, &d, &fast_opts()).unwrap();
        if r.status == MilpStatus::Optimal {
            assert!(
                (r.bound - r.mlu).abs() < 1e-5,
                "MILP theta {} vs ECMP re-evaluation {}",
                r.bound,
                r.mlu
            );
        }
        let r = lwo_ilp(&net, &d, &fast_opts()).unwrap();
        if r.status == MilpStatus::Optimal {
            assert!(
                (r.bound - r.mlu).abs() < 1e-5,
                "LWO theta {} vs ECMP re-evaluation {}",
                r.bound,
                r.mlu
            );
        }
    }

    /// A two-matrix diamond where the matrices load opposite directions: the
    /// robust θ must cover both, and the per-matrix MLUs must equal
    /// independent re-evaluations of the decoded configuration.
    #[test]
    fn robust_milp_covers_every_matrix() {
        let mut b = Network::builder(4);
        b.bilink(NodeId(0), NodeId(1), 1.0);
        b.bilink(NodeId(1), NodeId(3), 1.0);
        b.bilink(NodeId(0), NodeId(2), 1.0);
        b.bilink(NodeId(2), NodeId(3), 1.0);
        let net = b.build().unwrap();
        let mut a = DemandList::new();
        a.push(NodeId(0), NodeId(3), 1.0);
        let mut bm = DemandList::new();
        bm.push(NodeId(0), NodeId(3), 2.0);
        let mut set = DemandSet::single(a);
        set.push("peak", bm);

        let r = joint_milp_robust(&net, &set, RobustObjective::WorstCase, &fast_opts()).unwrap();
        assert_eq!(r.matrix_mlus.len(), 2);
        // Independent per-matrix re-evaluation must reproduce matrix_mlus.
        let router = Router::new(&net, &r.weights);
        for (k, demands) in set.matrices().enumerate() {
            let mlu = router.evaluate(demands, &r.waypoints).unwrap().mlu;
            assert_eq!(mlu.to_bits(), r.matrix_mlus[k].to_bits());
        }
        assert_eq!(
            r.mlu.to_bits(),
            r.matrix_mlus
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max)
                .to_bits()
        );
        // Even-splitting the 2-unit peak matrix over both corridors is the
        // best any configuration can do: worst-case MLU 1.
        if r.status == MilpStatus::Optimal {
            assert!(
                (r.mlu - 1.0).abs() < 1e-6,
                "robust optimum is 1, got {}",
                r.mlu
            );
        }
    }

    /// The single-matrix robust solve must be bit-identical to the classic
    /// entry point (identical model ⇒ identical branch-and-bound).
    #[test]
    fn single_matrix_robust_milp_reduces_bit_identically() {
        let (net, d) = instance1_m3();
        let classic = joint_milp(&net, &d, &fast_opts()).unwrap();
        let robust = joint_milp_robust(
            &net,
            &DemandSet::single(d.clone()),
            RobustObjective::Quantile(1.0),
            &fast_opts(),
        )
        .unwrap();
        assert_eq!(classic.weights.as_slice(), robust.weights.as_slice());
        assert_eq!(classic.mlu.to_bits(), robust.mlu.to_bits());
        assert_eq!(classic.bound.to_bits(), robust.bound.to_bits());
        assert_eq!(classic.nodes, robust.nodes);
    }
}
