//! `OPT`: the minimum-MLU multi-commodity flow LP (paper §2, "The Optimal
//! Flow"), plus the maximum-concurrent-flow LP used for "MCF Synthetic"
//! demand generation (§7).
//!
//! Commodities are aggregated by destination: `f_e^t` is the total flow on
//! edge `e` destined to `t`, with node conservation
//! `Σ_out f^t − Σ_in f^t = D(v → t)` at every `v ≠ t`. This keeps the LP at
//! `|E| · |T|` variables instead of `|E| · |D|`.

use segrout_core::{DemandList, Network, NodeId, TeError};
use segrout_lp::{solve_lp, Cmp, LpStatus, Problem, Sense, VarId};
use std::collections::BTreeMap;

/// Result of an OPT LP solve.
#[derive(Clone, Debug)]
pub struct OptLpOutcome {
    /// The optimal objective: MLU for [`opt_mlu_lp`], the throughput factor
    /// `λ*` for [`max_concurrent_lp`].
    pub objective: f64,
    /// Per-link loads of the optimal flow.
    pub loads: Vec<f64>,
}

/// Aggregates demands to per-destination injections: `inj[t][v] = Σ d(v→t)`,
/// destinations in ascending order, so the model's variable and row order
/// (and with it every bit of the solve) is a function of the input.
fn injections(net: &Network, demands: &DemandList) -> BTreeMap<NodeId, Vec<f64>> {
    let mut inj: BTreeMap<NodeId, Vec<f64>> = BTreeMap::new();
    for d in demands {
        inj.entry(d.dst)
            .or_insert_with(|| vec![0.0; net.node_count()])[d.src.index()] += d.size;
    }
    inj
}

/// Builds per-destination flow variables and conservation rows; returns the
/// flow variable grid `fvar[k][e]` of the `k`-th destination of `inj`.
fn add_flow_block(
    p: &mut Problem,
    net: &Network,
    inj: &BTreeMap<NodeId, Vec<f64>>,
    scale_var: Option<VarId>,
) -> Vec<Vec<VarId>> {
    let g = net.graph();
    let mut fvar = Vec::with_capacity(inj.len());
    for (&t, sources) in inj {
        let vars: Vec<VarId> = g
            .edge_ids()
            .map(|_| p.add_var(0.0, f64::INFINITY, 0.0))
            .collect();
        // Conservation at every node except the destination.
        for v in g.nodes() {
            if v == t {
                continue;
            }
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            for &e in g.out_edges(v) {
                terms.push((vars[e.index()], 1.0));
            }
            for &e in g.in_edges(v) {
                terms.push((vars[e.index()], -1.0));
            }
            let demand_here = sources[v.index()];
            match scale_var {
                // out - in = demand (fixed-demand MLU minimization)
                None => p.add_constraint(terms, Cmp::Eq, demand_here),
                // out - in - lambda * demand = 0 (concurrent-flow scaling)
                Some(lambda) => {
                    if demand_here != 0.0 {
                        terms.push((lambda, -demand_here));
                    }
                    p.add_constraint(terms, Cmp::Eq, 0.0);
                }
            }
        }
        fvar.push(vars);
    }
    fvar
}

/// Maps a non-`Optimal` LP status to the error that actually describes it:
/// only genuine infeasibility means a disconnected demand pair
/// ([`TeError::Unroutable`]); an iteration-limit abort or an unbounded
/// relaxation is a solver failure ([`TeError::SolverLimit`]) — the instance
/// may be perfectly routable.
fn lp_failure(what: &'static str, status: LpStatus, demands: &DemandList) -> TeError {
    match status {
        LpStatus::Infeasible => {
            let d0 = demands[0];
            TeError::Unroutable {
                src: d0.src,
                dst: d0.dst,
            }
        }
        LpStatus::IterLimit => TeError::SolverLimit {
            what,
            status: "iteration limit",
        },
        LpStatus::Unbounded => TeError::SolverLimit {
            what,
            status: "unbounded relaxation",
        },
        LpStatus::Optimal => unreachable!("lp_failure called on an optimal solve"),
    }
}

fn extract_loads(net: &Network, fvar: &[Vec<VarId>], values: &[f64]) -> Vec<f64> {
    let mut loads = vec![0.0; net.edge_count()];
    for vars in fvar {
        for (e, v) in vars.iter().enumerate() {
            loads[e] += values[v.0];
        }
    }
    loads
}

/// Solves `OPT`: minimize the MLU of an unrestricted (arbitrarily splitting)
/// multi-commodity flow routing all demands.
///
/// # Errors
/// [`TeError::Unroutable`] when the LP is infeasible (some demand pair is
/// disconnected); [`TeError::SolverLimit`] when the solve aborted on a
/// limit or an unbounded relaxation without reaching a verdict.
pub fn opt_mlu_lp(net: &Network, demands: &DemandList) -> Result<OptLpOutcome, TeError> {
    assert!(!demands.is_empty(), "demand list must be non-empty");
    let mut p = Problem::new(Sense::Minimize);
    let theta = p.add_var(0.0, f64::INFINITY, 1.0);
    let inj = injections(net, demands);
    let fvar = add_flow_block(&mut p, net, &inj, None);
    // Capacity rows: sum of all commodities on e <= theta * c_e.
    for e in net.graph().edge_ids() {
        let mut terms: Vec<(VarId, f64)> = fvar.iter().map(|vars| (vars[e.index()], 1.0)).collect();
        terms.push((theta, -net.capacity(e)));
        p.add_constraint(terms, Cmp::Le, 0.0);
    }
    let r = solve_lp(&p);
    match r.status {
        LpStatus::Optimal => Ok(OptLpOutcome {
            objective: r.objective,
            loads: extract_loads(net, &fvar, &r.values),
        }),
        status => Err(lp_failure("OPT LP", status, demands)),
    }
}

/// Solves the maximal concurrent multi-commodity flow LP: maximize `λ` such
/// that `λ · d` is routable for every demand within capacities. The paper's
/// MCF-synthetic generator scales demands so this optimum becomes 1.
///
/// # Errors
/// [`TeError::Unroutable`] when some demand pair is disconnected (reported
/// also when the optimum pins `λ` at zero); [`TeError::SolverLimit`] when
/// the solve aborted on a limit without reaching a verdict.
pub fn max_concurrent_lp(net: &Network, demands: &DemandList) -> Result<OptLpOutcome, TeError> {
    assert!(!demands.is_empty(), "demand list must be non-empty");
    let mut p = Problem::new(Sense::Maximize);
    let lambda = p.add_var(0.0, f64::INFINITY, 1.0);
    let inj = injections(net, demands);
    let fvar = add_flow_block(&mut p, net, &inj, Some(lambda));
    for e in net.graph().edge_ids() {
        let terms: Vec<(VarId, f64)> = fvar.iter().map(|vars| (vars[e.index()], 1.0)).collect();
        p.add_constraint(terms, Cmp::Le, net.capacity(e));
    }
    let r = solve_lp(&p);
    match r.status {
        // A disconnected pair does not make this LP infeasible — it just
        // pins lambda at 0, which we report as unroutable.
        LpStatus::Optimal if r.objective > 1e-9 => Ok(OptLpOutcome {
            objective: r.objective,
            loads: extract_loads(net, &fvar, &r.values),
        }),
        LpStatus::Optimal => Err(lp_failure(
            "concurrent-flow LP",
            LpStatus::Infeasible,
            demands,
        )),
        status => Err(lp_failure("concurrent-flow LP", status, demands)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segrout_algos::max_concurrent_flow;

    fn parallel_links() -> (Network, DemandList) {
        let mut b = Network::builder(2);
        b.link(NodeId(0), NodeId(1), 3.0);
        b.link(NodeId(0), NodeId(1), 1.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(1), 2.0);
        (net, d)
    }

    #[test]
    fn opt_mlu_on_parallel_links() {
        let (net, d) = parallel_links();
        let r = opt_mlu_lp(&net, &d).unwrap();
        assert!((r.objective - 0.5).abs() < 1e-6);
        // Optimal split: 1.5 / 0.5.
        assert!((r.loads[0] - 1.5).abs() < 1e-6);
        assert!((r.loads[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn concurrent_lp_is_reciprocal_of_mlu() {
        let (net, d) = parallel_links();
        let mlu = opt_mlu_lp(&net, &d).unwrap().objective;
        let lambda = max_concurrent_lp(&net, &d).unwrap().objective;
        assert!((mlu * lambda - 1.0).abs() < 1e-6);
    }

    #[test]
    fn lp_matches_fptas() {
        // Cross-validate the Garg-Könemann FPTAS against the exact LP.
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), 2.0);
        b.link(NodeId(1), NodeId(3), 1.0);
        b.link(NodeId(0), NodeId(2), 1.0);
        b.link(NodeId(2), NodeId(3), 2.0);
        b.link(NodeId(1), NodeId(2), 1.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 1.5);
        d.push(NodeId(1), NodeId(3), 0.5);
        let exact = opt_mlu_lp(&net, &d).unwrap().objective;
        let approx = max_concurrent_flow(&net, &d, 0.03).unwrap().opt_mlu;
        // FPTAS upper-bounds OPT and is close.
        assert!(approx >= exact - 1e-9);
        assert!(approx <= exact * 1.12, "approx {approx} vs exact {exact}");
    }

    #[test]
    fn multi_destination_instance() {
        // Two demands with different destinations sharing a link.
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), 1.0);
        b.link(NodeId(1), NodeId(2), 1.0);
        b.link(NodeId(1), NodeId(3), 1.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(2), 1.0);
        d.push(NodeId(0), NodeId(3), 1.0);
        let r = opt_mlu_lp(&net, &d).unwrap();
        // Both cross (0,1): load 2 on capacity 1 -> MLU 2.
        assert!((r.objective - 2.0).abs() < 1e-6);
    }

    /// Regression (misleading error): `IterLimit`/`Unbounded` used to be
    /// mapped to `Unroutable`, reporting an iteration-limit abort on a big
    /// topology as "demand pair disconnected".
    #[test]
    fn solver_limit_is_not_reported_as_unroutable() {
        let (_net, d) = parallel_links();
        assert!(matches!(
            lp_failure("OPT LP", LpStatus::Infeasible, &d),
            TeError::Unroutable { .. }
        ));
        assert!(matches!(
            lp_failure("OPT LP", LpStatus::IterLimit, &d),
            TeError::SolverLimit {
                status: "iteration limit",
                ..
            }
        ));
        assert!(matches!(
            lp_failure("OPT LP", LpStatus::Unbounded, &d),
            TeError::SolverLimit { .. }
        ));
    }

    #[test]
    fn infeasible_demand_errors() {
        let mut b = Network::builder(3);
        b.link(NodeId(0), NodeId(1), 1.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(2), 1.0);
        assert!(opt_mlu_lp(&net, &d).is_err());
        assert!(max_concurrent_lp(&net, &d).is_err());
    }

    #[test]
    fn instance1_opt_is_one_exact() {
        // TE-Instance 1 (m = 4): OPT = 1 exactly.
        let m = 4u32;
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
        let r = opt_mlu_lp(&net, &d).unwrap();
        assert!((r.objective - 1.0).abs() < 1e-6);
    }
}
