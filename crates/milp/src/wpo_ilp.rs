//! `WPO` as an exact selection MILP (paper §7.1: "for WPO, given a weight
//! setting ω′, we add one constraint for each link ℓ: ω_ℓ = ω′(ℓ)").
//!
//! With the weights fixed, ECMP splitting is fully determined, so the load
//! vector a demand contributes under each candidate waypoint can be
//! precomputed. The MILP then just picks one option (a waypoint or "direct")
//! per demand:
//!
//! ```text
//! min θ   s.t.  Σ_w y_{i,w} = 1                    ∀ demands i
//!               Σ_i Σ_w y_{i,w} · L_{i,w,e} ≤ θ c_e  ∀ links e
//!               y binary
//! ```
//!
//! This is exactly the `W = 1` WPO of the paper's Joint MILP with the weight
//! equality constraints substituted in, shrunk from `O(|E||V|)` indicator
//! variables to `O(|D||V|)` selection variables.

use segrout_core::{
    DemandList, EdgeId, Network, NodeId, Router, TeError, WaypointSetting, WeightSetting,
};
use segrout_lp::{solve_milp, Cmp, MilpOptions, MilpStatus, Problem, Sense, VarId};

/// Per-demand routing options: `(option index, sparse loads)`; option 0 is
/// the direct route, option `k >= 1` is waypoint `candidates[k-1]`.
type DemandOptions = Vec<(usize, Vec<(EdgeId, f64)>)>;

/// Options for the WPO selection MILP.
#[derive(Clone, Debug, Default)]
pub struct WpoIlpOptions {
    /// Branch-and-bound limits.
    pub milp: MilpOptions,
    /// Restrict candidate waypoints (defaults to all nodes).
    pub candidates: Option<Vec<NodeId>>,
}

/// Result of the WPO MILP.
#[derive(Clone, Debug)]
pub struct WpoIlpOutcome {
    /// Selected waypoints (at most one per demand).
    pub waypoints: WaypointSetting,
    /// MLU of the selected configuration.
    pub mlu: f64,
    /// Solver status ([`MilpStatus::Optimal`] = proven optimal).
    pub status: MilpStatus,
    /// Dual bound on the optimal WPO MLU.
    pub bound: f64,
}

/// Solves WPO exactly (up to solver limits) for a fixed weight setting and a
/// budget of one waypoint per demand.
///
/// # Errors
/// Fails when some demand cannot be routed at all under the given weights.
pub fn wpo_ilp(
    net: &Network,
    demands: &DemandList,
    weights: &WeightSetting,
    options: &WpoIlpOptions,
) -> Result<WpoIlpOutcome, TeError> {
    let router = Router::new(net, weights);
    let all_nodes: Vec<NodeId> = net.graph().nodes().collect();
    let candidates: &[NodeId] = options.candidates.as_deref().unwrap_or(&all_nodes);

    // Precompute the load vector of every (demand, option) pair.
    // Option index 0 = direct; k >= 1 = waypoint candidates[k-1].
    let mut option_loads: Vec<DemandOptions> = Vec::new();
    for d in demands {
        let mut opts = Vec::new();
        let mut direct = Vec::new();
        router.append_segment_loads(d.src, d.dst, d.size, &mut direct)?;
        opts.push((0usize, direct));
        for (k, &w) in candidates.iter().enumerate() {
            if w == d.src || w == d.dst {
                continue;
            }
            let mut loads = Vec::new();
            if router
                .append_segment_loads(d.src, w, d.size, &mut loads)
                .and_then(|()| router.append_segment_loads(w, d.dst, d.size, &mut loads))
                .is_ok()
            {
                opts.push((k + 1, loads));
            }
        }
        option_loads.push(opts);
    }

    // Build the selection MILP.
    let mut p = Problem::new(Sense::Minimize);
    let theta = p.add_var("theta", 0.0, f64::INFINITY, 1.0);
    let mut yvars: Vec<Vec<VarId>> = Vec::new();
    for (i, opts) in option_loads.iter().enumerate() {
        let ys: Vec<VarId> = opts
            .iter()
            .map(|(k, _)| p.add_bin_var(format!("y[{i}][{k}]"), 0.0))
            .collect();
        p.add_constraint(ys.iter().map(|&y| (y, 1.0)).collect(), Cmp::Eq, 1.0);
        yvars.push(ys);
    }
    // Capacity rows: accumulate per-edge coefficients.
    let mut per_edge_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); net.edge_count()];
    for (i, opts) in option_loads.iter().enumerate() {
        for (j, (_, loads)) in opts.iter().enumerate() {
            for &(e, l) in loads {
                per_edge_terms[e.index()].push((yvars[i][j], l));
            }
        }
    }
    for (e, mut terms) in per_edge_terms.into_iter().enumerate() {
        if terms.is_empty() {
            continue;
        }
        terms.push((theta, -net.capacities()[e]));
        p.add_constraint(terms, Cmp::Le, 0.0);
    }

    // Warm start: the GreedyWPO solution (Algorithm 3). This both prunes
    // the search hard and guarantees the MILP's incumbent is never worse
    // than the greedy heuristic, even under node/time limits.
    let mut warm = vec![0.0; p.num_vars()];
    {
        let greedy = segrout_algos::greedy_wpo(
            net,
            demands,
            weights,
            &segrout_algos::GreedyWpoConfig {
                candidates: options.candidates.clone(),
                ..Default::default()
            },
        )?;
        let report = router.evaluate(demands, &greedy)?;
        warm[theta.0] = report.mlu + 1e-9;
        for (i, opts) in option_loads.iter().enumerate() {
            let wp = greedy.get(i).first().copied();
            let chosen = match wp {
                None => 0usize,
                Some(w) => candidates
                    .iter()
                    .position(|&c| c == w)
                    .map(|k| k + 1)
                    .unwrap_or(0),
            };
            // Find the y variable whose option index matches.
            let j = opts.iter().position(|&(k, _)| k == chosen).unwrap_or(0);
            warm[yvars[i][j].0] = 1.0;
        }
    }
    let opts = MilpOptions {
        warm_start: Some(warm),
        ..options.milp.clone()
    };
    let result = solve_milp(&p, &opts);

    // Decode the waypoint setting. If the solver produced no incumbent
    // (possible when the warm start is rejected by the feasibility
    // tolerance AND the node/time limits are zero), fall back to the
    // all-direct setting rather than panicking in library code.
    let mut setting = WaypointSetting::none(demands.len());
    if let Some(values) = &result.values {
        for (i, opts) in option_loads.iter().enumerate() {
            for (j, (k, _)) in opts.iter().enumerate() {
                if values[yvars[i][j].0] > 0.5 && *k > 0 {
                    setting.set(i, vec![candidates[*k - 1]]);
                }
            }
        }
    }
    let mlu = router.evaluate(demands, &setting)?.mlu;
    Ok(WpoIlpOutcome {
        waypoints: setting,
        mlu,
        status: result.status,
        bound: result.bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use segrout_algos::{greedy_wpo, GreedyWpoConfig};

    /// TE-Instance-1 shape (m = 3) under waypoint-hostile weights.
    fn setup() -> (Network, DemandList, WeightSetting) {
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), 3.0);
        b.link(NodeId(1), NodeId(2), 3.0);
        b.link(NodeId(0), NodeId(3), 1.0);
        b.link(NodeId(1), NodeId(3), 1.0);
        b.link(NodeId(2), NodeId(3), 1.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        for _ in 0..3 {
            d.push(NodeId(0), NodeId(3), 1.0);
        }
        let w = WeightSetting::new(&net, vec![1.0, 1.0, 2.0, 10.0, 10.0]).unwrap();
        (net, d, w)
    }

    #[test]
    fn finds_the_optimal_waypoints() {
        let (net, d, w) = setup();
        let r = wpo_ilp(&net, &d, &w, &WpoIlpOptions::default()).unwrap();
        assert_eq!(r.status, MilpStatus::Optimal);
        // Optimal WPO: route one demand direct, one via v1, one via v2:
        // every (v_i, t) link carries 1 unit but the chain carries 2+1:
        // utilizations: chain 2/3, thin links 1 -> MLU 1... but waypoint
        // paths to v1/v2 keep cost via (s,t)? Under these weights the
        // shortest path to v1 is the chain link. MLU 1 is achievable.
        assert!(r.mlu <= 1.0 + 1e-9, "mlu = {}", r.mlu);
    }

    #[test]
    fn ilp_at_least_as_good_as_greedy() {
        let (net, d, w) = setup();
        let greedy = greedy_wpo(&net, &d, &w, &GreedyWpoConfig::default()).unwrap();
        let router = Router::new(&net, &w);
        let greedy_mlu = router.evaluate(&d, &greedy).unwrap().mlu;
        let exact = wpo_ilp(&net, &d, &w, &WpoIlpOptions::default()).unwrap();
        assert!(exact.mlu <= greedy_mlu + 1e-9);
    }

    #[test]
    fn direct_when_no_waypoint_helps() {
        let mut b = Network::builder(3);
        b.link(NodeId(0), NodeId(1), 1.0);
        b.link(NodeId(1), NodeId(2), 1.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(2), 1.0);
        let w = WeightSetting::unit(&net);
        let r = wpo_ilp(&net, &d, &w, &WpoIlpOptions::default()).unwrap();
        assert!(r.waypoints.get(0).is_empty());
        assert!((r.mlu - 1.0).abs() < 1e-9);
    }

    #[test]
    fn candidate_restriction() {
        let (net, d, w) = setup();
        let opts = WpoIlpOptions {
            candidates: Some(vec![NodeId(1)]),
            ..Default::default()
        };
        let r = wpo_ilp(&net, &d, &w, &opts).unwrap();
        for i in 0..d.len() {
            for &x in r.waypoints.get(i) {
                assert_eq!(x, NodeId(1));
            }
        }
    }

    #[test]
    fn bound_is_valid() {
        let (net, d, w) = setup();
        let r = wpo_ilp(&net, &d, &w, &WpoIlpOptions::default()).unwrap();
        assert!(r.bound <= r.mlu + 1e-6);
    }
}
