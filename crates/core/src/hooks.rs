//! Debug-build consistency hooks for optimizer commit points.
//!
//! The local-search optimizers maintain derived state incrementally — the
//! [`crate::IncrementalEvaluator`]'s repaired DAGs and load partials in
//! HeurOSPF, the sparsely patched load vector in GreedyWPO — and the whole
//! correctness argument is that this derived state always equals what a
//! from-scratch evaluation would produce. This module provides one cheap
//! assertion, [`assert_commit_consistent`], that the optimizers call at
//! every accepted move (their *commit points*).
//!
//! The check re-evaluates the committed configuration with a fresh
//! [`Router`] and compares loads and MLU. It is compiled to a no-op unless
//! `debug_assertions` are enabled, so release binaries (and the benchmark
//! record) pay nothing; the call sites in `segrout-algos` are additionally
//! `#[cfg(debug_assertions)]`-gated so not even argument marshalling
//! survives into release builds.
//!
//! The heavyweight invariant suite (SP-DAG structure, even-split
//! conservation, MCF lower bounds, cross-engine differentials) lives in the
//! `segrout-check` crate, which depends on this one; these hooks are the
//! lightweight in-tree complement that runs on every debug test.

use crate::demand::DemandList;
use crate::ecmp::Router;
use crate::network::Network;
use crate::waypoints::WaypointSetting;
use crate::weights::WeightSetting;

/// Relative tolerance for comparing incrementally maintained loads against
/// a fresh evaluation. Incremental paths accumulate in a different order
/// than the from-scratch path, so exact bit equality is only guaranteed for
/// the [`crate::IncrementalEvaluator`] under tie-exact (integral) weights;
/// the hook uses a scaled tolerance that accepts legitimate reassociation
/// while still catching logic errors (which produce errors many orders of
/// magnitude larger).
const REL_TOL: f64 = 1e-6;

/// Asserts that a committed optimizer state is self-consistent: `loads` and
/// `mlu` must match a from-scratch evaluation of `(weights, waypoints)` on
/// `demands` within `REL_TOL`, and every load must be finite and
/// non-negative.
///
/// No-op in release builds (`debug_assertions` off).
///
/// # Panics
/// Panics (debug builds only) with a diagnostic message when the committed
/// state diverges from the from-scratch evaluation.
#[inline]
pub fn assert_commit_consistent(
    net: &Network,
    weights: &WeightSetting,
    demands: &DemandList,
    waypoints: &WaypointSetting,
    loads: &[f64],
    mlu: f64,
) {
    if !cfg!(debug_assertions) {
        return;
    }
    assert_eq!(
        loads.len(),
        net.edge_count(),
        "commit hook: load vector length {} != edge count {}",
        loads.len(),
        net.edge_count()
    );
    let scale = 1.0 + loads.iter().cloned().fold(0.0f64, f64::max).abs();
    for (e, &l) in loads.iter().enumerate() {
        assert!(
            l.is_finite() && l >= -REL_TOL * scale,
            "commit hook: load of edge {e} is {l} (must be finite and non-negative)"
        );
    }
    let fresh = Router::new(net, weights)
        .evaluate(demands, waypoints)
        .expect("commit hook: committed configuration must be routable");
    for (e, (&got, &want)) in loads.iter().zip(&fresh.loads).enumerate() {
        assert!(
            (got - want).abs() <= REL_TOL * scale,
            "commit hook: edge {e} load diverged from fresh evaluation: \
             incremental {got} vs fresh {want}"
        );
    }
    assert!(
        (mlu - fresh.mlu).abs() <= REL_TOL * (1.0 + fresh.mlu.abs()),
        "commit hook: MLU diverged from fresh evaluation: incremental {mlu} vs fresh {}",
        fresh.mlu
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn diamond() -> (Network, DemandList) {
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), 1.0);
        b.link(NodeId(1), NodeId(3), 1.0);
        b.link(NodeId(0), NodeId(2), 1.0);
        b.link(NodeId(2), NodeId(3), 1.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 2.0);
        (net, d)
    }

    #[test]
    fn accepts_a_fresh_evaluation() {
        let (net, demands) = diamond();
        let w = WeightSetting::unit(&net);
        let wp = WaypointSetting::none(demands.len());
        let r = Router::new(&net, &w).evaluate(&demands, &wp).unwrap();
        assert_commit_consistent(&net, &w, &demands, &wp, &r.loads, r.mlu);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "hook is a no-op in release")]
    #[should_panic(expected = "diverged")]
    fn rejects_corrupted_loads() {
        let (net, demands) = diamond();
        let w = WeightSetting::unit(&net);
        let wp = WaypointSetting::none(demands.len());
        let mut r = Router::new(&net, &w).evaluate(&demands, &wp).unwrap();
        r.loads[0] += 0.5; // simulate incremental-state drift
        assert_commit_consistent(&net, &w, &demands, &wp, &r.loads, r.mlu);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "hook is a no-op in release")]
    #[should_panic(expected = "MLU diverged")]
    fn rejects_wrong_mlu() {
        let (net, demands) = diamond();
        let w = WeightSetting::unit(&net);
        let wp = WaypointSetting::none(demands.len());
        let r = Router::new(&net, &w).evaluate(&demands, &wp).unwrap();
        assert_commit_consistent(&net, &w, &demands, &wp, &r.loads, r.mlu * 2.0);
    }
}
