//! The robust multi-matrix layer: every classic optimizer equals its
//! one-matrix `*_robust` reduction bit for bit, JOINT-Heur-robust is
//! identical at 1, 2, 4 and 8 threads with per-matrix MLUs equal to the
//! oracle's, and the robust Joint MILP is cross-checked against the
//! classic MILP and per-matrix evaluations. The heuristic kinds live in
//! `segrout::check::differential`; the case table in
//! `tests/differential/mod.rs`.

mod differential;

use differential::{scaled_set, small_cases};
use segrout::check::differential::{
    bits, guard, intact_oracle, reductions, robust_joint, run_kind, Grid,
};
use segrout::core::{evaluate_robust, DemandList, DemandSet, Network, NodeId, RobustObjective};
use segrout::milp::{joint_milp, joint_milp_robust, JointMilpOptions, JointMilpOutcome};
use std::time::Duration;

/// The classic entry points delegate to the robust code, so
/// `parallel_determinism` pins the thread invariance of these runs.
#[test]
fn single_matrix_set_reduces_bit_identically_for_heuristics() {
    run_kind("reductions", Grid::Oracle, small_cases(), reductions);
}

#[test]
fn multi_matrix_heuristics_are_thread_deterministic() {
    run_kind("robust_joint", Grid::Full, small_cases(), robust_joint);
}

/// A bilinked diamond with asymmetric capacities: small enough for the MILP
/// to prove optimality in seconds, rich enough that weights matter. Wall
/// clock must never bind (it would make node counts nondeterministic), so
/// the MILP tests use a large `time_limit` and a tiny instance.
fn diamond() -> (Network, DemandList) {
    let mut b = Network::builder(4);
    b.bilink(NodeId(0), NodeId(1), 2.0);
    b.bilink(NodeId(1), NodeId(3), 1.0);
    b.bilink(NodeId(0), NodeId(2), 1.0);
    b.bilink(NodeId(2), NodeId(3), 2.0);
    let net = b.build().expect("valid");
    let mut d = DemandList::new();
    d.push(NodeId(0), NodeId(3), 2.0);
    d.push(NodeId(1), NodeId(2), 1.0);
    (net, d)
}

fn milp_options() -> JointMilpOptions {
    JointMilpOptions {
        max_weight: 3,
        waypoints: 1,
        milp: segrout::lp::MilpOptions {
            node_limit: 100_000,
            time_limit: Duration::from_secs(600),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The robust Joint MILP on a one-matrix set is bit-identical to the
/// classic `joint_milp` (same weights, waypoints, MLU, dual bound and node
/// count) at 1 and 4 threads, and identical across the two.
#[test]
fn single_matrix_set_reduces_bit_identically_for_joint_milp() {
    let _guard = guard();
    let (net, demands) = diamond();
    let options = milp_options();
    let mut per_thread = Vec::new();
    for t in [1usize, 4] {
        segrout::par::set_threads(t);
        let single = DemandSet::single(demands.clone());
        let classic = joint_milp(&net, &demands, &options).expect("feasible");
        let robust = joint_milp_robust(&net, &single, RobustObjective::WorstCase, &options)
            .expect("feasible");
        let sig = |r: &JointMilpOutcome| {
            let mlu_bound = [r.mlu.to_bits(), r.bound.to_bits()];
            (
                bits(r.weights.as_slice()),
                r.waypoints.clone(),
                mlu_bound,
                r.nodes,
            )
        };
        assert_eq!(sig(&classic), sig(&robust), "threads={t}");
        assert_eq!(
            bits(&robust.matrix_mlus),
            [robust.mlu.to_bits()],
            "threads={t}"
        );
        per_thread.push(sig(&classic));
    }
    assert_eq!(per_thread[0], per_thread[1], "thread count changed MILP");
}

/// MILP oracle cross-check. The robust MILP's worst-case MLU equals the
/// max over the oracle's per-matrix evaluations of its configuration, and
/// is no worse (within 1e-6) than the worst-case MLU of every
/// single-matrix optimum evaluated across the whole set.
#[test]
fn robust_milp_cross_checks_against_per_matrix_oracles() {
    let _guard = guard();
    segrout::par::set_threads(1);
    let (net, demands) = diamond();
    let set = scaled_set(&demands, 2, 0x0dd5);
    let options = milp_options();

    let robust =
        joint_milp_robust(&net, &set, RobustObjective::WorstCase, &options).expect("feasible");
    assert_eq!(
        robust.status,
        segrout::lp::MilpStatus::Optimal,
        "oracle instance must be solved to optimality"
    );

    // (a) Reported worst-case == max over independent per-matrix evaluation.
    let mut max_independent = f64::NEG_INFINITY;
    let (weights, waypoints) = (robust.weights.as_slice(), &robust.waypoints);
    for k in 0..set.len() {
        let want = intact_oracle(&net, weights, set.matrix(k), waypoints);
        assert_eq!(
            robust.matrix_mlus[k].to_bits(),
            want.mlu,
            "matrix {k}: reported per-matrix MLU differs from the oracle"
        );
        max_independent = max_independent.max(f64::from_bits(want.mlu));
    }
    assert_eq!(
        robust.mlu.to_bits(),
        max_independent.to_bits(),
        "robust MILP MLU must be the exact max over per-matrix evaluations"
    );

    // (b) No single-matrix optimum beats the robust optimum on worst-case
    // MLU over the set, and the robust optimum never beats matrix k's own
    // optimum on k.
    for k in 0..set.len() {
        let single = joint_milp(&net, set.matrix(k), &options).expect("feasible");
        assert_eq!(single.status, segrout::lp::MilpStatus::Optimal);
        let worst = evaluate_robust(&net, &single.weights, &set, &single.waypoints)
            .expect("routable")
            .worst_mlu();
        assert!(
            robust.mlu <= worst + 1e-6,
            "single-matrix optimum {k} beats the robust optimum over the set: \
             robust={} vs single-worst={worst}",
            robust.mlu
        );
        assert!(
            robust.matrix_mlus[k] >= single.mlu - 1e-6,
            "robust config out-performs the per-matrix optimum on matrix {k}"
        );
    }
}
