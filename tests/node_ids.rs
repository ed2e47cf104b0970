//! Node ids that library callers pass in are range-checked: a demand
//! endpoint, a waypoint or a waypoint candidate outside the network is the
//! `OutOfRange` error that `segrout serve` replies with, never an
//! index panic or a Joint MILP with a phantom destination block. One test
//! per entry point, on TE-Instance 1 with m = 3 (4 nodes).

use segrout::algos::{greedy_wpo, GreedyWpoConfig};
use segrout::core::{
    DemandList, IncrementalEvaluator, Network, NodeId, Router, TeError, WaypointSetting,
    WeightSetting,
};
use segrout::instances::instance1;
use segrout::milp::{joint_milp, wpo_ilp, JointMilpOptions, WpoIlpOptions};

const BAD: NodeId = NodeId(999);

fn instance() -> (Network, DemandList, WeightSetting) {
    let inst = instance1(3);
    (inst.network, inst.demands, inst.joint_weights)
}

/// `d` plus a demand to node 999, and no waypoints.
fn with_bad_demand(d: &DemandList) -> (DemandList, WaypointSetting) {
    let mut d = d.clone();
    d.push(NodeId(0), BAD, 1.0);
    let none = WaypointSetting::none(d.len());
    (d, none)
}

fn assert_rejected<T>(r: Result<T, TeError>) {
    let err = r.err().expect("node 999 was accepted");
    assert_eq!(err.to_string(), "node 999 out of range (4 nodes)");
}

#[test]
fn router_evaluate_checks_demands_and_waypoints() {
    let (net, d, w) = instance();
    let router = Router::new(&net, &w);
    let (bad_d, none) = with_bad_demand(&d);
    assert_rejected(router.evaluate(&bad_d, &none));
    let mut wp = WaypointSetting::none(d.len());
    wp.set(1, vec![BAD]);
    assert_rejected(router.evaluate(&d, &wp));
}

#[test]
fn incremental_evaluator_new_checks_demands() {
    let (net, d, w) = instance();
    let (bad_d, none) = with_bad_demand(&d);
    assert_rejected(IncrementalEvaluator::new(&net, &w, &bad_d, &none));
}

#[test]
fn set_workload_checks_demands_and_keeps_its_state() {
    let (net, d, w) = instance();
    let none = WaypointSetting::none(d.len());
    let mut ev = IncrementalEvaluator::new(&net, &w, &d, &none).unwrap();
    let (bad_d, bad_none) = with_bad_demand(&d);
    assert_rejected(ev.set_workload(&bad_d, &bad_none));
    assert_eq!(ev.mlu(), Router::new(&net, &w).mlu(&d).unwrap());
}

#[test]
fn greedy_wpo_checks_candidates() {
    let (net, d, w) = instance();
    let candidates = Some(vec![BAD]);
    let cfg = GreedyWpoConfig {
        candidates,
        ..Default::default()
    };
    assert_rejected(greedy_wpo(&net, &d, &w, &cfg));
}

#[test]
fn wpo_ilp_checks_candidates() {
    let (net, d, w) = instance();
    let candidates = Some(vec![NodeId(1), BAD]);
    let options = WpoIlpOptions {
        candidates,
        ..Default::default()
    };
    assert_rejected(wpo_ilp(&net, &d, &w, &options));
}

#[test]
fn joint_milp_checks_candidates() {
    let (net, d, _) = instance();
    let candidates = Some(vec![BAD]);
    let options = JointMilpOptions {
        candidates,
        ..Default::default()
    };
    assert_rejected(joint_milp(&net, &d, &options));
}
