//! Differential harness for the incremental evaluation engine.
//!
//! The [`IncrementalEvaluator`] contract is *bit-identity*: probing a
//! single-edge weight change and committing it must produce exactly the
//! per-link loads, Φ and MLU a from-scratch [`Router`] evaluation of the
//! patched weights produces — `f64::to_bits` equality, no epsilon — at any
//! thread count. This file drives random single-edge integer weight-change
//! sequences over the paper's worst-case TE-Instances 1, 3 and 5 plus
//! seeded random strongly-connected topologies, checking every probe and
//! every committed state against a fresh evaluation, under both 1 worker
//! (pure serial path) and 4 workers.
//!
//! It also pins the headline perf claim: a HeurOSPF descent on Germany50
//! must perform at least 5× fewer full per-destination DAG recomputations
//! (`ecmp.recomputes`) than a from-scratch scorer, which rebuilds every
//! destination's DAG for each of the descent's evaluations.

use segrout_algos::{heur_ospf, HeurOspfConfig};
use segrout_core::rng::StdRng;
use segrout_core::{
    fortz_phi, DemandList, EdgeId, IncrementalEvaluator, Network, NodeId, Router, WaypointSetting,
    WeightSetting,
};
use segrout_instances::{instance1, instance3, instance5};
use segrout_topo::{by_name, random_connected};
use std::sync::{Mutex, MutexGuard};

/// Thread-count override and the `ecmp.recomputes` and
/// `heurospf.iterations` counters are process-global; serialize the tests of this binary so they don't observe
/// each other's traffic.
fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// From-scratch evaluation of `weights`: (load bits, Φ bits, MLU bits).
fn scratch_bits(
    net: &Network,
    demands: &DemandList,
    waypoints: &WaypointSetting,
    weights: &[f64],
) -> (Vec<u64>, u64, u64) {
    let w = WeightSetting::new(net, weights.to_vec()).expect("weights in range");
    let report = Router::new(net, &w)
        .evaluate(demands, waypoints)
        .expect("strongly connected cases route");
    let phi = fortz_phi(&report.loads, net.capacities());
    let loads = report.loads.iter().map(|x| x.to_bits()).collect();
    (loads, phi.to_bits(), report.mlu.to_bits())
}

fn bits(loads: &[f64]) -> Vec<u64> {
    loads.iter().map(|x| x.to_bits()).collect()
}

/// Drives one random weight-change sequence, asserting bit-identity of every
/// probe and every committed state against from-scratch evaluation. Returns
/// the per-step trace so callers can diff thread counts.
fn run_sequence(
    label: &str,
    net: &Network,
    demands: &DemandList,
    waypoints: &WaypointSetting,
    seed: u64,
    steps: usize,
) -> Vec<(Vec<u64>, u64, u64, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = net.edge_count();
    // Integral starting weights: the regime every optimizer emits, and the
    // one in which shortest-path distance ties are exactly representable.
    let mut weights: Vec<f64> = (0..m)
        .map(|_| f64::from(rng.gen_range(1..=20u32)))
        .collect();
    let ws = WeightSetting::new(net, weights.clone()).expect("weights in range");
    let mut ev =
        IncrementalEvaluator::new(net, &ws, demands, waypoints).expect("routable workload");

    let (l0, p0, u0) = scratch_bits(net, demands, waypoints, &weights);
    assert_eq!(bits(ev.loads()), l0, "{label}: construction loads");
    assert_eq!(ev.phi().to_bits(), p0, "{label}: construction phi");
    assert_eq!(ev.mlu().to_bits(), u0, "{label}: construction mlu");

    let mut trace = Vec::with_capacity(steps);
    for step in 0..steps {
        let e = rng.gen_range(0..m as u32);
        let new_w = f64::from(rng.gen_range(1..=20u32));
        let probe = ev.probe(EdgeId(e), new_w).expect("probe routable");

        weights[e as usize] = new_w;
        let (sl, sp, su) = scratch_bits(net, demands, waypoints, &weights);
        assert_eq!(bits(&probe.loads), sl, "{label} step {step}: probe loads");
        assert_eq!(probe.phi.to_bits(), sp, "{label} step {step}: probe phi");
        assert_eq!(probe.mlu.to_bits(), su, "{label} step {step}: probe mlu");
        trace.push((sl.clone(), sp, su, probe.dirty_count));

        ev.commit(probe);
        assert_eq!(bits(ev.loads()), sl, "{label} step {step}: committed loads");
        assert_eq!(ev.phi().to_bits(), sp, "{label} step {step}: committed phi");
        assert_eq!(ev.mlu().to_bits(), su, "{label} step {step}: committed mlu");
    }
    trace
}

/// The covered cases: (label, network, demands).
fn cases() -> Vec<(String, Network, DemandList)> {
    let mut out = Vec::new();
    for (label, inst) in [
        ("instance1(m=8)", instance1(8)),
        ("instance3(m=5)", instance3(5)),
        ("instance5(m=3)", instance5(3)),
    ] {
        out.push((label.to_string(), inst.network, inst.demands));
    }
    for seed in [17u64, 29, 41] {
        let net = random_connected(10, 20, seed);
        let mut rng = StdRng::seed_from_u64(seed * 6151);
        let n = net.node_count() as u32;
        let mut demands = DemandList::new();
        for _ in 0..12 {
            let s = rng.gen_range(0..n);
            let t = rng.gen_range(0..n);
            if s != t {
                demands.push(NodeId(s), NodeId(t), f64::from(rng.gen_range(1..=10u32)));
            }
        }
        out.push((format!("random(seed={seed})"), net, demands));
    }
    out
}

#[test]
fn incremental_matches_scratch_at_1_and_4_threads() {
    let _guard = global_lock();
    for (label, net, demands) in cases() {
        let wp = WaypointSetting::none(demands.len());
        let mut traces = Vec::new();
        for t in [1usize, 4] {
            segrout_par::set_threads(t);
            traces.push(run_sequence(
                &format!("{label} t={t}"),
                &net,
                &demands,
                &wp,
                0xd1ff + 31 * net.edge_count() as u64,
                24,
            ));
        }
        segrout_par::set_threads(0);
        assert_eq!(
            traces[0], traces[1],
            "{label}: 4-thread sequence diverged from serial"
        );
    }
}

#[test]
fn waypointed_sequences_match_scratch() {
    let _guard = global_lock();
    segrout_par::set_threads(1);
    for (label, net, demands) in cases() {
        // Route every demand through a fixed detour node where legal: the
        // segment decomposition then exercises multi-segment destinations.
        let mut wp = WaypointSetting::none(demands.len());
        for i in 0..demands.len() {
            let d = demands[i];
            let via = NodeId((d.src.0 + 1) % net.node_count() as u32);
            if via != d.src && via != d.dst {
                wp.set(i, vec![via]);
            }
        }
        run_sequence(
            &format!("{label} waypointed"),
            &net,
            &demands,
            &wp,
            0xaa7,
            16,
        );
    }
    segrout_par::set_threads(0);
}

/// Germany50 HeurOSPF descent: ≥5× fewer full DAG recomputations than a
/// from-scratch scorer, which rebuilds all `D` destination DAGs for each
/// evaluation the descent counts — `heurospf.iterations × D`. It counts
/// work, not wall time, so it holds on any host.
#[test]
fn heur_ospf_recomputes_drop_at_least_5x_on_germany50() {
    let _guard = global_lock();
    segrout_par::set_threads(1);
    let net = by_name("Germany50").expect("embedded topology");
    let mut rng = StdRng::seed_from_u64(0x6e50);
    let n = net.node_count() as u32;
    let mut demands = DemandList::new();
    for _ in 0..30 {
        let s = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        if s != t {
            demands.push(NodeId(s), NodeId(t), f64::from(rng.gen_range(1..=10u32)));
        }
    }
    let cfg = HeurOspfConfig {
        restarts: 0,
        max_passes: 2,
        seed: 0xfeed,
        ..Default::default()
    };
    let wp = WaypointSetting::none(demands.len());
    let destinations = IncrementalEvaluator::new(&net, &WeightSetting::unit(&net), &demands, &wp)
        .expect("routable workload")
        .destination_count() as u64;
    let recomputes = segrout_obs::counter("ecmp.recomputes");
    let iterations = segrout_obs::counter("heurospf.iterations");

    let (r0, i0) = (recomputes.get(), iterations.get());
    heur_ospf(&net, &demands, &cfg);
    let incremental_recomputes = recomputes.get() - r0;
    let scratch_recomputes = (iterations.get() - i0) * destinations;
    segrout_par::set_threads(0);

    assert!(
        scratch_recomputes >= 5 * incremental_recomputes.max(1),
        "expected a >=5x recompute drop: scratch={scratch_recomputes} \
         incremental={incremental_recomputes}"
    );
}
