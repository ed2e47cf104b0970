//! Property-style tests over randomly generated networks, demands and
//! weight settings: the invariants every component must hold regardless of
//! input shape. Inputs are drawn from the vendored seeded PRNG
//! (deterministic sweeps), so runs are reproducible and need no external
//! test-framework dependency.

use segrout_algos::lwo_apx;
use segrout_core::rng::StdRng;
use segrout_core::{DemandList, Network, NodeId, Router, WaypointSetting, WeightSetting};
use segrout_graph::{acyclic_max_flow, decompose_into_paths, is_acyclic, max_flow, min_cut};
use segrout_topo::random_connected;
use std::sync::{Mutex, MutexGuard};

const CASES: u64 = 48;

/// Serializes tests that sweep the (process-global) thread-count override.
fn threads_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One generated case: a strongly connected network with 4-13 nodes plus a
/// vector of integer link weights in 1..=20.
fn case(seed: u64) -> (Network, Vec<f64>, u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    let n = rng.gen_range(4..14usize);
    let links = (n - 1).max(n * 3 / 2);
    let net = random_connected(n, links.min(n * (n - 1) / 2), seed);
    let m = net.edge_count();
    let weights = (0..m)
        .map(|_| f64::from(rng.gen_range(1..=20u32)))
        .collect();
    (net, weights, seed)
}

/// ECMP flow conservation: for any single demand, total inflow at the
/// target equals the demand size, and every intermediate node is balanced.
#[test]
fn ecmp_conserves_flow() {
    for seed in 0..CASES {
        let (net, weights, seed) = case(seed);
        let w = WeightSetting::new(&net, weights).expect("valid");
        let router = Router::new(&net, &w);
        let n = net.node_count() as u32;
        let src = NodeId(seed as u32 % n);
        let dst = NodeId((seed as u32 + 1 + seed as u32 % (n - 1)) % n);
        if src == dst {
            continue;
        }
        let mut demands = DemandList::new();
        demands.push(src, dst, 2.5);
        let report = router
            .evaluate(&demands, &WaypointSetting::none(1))
            .expect("strongly connected");
        let g = net.graph();
        for v in g.nodes() {
            let inflow: f64 = g.in_edges(v).iter().map(|e| report.loads[e.index()]).sum();
            let outflow: f64 = g.out_edges(v).iter().map(|e| report.loads[e.index()]).sum();
            let expected = if v == src {
                outflow - inflow - 2.5
            } else if v == dst {
                inflow - outflow - 2.5
            } else {
                inflow - outflow
            };
            assert!(
                expected.abs() < 1e-9,
                "seed {seed}: imbalance {expected} at {v:?}"
            );
        }
    }
}

/// Waypointed routing conserves flow too, and the loads are the sum of the
/// segment flows.
#[test]
fn waypoints_preserve_conservation() {
    for seed in 0..CASES {
        let (net, weights, seed) = case(seed);
        let w = WeightSetting::new(&net, weights).expect("valid");
        let router = Router::new(&net, &w);
        let n = net.node_count() as u32;
        let src = NodeId(seed as u32 % n);
        let dst = NodeId((seed as u32 + 2) % n);
        let wp = NodeId((seed as u32 + 1) % n);
        if src == dst || wp == src || wp == dst {
            continue;
        }
        let mut demands = DemandList::new();
        demands.push(src, dst, 1.0);
        let mut setting = WaypointSetting::none(1);
        setting.set(0, vec![wp]);
        let report = router.evaluate(&demands, &setting).expect("connected");
        // Waypoint node sees the full demand pass through.
        let g = net.graph();
        let inflow: f64 = g.in_edges(wp).iter().map(|e| report.loads[e.index()]).sum();
        assert!(
            inflow >= 1.0 - 1e-9,
            "seed {seed}: waypoint must receive the flow"
        );
    }
}

/// MLU is monotone and homogeneous in the demand size.
#[test]
fn mlu_scales_linearly() {
    for seed in 0..CASES {
        let (net, weights, seed) = case(seed);
        let w = WeightSetting::new(&net, weights).expect("valid");
        let router = Router::new(&net, &w);
        let n = net.node_count() as u32;
        let src = NodeId(seed as u32 % n);
        let dst = NodeId((seed as u32 + 1) % n);
        if src == dst {
            continue;
        }
        let mut d1 = DemandList::new();
        d1.push(src, dst, 1.0);
        let mut d3 = DemandList::new();
        d3.push(src, dst, 3.0);
        let a = router.mlu(&d1).expect("connected");
        let b = router.mlu(&d3).expect("connected");
        assert!(
            (3.0 * a - b).abs() < 1e-9 * (1.0 + b),
            "seed {seed}: {a} vs {b}"
        );
    }
}

/// Max flow equals the value of its own decomposition, the support is
/// acyclic after cancellation, and the flow respects capacities.
#[test]
fn max_flow_decomposition_roundtrip() {
    for seed in 0..CASES {
        let (net, _weights, seed) = case(seed);
        let n = net.node_count() as u32;
        let s = NodeId(seed as u32 % n);
        let t = NodeId((seed as u32 + 1) % n);
        if s == t {
            continue;
        }
        let flow = acyclic_max_flow(net.graph(), net.capacities(), s, t);
        assert!(is_acyclic(net.graph(), &flow.support_mask()), "seed {seed}");
        flow.validate(net.graph(), Some(net.capacities()))
            .expect("feasible");
        let paths = decompose_into_paths(net.graph(), &flow);
        let total: f64 = paths.iter().map(|p| p.amount).sum();
        assert!(
            (total - flow.value).abs() < 1e-6 * (1.0 + flow.value),
            "seed {seed}: decomposition {total} vs flow {}",
            flow.value
        );
        // Cycle cancellation must not change the value.
        let plain = max_flow(net.graph(), net.capacities(), s, t);
        assert!(
            (plain.value - flow.value).abs() < 1e-6 * (1.0 + flow.value),
            "seed {seed}"
        );
    }
}

/// LWO-APX always honours the Theorem 5.4 guarantee and its weight setting
/// actually carries the claimed even-split flow.
#[test]
fn lwo_apx_guarantee_holds() {
    for seed in 0..CASES {
        let (net, _weights, seed) = case(seed);
        let n = net.node_count() as u32;
        let s = NodeId(seed as u32 % n);
        let t = NodeId((seed as u32 + 1) % n);
        if s == t {
            continue;
        }
        let r = lwo_apx(&net, s, t).expect("strongly connected");
        let bound =
            (net.node_count() as f64) * (net.graph().max_out_degree() as f64).ln().ceil().max(1.0);
        assert!(r.achieved_ratio() <= bound + 1e-9, "seed {seed}");
        assert!(r.es_flow_value > 0.0, "seed {seed}");
        assert!(r.es_flow_value <= r.max_flow_value + 1e-9, "seed {seed}");
        // The pruned DAG is acyclic and the claimed flow fits.
        assert!(is_acyclic(net.graph(), &r.dag_mask), "seed {seed}");
        let mut demands = DemandList::new();
        demands.push(s, t, r.es_flow_value);
        let mlu = Router::new(&net, &r.weights).mlu(&demands).expect("routes");
        assert!(
            mlu <= 1.0 + 1e-6,
            "seed {seed}: claimed ES-flow overloads: {mlu}"
        );
    }
}

/// The segment walk equals the dense evaluation of its one segment bit for
/// bit: each touched edge once, at the dense load, and every other edge at
/// zero load.
#[test]
fn sparse_loads_match_dense() {
    for seed in 0..CASES {
        let (net, weights, seed) = case(seed);
        let w = WeightSetting::new(&net, weights).expect("valid");
        let router = Router::new(&net, &w);
        let n = net.node_count() as u32;
        let src = NodeId(seed as u32 % n);
        let dst = NodeId((seed as u32 + 1) % n);
        if src == dst {
            continue;
        }
        let mut sparse = Vec::new();
        router
            .append_segment_loads(src, dst, 1.5, &mut sparse)
            .expect("routes");
        let dense = router
            .loads_for_segments(&[segrout_core::Segment {
                src,
                dst,
                amount: 1.5,
            }])
            .expect("routes");
        let mut acc = vec![None; net.edge_count()];
        for (e, l) in sparse {
            assert!(acc[e.index()].is_none(), "seed {seed}: edge {e:?} twice");
            acc[e.index()] = Some(l);
        }
        for e in 0..net.edge_count() {
            let got = acc[e].unwrap_or(0.0);
            assert_eq!(got.to_bits(), dense[e].to_bits(), "seed {seed}: edge {e}");
        }
    }
}

/// Max-flow / min-cut duality on random networks: the extracted cut's
/// capacity equals the flow value and removing it disconnects the pair.
#[test]
fn max_flow_min_cut_duality() {
    for seed in 0..CASES {
        let (net, _w, seed) = case(seed);
        let n = net.node_count() as u32;
        let s = NodeId(seed as u32 % n);
        let t = NodeId((seed as u32 + 1) % n);
        if s == t {
            continue;
        }
        let flow = max_flow(net.graph(), net.capacities(), s, t);
        let cut = min_cut(net.graph(), net.capacities(), s, t);
        assert!(
            (flow.value - cut.capacity).abs() < 1e-6 * (1.0 + flow.value),
            "seed {seed}"
        );
        let cut_sum: f64 = cut.edges.iter().map(|e| net.capacities()[e.index()]).sum();
        assert!(
            (cut_sum - cut.capacity).abs() < 1e-6 * (1.0 + cut_sum),
            "seed {seed}"
        );
        assert!(cut.source_side[s.index()], "seed {seed}");
        assert!(!cut.source_side[t.index()], "seed {seed}");
    }
}

/// The parallel evaluator obeys flow conservation on multi-demand lists:
/// every transit node is balanced and the inflow at each target exceeds its
/// net terminating demand — and the loads are bit-identical at 1, 2 and 8
/// threads.
#[test]
fn parallel_evaluator_conserves_flow() {
    let _guard = threads_lock();
    for seed in 0..CASES / 4 {
        let (net, weights, seed) = case(seed);
        let w = WeightSetting::new(&net, weights).expect("valid");
        let n = net.node_count() as u32;
        // A multi-demand list with several distinct destinations, so the
        // evaluator's per-destination fan-out actually has work to split.
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xa076_1d64_78bd_642f));
        let mut demands = DemandList::new();
        for _ in 0..8 {
            let s = rng.gen_range(0..n);
            let t = rng.gen_range(0..n);
            if s != t {
                demands.push(NodeId(s), NodeId(t), f64::from(rng.gen_range(1..=5u32)));
            }
        }
        if demands.is_empty() {
            continue;
        }

        let mut reference: Option<Vec<u64>> = None;
        for threads in [1usize, 2, 8] {
            segrout_par::set_threads(threads);
            let router = Router::new(&net, &w);
            let report = router
                .evaluate(&demands, &WaypointSetting::none(demands.len()))
                .expect("strongly connected");
            segrout_par::set_threads(0);

            // Bit-identical loads across thread counts.
            let bits: Vec<u64> = report.loads.iter().map(|x| x.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(&bits, r, "seed {seed}: threads={threads} diverged"),
            }

            // Conservation: at every node, inflow - outflow equals the net
            // demand terminating there (demands ending minus starting).
            let g = net.graph();
            for v in g.nodes() {
                let inflow: f64 = g.in_edges(v).iter().map(|e| report.loads[e.index()]).sum();
                let outflow: f64 = g.out_edges(v).iter().map(|e| report.loads[e.index()]).sum();
                let net_terminating: f64 = demands
                    .iter()
                    .map(|d| {
                        if d.dst == v {
                            d.size
                        } else if d.src == v {
                            -d.size
                        } else {
                            0.0
                        }
                    })
                    .sum();
                assert!(
                    (inflow - outflow - net_terminating).abs() < 1e-9,
                    "seed {seed} threads {threads}: imbalance at {v:?}: \
                     in {inflow} out {outflow} net demand {net_terminating}"
                );
            }
        }
    }
}

/// No weight setting beats the fluid (MCF) optimum: for a single demand of
/// size equal to the max-flow value, the MLU of `lwo_apx`'s weights is at
/// least 1. Verified under the parallel evaluator at 1 and 4 threads.
#[test]
fn lwo_apx_never_beats_mcf_lower_bound() {
    let _guard = threads_lock();
    for seed in 0..CASES / 2 {
        let (net, _weights, seed) = case(seed);
        let n = net.node_count() as u32;
        let s = NodeId(seed as u32 % n);
        let t = NodeId((seed as u32 + 1) % n);
        if s == t {
            continue;
        }
        // MCF lower bound for one (s,t) pair: routing `maxflow` units needs
        // MLU >= 1 under ANY weight setting (ECMP is a feasible flow).
        let flow = max_flow(net.graph(), net.capacities(), s, t);
        assert!(flow.value > 0.0, "seed {seed}: disconnected pair");
        let r = lwo_apx(&net, s, t).expect("strongly connected");
        let mut demands = DemandList::new();
        demands.push(s, t, flow.value);

        let mut reference: Option<u64> = None;
        for threads in [1usize, 4] {
            segrout_par::set_threads(threads);
            let mlu = Router::new(&net, &r.weights).mlu(&demands).expect("routes");
            segrout_par::set_threads(0);
            assert!(
                mlu >= 1.0 - 1e-9,
                "seed {seed} threads {threads}: ECMP beat the MCF bound: {mlu}"
            );
            match reference {
                None => reference = Some(mlu.to_bits()),
                Some(bits) => assert_eq!(
                    mlu.to_bits(),
                    bits,
                    "seed {seed}: threads={threads} diverged"
                ),
            }
        }
    }
}

/// Segment-chained routing conserves flow end to end for random
/// two-waypoint chains.
#[test]
fn two_waypoint_chain_conserves() {
    for seed in 0..CASES {
        let (net, weights, seed) = case(seed);
        let w = WeightSetting::new(&net, weights).expect("valid");
        let router = Router::new(&net, &w);
        let n = net.node_count() as u32;
        let src = NodeId(seed as u32 % n);
        let dst = NodeId((seed as u32 + 1) % n);
        let w1 = NodeId((seed as u32 + 2) % n);
        let w2 = NodeId((seed as u32 + 3) % n);
        if src == dst || w1 == w2 {
            continue;
        }
        let mut demands = DemandList::new();
        demands.push(src, dst, 2.0);
        let mut setting = WaypointSetting::none(1);
        setting.set(0, vec![w1, w2]);
        let report = router
            .evaluate(&demands, &setting)
            .expect("strongly connected");
        let g = net.graph();
        // Net flow out of the source equals net flow into the target equals
        // the demand size (intermediate double-visits cancel out).
        let out_s: f64 = g
            .out_edges(src)
            .iter()
            .map(|e| report.loads[e.index()])
            .sum();
        let in_s: f64 = g
            .in_edges(src)
            .iter()
            .map(|e| report.loads[e.index()])
            .sum();
        let out_t: f64 = g
            .out_edges(dst)
            .iter()
            .map(|e| report.loads[e.index()])
            .sum();
        let in_t: f64 = g
            .in_edges(dst)
            .iter()
            .map(|e| report.loads[e.index()])
            .sum();
        assert!(
            (out_s - in_s - 2.0).abs() < 1e-9,
            "seed {seed}: source imbalance"
        );
        assert!(
            (in_t - out_t - 2.0).abs() < 1e-9,
            "seed {seed}: target imbalance"
        );
    }
}
