//! Differential suite pinning the bucket-queue (Dial) Dijkstra engine
//! bit-identical to the `BinaryHeap` oracle.
//!
//! The hot-loop refactor swapped the evaluator's shortest-path engine for a
//! monotone bucket queue over the integer weight domain and the SP-DAG
//! storage for flat CSR slabs. The contract is unchanged from every other
//! differential suite in this repo: **`f64::to_bits` equality, no epsilon**.
//! This file checks, over the paper's TE-Instances 1/3/5, seeded random
//! strongly-connected topologies and Germany50:
//!
//! * distance vectors: bucket queue vs heap oracle, every target;
//! * full `SpDag` structure (CSR offsets, edge slab, order) built through
//!   engine dispatch vs forced-heap scratch;
//! * dynamic-repair paths (`update_shortest_path_dag`) against forced-heap
//!   from-scratch rebuilds over random single-edge weight-change sequences,
//!   and (`disable_edge_update`) over random on-DAG edge removals under a
//!   growing mask, including removals that disconnect nodes — at a small
//!   frontier cap and at `n`, so large repairs run through the DAG patch
//!   instead of the rebuild fallback;
//! * the whole evaluator stack (`Router` + `IncrementalEvaluator`) with the
//!   bucket queue enabled vs disabled, at 1 and 4 worker threads.

use segrout_core::rng::StdRng;
use segrout_core::{
    fortz_phi, DemandList, EdgeId, IncrementalEvaluator, Network, NodeId, Router, WaypointSetting,
    WeightSetting,
};
use segrout_graph::{
    disable_edge_update, set_heap_only, shortest_path_dag, shortest_path_dag_masked,
    single_target_distances, single_target_distances_heap, update_shortest_path_dag, SpDag,
    SpDagUpdate,
};
use segrout_instances::{instance1, instance3, instance5};
use segrout_topo::{by_name, geo_backbone, random_connected};
use std::sync::{Mutex, MutexGuard};

/// The thread-count override and the heap-only engine toggle are both
/// process-global; serialize the tests of this binary.
fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores engine dispatch and the thread default even on panic.
struct Restore;
impl Drop for Restore {
    fn drop(&mut self) {
        set_heap_only(false);
        segrout_par::set_threads(0);
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Full structural bit-equality of two DAGs.
fn assert_same_dag(a: &SpDag, b: &SpDag, ctx: &str) {
    assert_eq!(bits(&a.dist), bits(&b.dist), "{ctx}: dist diverged");
    assert_eq!(a.edge_on_dag, b.edge_on_dag, "{ctx}: edge set diverged");
    assert_eq!(a.dag_start, b.dag_start, "{ctx}: CSR offsets diverged");
    assert_eq!(a.dag_edges, b.dag_edges, "{ctx}: CSR edge slab diverged");
    assert_eq!(a.order, b.order, "{ctx}: topological order diverged");
}

/// The covered networks (instances, seeded random, one SNDLib backbone, and
/// a 120-node synthetic WAN whose repairs move tens of nodes).
fn cases() -> Vec<(String, Network)> {
    let mut out: Vec<(String, Network)> = vec![
        ("instance1(m=8)".into(), instance1(8).network),
        ("instance3(m=5)".into(), instance3(5).network),
        ("instance5(m=3)".into(), instance5(3).network),
        ("Germany50".into(), by_name("Germany50").expect("embedded")),
    ];
    for seed in [23u64, 37, 53] {
        out.push((
            format!("random(seed={seed})"),
            random_connected(12, 26, seed),
        ));
    }
    out.push(("geo_backbone(120)".into(), geo_backbone(120, 240, 0x6e0)));
    out
}

/// Seeded integral weight vector in `[1, 20]` — the optimizer regime.
fn integral_weights(m: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| f64::from(rng.gen_range(1..=20u32)))
        .collect()
}

#[test]
fn distances_and_dags_bit_identical_across_engines() {
    let _guard = global_lock();
    let _restore = Restore;
    set_heap_only(false);
    for (label, net) in cases() {
        let g = net.graph();
        let w = integral_weights(net.edge_count(), 0xb0c3 + net.edge_count() as u64);
        for t in 0..net.node_count() {
            let target = NodeId(t as u32);
            let dial = single_target_distances(g, &w, target);
            let heap = single_target_distances_heap(g, &w, target);
            assert_eq!(bits(&dial), bits(&heap), "{label} target {target:?}");

            let dag_dispatch = shortest_path_dag(g, &w, target);
            set_heap_only(true);
            let dag_heap = shortest_path_dag(g, &w, target);
            set_heap_only(false);
            assert_same_dag(
                &dag_dispatch,
                &dag_heap,
                &format!("{label} target {target:?}"),
            );
        }
    }
}

/// A handful of fixed targets each walk tracks.
fn walk_targets(net: &Network) -> Vec<NodeId> {
    (0..net.node_count().min(6))
        .map(|i| NodeId(i as u32))
        .collect()
}

/// Random single-edge weight changes, each repaired for every walk target
/// and compared with a forced-heap from-scratch build of the same state.
fn weight_walk(label: &str, net: &Network, cap: usize) {
    let g = net.graph();
    let m = net.edge_count();
    let mut rng = StdRng::seed_from_u64(0x0d1a + m as u64);
    let mut w = integral_weights(m, 0x5eed + m as u64);
    let targets = walk_targets(net);
    let mut dags: Vec<SpDag> = targets
        .iter()
        .map(|&t| shortest_path_dag(g, &w, t))
        .collect();
    for step in 0..20 {
        let e = EdgeId(rng.gen_range(0..m as u32));
        let old_w = w[e.index()];
        w[e.index()] = f64::from(rng.gen_range(1..=20u32));
        for (dag, &t) in dags.iter_mut().zip(&targets) {
            // Repair with bucket dispatch live (rebuild fallbacks use it).
            let repaired = match update_shortest_path_dag(g, &w, dag, e, old_w, cap) {
                SpDagUpdate::Unchanged => dag.clone(),
                SpDagUpdate::Repaired(d, _) | SpDagUpdate::Rebuilt(d) => d,
            };
            // Oracle: forced-heap from-scratch rebuild of the same state.
            set_heap_only(true);
            let scratch = shortest_path_dag(g, &w, t);
            set_heap_only(false);
            assert_same_dag(
                &repaired,
                &scratch,
                &format!("{label} cap {cap} step {step} target {t:?}"),
            );
            *dag = repaired;
        }
    }
}

/// Per walk target, disables random on-DAG edges one at a time under a
/// growing mask, repairing with `disable_edge_update` and comparing with a
/// forced-heap masked build. Returns how many nodes the walks cut off.
fn masked_walk(label: &str, net: &Network, cap: usize) -> usize {
    let g = net.graph();
    let m = net.edge_count();
    let mut rng = StdRng::seed_from_u64(0xd15a + m as u64);
    let w = integral_weights(m, 0x5eed + m as u64);
    let mut disconnected = 0;
    for t in walk_targets(net) {
        let mut mask = vec![false; m];
        let mut dag = shortest_path_dag(g, &w, t);
        for step in 0..25 {
            let on_dag: Vec<usize> = (0..m).filter(|&i| dag.edge_on_dag[i]).collect();
            if on_dag.is_empty() {
                break; // every other node is cut off already
            }
            let e = EdgeId(on_dag[rng.gen_range(0..on_dag.len())] as u32);
            mask[e.index()] = true;
            let repaired = disable_edge_update(g, &w, &dag, e, cap, &mask)
                .into_dag()
                .expect("an on-DAG removal dirties the DAG");
            set_heap_only(true);
            let scratch = shortest_path_dag_masked(g, &w, t, &mask);
            set_heap_only(false);
            let ctx = format!("{label} cap {cap} masked step {step} target {t:?}");
            assert_same_dag(&repaired, &scratch, &ctx);
            for v in g.nodes() {
                if dag.reaches_target(v) && !repaired.reaches_target(v) {
                    assert!(!repaired.order.contains(&v), "{ctx}: {v:?} left in order");
                    disconnected += 1;
                }
            }
            dag = repaired;
        }
    }
    disconnected
}

#[test]
fn update_paths_match_forced_heap_scratch() {
    let _guard = global_lock();
    let _restore = Restore;
    set_heap_only(false);
    for (label, net) in cases() {
        // A small cap sends large affected sets to the rebuild fallback; a
        // cap of `n` sends every repair through the DAG patch.
        for cap in [8, net.node_count()] {
            weight_walk(&label, &net, cap);
            let cut = masked_walk(&label, &net, cap);
            assert!(cut > 0, "{label} cap {cap}: no removal disconnected a node");
        }
    }
}

/// One probe/commit walk through the incremental evaluator; returns the
/// per-step `(loads, phi, mlu)` bit trace.
fn evaluator_trace(net: &Network, demands: &DemandList, seed: u64) -> Vec<(Vec<u64>, u64, u64)> {
    let m = net.edge_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let weights: Vec<f64> = (0..m)
        .map(|_| f64::from(rng.gen_range(1..=20u32)))
        .collect();
    let ws = WeightSetting::new(net, weights).expect("weights in range");
    let wp = WaypointSetting::none(demands.len());
    let mut ev = IncrementalEvaluator::new(net, &ws, demands, &wp).expect("routable");
    let mut trace = Vec::new();
    for _ in 0..16 {
        let e = EdgeId(rng.gen_range(0..m as u32));
        let new_w = f64::from(rng.gen_range(1..=20u32));
        let probe = ev.probe(e, new_w).expect("probe routable");
        trace.push((bits(&probe.loads), probe.phi.to_bits(), probe.mlu.to_bits()));
        ev.commit(probe);
    }
    // Close the loop against the plain Router as well.
    let w_now = WeightSetting::new(net, ev.weights().to_vec()).expect("in range");
    let report = Router::new(net, &w_now)
        .evaluate(demands, &wp)
        .expect("routable");
    let phi = fortz_phi(&report.loads, net.capacities());
    assert_eq!(
        bits(&report.loads),
        bits(ev.loads()),
        "router/evaluator split"
    );
    trace.push((bits(&report.loads), phi.to_bits(), report.mlu.to_bits()));
    trace
}

#[test]
fn evaluator_stack_identical_with_either_engine_at_1_and_4_threads() {
    let _guard = global_lock();
    let _restore = Restore;
    let net = by_name("Germany50").expect("embedded");
    let mut rng = StdRng::seed_from_u64(0x9e44);
    let n = net.node_count() as u32;
    let mut demands = DemandList::new();
    for _ in 0..40 {
        let s = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        if s != t {
            demands.push(NodeId(s), NodeId(t), f64::from(rng.gen_range(1..=10u32)));
        }
    }
    let mut traces = Vec::new();
    for threads in [1usize, 4] {
        for heap in [false, true] {
            segrout_par::set_threads(threads);
            set_heap_only(heap);
            traces.push(evaluator_trace(&net, &demands, 0xfacade));
        }
    }
    set_heap_only(false);
    segrout_par::set_threads(0);
    for (i, t) in traces.iter().enumerate().skip(1) {
        assert_eq!(
            &traces[0], t,
            "trace {i} diverged (thread-count × engine grid must be bit-identical)"
        );
    }
}
