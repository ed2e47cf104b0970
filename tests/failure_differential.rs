//! Differential suite pinning the edge-disable probe bit-identical to
//! from-scratch re-routing on a copied topology with the failed edges
//! *deleted*.
//!
//! The failure-sweep engine answers every scenario with
//! `IncrementalEvaluator::probe_disable` — a read-only masked repair of the
//! intact base state. Its contract is the same as every differential suite
//! in this repo: **`f64::to_bits` equality, no epsilon**, against the ground
//! truth of physically removing the failed edges, rebuilding the network,
//! and routing from scratch. This file checks, over the paper's
//! TE-Instances 1/3/5 and Germany50:
//!
//! * per-pattern loads / MLU / Φ: disable probe vs a fresh `Router` on the
//!   edge-deleted copy (surviving edges matched through the id remap);
//! * disconnect classification: the probe reports `Unroutable` exactly when
//!   the deleted-topology evaluation does;
//! * the full probe bit-trace is identical across worker-thread counts
//!   1 and 4;
//! * `sweep_failures` reports are bit-stable across the same thread counts.

use segrout_core::rng::StdRng;
use segrout_core::{
    fortz_phi, sweep_failures, DemandList, EdgeId, FailureSet, IncrementalEvaluator, Network,
    NodeId, Router, ScenarioOutcome, TeError, WaypointSetting, WeightSetting,
};
use segrout_instances::{instance1, instance3, instance5};
use segrout_topo::by_name;
use std::sync::{Mutex, MutexGuard};

/// Per-scenario bit signature: `(pattern, scaling, Some((mlu_bits, phi_bits)))`
/// for evaluated scenarios, `None` for disconnecting ones.
type ScenarioSig = (usize, usize, Option<(u64, u64)>);

/// The thread-count override is process-global; serialize the tests of
/// this binary.
fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores the thread default even on panic.
struct Restore;
impl Drop for Restore {
    fn drop(&mut self) {
        segrout_par::set_threads(0);
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The covered `(label, network, demands)` cases: the paper's gadget
/// instances with their own single source–target demand (failures here
/// disconnect often, exercising the classification arm) and Germany50 with
/// a seeded many-pair workload.
fn cases() -> Vec<(String, Network, DemandList)> {
    let mut out = Vec::new();
    for (label, inst) in [
        ("instance1(m=8)", instance1(8)),
        ("instance3(m=5)", instance3(5)),
        ("instance5(m=3)", instance5(3)),
    ] {
        out.push((label.to_string(), inst.network, inst.demands));
    }
    let net = by_name("Germany50").expect("embedded");
    let mut rng = StdRng::seed_from_u64(0xfa11);
    let n = net.node_count() as u32;
    let mut demands = DemandList::new();
    for _ in 0..40 {
        let s = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        if s != t {
            demands.push(NodeId(s), NodeId(t), f64::from(rng.gen_range(1..=10u32)));
        }
    }
    out.push(("Germany50".to_string(), net, demands));
    out
}

/// Seeded integral weight vector in `[1, 20]` — the optimizer regime, where
/// the bit-identity contract holds exactly.
fn integral_weights(m: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| f64::from(rng.gen_range(1..=20u32)))
        .collect()
}

/// Edge-deleted copy of `net`: the failed edges are physically absent, not
/// masked. Returns the copy plus the surviving old edge ids in order (the
/// old→new remap), or `None` when no edge survives.
fn deleted_copy(net: &Network, dead: &[EdgeId]) -> Option<(Network, Vec<EdgeId>)> {
    let mut b = Network::builder(net.node_count());
    let mut kept = Vec::new();
    for (e, u, v) in net.graph().edges() {
        if !dead.contains(&e) {
            b.link(u, v, net.capacities()[e.index()]);
            kept.push(e);
        }
    }
    if kept.is_empty() {
        return None;
    }
    Some((b.build().ok()?, kept))
}

/// Checks one pattern: the disable probe against the edge-deleted scratch
/// evaluation. Returns the probe's bit signature for cross-grid comparison.
fn check_pattern(
    label: &str,
    net: &Network,
    ev: &IncrementalEvaluator<'_>,
    weights: &[f64],
    demands: &DemandList,
    dead: &[EdgeId],
) -> (Vec<u64>, u64, u64, bool) {
    let wp = WaypointSetting::none(demands.len());
    let scratch = deleted_copy(net, dead).and_then(|(net2, kept)| {
        let w2: Vec<f64> = kept.iter().map(|e| weights[e.index()]).collect();
        let ws = WeightSetting::new(&net2, w2).expect("weights in range");
        Router::new(&net2, &ws)
            .evaluate(demands, &wp)
            .ok()
            .map(|rep| (net2, kept, rep))
    });
    match (ev.probe_disable(dead), scratch) {
        (Ok(probe), Some((net2, kept, fresh))) => {
            assert_eq!(
                probe.mlu.to_bits(),
                fresh.mlu.to_bits(),
                "{label} {dead:?}: probe MLU {} != deleted-topology MLU {}",
                probe.mlu,
                fresh.mlu
            );
            for (new_idx, &old) in kept.iter().enumerate() {
                assert_eq!(
                    probe.loads[old.index()].to_bits(),
                    fresh.loads[new_idx].to_bits(),
                    "{label} {dead:?}: load diverged on surviving edge {}",
                    old.index()
                );
            }
            for &e in dead {
                assert_eq!(
                    probe.loads[e.index()],
                    0.0,
                    "{label} {dead:?}: dead edge {} carries load",
                    e.index()
                );
            }
            let phi = fortz_phi(&fresh.loads, net2.capacities());
            assert_eq!(
                probe.phi.to_bits(),
                phi.to_bits(),
                "{label} {dead:?}: probe Φ {} != deleted-topology Φ {phi}",
                probe.phi
            );
            (
                bits(&probe.loads),
                probe.mlu.to_bits(),
                probe.phi.to_bits(),
                true,
            )
        }
        (Err(TeError::Unroutable { src, dst }), None | Some(_)) => {
            // The probe says disconnected: the deleted topology must agree
            // (either it cannot be built at all or routing fails on it).
            let agrees = deleted_copy(net, dead).is_none_or(|(net2, kept)| {
                let w2: Vec<f64> = kept.iter().map(|e| weights[e.index()]).collect();
                let ws = WeightSetting::new(&net2, w2).expect("weights in range");
                matches!(
                    Router::new(&net2, &ws).evaluate(demands, &wp),
                    Err(TeError::Unroutable { .. })
                )
            });
            assert!(
                agrees,
                "{label} {dead:?}: probe reports {src:?}->{dst:?} severed but \
                 the deleted topology routes"
            );
            (Vec::new(), 0, 0, false)
        }
        (Ok(_), None) => panic!("{label} {dead:?}: probe routed with zero surviving edges"),
        (Err(e), _) => panic!("{label} {dead:?}: unexpected probe error {e}"),
    }
}

#[test]
fn disable_probes_match_deleted_topology_rerouting() {
    let _guard = global_lock();
    for (label, net, demands) in cases() {
        let weights = integral_weights(net.edge_count(), 0xd15a + net.edge_count() as u64);
        let ws = WeightSetting::new(&net, weights.clone()).expect("weights in range");
        let wp = WaypointSetting::none(demands.len());
        let ev = IncrementalEvaluator::new(&net, &ws, &demands, &wp).expect("intact routable");
        let set = FailureSet::enumerate(&net, false);
        let mut evaluated = 0usize;
        for pattern in set.patterns() {
            let (_, _, _, routed) =
                check_pattern(&label, &net, &ev, &weights, &demands, &pattern.dead);
            evaluated += usize::from(routed);
        }
        assert!(
            evaluated > 0,
            "{label}: every single-link failure disconnected — the evaluated \
             arm of the differential never ran"
        );
    }
}

#[test]
fn probe_traces_identical_across_threads() {
    let _guard = global_lock();
    let _restore = Restore;
    let (label, net, demands) = cases().pop().expect("Germany50 last");
    let weights = integral_weights(net.edge_count(), 0x6e1d + net.edge_count() as u64);
    let ws = WeightSetting::new(&net, weights.clone()).expect("weights in range");
    let wp = WaypointSetting::none(demands.len());
    let set = FailureSet::enumerate(&net, false);

    let mut traces = Vec::new();
    for threads in [1usize, 4] {
        segrout_par::set_threads(threads);
        let ev = IncrementalEvaluator::new(&net, &ws, &demands, &wp).expect("intact routable");
        let trace: Vec<_> = set
            .patterns()
            .iter()
            .map(|p| check_pattern(&label, &net, &ev, &weights, &demands, &p.dead))
            .collect();
        traces.push(trace);
    }
    segrout_par::set_threads(0);
    assert_eq!(
        traces[0], traces[1],
        "4-thread probe trace diverged (must be bit-identical to serial)"
    );
}

#[test]
fn sweep_reports_bit_stable_across_threads() {
    let _guard = global_lock();
    let _restore = Restore;
    let (_, net, demands) = cases().pop().expect("Germany50 last");
    let ws = WeightSetting::new(
        &net,
        integral_weights(net.edge_count(), 0x5eeb + net.edge_count() as u64),
    )
    .expect("weights in range");
    let wp = WaypointSetting::none(demands.len());
    let set = FailureSet::enumerate(&net, false);

    let mut signatures = Vec::new();
    for threads in [1usize, 4] {
        segrout_par::set_threads(threads);
        let rep = sweep_failures(&net, &ws, &demands, &wp, &set, &[0.8, 1.0, 1.2])
            .expect("intact routable");
        let sig: Vec<ScenarioSig> = rep
            .results
            .iter()
            .map(|r| {
                let key = match r.outcome {
                    ScenarioOutcome::Evaluated { mlu, phi, .. } => {
                        Some((mlu.to_bits(), phi.to_bits()))
                    }
                    ScenarioOutcome::Disconnected { .. } => None,
                };
                (r.pattern, r.scaling, key)
            })
            .collect();
        let worst = rep.worst.as_ref().map(|c| {
            (
                c.pattern,
                c.scaling,
                c.mlu.to_bits(),
                c.bottleneck,
                c.bottleneck_load.to_bits(),
            )
        });
        signatures.push((sig, worst, rep.evaluated, rep.disconnects));
    }
    segrout_par::set_threads(0);
    assert_eq!(
        signatures[0], signatures[1],
        "4-thread sweep report diverged (must be bit-identical to serial)"
    );
}
