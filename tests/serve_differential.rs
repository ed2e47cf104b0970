//! Differential suite for the online serving engine: after **every** event,
//! the daemon's in-place state must be `f64::to_bits`-identical to a
//! from-scratch reconstruction of the same inputs — and the whole event
//! walk must replay bit-identically at 1 and 4 worker threads.
//!
//! Two oracles per event:
//!
//! 1. **State**: rebuild a fresh network carrying the session's effective
//!    capacities, construct a fresh `IncrementalEvaluator` with the
//!    session's weights/demands/waypoints/failure mask, and compare loads,
//!    Φ, MLU bitwise.
//! 2. **Search**: when an event triggered the local-search tier, re-run
//!    `reoptimize_weights_on` from the pre-event weights on a fresh
//!    evaluator with the same config — it must reproduce the session's
//!    deployed weights bitwise (the probes are bit-identical, so the
//!    acceptance trajectory is too).

use segrout::algos::{
    reoptimize_weights_on, round_deployed, ServeConfig, ServeEvent, ServeSession, ServeTier,
};
use segrout::core::rng::StdRng;
use segrout::core::{
    DemandList, EdgeId, IncrementalEvaluator, Network, NodeId, WaypointSetting, WeightSetting,
};
use segrout::instances::{instance1, instance3, instance5};
use segrout::topo::by_name;
use std::sync::{Mutex, MutexGuard};

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
        segrout::par::set_threads(0);
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The covered `(label, network, demands)` cases: paper instances with
/// their own demands, plus Germany50 under a seeded random matrix.
fn cases() -> Vec<(String, Network, DemandList)> {
    let mut out = Vec::new();
    for (label, inst) in [
        ("instance1(m=8)", instance1(8)),
        ("instance3(m=5)", instance3(5)),
        ("instance5(m=3)", instance5(3)),
    ] {
        out.push((label.to_string(), inst.network, inst.demands));
    }
    let g50 = by_name("Germany50").expect("embedded");
    let mut rng = StdRng::seed_from_u64(0x5e4e);
    let n = g50.node_count() as u32;
    let mut demands = DemandList::new();
    while demands.len() < 40 {
        let s = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        if s != t {
            demands.push(NodeId(s), NodeId(t), f64::from(rng.gen_range(1..=10u32)));
        }
    }
    out.push(("Germany50".to_string(), g50, demands));
    out
}

/// A scripted event sequence covering every event type, seeded per case.
/// Link downs are tracked so some later event brings them back up.
fn scripted_events(net: &Network, demands: &DemandList, seed: u64) -> Vec<ServeEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = net.edge_count() as u32;
    let mut down: Vec<EdgeId> = Vec::new();
    let mut events = Vec::new();
    for step in 0..12 {
        let event = match step % 6 {
            0 | 3 => ServeEvent::DemandScale {
                index: rng.gen_range(0..demands.len() as u64) as usize,
                factor: 0.5 + 1.5 * rng.gen_f64(),
            },
            1 => {
                let e = EdgeId(rng.gen_range(0..m));
                down.push(e);
                ServeEvent::LinkDown { edge: e }
            }
            2 => ServeEvent::Capacity {
                edge: EdgeId(rng.gen_range(0..m)),
                capacity: 1.0 + 20.0 * rng.gen_f64(),
            },
            4 => match down.pop() {
                Some(e) => ServeEvent::LinkUp { edge: e },
                None => ServeEvent::Noop,
            },
            _ => ServeEvent::DemandMatrix {
                // Same pairs, globally rescaled: exercises the same-dest-set
                // in-place workload swap.
                demands: demands
                    .iter()
                    .map(|d| (d.src, d.dst, d.size * 0.9))
                    .collect(),
            },
        };
        events.push(event);
    }
    events
}

/// Scratch network clone carrying `caps` as its nominal capacities.
fn recapacitated(net: &Network, caps: &[f64]) -> Network {
    let mut b = Network::builder(net.node_count());
    for (e, u, v) in net.graph().edges() {
        b.link(u, v, caps[e.index()]);
    }
    b.build().expect("clone of a valid network is valid")
}

/// From-scratch oracle of the session's current state.
fn scratch_state(session: &ServeSession<'_>) -> (Vec<u64>, u64, u64) {
    let ev = session.evaluator();
    let scratch_net = recapacitated(session.network(), ev.capacities());
    let weights =
        WeightSetting::new(&scratch_net, ev.weights().to_vec()).expect("deployed weights valid");
    let failed: Vec<EdgeId> = ev
        .disabled()
        .iter()
        .enumerate()
        .filter(|(_, &d)| d)
        .map(|(i, _)| EdgeId(i as u32))
        .collect();
    let fresh = IncrementalEvaluator::new_with_failures(
        &scratch_net,
        &weights,
        session.demands(),
        session.waypoints(),
        &failed,
    )
    .expect("committed session state is routable");
    (
        bits(fresh.loads()),
        fresh.phi().to_bits(),
        fresh.mlu().to_bits(),
    )
}

/// One full event walk; checks both oracles after every event and returns
/// the per-event bit trace for the thread-count comparison.
fn walk(label: &str, net: &Network, demands: &DemandList, check_search: bool) -> Vec<Vec<u64>> {
    let deployed = round_deployed(net, &WeightSetting::unit(net), 20);
    let cfg = ServeConfig::default();
    let mut session = ServeSession::new(
        net,
        &deployed,
        demands.clone(),
        WaypointSetting::none(demands.len()),
        cfg,
    )
    .expect("session opens");
    let mut trace = Vec::new();
    for (k, event) in scripted_events(net, demands, 0xd1ff).iter().enumerate() {
        let pre_weights: Vec<f64> = session.evaluator().weights().to_vec();
        let r = session.apply(event);
        let ctx = format!("{label} event {k} ({event:?})");

        // Response invariants.
        assert_eq!(r.seq, k as u64 + 1, "{ctx}: seq");
        assert_eq!(r.churn, r.weight_diffs.len(), "{ctx}: churn accounting");
        assert_eq!(
            r.mlu.to_bits(),
            session.evaluator().mlu().to_bits(),
            "{ctx}: mlu"
        );
        for &(e, old, new) in &r.weight_diffs {
            assert_eq!(
                old.to_bits(),
                pre_weights[e.index()].to_bits(),
                "{ctx}: diff old"
            );
            assert_eq!(
                new.to_bits(),
                session.evaluator().weights()[e.index()].to_bits(),
                "{ctx}: diff new"
            );
        }
        if r.tier == ServeTier::Error {
            assert_eq!(
                bits(&pre_weights),
                bits(session.evaluator().weights()),
                "{ctx}: error reply must not change weights"
            );
        }

        // Oracle 1: state vs from-scratch reconstruction.
        let (loads, phi, mlu) = scratch_state(&session);
        assert_eq!(bits(session.evaluator().loads()), loads, "{ctx}: loads");
        assert_eq!(session.evaluator().phi().to_bits(), phi, "{ctx}: phi");
        assert_eq!(session.evaluator().mlu().to_bits(), mlu, "{ctx}: mlu");

        // Oracle 2: the local-search trajectory from the pre-event weights.
        if check_search && (r.tier == ServeTier::Local || r.tier == ServeTier::Escalate) {
            let ev = session.evaluator();
            let scratch_net = recapacitated(session.network(), ev.capacities());
            let pre =
                WeightSetting::new(&scratch_net, pre_weights.clone()).expect("pre-event weights");
            let failed: Vec<EdgeId> = ev
                .disabled()
                .iter()
                .enumerate()
                .filter(|(_, &d)| d)
                .map(|(i, _)| EdgeId(i as u32))
                .collect();
            let mut fresh = IncrementalEvaluator::new_with_failures(
                &scratch_net,
                &pre,
                session.demands(),
                session.waypoints(),
                &failed,
            )
            .expect("pre-event state routable");
            let mut reopt_cfg = session.config().reopt.clone();
            if r.tier == ServeTier::Escalate {
                reopt_cfg.max_weight_changes = net.edge_count();
            }
            let result = reoptimize_weights_on(&mut fresh, &reopt_cfg).expect("search runs");
            assert_eq!(
                bits(result.weights.as_slice()),
                bits(session.evaluator().weights()),
                "{ctx}: scratch search must reproduce the deployed weights"
            );
            assert_eq!(
                result.mlu.to_bits(),
                session.evaluator().mlu().to_bits(),
                "{ctx}: scratch search mlu"
            );
        }

        // Grid trace: everything observable about this event.
        let mut row = vec![
            r.seq,
            r.tier.as_str().len() as u64,
            r.churn as u64,
            r.evaluations,
        ];
        row.extend(bits(session.evaluator().weights()));
        row.extend(bits(session.evaluator().loads()));
        row.push(session.evaluator().phi().to_bits());
        row.push(session.evaluator().mlu().to_bits());
        trace.push(row);
    }
    trace
}

#[test]
fn post_event_state_matches_scratch_rebuild_on_all_cases() {
    let _guard = global_lock();
    let _restore = Restore;
    segrout::par::set_threads(0);
    for (label, net, demands) in cases() {
        walk(&label, &net, &demands, true);
    }
}

#[test]
fn event_walk_bit_identical_across_threads() {
    let _guard = global_lock();
    let _restore = Restore;
    // The search oracle is covered by the test above; here the walk runs
    // once per thread count and every observable bit must agree.
    for (label, net, demands) in cases() {
        let mut traces = Vec::new();
        for threads in [1usize, 4] {
            segrout::par::set_threads(threads);
            traces.push(walk(&label, &net, &demands, false));
        }
        segrout::par::set_threads(0);
        assert_eq!(traces[0], traces[1], "{label}: walk diverged at 4 threads");
    }
}
