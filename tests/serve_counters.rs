//! Regression pins for the serving fix: `reoptimize_weights` (and the
//! daemon's per-event path) must drive ONE live `IncrementalEvaluator`
//! instead of rebuilding routers per candidate — observable in the
//! process-global counters. This file is its own test binary with a single
//! test, because the obs registry is process-wide and any concurrent test
//! would race the deltas.

use segrout::algos::{reoptimize_weights, HeurOspfConfig, ReoptimizeConfig, ServeConfig};
use segrout::algos::{ServeEvent, ServeSession, ServeTier};
use segrout::core::rng::StdRng;
use segrout::core::{DemandList, EdgeId, NodeId, WaypointSetting, WeightSetting};
use segrout::topo::by_name;
use std::collections::BTreeSet;

fn counter(name: &str) -> u64 {
    segrout::obs::counter(name).get()
}

#[test]
fn one_evaluator_per_search_and_no_rebuilds_per_event() {
    let net = by_name("Germany50").expect("embedded");
    let mut rng = StdRng::seed_from_u64(0xc0fe);
    let n = net.node_count() as u32;
    let mut demands = DemandList::new();
    while demands.len() < 40 {
        let s = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        if s != t {
            demands.push(NodeId(s), NodeId(t), f64::from(rng.gen_range(5..=15u32)));
        }
    }
    let dests = demands.iter().map(|d| d.dst).collect::<BTreeSet<_>>().len() as u64;

    // ---- Pin 1: reoptimize_weights drives one evaluator. ----
    let cfg = ReoptimizeConfig {
        max_weight_changes: 3,
        ospf: HeurOspfConfig {
            seed: 7,
            max_passes: 3,
            ..Default::default()
        },
        ..Default::default()
    };
    let recomputes0 = counter("ecmp.recomputes");
    let probes0 = counter("incr.probes");
    let evals0 = counter("reopt.evaluations");
    let reuses0 = counter("arena.reuses");

    let result =
        reoptimize_weights(&net, &demands, &WeightSetting::unit(&net), &cfg).expect("routable");
    assert!(result.mlu.is_finite());

    let d_recomputes = counter("ecmp.recomputes") - recomputes0;
    let d_probes = counter("incr.probes") - probes0;
    let d_evals = counter("reopt.evaluations") - evals0;
    let d_reuses = counter("arena.reuses") - reuses0;
    assert!(
        d_evals > 50,
        "the search must probe many candidates: {d_evals}"
    );
    assert_eq!(
        d_probes, d_evals,
        "every candidate evaluation is exactly one incremental probe"
    );
    assert!(
        d_reuses > 0,
        "probes must reuse the committed totals of the columns they leave untouched \
         ({d_reuses} reuses, {d_evals} evals)"
    );
    // Building the one evaluator costs `dests` full per-destination
    // evaluations; after that, probes repair instead of recomputing (a
    // probe may still fall back to a full DAG rebuild when the dirty
    // frontier blows past the cap, so allow up to one per eval — the old
    // router-per-candidate implementation burned `dests` per eval).
    assert!(
        d_recomputes <= dests + d_evals,
        "search must not rebuild per candidate: {d_recomputes} recomputes \
         for {d_evals} evals over {dests} destinations"
    );

    // ---- Pin 2: probe-tier serve events never rebuild SP-DAGs. ----
    let session_cfg = ServeConfig {
        reopt: cfg,
        ..Default::default()
    };
    let n_demands = demands.len();
    let mut session = ServeSession::new(
        &net,
        &result.weights,
        demands,
        WaypointSetting::none(n_demands),
        session_cfg,
    )
    .expect("session opens");

    let recomputes1 = counter("ecmp.recomputes");
    let dirty1 = counter("incr.dirty_dests");
    let rebuilds1 = counter("arena.rebuilds");
    let events = 10u64;
    for k in 0..events {
        // Tiny drifts: bitwise-new seeds (dirty rows must be re-propagated
        // in place) but far below the reopt threshold, so every event stays
        // in the probe tier.
        let r = session.apply(&ServeEvent::DemandScale {
            index: k as usize,
            factor: 1.001,
        });
        assert_eq!(r.tier, ServeTier::Probe, "event {k} must stay probe-tier");
    }
    assert_eq!(
        counter("ecmp.recomputes") - recomputes1,
        0,
        "consecutive in-place events must not rebuild a single SP-DAG"
    );
    assert!(
        counter("incr.dirty_dests") - dirty1 >= events,
        "each scale event repairs at least the scaled demand's destination row"
    );
    assert!(
        counter("arena.rebuilds") - rebuilds1 <= events,
        "at most one full load-arena refold per event"
    );
    assert_eq!(session.stats().events, events);

    // ---- Pin 3: link flaps run the shared change path, not probes. ----
    // Link events are not probes, and a link coming back up is a bounded
    // repair (a weight decrease from ∞), not a rebuild per destination.
    // An infinite reopt ratio keeps every event in the probe tier, so no
    // search probes either.
    let mut flaps = ServeSession::new(
        &net,
        &result.weights,
        session.demands().clone(),
        WaypointSetting::none(n_demands),
        ServeConfig {
            reopt_ratio: f64::INFINITY,
            ..Default::default()
        },
    )
    .expect("session opens");
    let loads = |s: &ServeSession<'_>| -> Vec<u64> {
        s.evaluator().loads().iter().map(|x| x.to_bits()).collect()
    };
    let intact = loads(&flaps);
    let probes2 = counter("incr.probes");
    let disable_probes2 = counter("incr.disable_probes");
    let (mut up_repairs, mut up_recomputes) = (0, 0);
    for e in (0..net.edge_count() as u32).map(EdgeId) {
        if flaps.apply(&ServeEvent::LinkDown { edge: e }).tier == ServeTier::Error {
            continue; // the failure would cut a demand off: state untouched
        }
        let (repairs, recomputes) = (counter("incr.repairs"), counter("ecmp.recomputes"));
        let r = flaps.apply(&ServeEvent::LinkUp { edge: e });
        assert_eq!(r.tier, ServeTier::Probe, "link {e:?} up");
        up_repairs += counter("incr.repairs") - repairs;
        up_recomputes += counter("ecmp.recomputes") - recomputes;
    }
    assert_eq!(loads(&flaps), intact, "every flap must round-trip");
    assert_eq!(
        counter("incr.probes"),
        probes2,
        "link events are not probes"
    );
    assert_eq!(counter("incr.disable_probes"), disable_probes2);
    assert!(
        up_repairs > 0 && up_recomputes < up_repairs,
        "link-ups must mostly repair: {up_repairs} repairs, {up_recomputes} rebuilds"
    );
}
