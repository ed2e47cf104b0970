//! Incremental evaluation: seeded probe/commit weight walks through
//! `IncrementalEvaluator` match the from-scratch oracle bit for bit at 1,
//! 2, 4 and 8 threads, intact and waypointed, and the HeurOSPF descent does
//! at least 5× fewer full DAG recomputations than a from-scratch scorer.
//! The `walk` kind and the oracle live in `segrout::check::differential`;
//! the case table in `tests/differential/mod.rs`.

mod differential;

use differential::{cases, detoured, seeded_demands, small_cases};
use segrout::algos::{heur_ospf, HeurOspfConfig};
use segrout::check::differential::{guard, run_kind, walk, Grid};
use segrout::core::{IncrementalEvaluator, WaypointSetting, WeightSetting};
use segrout::topo::by_name;

/// `walk` on the intact routing of the TE-Instances and the random
/// topologies. Germany50's walk is `hotloop_differential`'s.
#[test]
fn incremental_matches_scratch_at_1_and_4_threads() {
    run_kind("walk", Grid::Full, small_cases(), walk);
}

/// `walk` with every demand waypointed through a detour node, so the
/// segment decomposition runs multi-segment destinations.
#[test]
fn waypointed_sequences_match_scratch() {
    run_kind("waypointed walk", Grid::Full, detoured(cases()), walk);
}

/// Germany50 HeurOSPF descent: at least 5× fewer full DAG recomputations
/// than a from-scratch scorer, which rebuilds all `D` destination DAGs for
/// each evaluation the descent counts (`heurospf.iterations × D`). It
/// counts work, not wall time, so it holds on any host.
#[test]
fn heur_ospf_recomputes_drop_at_least_5x_on_germany50() {
    let _guard = guard();
    segrout::par::set_threads(1);
    let net = by_name("Germany50").expect("embedded topology");
    let demands = seeded_demands(&net, 0x6e50, 30);
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
    let recomputes = segrout::obs::counter("ecmp.recomputes");
    let iterations = segrout::obs::counter("heurospf.iterations");

    let (r0, i0) = (recomputes.get(), iterations.get());
    heur_ospf(&net, &demands, &cfg);
    let incremental_recomputes = recomputes.get() - r0;
    let scratch_recomputes = (iterations.get() - i0) * destinations;
    assert!(
        scratch_recomputes >= 5 * incremental_recomputes.max(1),
        "expected a >=5x recompute drop: scratch={scratch_recomputes} \
         incremental={incremental_recomputes}"
    );
}
