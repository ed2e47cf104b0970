//! Failure-sweep throughput benchmark (`BENCH_failsweep.json`): fleet-scale
//! what-if enumeration on Germany50.
//!
//! The sweep engine answers every `(failure pattern, demand scaling)`
//! scenario with the read-only edge-disable probe — one intact-topology
//! evaluator per scaling, masked repair of only the destinations whose
//! shortest-path DAG used a failed edge, fanned out over the `segrout-par`
//! pool. This benchmark enumerates all single **and** double link failures
//! of Germany50 (88 links → 3 916 patterns) across enough demand scalings
//! to exceed 100 000 scenario evaluations in one run, and records the
//! wall-time and throughput.
//!
//! Environment: `SEGROUT_FAST=1` shrinks to Abilene's single and double
//! failures (120 patterns) at one scaling and writes
//! `BENCH_failsweep_fast.json` instead.

use segrout_bench::{banner, fast_mode, write_record};
use segrout_core::{sweep_failures, FailureSet, WaypointSetting, WeightSetting};
use segrout_obs::json;
use segrout_topo::by_name;
use segrout_traffic::{gravity, TrafficConfig};

/// The seed of the gravity demands, which the run artifact records.
const TRAFFIC_SEED: u64 = 808;

fn main() {
    banner("BENCH failsweep — single+double failure enumeration throughput");
    let fast = fast_mode();
    let (topo, doubles, scalings) = if fast {
        ("Abilene", true, vec![1.0])
    } else {
        // 26 scalings x 3 916 patterns = 101 816 scenarios.
        (
            "Germany50",
            true,
            (0..26).map(|i| 0.5 + 0.04 * f64::from(i)).collect(),
        )
    };
    let net = by_name(topo).expect("embedded");
    let demands = gravity(
        &net,
        &TrafficConfig {
            seed: TRAFFIC_SEED,
            ..Default::default()
        },
    )
    .expect("connected");
    let weights = WeightSetting::inverse_capacity(&net);
    let waypoints = WaypointSetting::none(demands.len());
    let set = FailureSet::enumerate(&net, doubles);
    println!(
        "{topo}: {} nodes, {} directed edges, {} links -> {} patterns x {} scalings = {} scenarios\n",
        net.node_count(),
        net.edge_count(),
        set.link_count(),
        set.len(),
        scalings.len(),
        set.len() * scalings.len()
    );

    let t0 = std::time::Instant::now();
    let rep = sweep_failures(&net, &weights, &demands, &waypoints, &set, &scalings)
        .expect("intact workload routes");
    let secs = t0.elapsed().as_secs_f64();
    let throughput = rep.scenarios as f64 / secs;

    println!(
        "{} scenarios in {:.2} s  ->  {:.0} scenarios/s",
        rep.scenarios, secs, throughput
    );
    println!(
        "evaluated {}  disconnecting {}  ({:.2}% of scenarios cut a demand off)",
        rep.evaluated,
        rep.disconnects,
        100.0 * rep.disconnects as f64 / rep.scenarios as f64
    );
    let worst = rep.worst.as_ref().expect("some scenario routes");
    println!(
        "worst case: fail {} @ x{:.2} -> MLU {:.4}",
        set.pattern_label(&net, worst.pattern),
        worst.scale,
        worst.mlu
    );
    if !fast {
        assert!(
            rep.scenarios >= 100_000,
            "full run must cover at least 100k scenarios, got {}",
            rep.scenarios
        );
    }

    let path = if fast {
        "BENCH_failsweep_fast.json"
    } else {
        "BENCH_failsweep.json"
    };
    write_record(
        path,
        TRAFFIC_SEED,
        &json!({
            "topology": topo,
            "doubles": doubles,
            "links": set.link_count(),
            "patterns": set.len(),
            "scalings": scalings,
            "scenarios": rep.scenarios,
            "evaluated": rep.evaluated,
            "disconnects": rep.disconnects,
            "seconds": secs,
            "scenarios_per_second": throughput,
            "worst_mlu": worst.mlu,
            "worst_pattern": set.pattern_label(&net, worst.pattern),
            "worst_scale": worst.scale,
        }),
    );
}
