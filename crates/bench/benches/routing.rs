//! Microbenchmarks of the routing substrate: Dijkstra / SP-DAG
//! construction, full ECMP demand evaluation, max-flow, and the hash-ECMP
//! simulator — the §7.1 runtime discussion.
//!
//! Plain timing harness (`harness = false`); run with
//! `cargo bench -p segrout-bench --bench routing`. Accepts the shared
//! `--log-level` / `--metrics-out` observability flags.

use segrout_bench::{banner, time_it};
use segrout_core::{NodeId, Router, WaypointSetting, WeightSetting};
use segrout_graph::{acyclic_max_flow, shortest_path_dag};
use segrout_sim::{HashEcmpSim, SimConfig, SimFlow};
use segrout_topo::by_name;
use segrout_traffic::{mcf_synthetic, TrafficConfig};

fn main() {
    banner("bench: routing substrate (SP-DAG, ECMP eval, max-flow, hash sim)");
    const SAMPLES: usize = 20;
    for name in ["Abilene", "Germany50", "Ta2"] {
        let net = by_name(name).expect("embedded");
        let weights = WeightSetting::inverse_capacity(&net);
        let demands = mcf_synthetic(
            &net,
            &TrafficConfig {
                seed: 1,
                flows_per_pair: Some(1),
                ..Default::default()
            },
        )
        .expect("connected");

        time_it(&format!("sp_dag/{name}"), SAMPLES, || {
            shortest_path_dag(net.graph(), weights.as_slice(), NodeId(0), &[])
        });
        time_it(&format!("ecmp_eval/{name}"), SAMPLES, || {
            let router = Router::new(&net, &weights);
            router
                .evaluate(&demands, &WaypointSetting::none(demands.len()))
                .expect("routes")
                .mlu
        });
        let t = NodeId((net.node_count() - 1) as u32);
        time_it(&format!("max_flow/{name}"), SAMPLES, || {
            acyclic_max_flow(net.graph(), net.capacities(), NodeId(0), t).value
        });
        let sim = HashEcmpSim::new(&net, &weights);
        let flows: Vec<SimFlow> = demands
            .iter()
            .take(32)
            .map(|d| SimFlow {
                src: d.src,
                dst: d.dst,
                rate: d.size,
                streams: 8,
                waypoints: vec![],
            })
            .collect();
        time_it(&format!("hash_sim/{name}"), SAMPLES, || {
            sim.run(&flows, &SimConfig::default()).expect("routes").mlu
        });
    }
}
