//! The fixed case table of the six differential suites.
//!
//! The kinds, the oracle, the thread axis and the lock are
//! `segrout::check::differential`'s, the same code `segrout fuzz` runs on
//! generated cases. This module is their test data: each entry is a
//! labelled `check::Case` carrying seeded integral weights, the scripted
//! 12-event walk and three extra matrices.
//!
//! The suites `incremental_differential`, `hotloop_differential`,
//! `failure_differential`, `robust_differential`, `serve_differential` and
//! `parallel_determinism` include this module. Each of their tests runs one
//! kind over one slice of the table and one `Grid`.
#![allow(dead_code)] // each suite uses only its own slice of the table

use segrout::algos::ServeEvent;
use segrout::check::Case;
use segrout::core::rng::StdRng;
use segrout::core::{DemandList, DemandSet, EdgeId, Network, NodeId};
use segrout::instances::{instance1, instance3, instance5};
use segrout::topo::{by_name, geo_backbone, random_connected};

/// Seeded list of `count` demands between distinct nodes, sizes in `[1, 10]`.
pub fn seeded_demands(net: &Network, seed: u64, count: usize) -> DemandList {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = net.node_count() as u32;
    let mut demands = DemandList::new();
    while demands.len() < count {
        let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if s != t {
            demands.push(NodeId(s), NodeId(t), f64::from(rng.gen_range(1..=10u32)));
        }
    }
    demands
}

/// An aligned set of the base demands plus `extra` variants whose pairs
/// are rescaled by different factors (shape changes, not just scale).
pub fn scaled_set(demands: &DemandList, extra: usize, seed: u64) -> DemandSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = DemandSet::single(demands.clone());
    for j in 0..extra {
        let mut m = DemandList::new();
        for d in demands.iter() {
            m.push(d.src, d.dst, d.size * (0.5 + 1.5 * rng.gen::<f64>()));
        }
        set.push(format!("x{j}"), m);
    }
    set
}

/// A scripted event sequence covering every event type. Link downs are
/// tracked so a later event brings one back up.
fn scripted_events(net: &Network, demands: &DemandList) -> Vec<ServeEvent> {
    let mut rng = StdRng::seed_from_u64(0xd1ff);
    let m = net.edge_count() as u32;
    let mut down: Vec<EdgeId> = Vec::new();
    (0..12)
        .map(|step| match step % 6 {
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
            4 => down
                .pop()
                .map_or(ServeEvent::Noop, |e| ServeEvent::LinkUp { edge: e }),
            // Same pairs, globally rescaled: the in-place workload swap.
            _ => ServeEvent::DemandMatrix {
                demands: demands
                    .iter()
                    .map(|d| (d.src, d.dst, d.size * 0.9))
                    .collect(),
            },
        })
        .collect()
}

/// One labelled entry of the table: `net` and `demands` with seeded
/// integral weights in `[1, 8]` (the regime every optimizer emits and the
/// one in which the bit-identity contract holds, in the range fuzz draws
/// from and the `walk` kind probes, where ECMP ties are common), no
/// waypoints, the
/// scripted events and three [`scaled_set`] matrices. `run_kind` sets its
/// own thread counts, so the case's is 1.
fn entry(label: &str, net: &Network, demands: &DemandList) -> (String, Case) {
    let m = net.edge_count();
    let mut rng = StdRng::seed_from_u64(0xd15a + m as u64);
    let set = scaled_set(demands, 3, 0x5ca1e);
    let sizes = |d: &DemandList| d.iter().map(|d| d.size).collect();
    let case = Case {
        nodes: net.node_count(),
        links: net
            .graph()
            .edges()
            .map(|(e, u, v)| (u.0, v.0, net.capacities()[e.index()]))
            .collect(),
        demands: demands.iter().map(|d| (d.src.0, d.dst.0, d.size)).collect(),
        extra_matrices: set.matrices().skip(1).map(sizes).collect(),
        events: scripted_events(net, demands),
        weights: (0..m).map(|_| f64::from(rng.gen_range(1..=8u32))).collect(),
        waypoints: vec![Vec::new(); demands.len()],
        threads: 1,
        pipeline: true,
        seed: 0xd15ea5e,
    };
    (label.into(), case)
}

/// The case table: [`small_cases`] plus [`germany50`].
pub fn cases() -> Vec<(String, Case)> {
    let mut out = small_cases();
    out.push(germany50());
    out
}

/// The paper's TE-Instances 1, 3 and 5 with their own demands, and three
/// seeded random strongly connected topologies: the cases on which the
/// optimizers run in a debug build in well under a second.
pub fn small_cases() -> Vec<(String, Case)> {
    let mut out = Vec::new();
    for (label, inst) in [
        ("instance1(m=8)", instance1(8)),
        ("instance3(m=5)", instance3(5)),
        ("instance5(m=3)", instance5(3)),
    ] {
        out.push(entry(label, &inst.network, &inst.demands));
    }
    for seed in [17u64, 29, 41] {
        let net = random_connected(12, 26, seed);
        let demands = seeded_demands(&net, seed * 7919, 12);
        out.push(entry(&format!("random(seed={seed})"), &net, &demands));
    }
    out
}

/// Germany50 with a seeded 40-demand matrix.
pub fn germany50() -> (String, Case) {
    let net = by_name("Germany50").expect("embedded topology");
    entry("Germany50", &net, &seeded_demands(&net, 0x6e50, 40))
}

/// `cases` with every demand waypointed through a detour node (the node
/// after its source), so a walk runs multi-segment destinations.
pub fn detoured(mut cases: Vec<(String, Case)>) -> Vec<(String, Case)> {
    for (_, case) in &mut cases {
        for (row, &(s, t, _)) in case.waypoints.iter_mut().zip(&case.demands) {
            let via = (s + 1) % case.nodes as u32;
            if via != s && via != t {
                *row = vec![via];
            }
        }
    }
    cases
}

/// The networks of the `dag` walks: every case's, plus a 120-node
/// synthetic WAN whose repairs move tens of nodes.
pub fn dag_networks() -> Vec<(String, Network)> {
    let net = |c: Case| c.network().expect("the table builds");
    let mut nets: Vec<(String, Network)> = cases().into_iter().map(|(l, c)| (l, net(c))).collect();
    nets.push(("geo_backbone(120)".into(), geo_backbone(120, 240, 0x6e0)));
    nets
}
