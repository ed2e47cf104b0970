//! Branch-and-bound node throughput: revised simplex vs reference tableau.
//!
//! Solves the paper's Joint/LWO MILP formulations on TE-Instance-1 shapes
//! (the `crates/milp/src/joint.rs` models) twice — once per LP engine — with
//! identical node/time limits, and reports explored nodes per second. Both
//! engines follow the same branching rule and agree on every relaxation (see
//! the differential suite), so the explored trees match and the throughput
//! ratio isolates the LP engine cost: the tableau materializes one extra row
//! per finite variable bound and pays dense O(rows × cols) per pivot, while
//! the revised engine keeps bounds implicit, works on the sparse `[A|I]`
//! columns through an eta file, and warm-starts every child from its
//! parent's basis.
//!
//! Results land in `BENCH_simplex.json`. `SEGROUT_FAST=1` shrinks the node
//! budgets for smoke runs and writes `BENCH_simplex_fast.json` instead.
//! Node counts are host-independent; wall-clock (and thus nodes/sec) is
//! whatever the host gives, but the *ratio* between the engines on the same
//! host is the signal.

use segrout_bench::{banner, fast_mode};
use segrout_instances::instance1;
use segrout_lp::{LpEngine, MilpOptions};
use segrout_milp::{joint_milp, lwo_ilp, JointMilpOptions};
use segrout_obs::json;
use std::time::{Duration, Instant};

struct Leg {
    nodes: usize,
    secs: f64,
    nps: f64,
    mlu: f64,
    warm_started: u64,
    refactorizations: u64,
}

/// Runs one MILP formulation under one engine and returns the throughput.
fn run_leg(name: &str, engine: LpEngine, m: usize, lwo: bool, node_limit: usize) -> Leg {
    let inst = instance1(m);
    let opts = JointMilpOptions {
        max_weight: 4,
        milp: MilpOptions {
            engine,
            node_limit,
            time_limit: Duration::from_secs(if fast_mode() { 60 } else { 300 }),
            rel_gap: 0.0, // no early gap exit: explore the same tree fully
            ..Default::default()
        },
        ..Default::default()
    };
    let warm_ctr = segrout_obs::counter("milp.nodes_warm_started");
    let refac_ctr = segrout_obs::counter("simplex.refactorizations");
    let (w0, r0) = (warm_ctr.get(), refac_ctr.get());
    let t0 = Instant::now();
    let out = if lwo {
        lwo_ilp(&inst.network, &inst.demands, &opts)
    } else {
        joint_milp(&inst.network, &inst.demands, &opts)
    }
    .expect("instance-1 MILP is feasible");
    let secs = t0.elapsed().as_secs_f64();
    let leg = Leg {
        nodes: out.nodes,
        secs,
        nps: out.nodes as f64 / secs.max(1e-9),
        mlu: out.mlu,
        warm_started: warm_ctr.get() - w0,
        refactorizations: refac_ctr.get() - r0,
    };
    println!(
        "  {:<24} {:>8} nodes {:>9.2}s {:>10.1} nodes/s  mlu {:.3}  warm {:>6}  refac {:>6}",
        name, leg.nodes, leg.secs, leg.nps, leg.mlu, leg.warm_started, leg.refactorizations
    );
    leg
}

fn main() {
    banner("BENCH_simplex — B&B node throughput, revised simplex vs reference tableau");
    let fast = fast_mode();
    // (label, m, lwo?, node budget): Instance-1 Joint/LWO MILPs of growing
    // size. The Joint model on m = 4 is the Abilene-scale stress shape:
    // hundreds of bounded binaries, which is exactly where explicit
    // upper-bound rows hurt the tableau most.
    let cases: &[(&str, usize, bool, usize)] = if fast {
        &[("joint_m3", 3, false, 120), ("lwo_m4", 4, true, 120)]
    } else {
        &[
            ("joint_m3", 3, false, 1000),
            ("lwo_m6", 6, true, 1000),
            ("joint_m4", 4, false, 600),
            ("joint_m5", 5, false, 300),
        ]
    };

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let mut joint_speedups = Vec::new();
    for &(name, m, lwo, node_limit) in cases {
        println!("\n{name} (instance-1 m={m}, node budget {node_limit}):");
        let tab = run_leg("tableau", LpEngine::Tableau, m, lwo, node_limit);
        let rev = run_leg("revised+warmstart", LpEngine::Revised, m, lwo, node_limit);
        let speedup = rev.nps / tab.nps.max(1e-9);
        let same_tree = rev.nodes == tab.nodes;
        println!("  node-throughput speedup: {speedup:.2}x (same tree: {same_tree})");
        assert!(
            (rev.mlu - tab.mlu).abs() < 1e-6,
            "{name}: engines disagree on the final MLU: revised {} vs tableau {}",
            rev.mlu,
            tab.mlu
        );
        speedups.push(speedup);
        if !lwo {
            joint_speedups.push(speedup);
        }
        rows.push(json!({
            "case": name,
            "m": m,
            "formulation": if lwo { "lwo" } else { "joint" },
            "node_limit": node_limit,
            "tableau": json!({
                "nodes": tab.nodes, "secs": tab.secs, "nodes_per_sec": tab.nps,
            }),
            "revised": json!({
                "nodes": rev.nodes, "secs": rev.secs, "nodes_per_sec": rev.nps,
                "nodes_warm_started": rev.warm_started,
                "refactorizations": rev.refactorizations,
            }),
            "speedup": speedup,
            "same_tree": same_tree,
            "mlu": rev.mlu,
        }));
    }

    let min = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    // The acceptance metric: the smallest speedup over the Joint MILP cases
    // (the LWO rows converge in a few dozen nodes and mostly time noise).
    let min_joint = joint_speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "\nspeedup: min {min:.2}x, geometric mean {geomean:.2}x, min over Joint cases {min_joint:.2}x"
    );

    let record = json!({
        "fast_mode": fast,
        "cases": rows,
        "min_speedup": min,
        "geomean_speedup": geomean,
        "min_joint_speedup": min_joint,
    });
    let path = if fast {
        "BENCH_simplex_fast.json"
    } else {
        "BENCH_simplex.json"
    };
    segrout_bench::write_record(path, &record);
    segrout_bench::finish_obs();
}
