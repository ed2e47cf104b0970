//! Price-of-robustness benchmark (`BENCH_robust.json`): robust multi-matrix
//! optimization on Germany50 with a diurnal demand set.
//!
//! For every prefix of the K-matrix set we compare two strategies:
//!
//! * **robust** — one `joint_heur_robust` configuration optimized for the
//!   worst-case MLU over all matrices of the prefix;
//! * **best single** — `joint_heur` run on each matrix alone, every
//!   resulting configuration evaluated across the whole prefix, keeping the
//!   one with the lowest worst-case MLU (the "pick the best forecast"
//!   strategy an operator without robust tooling would use).
//!
//! The *price of robustness* is the ratio of the robust configuration's
//! worst-case MLU to the best single configuration's **nominal** MLU (its
//! MLU on the matrix it was optimized for): what worst-case protection
//! costs relative to a world where the forecast is always right.
//!
//! Environment: `SEGROUT_FAST=1` shrinks to Abilene with 2 matrices and
//! writes `BENCH_robust_fast.json` instead.

use segrout_algos::{joint_heur, joint_heur_robust, HeurOspfConfig, JointHeurConfig};
use segrout_bench::{banner, fast_mode, write_record};
use segrout_core::{evaluate_robust, DemandSet, RobustObjective, WaypointSetting, WeightSetting};
use segrout_obs::json;
use segrout_topo::by_name;
use segrout_traffic::{diurnal_set, TrafficConfig};

/// The seed of the diurnal demand set, which the run artifact records.
const TRAFFIC_SEED: u64 = 404;

fn main() {
    banner("BENCH robust — price of robustness on a diurnal demand set");
    let fast = fast_mode();
    let (topo, matrices) = if fast {
        ("Abilene", 2)
    } else {
        ("Germany50", 4)
    };
    let net = by_name(topo).expect("embedded");
    let cfg = TrafficConfig {
        seed: TRAFFIC_SEED,
        ..Default::default()
    };
    let set = diurnal_set(&net, &cfg, matrices, 0.6).expect("connected");
    println!(
        "{topo}: {} nodes, {} links; {} diurnal matrices x {} pairs\n",
        net.node_count(),
        net.edge_count(),
        set.len(),
        set.pair_count()
    );

    let jcfg = JointHeurConfig {
        ospf: HeurOspfConfig {
            seed: 9,
            restarts: if fast { 0 } else { 1 },
            ..Default::default()
        },
        ..Default::default()
    };

    // One single-matrix configuration per matrix (computed once, reused by
    // every prefix).
    let singles: Vec<(WeightSetting, WaypointSetting, f64)> = (0..set.len())
        .map(|j| {
            let r = joint_heur(&net, set.matrix(j), &jcfg).expect("routes");
            println!(
                "single-matrix config {:<4} nominal MLU {:.4}",
                set.name(j),
                r.mlu
            );
            (r.weights, r.waypoints, r.mlu)
        })
        .collect();
    println!();

    let worst_over = |weights: &WeightSetting, waypoints: &WaypointSetting, prefix: &DemandSet| {
        evaluate_robust(&net, weights, prefix, waypoints)
            .expect("routes")
            .worst_mlu()
    };

    println!(
        "{:<4} {:>14} {:>18} {:>14} {:>10}",
        "K", "robust worst", "best-single worst", "nominal best", "price"
    );
    let mut rows = Vec::new();
    for k in 1..=set.len() {
        let prefix: DemandSet = (0..k)
            .map(|j| (set.name(j).to_string(), set.matrix(j).clone()))
            .collect();

        // Robust strategy. K = 1 reduces bit-identically to the
        // single-matrix run, so reuse it; for K > 1 the search may profit
        // from the best single configuration as a warm start, so take the
        // better of the cold and warm-started runs.
        let (rw, rwp) =
            if k == 1 {
                (singles[0].0.clone(), singles[0].1.clone())
            } else {
                let cold = joint_heur_robust(&net, &prefix, RobustObjective::WorstCase, &jcfg)
                    .expect("routes");
                let best_seed =
                    (0..k)
                        .min_by(|&a, &b| {
                            worst_over(&singles[a].0, &singles[a].1, &prefix)
                                .total_cmp(&worst_over(&singles[b].0, &singles[b].1, &prefix))
                        })
                        .expect("non-empty");
                let warm = joint_heur_robust(
                    &net,
                    &prefix,
                    RobustObjective::WorstCase,
                    &JointHeurConfig {
                        stage1_weights: Some(singles[best_seed].0.clone()),
                        ..jcfg.clone()
                    },
                )
                .expect("routes");
                if cold.mlu <= warm.mlu {
                    (cold.weights, cold.waypoints)
                } else {
                    (warm.weights, warm.waypoints)
                }
            };
        let robust_worst = worst_over(&rw, &rwp, &prefix);

        // Best-single strategy over the same prefix.
        let single_worsts: Vec<f64> = (0..k)
            .map(|j| worst_over(&singles[j].0, &singles[j].1, &prefix))
            .collect();
        let best_single_worst = single_worsts.iter().cloned().fold(f64::INFINITY, f64::min);
        let nominal_best = singles[..k]
            .iter()
            .map(|&(_, _, m)| m)
            .fold(f64::INFINITY, f64::min);
        let price = robust_worst / nominal_best;
        println!(
            "{k:<4} {robust_worst:>14.4} {best_single_worst:>18.4} {nominal_best:>14.4} {price:>10.3}"
        );
        rows.push(json!({
            "k": k,
            "robust_worst_mlu": robust_worst,
            "best_single_worst_mlu": best_single_worst,
            "single_worst_mlus": single_worsts,
            "nominal_best_mlu": nominal_best,
            "price_of_robustness": price,
        }));
        assert!(
            robust_worst <= best_single_worst + 1e-9,
            "robust configuration must not lose to the best single-matrix \
             configuration: {robust_worst} vs {best_single_worst}"
        );
    }

    let path = if fast {
        "BENCH_robust_fast.json"
    } else {
        "BENCH_robust.json"
    };
    write_record(
        path,
        TRAFFIC_SEED,
        &json!({
            "topology": topo,
            "matrices": matrices,
            "generator": "diurnal(amplitude 0.6)",
            "traffic_seed": TRAFFIC_SEED,
            "objective": "worst-case",
            "rows": rows,
        }),
    );
}
