//! Benchmarks of the LP/MILP substrate: the OPT LP on real topologies and
//! representative MILPs (WPO selection, small Joint).
//!
//! Plain timing harness (`harness = false`); run with
//! `cargo bench -p segrout-bench --bench solver`. Accepts the shared
//! `--log-level` / `--metrics-out` observability flags.

use segrout_bench::{banner, time_it};
use segrout_core::WeightSetting;
use segrout_lp::{solve_milp, Cmp, MilpOptions, Problem, Sense};
use segrout_milp::{opt_mlu_lp, wpo_ilp, WpoIlpOptions};
use segrout_topo::abilene;
use segrout_traffic::{mcf_synthetic, TrafficConfig};
use std::time::Duration;

fn main() {
    banner("bench: LP/MILP substrate (OPT LP, WPO ILP, knapsack MILP)");
    const SAMPLES: usize = 10;
    let net = abilene();
    let demands = mcf_synthetic(
        &net,
        &TrafficConfig {
            seed: 4,
            flows_per_pair: Some(1),
            ..Default::default()
        },
    )
    .expect("connected");

    time_it("opt_mlu_lp_abilene", SAMPLES, || {
        opt_mlu_lp(&net, &demands).expect("routes").objective
    });

    let inv = WeightSetting::inverse_capacity(&net);
    // A tight solver budget keeps the benchmark measuring the formulation
    // build + warm-started search, not a fixed 60 s B&B timeout.
    let quick_milp = WpoIlpOptions {
        milp: MilpOptions {
            node_limit: 500,
            time_limit: Duration::from_secs(5),
            ..Default::default()
        },
        ..Default::default()
    };
    time_it("wpo_ilp_abilene", SAMPLES, || {
        wpo_ilp(&net, &demands, &inv, &quick_milp)
            .expect("routes")
            .mlu
    });

    time_it("knapsack_milp_30", SAMPLES, || {
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..30)
            .map(|i| p.add_bin_var(((i * 7) % 13 + 1) as f64))
            .collect();
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, ((i * 5) % 11 + 1) as f64))
            .collect();
        p.add_constraint(terms, Cmp::Le, 40.0);
        solve_milp(&p, &MilpOptions::default()).objective
    });
}
