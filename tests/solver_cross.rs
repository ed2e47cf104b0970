//! Cross-validation of the LP/MILP solver against independent oracles:
//! brute-force enumeration for small integer programs, and the
//! combinatorial max-flow solver for flow LPs. Random instances come from
//! the vendored seeded PRNG (deterministic sweeps).

use segrout_core::rng::StdRng;
use segrout_core::{DemandList, NodeId};
use segrout_graph::max_flow;
use segrout_lp::{solve_lp, solve_milp, Cmp, MilpOptions, Problem, Sense};
use segrout_milp::{max_concurrent_lp, opt_mlu_lp, OptLpOutcome};
use segrout_topo::{by_name, random_connected};
use segrout_traffic::{mcf_synthetic, TrafficConfig};

/// Brute force: maximize c·x over binary x subject to one knapsack row.
fn brute_force_knapsack(values: &[f64], weights: &[f64], cap: f64) -> f64 {
    let n = values.len();
    let mut best = 0.0f64;
    for mask in 0u32..(1 << n) {
        let mut v = 0.0;
        let mut w = 0.0;
        for i in 0..n {
            if mask & (1 << i) != 0 {
                v += values[i];
                w += weights[i];
            }
        }
        if w <= cap + 1e-9 {
            best = best.max(v);
        }
    }
    best
}

/// MILP knapsacks match brute force exactly.
#[test]
fn milp_matches_brute_force() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..10usize);
        let values: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(1..50u32))).collect();
        let weights: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(1..30u32))).collect();
        let cap = f64::from(rng.gen_range(5..60u32));

        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = values.iter().map(|&v| p.add_bin_var(v)).collect();
        p.add_constraint(
            vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect(),
            Cmp::Le,
            cap,
        );
        let r = solve_milp(&p, &MilpOptions::default());
        let expected = brute_force_knapsack(&values, &weights, cap);
        let got = r.objective.unwrap_or(0.0);
        assert!(
            (got - expected).abs() < 1e-6,
            "seed {seed}: {got} vs {expected}"
        );
    }
}

/// The LP relaxation never undercuts the integer optimum (maximize) and
/// the MILP solution is feasible.
#[test]
fn relaxation_bounds_integer_optimum() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd_1234);
        let n = rng.gen_range(2..8usize);
        let values: Vec<u32> = (0..n).map(|_| rng.gen_range(1..20u32)).collect();
        let cap = rng.gen_range(3..40u32);

        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = values
            .iter()
            .map(|&v| p.add_bin_var(f64::from(v)))
            .collect();
        p.add_constraint(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, (i % 3 + 1) as f64))
                .collect(),
            Cmp::Le,
            f64::from(cap),
        );
        let relax = solve_lp(&p);
        let exact = solve_milp(&p, &MilpOptions::default());
        let int_obj = exact.objective.unwrap_or(0.0);
        assert!(relax.objective >= int_obj - 1e-6, "seed {seed}");
        if let Some(v) = &exact.values {
            assert!(p.is_feasible(v, 1e-6), "seed {seed}");
        }
    }
}

/// Single-commodity OPT MLU from the LP equals D / maxflow (non-property
/// deterministic sweep over random networks).
#[test]
fn opt_lp_matches_max_flow_single_commodity() {
    for seed in 0..8u64 {
        let net = random_connected(10, 16, 200 + seed);
        let (s, t) = (NodeId(0), NodeId(5));
        let mf = max_flow(net.graph(), net.capacities(), s, t);
        let d_total = 3.0;
        let mut demands = DemandList::new();
        demands.push(s, t, d_total);
        let lp = opt_mlu_lp(&net, &demands).expect("connected").objective;
        assert!(
            (lp - d_total / mf.value).abs() < 1e-5 * (1.0 + lp),
            "seed {seed}: LP {lp} vs D/maxflow {}",
            d_total / mf.value
        );
        // Max concurrent LP is the reciprocal relationship.
        let lambda = max_concurrent_lp(&net, &demands)
            .expect("connected")
            .objective;
        assert!(
            (lambda * lp - 1.0).abs() < 1e-5,
            "lambda {lambda} * mlu {lp} != 1"
        );
    }
}

/// The OPT LPs build their per-destination flow blocks in destination
/// order, so the same call returns the same bits. They once followed a
/// `HashMap`'s per-map random order: 20 in-process calls on this instance
/// gave 17 distinct `opt_mlu_lp` results.
#[test]
fn opt_lps_are_bit_reproducible() {
    let net = by_name("Abilene").expect("embedded topology");
    let cfg = TrafficConfig {
        seed: 7,
        pair_fraction: 0.1,
        flows_per_pair: Some(1),
        ..Default::default()
    };
    let demands = mcf_synthetic(&net, &cfg).expect("connected");
    let bits = |r: OptLpOutcome| {
        let loads: Vec<u64> = r.loads.iter().map(|l| l.to_bits()).collect();
        (r.objective.to_bits(), loads)
    };
    let opt = bits(opt_mlu_lp(&net, &demands).expect("connected"));
    let concurrent = bits(max_concurrent_lp(&net, &demands).expect("connected"));
    for _ in 0..4 {
        assert_eq!(bits(opt_mlu_lp(&net, &demands).unwrap()), opt);
        assert_eq!(bits(max_concurrent_lp(&net, &demands).unwrap()), concurrent);
    }
}

/// Degenerate LPs (redundant equalities) do not cycle or crash.
#[test]
fn degenerate_lp_terminates() {
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var(0.0, 10.0, 1.0);
    let y = p.add_var(0.0, 10.0, 1.0);
    for _ in 0..6 {
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        p.add_constraint(vec![(x, 2.0), (y, 2.0)], Cmp::Ge, 8.0);
    }
    let r = solve_lp(&p);
    assert_eq!(r.status, segrout_lp::LpStatus::Optimal);
    assert!((r.objective - 4.0).abs() < 1e-6);
}
