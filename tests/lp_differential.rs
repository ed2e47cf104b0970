//! Differential test suite: the bounded-variable revised simplex of
//! `segrout-lp` against the dense tableau of
//! [`segrout::check::lp_oracle`] on seeded random LPs and MILPs.
//!
//! Both engines must agree on the *status* of every instance and, when
//! optimal, on the *objective* within `1e-6` (optimal vertices may differ —
//! degenerate optima are common in random instances — so variable values are
//! deliberately not compared; instead the revised engine's point is checked
//! primal-feasible). Instances are drawn from the vendored xoshiro PRNG so
//! every run replays the identical suite.

use segrout::check::lp_oracle;
use segrout_core::rng::StdRng;
use segrout_lp::{
    solve_lp_from, solve_milp, Cmp, LpResult, LpStatus, MilpOptions, MilpStatus, Problem, Sense,
};

const OBJ_TOL: f64 = 1e-6;

/// Draws a random LP: up to 8 variables with mixed finite/infinite upper
/// bounds (and some negative lower bounds), up to 10 rows of mixed sense
/// with ~40% density. Roughly a third of the instances come out infeasible
/// or unbounded, which is exactly the point.
fn random_lp(rng: &mut StdRng, integer: bool) -> Problem {
    let sense = if rng.gen_f64() < 0.5 {
        Sense::Minimize
    } else {
        Sense::Maximize
    };
    let mut p = Problem::new(sense);
    let nv = rng.gen_range(1..=8usize);
    for _ in 0..nv {
        let lb = if rng.gen_f64() < 0.25 {
            -(rng.gen_range(0..=4u32) as f64)
        } else {
            0.0
        };
        let ub = match rng.gen_range(0..=4u32) {
            0 => f64::INFINITY,
            1 | 2 => lb + rng.gen_range(1..=6u32) as f64,
            _ => lb + rng.gen_range(0..=10u32) as f64 * 0.5,
        };
        let cost = rng.gen_range(0..=10u32) as f64 - 5.0;
        if integer && rng.gen_f64() < 0.6 {
            // Integer vars need finite two-sided ranges to keep B&B small.
            let ub = if ub.is_finite() { ub.round() } else { 4.0 };
            p.add_int_var(lb, ub.max(lb), cost);
        } else {
            p.add_var(lb, ub, cost);
        }
    }
    let rows = rng.gen_range(1..=10usize);
    for _ in 0..rows {
        let mut terms = Vec::new();
        for j in 0..nv {
            if rng.gen_f64() < 0.4 {
                let a = rng.gen_range(0..=8u32) as f64 - 4.0;
                if a != 0.0 {
                    terms.push((segrout_lp::VarId(j), a));
                }
            }
        }
        if terms.is_empty() {
            continue;
        }
        let cmp = match rng.gen_range(0..=7u32) {
            0 => Cmp::Eq, // equalities are rarer: they drive infeasibility
            1 | 2 => Cmp::Ge,
            _ => Cmp::Le,
        };
        let rhs = rng.gen_range(0..=20u32) as f64 - 5.0;
        p.add_constraint(terms, cmp, rhs);
    }
    p
}

/// The oracle's solve of `p` under its own bounds.
fn tableau(p: &Problem) -> LpResult {
    lp_oracle::solve_lp(p, p.lower_bounds(), p.upper_bounds(), None)
}

/// One differential LP comparison; returns the joint status for tallying.
fn compare_lp(p: &Problem, seed: u64) -> LpStatus {
    let rev = segrout_lp::solve_lp(p);
    let tab = tableau(p);
    assert_eq!(
        rev.status, tab.status,
        "seed {seed}: engines disagree on status\n{p:?}"
    );
    if rev.status == LpStatus::Optimal {
        assert!(
            (rev.objective - tab.objective).abs() <= OBJ_TOL * (1.0 + tab.objective.abs()),
            "seed {seed}: objectives diverge: revised {} vs tableau {}\n{p:?}",
            rev.objective,
            tab.objective,
        );
        assert!(
            p.is_feasible(&rev.values, 1e-6),
            "seed {seed}: revised point infeasible\n{p:?}"
        );
    }
    rev.status
}

#[test]
fn random_lps_agree_across_engines() {
    let mut optimal = 0usize;
    let mut infeasible = 0usize;
    let mut unbounded = 0usize;
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED_0000 + seed);
        let p = random_lp(&mut rng, false);
        match compare_lp(&p, seed) {
            LpStatus::Optimal => optimal += 1,
            LpStatus::Infeasible => infeasible += 1,
            LpStatus::Unbounded => unbounded += 1,
            LpStatus::IterLimit => panic!("seed {seed}: iteration limit on a tiny LP"),
        }
    }
    // The generator must actually exercise all three verdicts.
    eprintln!("LP tallies: {optimal} optimal / {infeasible} infeasible / {unbounded} unbounded");
    assert!(optimal >= 60, "only {optimal} optimal instances");
    assert!(infeasible >= 10, "only {infeasible} infeasible instances");
    assert!(unbounded >= 10, "only {unbounded} unbounded instances");
}

#[test]
fn random_milps_agree_across_engines() {
    let mut optimal = 0usize;
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(0x314C_5000 + seed);
        let p = random_lp(&mut rng, true);
        let opts = MilpOptions {
            node_limit: 50_000,
            ..Default::default()
        };
        let rev = solve_milp(&p, &opts);
        let tab = lp_oracle::solve_milp(&p, &opts);
        assert_eq!(
            rev.status, tab.status,
            "seed {seed}: MILP engines disagree on status\n{p:?}"
        );
        if rev.status == MilpStatus::Optimal {
            optimal += 1;
            let (ro, to) = (rev.objective.unwrap(), tab.objective.unwrap());
            assert!(
                (ro - to).abs() <= OBJ_TOL * (1.0 + to.abs()),
                "seed {seed}: MILP objectives diverge: revised {ro} vs tableau {to}\n{p:?}"
            );
            let v = rev.values.as_ref().unwrap();
            assert!(
                p.is_feasible(v, 1e-6),
                "seed {seed}: revised MILP incumbent infeasible\n{p:?}"
            );
        }
    }
    assert!(optimal >= 15, "only {optimal} optimal MILP instances");
}

/// Beale's classic cycling example: with plain Dantzig pricing and a naive
/// ratio test the simplex cycles forever at the degenerate origin vertex.
/// Both engines must terminate (via the Bland switch) at the optimum 0.05.
#[test]
fn beale_cycling_example_terminates() {
    let mut p = Problem::new(Sense::Minimize);
    let x1 = p.add_var(0.0, f64::INFINITY, -0.75);
    let x2 = p.add_var(0.0, f64::INFINITY, 150.0);
    let x3 = p.add_var(0.0, f64::INFINITY, -0.02);
    let x4 = p.add_var(0.0, f64::INFINITY, 6.0);
    p.add_constraint(
        vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
        Cmp::Le,
        0.0,
    );
    p.add_constraint(
        vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
        Cmp::Le,
        0.0,
    );
    p.add_constraint(vec![(x3, 1.0)], Cmp::Le, 1.0);
    for (engine, r) in [
        ("revised", segrout_lp::solve_lp(&p)),
        ("tableau", tableau(&p)),
    ] {
        assert_eq!(r.status, LpStatus::Optimal, "{engine}");
        assert!(
            (r.objective - (-0.05)).abs() < 1e-6,
            "{engine}: objective {}",
            r.objective
        );
    }
}

/// Warm starting must not change the verdict: re-solving a perturbed
/// problem from the parent's basis agrees with a cold solve.
#[test]
fn warm_starts_agree_with_cold_solves() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xAB1E_0000 + seed);
        let p = random_lp(&mut rng, false);
        let (root, basis) = solve_lp_from(&p, p.lower_bounds(), p.upper_bounds(), None, None);
        let (Some(basis), LpStatus::Optimal) = (basis, root.status) else {
            continue;
        };
        // Tighten the bound of one variable, as a branching step would.
        let j = rng.gen_range(0..p.num_vars());
        let mut lower = p.lower_bounds().to_vec();
        let mut upper = p.upper_bounds().to_vec();
        let v = root.values[j];
        if rng.gen_f64() < 0.5 {
            upper[j] = v.floor().max(lower[j]);
        } else {
            lower[j] = if upper[j].is_finite() {
                v.ceil().min(upper[j])
            } else {
                v.ceil()
            };
        }
        let (warm, _) = solve_lp_from(&p, &lower, &upper, None, Some(&basis));
        let cold = lp_oracle::solve_lp(&p, &lower, &upper, None);
        assert_eq!(
            warm.status, cold.status,
            "seed {seed}: warm vs cold status\n{p:?}"
        );
        if warm.status == LpStatus::Optimal {
            assert!(
                (warm.objective - cold.objective).abs() <= OBJ_TOL * (1.0 + cold.objective.abs()),
                "seed {seed}: warm {} vs cold {}\n{p:?}",
                warm.objective,
                cold.objective,
            );
        }
    }
}
