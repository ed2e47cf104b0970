//! LP solve entry points.
//!
//! Both run the bounded-variable revised simplex of [`crate::revised`]:
//! implicit variable bounds, product-form basis with periodic
//! refactorization and a Harris two-pass ratio test. [`solve_lp`] solves a
//! problem under its own bounds; [`solve_lp_from`] takes overridden bounds,
//! a deadline and a warm-start basis, which is what branch-and-bound needs.
//! The dense tableau that was the first engine is the LP oracle in
//! `segrout-check` now, and `tests/lp_differential.rs` checks that the two
//! agree on status and, to `1e-6`, on optimal objectives.

use crate::basis::Basis;
use crate::problem::Problem;
use std::time::Instant;

/// Outcome of an LP solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpStatus {
    /// Optimal solution found.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// Iteration limit reached before convergence.
    IterLimit,
}

/// Result of an LP solve: status, objective value, and a value per variable
/// of the original problem (empty unless `status == Optimal`).
#[derive(Clone, Debug)]
pub struct LpResult {
    /// Solve status.
    pub status: LpStatus,
    /// Objective value in the problem's own sense (meaningful only when
    /// `status == Optimal`).
    pub objective: f64,
    /// Optimal variable values, indexed like the problem's variables.
    pub values: Vec<f64>,
    /// Number of simplex pivots performed (both phases).
    pub iterations: usize,
}

/// Feasibility tolerance for the contradictory-bounds pre-check.
const BOUNDS_TOL: f64 = 1e-7;

/// Solves a linear program, ignoring any integrality flags (the LP
/// relaxation). The default iteration limit scales with problem size.
///
/// ```
/// use segrout_lp::{solve_lp, Cmp, LpStatus, Problem, Sense};
///
/// // max 3x + 2y  s.t.  x + y <= 4
/// let mut p = Problem::new(Sense::Maximize);
/// let x = p.add_var(0.0, f64::INFINITY, 3.0);
/// let y = p.add_var(0.0, f64::INFINITY, 2.0);
/// p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
/// let r = solve_lp(&p);
/// assert_eq!(r.status, LpStatus::Optimal);
/// assert!((r.objective - 12.0).abs() < 1e-6);
/// ```
pub fn solve_lp(p: &Problem) -> LpResult {
    solve_lp_from(p, p.lower_bounds(), p.upper_bounds(), None, None).0
}

/// Solves the LP relaxation of `p` under overridden variable bounds, the
/// entry point of branch-and-bound nodes, and returns the final [`Basis`]
/// snapshot (when one exists) for warm-starting related solves.
///
/// * Past `deadline` the solve aborts with [`LpStatus::IterLimit`], so a
///   single huge relaxation cannot blow through a MILP time limit.
/// * With a `basis` (a snapshot of a previous solve of the *same problem*,
///   typically with different bounds: the branch-and-bound parent/child
///   pattern) the solve restarts from it: it installs the snapshot's
///   factorization (one taken at an optimum of this problem carries it;
///   otherwise it refactorizes the basis), and phase 1 restores
///   feasibility from the parent's vertex instead of re-deriving the
///   whole basis. On the WPO MILP's nodes that takes 22 phase-1 plus 7
///   phase-2 pivots on average.
///   It falls back to a cold start when the snapshot does not fit the
///   problem or its basis matrix has gone singular.
/// * The problem's column form is built on its first solve and reused
///   until the problem changes, so a node pays only for its bounds and
///   its pivots.
/// * Crossing bound overrides short-circuit to [`LpStatus::Infeasible`].
///
/// # Panics
/// Panics when `lower` or `upper` does not hold one bound per variable.
pub fn solve_lp_from(
    p: &Problem,
    lower: &[f64],
    upper: &[f64],
    deadline: Option<Instant>,
    basis: Option<&Basis>,
) -> (LpResult, Option<Basis>) {
    assert_eq!(lower.len(), p.num_vars());
    assert_eq!(upper.len(), p.num_vars());
    if lower.iter().zip(upper).any(|(l, u)| *l > u + BOUNDS_TOL) {
        let infeasible = LpResult {
            status: LpStatus::Infeasible,
            objective: 0.0,
            values: Vec::new(),
            iterations: 0,
        };
        return (infeasible, None);
    }
    crate::revised::solve(p, lower, upper, deadline, basis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Cmp, Problem, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 2y st x + y <= 4, x + 3y <= 6, x,y >= 0 -> (4, 0), obj 12.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 3.0);
        let y = p.add_var(0.0, f64::INFINITY, 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        p.add_constraint(vec![(x, 1.0), (y, 3.0)], Cmp::Le, 6.0);
        let r = solve_lp(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, 12.0);
        assert_close(r.values[0], 4.0);
        assert_close(r.values[1], 0.0);
    }

    #[test]
    fn minimization_with_ge_rows() {
        // min 2x + 3y st x + y >= 10, x >= 2, y >= 3 -> x=7, y=3, obj 23.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(2.0, f64::INFINITY, 2.0);
        let y = p.add_var(3.0, f64::INFINITY, 3.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 10.0);
        let r = solve_lp(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, 23.0);
        assert_close(r.values[0], 7.0);
        assert_close(r.values[1], 3.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y st x + 2y = 4, x - y = 1 -> x = 2, y = 1, obj 3.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_constraint(vec![(x, 1.0), (y, 2.0)], Cmp::Eq, 4.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Cmp::Eq, 1.0);
        let r = solve_lp(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.values[0], 2.0);
        assert_close(r.values[1], 1.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
        assert_eq!(solve_lp(&p).status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 0.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Cmp::Le, 1.0);
        assert_eq!(solve_lp(&p).status, LpStatus::Unbounded);
    }

    #[test]
    fn upper_bounds_are_respected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 2.5, 1.0);
        let y = p.add_var(0.0, 1.0, 1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 10.0);
        let r = solve_lp(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, 3.5);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x st x >= -5 with x <= -2 -> x = -5.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(-5.0, f64::INFINITY, 1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, -2.0);
        let r = solve_lp(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.values[0], -5.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Highly degenerate: many redundant constraints through the optimum.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 1.0);
        for k in 1..8 {
            p.add_constraint(vec![(x, 1.0), (y, k as f64)], Cmp::Le, 1.0 + k as f64);
        }
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 2.0);
        let r = solve_lp(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        // The k=1 row x + y <= 2 binds: optimum value 2 (e.g. at (2, 0)).
        assert_close(r.objective, 2.0);
    }

    #[test]
    fn min_mlu_toy_flow_lp() {
        // Two parallel links (cap 3 and 1), route 2 units, minimise MLU:
        // min t st f1 + f2 = 2, f1 <= 3t, f2 <= t -> t = 0.5, f1 = 1.5.
        let mut p = Problem::new(Sense::Minimize);
        let t = p.add_var(0.0, f64::INFINITY, 1.0);
        let f1 = p.add_var(0.0, f64::INFINITY, 0.0);
        let f2 = p.add_var(0.0, f64::INFINITY, 0.0);
        p.add_constraint(vec![(f1, 1.0), (f2, 1.0)], Cmp::Eq, 2.0);
        p.add_constraint(vec![(f1, 1.0), (t, -3.0)], Cmp::Le, 0.0);
        p.add_constraint(vec![(f2, 1.0), (t, -1.0)], Cmp::Le, 0.0);
        let r = solve_lp(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, 0.5);
    }

    #[test]
    fn bound_overrides_for_branching() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 10.0, 1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 7.3);
        let solve = |lower: &[f64], upper: &[f64]| solve_lp_from(&p, lower, upper, None, None).0;
        // Branch x <= 7.
        assert_close(solve(&[0.0], &[7.0]).objective, 7.0);
        // Branch x >= 8 is infeasible against x <= 7.3.
        assert_eq!(solve(&[8.0], &[10.0]).status, LpStatus::Infeasible);
        // Contradictory bound override short-circuits.
        assert_eq!(solve(&[5.0], &[4.0]).status, LpStatus::Infeasible);
    }

    #[test]
    fn zero_constraint_problem() {
        let mut p = Problem::new(Sense::Minimize);
        p.add_var(1.0, 2.0, 3.0);
        let r = solve_lp(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, 3.0);
    }

    #[test]
    fn zero_constraint_maximize_flips_to_upper() {
        // With no rows the optimum is a pure bound-flip exercise.
        let mut p = Problem::new(Sense::Maximize);
        p.add_var(1.0, 2.0, 3.0);
        let r = solve_lp(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, 6.0);
    }

    #[test]
    fn warm_start_resolves_after_bound_tightening() {
        // Solve, then tighten a bound and re-solve from the final basis —
        // the warm solve must agree with a cold solve of the child.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 10.0, 3.0);
        let y = p.add_var(0.0, 10.0, 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 2.0)], Cmp::Le, 14.0);
        p.add_constraint(vec![(x, 3.0), (y, 1.0)], Cmp::Le, 18.0);
        let (root, basis) = solve_lp_from(&p, p.lower_bounds(), p.upper_bounds(), None, None);
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = basis.expect("optimal solve yields a basis");

        let lower = [0.0, 0.0];
        let upper = [3.0, 10.0]; // tighten x <= 3 (a branching move)
        let (warm, _) = solve_lp_from(&p, &lower, &upper, None, Some(&basis));
        let (cold, _) = solve_lp_from(&p, &lower, &upper, None, None);
        assert_eq!(warm.status, LpStatus::Optimal);
        assert_close(warm.objective, cold.objective);
        assert_close(warm.values[0], 3.0);
    }

    /// A snapshot taken at an optimum carries its factorization, and
    /// installing it is bit for bit what refactorizing its basis gives.
    #[test]
    fn carried_factorization_matches_a_refactorization() {
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..6)
            .map(|j| p.add_var(0.0, 4.0, 1.0 + f64::from(j % 3)))
            .collect();
        for i in 0..4 {
            let terms = (0..6)
                .map(|j| (vars[j], 1.0 + ((i * 7 + j * 3) % 5) as f64))
                .collect();
            p.add_constraint(terms, Cmp::Le, 10.0 + i as f64);
        }
        let (root, basis) = solve_lp_from(&p, p.lower_bounds(), p.upper_bounds(), None, None);
        assert_eq!(root.status, LpStatus::Optimal);
        let carried = basis.expect("optimal solve yields a basis");
        assert!(
            carried.eta.is_some(),
            "an optimal snapshot carries its etas"
        );
        let bare = Basis {
            eta: None,
            ..carried.clone()
        };
        let j = (0..6)
            .find(|&j| root.values[j] > 1e-6 && root.values[j] < 4.0 - 1e-6)
            .unwrap_or(0);
        let mut upper = p.upper_bounds().to_vec();
        upper[j] = root.values[j].floor();
        let solve = |b: &Basis| solve_lp_from(&p, p.lower_bounds(), &upper, None, Some(b));
        let ((a, a_basis), (b, b_basis)) = (solve(&carried), solve(&bare));
        assert_eq!(a.status, LpStatus::Optimal);
        assert!(a.iterations > 0, "the child pivots");
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.values), bits(&b.values));
        assert_eq!(a_basis.unwrap().basic, b_basis.unwrap().basic);
    }

    /// A snapshot of another problem of the same shape only seeds the
    /// basis: its factorization belongs to the other problem's columns.
    #[test]
    fn a_snapshot_of_another_problem_is_refactorized() {
        let lp = |a: f64| {
            let mut p = Problem::new(Sense::Maximize);
            let x = p.add_var(0.0, 10.0, 3.0);
            let y = p.add_var(0.0, 10.0, 2.0);
            p.add_constraint(vec![(x, a), (y, 2.0)], Cmp::Le, 14.0);
            p.add_constraint(vec![(x, 3.0), (y, 1.0)], Cmp::Le, 18.0);
            p
        };
        let (first, second) = (lp(1.0), lp(4.0));
        let (_, basis) = solve_lp_from(
            &first,
            first.lower_bounds(),
            first.upper_bounds(),
            None,
            None,
        );
        let basis = basis.expect("optimal solve yields a basis");
        let bounds = (second.lower_bounds(), second.upper_bounds());
        let (warm, _) = solve_lp_from(&second, bounds.0, bounds.1, None, Some(&basis));
        let cold = solve_lp(&second);
        assert_eq!(warm.status, LpStatus::Optimal);
        assert_close(warm.objective, cold.objective);
        assert!(second.is_feasible(&warm.values, 1e-9), "{:?}", warm.values);
    }

    #[test]
    fn warm_start_with_mismatched_basis_falls_back() {
        let mut small = Problem::new(Sense::Maximize);
        small.add_var(0.0, 1.0, 1.0);
        let (_, small_basis) = solve_lp_from(
            &small,
            small.lower_bounds(),
            small.upper_bounds(),
            None,
            None,
        );
        let small_basis = small_basis.expect("basis");

        let mut big = Problem::new(Sense::Maximize);
        let x = big.add_var(0.0, 4.0, 3.0);
        let y = big.add_var(0.0, f64::INFINITY, 2.0);
        big.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        let (r, _) = solve_lp_from(
            &big,
            big.lower_bounds(),
            big.upper_bounds(),
            None,
            Some(&small_basis),
        );
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, 12.0);
    }
}
