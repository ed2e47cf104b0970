//! The LP oracle: the dense two-phase tableau simplex that was the first
//! engine of `segrout-lp`, kept where only tests and `segrout fuzz` reach
//! it. `tests/lp_differential.rs` checks the revised simplex against it,
//! and [`Case::run`](crate::Case::run) solves the Joint MILP of tiny
//! instances over both. [`solve_milp`] is `segrout_lp`'s branch-and-bound
//! with every node solved cold by [`solve_lp`].
//!
//! The implementation follows the textbook tableau method:
//!
//! 1. Variables are shifted to have lower bound zero; finite upper bounds
//!    become explicit rows (this is the structural inefficiency the revised
//!    engine removes: one extra row per bounded variable).
//! 2. Rows are normalised to non-negative right-hand sides, slack variables
//!    are added to `≤` rows, surplus+artificial variables to `≥` rows and
//!    artificials to `=` rows.
//! 3. Phase 1 minimises the sum of artificials; a positive optimum means the
//!    program is infeasible. Artificials that remain basic at zero are pivoted
//!    out (or their rows recognised as redundant).
//! 4. Phase 2 optimises the real objective with artificial columns barred
//!    from entering.
//!
//! Pricing is Dantzig (most negative reduced cost) with an automatic switch
//! to Bland's rule after a stall, which guarantees termination.

use segrout_lp::{
    solve_milp_with, Cmp, LpResult, LpStatus, MilpOptions, MilpResult, Problem, Sense,
};
use std::time::Instant;

/// Feasibility tolerance of the crossing-bounds pre-check.
const BOUNDS_TOL: f64 = 1e-7;
/// Reduced-cost optimality tolerance.
const OPT_TOL: f64 = 1e-7;
/// Pivot-element tolerance.
const PIVOT_TOL: f64 = 1e-9;

/// Solves the LP relaxation of `p` under overridden bounds with the dense
/// tableau. Crossing bounds are `Infeasible`, as in `segrout_lp`.
pub fn solve_lp(p: &Problem, lower: &[f64], upper: &[f64], deadline: Option<Instant>) -> LpResult {
    assert_eq!(lower.len(), p.num_vars());
    assert_eq!(upper.len(), p.num_vars());
    if lower.iter().zip(upper).any(|(l, u)| *l > u + BOUNDS_TOL) {
        return LpResult {
            status: LpStatus::Infeasible,
            objective: 0.0,
            values: Vec::new(),
            iterations: 0,
        };
    }
    Tableau::build(p, lower, upper, deadline).solve(p, lower)
}

/// Solves a mixed-integer program with `segrout_lp`'s branch-and-bound,
/// every node relaxation solved cold by [`solve_lp`].
pub fn solve_milp(p: &Problem, options: &MilpOptions) -> MilpResult {
    solve_milp_with(p, options, |p, lower, upper, deadline, _| {
        (solve_lp(p, lower, upper, deadline), None)
    })
}

struct Tableau {
    /// Flat row-major `rows x width` matrix with `width = cols + 1`; the
    /// last entry of each row is the rhs. Flat storage keeps pivots cache
    /// friendly on the multi-thousand-column TE MILPs.
    a: Vec<f64>,
    /// Number of constraint rows.
    rows: usize,
    /// Row stride (`cols + 1`).
    width: usize,
    /// Objective row (reduced costs) with the negated objective value in the
    /// last slot.
    cost: Vec<f64>,
    /// Basic variable (column) of each row.
    basis: Vec<usize>,
    /// Which columns are artificial.
    artificial: Vec<bool>,
    /// Number of structural (shifted original) variables.
    n_struct: usize,
    cols: usize,
    iterations: usize,
    iter_limit: usize,
    deadline: Option<Instant>,
}

impl Tableau {
    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.width + j]
    }
}

impl Tableau {
    fn build(p: &Problem, lower: &[f64], upper: &[f64], deadline: Option<Instant>) -> Self {
        let n = p.num_vars();

        // Assemble rows as (dense coeffs over structural vars, cmp, rhs).
        let mut rows: Vec<(Vec<f64>, Cmp, f64)> = Vec::new();
        for c in p.constraints() {
            let mut coeffs = vec![0.0; n];
            let mut rhs = c.rhs;
            for &(v, a) in &c.terms {
                coeffs[v.0] += a;
            }
            // Shift by lower bounds: x = lb + y.
            for (j, lb) in lower.iter().enumerate() {
                rhs -= coeffs[j] * lb;
            }
            rows.push((coeffs, c.cmp, rhs));
        }
        // Finite upper bounds become y_j <= ub - lb rows.
        for j in 0..n {
            if upper[j].is_finite() {
                let mut coeffs = vec![0.0; n];
                coeffs[j] = 1.0;
                rows.push((coeffs, Cmp::Le, upper[j] - lower[j]));
            }
        }
        // Normalise rhs >= 0.
        for (coeffs, cmp, rhs) in rows.iter_mut() {
            if *rhs < 0.0 {
                for a in coeffs.iter_mut() {
                    *a = -*a;
                }
                *rhs = -*rhs;
                *cmp = match *cmp {
                    Cmp::Le => Cmp::Ge,
                    Cmp::Ge => Cmp::Le,
                    Cmp::Eq => Cmp::Eq,
                };
            }
        }

        let m = rows.len();
        // Column layout: [structural | slacks/surplus | artificials].
        let n_slack = rows
            .iter()
            .filter(|(_, cmp, _)| !matches!(cmp, Cmp::Eq))
            .count();
        let n_art = rows
            .iter()
            .filter(|(_, cmp, _)| !matches!(cmp, Cmp::Le))
            .count();
        let cols = n + n_slack + n_art;

        let width = cols + 1;
        let mut a = vec![0.0; m * width];
        let mut basis = vec![usize::MAX; m];
        let mut artificial = vec![false; cols];
        let mut next_slack = n;
        let mut next_art = n + n_slack;

        for (i, (coeffs, cmp, rhs)) in rows.iter().enumerate() {
            let row = &mut a[i * width..(i + 1) * width];
            row[..n].copy_from_slice(coeffs);
            row[cols] = *rhs;
            match cmp {
                Cmp::Le => {
                    row[next_slack] = 1.0;
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                Cmp::Ge => {
                    row[next_slack] = -1.0;
                    next_slack += 1;
                    row[next_art] = 1.0;
                    artificial[next_art] = true;
                    basis[i] = next_art;
                    next_art += 1;
                }
                Cmp::Eq => {
                    row[next_art] = 1.0;
                    artificial[next_art] = true;
                    basis[i] = next_art;
                    next_art += 1;
                }
            }
        }

        let iter_limit = 2000 + 200 * (m + cols);
        Self {
            a,
            rows: m,
            width,
            cost: vec![0.0; width],
            basis,
            artificial,
            n_struct: n,
            cols,
            iterations: 0,
            iter_limit,
            deadline,
        }
    }

    /// Runs both phases and extracts the solution.
    fn solve(mut self, p: &Problem, lower: &[f64]) -> LpResult {
        let _span = segrout_obs::span("simplex");
        let m = self.rows;

        // ---- Phase 1: minimise the sum of artificial variables. ----
        let any_artificial = self.artificial.iter().any(|&b| b);
        if any_artificial {
            segrout_obs::event!(
                segrout_obs::Level::Trace,
                "simplex.phase1",
                rows = m,
                cols = self.cols,
            );
            self.cost.fill(0.0);
            for j in 0..self.cols {
                if self.artificial[j] {
                    self.cost[j] = 1.0;
                }
            }
            // Price out the basic artificials.
            for i in 0..m {
                if self.artificial[self.basis[i]] {
                    let row = &self.a[i * self.width..(i + 1) * self.width];
                    for (c, &x) in self.cost.iter_mut().zip(row) {
                        *c -= x;
                    }
                }
            }
            match self.pivot_loop(false) {
                PivotOutcome::IterLimit => return self.result(LpStatus::IterLimit, p, lower),
                PivotOutcome::Unbounded => {
                    // The phase-1 objective is bounded below by 0, so this
                    // only happens through floating-point degeneracy (a
                    // spurious negative reduced cost on an all-nonpositive
                    // column). Surface it as a limit rather than panicking.
                    return self.result(LpStatus::IterLimit, p, lower);
                }
                PivotOutcome::Optimal => {}
            }
            let phase1_obj = -self.cost[self.cols];
            if phase1_obj > 1e-6 {
                return self.result(LpStatus::Infeasible, p, lower);
            }
            self.purge_artificials();
        }

        // ---- Phase 2: optimise the real objective. ----
        segrout_obs::event!(
            segrout_obs::Level::Trace,
            "simplex.phase2",
            pivots_so_far = self.iterations,
        );
        self.cost.fill(0.0);
        let sign = match p.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        for j in 0..self.n_struct {
            self.cost[j] = sign * p.objective()[j];
        }
        // Price out the basic variables with nonzero costs.
        for i in 0..m {
            let b = self.basis[i];
            let cb = self.cost[b];
            if cb != 0.0 {
                let row = &self.a[i * self.width..(i + 1) * self.width];
                for (c, &x) in self.cost.iter_mut().zip(row) {
                    *c -= cb * x;
                }
            }
        }
        let status = match self.pivot_loop(true) {
            PivotOutcome::Optimal => LpStatus::Optimal,
            PivotOutcome::Unbounded => LpStatus::Unbounded,
            PivotOutcome::IterLimit => LpStatus::IterLimit,
        };
        self.result(status, p, lower)
    }

    /// Pivots until optimality/unboundedness/limit. `bar_artificials`
    /// prevents artificial columns from (re-)entering in phase 2.
    fn pivot_loop(&mut self, bar_artificials: bool) -> PivotOutcome {
        let m = self.rows;
        let mut stall = 0usize;
        let bland_after = 10 * (m + self.cols);
        loop {
            if self.iterations >= self.iter_limit {
                return PivotOutcome::IterLimit;
            }
            if self.iterations.is_multiple_of(64) {
                if let Some(deadline) = self.deadline {
                    if Instant::now() >= deadline {
                        return PivotOutcome::IterLimit;
                    }
                }
            }
            // Entering column.
            let use_bland = stall > bland_after;
            let mut enter = None;
            if use_bland {
                for j in 0..self.cols {
                    if (bar_artificials && self.artificial[j]) || self.cost[j] >= -OPT_TOL {
                        continue;
                    }
                    enter = Some(j);
                    break;
                }
            } else {
                let mut best = -OPT_TOL;
                for j in 0..self.cols {
                    if bar_artificials && self.artificial[j] {
                        continue;
                    }
                    if self.cost[j] < best {
                        best = self.cost[j];
                        enter = Some(j);
                    }
                }
            }
            let Some(je) = enter else {
                return PivotOutcome::Optimal;
            };

            // Leaving row: minimum ratio test, Bland tie-break on basis index.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..m {
                let aij = self.at(i, je);
                if aij > PIVOT_TOL {
                    let ratio = self.at(i, self.cols) / aij;
                    let better = ratio < best_ratio - PIVOT_TOL
                        || (ratio < best_ratio + PIVOT_TOL
                            && leave.is_some_and(|l| self.basis[i] < self.basis[l]));
                    if better {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(ir) = leave else {
                return PivotOutcome::Unbounded;
            };

            if best_ratio < PIVOT_TOL {
                stall += 1;
            } else {
                stall = 0;
            }
            self.pivot(ir, je);
        }
    }

    /// Gauss–Jordan pivot on `(row, col)`.
    fn pivot(&mut self, row: usize, col: usize) {
        self.iterations += 1;
        let w = self.width;
        let piv = self.a[row * w + col];
        debug_assert!(piv.abs() > PIVOT_TOL);
        let inv = 1.0 / piv;
        for x in self.a[row * w..(row + 1) * w].iter_mut() {
            *x *= inv;
        }
        // Snap the pivot column exactly.
        self.a[row * w + col] = 1.0;
        // Eliminate the pivot column from every other row. The pivot row is
        // temporarily swapped out so the borrow checker allows slice-on-slice
        // arithmetic without copies.
        let mut pivot_row = vec![0.0; w];
        pivot_row.copy_from_slice(&self.a[row * w..(row + 1) * w]);
        for i in 0..self.rows {
            if i == row {
                continue;
            }
            let factor = self.a[i * w + col];
            if factor != 0.0 {
                let r = &mut self.a[i * w..(i + 1) * w];
                for (x, &pv) in r.iter_mut().zip(&pivot_row) {
                    *x -= factor * pv;
                }
                r[col] = 0.0;
            }
        }
        let factor = self.cost[col];
        if factor != 0.0 {
            for (c, &pv) in self.cost.iter_mut().zip(&pivot_row) {
                *c -= factor * pv;
            }
            self.cost[col] = 0.0;
        }
        self.basis[row] = col;
    }

    /// After phase 1, pivots remaining basic artificials (at value zero) out
    /// of the basis where possible. Rows that are entirely zero over
    /// non-artificial columns are redundant and left alone — their basic
    /// artificial stays pinned at zero.
    fn purge_artificials(&mut self) {
        for i in 0..self.rows {
            if !self.artificial[self.basis[i]] {
                continue;
            }
            if let Some(j) =
                (0..self.cols).find(|&j| !self.artificial[j] && self.at(i, j).abs() > 1e-7)
            {
                self.pivot(i, j);
            }
        }
    }

    fn result(&self, status: LpStatus, p: &Problem, lower: &[f64]) -> LpResult {
        // One atomic add per solve, not per pivot: the hot pivot loop only
        // bumps the local `self.iterations`.
        segrout_obs::counter("simplex.pivots").add(self.iterations as u64);
        segrout_obs::counter("simplex.solves").inc();
        if status != LpStatus::Optimal {
            return LpResult {
                status,
                objective: 0.0,
                values: Vec::new(),
                iterations: self.iterations,
            };
        }
        let mut values = lower.to_vec();
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.n_struct {
                values[b] = lower[b] + self.at(i, self.cols);
            }
        }
        let objective = p.objective_value(&values);
        LpResult {
            status,
            objective,
            values,
            iterations: self.iterations,
        }
    }
}

enum PivotOutcome {
    Optimal,
    Unbounded,
    IterLimit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::guard;
    use segrout_obs::counter;

    /// The oracle's search solves every node cold; the production search
    /// warm-starts its children. `milp.nodes_warm_started` is global, so
    /// the differential lock keeps a concurrent case run from moving it.
    #[test]
    fn only_the_production_search_warm_starts() {
        let _guard = guard();
        // max y st 2y <= 7: the root relaxation is 3.5, so B&B branches.
        let mut p = Problem::new(Sense::Maximize);
        let y = p.add_int_var(0.0, 100.0, 1.0);
        p.add_constraint(vec![(y, 2.0)], Cmp::Le, 7.0);
        let (options, warm) = (MilpOptions::default(), counter("milp.nodes_warm_started"));

        let before = warm.get();
        let oracle = solve_milp(&p, &options);
        assert_eq!(warm.get(), before, "the oracle warm-started a node");
        let production = segrout_lp::solve_milp(&p, &options);
        assert!(warm.get() > before, "production warm-started no node");
        assert_eq!(oracle.objective, Some(3.0));
        assert_eq!(production.objective, Some(3.0));
    }
}
