//! Model builder for linear and mixed-integer programs.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Handle to a decision variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Objective sense.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Constraint comparison operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `Σ aᵢ xᵢ ≤ b`
    Le,
    /// `Σ aᵢ xᵢ ≥ b`
    Ge,
    /// `Σ aᵢ xᵢ = b`
    Eq,
}

/// One sparse linear constraint.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Sparse `(variable, coefficient)` terms; duplicate variables are summed.
    pub terms: Vec<(VarId, f64)>,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear (or mixed-integer) program.
///
/// Every variable has a finite lower bound (default 0) and an optional upper
/// bound; this covers all formulations in this workspace (flows, weights,
/// distances and indicator variables are all naturally bounded below).
///
/// The first solve builds the problem's column form (see
/// `StandardForm`) and keeps it until the next `add_*` call, so the
/// branch-and-bound nodes of one search share one copy.
#[derive(Clone)]
pub struct Problem {
    sense: Sense,
    objective: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    integer: Vec<bool>,
    constraints: Vec<Constraint>,
    form: OnceLock<StandardForm>,
}

impl fmt::Debug for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Problem")
            .field("sense", &self.sense)
            .field("objective", &self.objective)
            .field("lower", &self.lower)
            .field("upper", &self.upper)
            .field("integer", &self.integer)
            .field("constraints", &self.constraints)
            .finish_non_exhaustive()
    }
}

/// The bound-independent part of a problem in the revised simplex's form
/// `[A | I] x = b`: one slack per row, whose bounds encode the row's sense
/// (`≤` rows get a slack in `[0, ∞)`, `≥` rows one in `(−∞, 0]`, `=` rows
/// a fixed slack `[0, 0]`), and the costs in minimize form.
#[derive(Clone, Debug)]
pub(crate) struct StandardForm {
    /// Unique per build (clones share it), so a basis snapshot can tell
    /// whether its factorization belongs to these columns.
    pub id: u64,
    /// Sparse structural columns (`(row, coeff)`, duplicates pre-summed).
    pub cols: Vec<Vec<(u32, f64)>>,
    /// Bounds per slack.
    pub slack_lb: Vec<f64>,
    pub slack_ub: Vec<f64>,
    /// Cost per column, structurals then slacks, in minimize form.
    pub cost: Vec<f64>,
    /// Right-hand side per row.
    pub b: Vec<f64>,
}

impl StandardForm {
    fn build(p: &Problem) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let n = p.num_vars();
        let m = p.num_constraints();
        let mut cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        let mut b = Vec::with_capacity(m);
        let mut slack_lb = Vec::with_capacity(m);
        let mut slack_ub = Vec::with_capacity(m);
        let mut acc: Vec<f64> = vec![0.0; n];
        let mut touched: Vec<usize> = Vec::new();
        for (i, c) in p.constraints.iter().enumerate() {
            for &(v, a) in &c.terms {
                if acc[v.0] == 0.0 && a != 0.0 {
                    touched.push(v.0);
                }
                acc[v.0] += a;
            }
            for &j in &touched {
                if acc[j] != 0.0 {
                    cols[j].push((i as u32, acc[j]));
                }
                acc[j] = 0.0;
            }
            touched.clear();
            b.push(c.rhs);
            // a'x + s = rhs.
            let (sl, su) = match c.cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
            slack_lb.push(sl);
            slack_ub.push(su);
        }
        let sign = match p.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut cost = vec![0.0; n + m];
        for (j, &c) in p.objective.iter().enumerate() {
            cost[j] = sign * c;
        }
        Self {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            cols,
            slack_lb,
            slack_ub,
            cost,
            b,
        }
    }

    /// Structural column count.
    pub fn n(&self) -> usize {
        self.cols.len()
    }

    /// Iterates the nonzeros of column `j` (structural or slack).
    #[inline]
    pub fn for_col(&self, j: usize, mut f: impl FnMut(usize, f64)) {
        match self.cols.get(j) {
            Some(col) => {
                for &(i, a) in col {
                    f(i as usize, a);
                }
            }
            None => f(j - self.n(), 1.0),
        }
    }

    /// Column nonzero count.
    pub fn col_nnz(&self, j: usize) -> usize {
        self.cols.get(j).map_or(1, Vec::len)
    }
}

impl Problem {
    /// Creates an empty problem with the given objective sense.
    pub fn new(sense: Sense) -> Self {
        Self {
            sense,
            objective: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            integer: Vec::new(),
            constraints: Vec::new(),
            form: OnceLock::new(),
        }
    }

    /// Adds a continuous variable with bounds `[lower, upper]` (use
    /// `f64::INFINITY` for no upper bound) and the given objective
    /// coefficient.
    ///
    /// # Panics
    /// Panics when `lower` is not finite or `upper < lower`.
    pub fn add_var(&mut self, lower: f64, upper: f64, obj: f64) -> VarId {
        assert!(lower.is_finite(), "lower bound must be finite");
        assert!(upper >= lower, "upper bound below lower bound");
        assert!(obj.is_finite(), "objective coefficient must be finite");
        self.form.take();
        let id = VarId(self.objective.len());
        self.objective.push(obj);
        self.lower.push(lower);
        self.upper.push(upper);
        self.integer.push(false);
        id
    }

    /// Adds an integer variable with bounds `[lower, upper]`.
    pub fn add_int_var(&mut self, lower: f64, upper: f64, obj: f64) -> VarId {
        let id = self.add_var(lower, upper, obj);
        self.integer[id.0] = true;
        id
    }

    /// Adds a binary (0/1) variable.
    pub fn add_bin_var(&mut self, obj: f64) -> VarId {
        self.add_int_var(0.0, 1.0, obj)
    }

    /// Adds a constraint `Σ terms cmp rhs`. Terms with the same variable are
    /// accumulated.
    ///
    /// # Panics
    /// Panics on non-finite coefficients/rhs or out-of-range variables.
    pub fn add_constraint(&mut self, terms: Vec<(VarId, f64)>, cmp: Cmp, rhs: f64) {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        for &(v, a) in &terms {
            assert!(v.0 < self.objective.len(), "unknown variable {v:?}");
            assert!(a.is_finite(), "constraint coefficient must be finite");
        }
        self.form.take();
        self.constraints.push(Constraint { terms, cmp, rhs });
    }

    /// The column form, built on the first call after the last change.
    pub(crate) fn standard_form(&self) -> &StandardForm {
        self.form.get_or_init(|| StandardForm::build(self))
    }

    /// Objective sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Objective coefficients per variable.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Lower bounds per variable.
    pub fn lower_bounds(&self) -> &[f64] {
        &self.lower
    }

    /// Upper bounds per variable (`f64::INFINITY` = unbounded).
    pub fn upper_bounds(&self) -> &[f64] {
        &self.upper
    }

    /// Integrality flags per variable.
    pub fn integrality(&self) -> &[bool] {
        &self.integer
    }

    /// The constraint rows.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Evaluates the objective at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks primal feasibility of a point within tolerance `tol`
    /// (bounds, constraints and integrality). Used by tests and by the
    /// branch-and-bound incumbent check. A non-finite coordinate is
    /// infeasible: a NaN fails no comparison, and `+∞` passes a `≥` row
    /// under an infinite upper bound.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        for (i, &xi) in x.iter().enumerate() {
            if !xi.is_finite() || xi < self.lower[i] - tol || xi > self.upper[i] + tol {
                return false;
            }
            if self.integer[i] && (xi - xi.round()).abs() > tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, a)| a * x[v.0]).sum();
            let scale = 1.0_f64.max(c.rhs.abs()).max(lhs.abs());
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs + tol * scale,
                Cmp::Ge => lhs >= c.rhs - tol * scale,
                Cmp::Eq => (lhs - c.rhs).abs() <= tol * scale,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_a_small_model() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 4.0, 3.0);
        let y = p.add_var(0.0, f64::INFINITY, 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 5.0);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_constraints(), 1);
        assert_eq!(p.objective_value(&[1.0, 1.0]), 5.0);
    }

    #[test]
    fn feasibility_check() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_int_var(0.0, 10.0, 1.0);
        p.add_constraint(vec![(x, 2.0)], Cmp::Ge, 4.0);
        assert!(p.is_feasible(&[2.0], 1e-9));
        assert!(p.is_feasible(&[3.0], 1e-9));
        assert!(!p.is_feasible(&[1.0], 1e-9)); // violates constraint
        assert!(!p.is_feasible(&[2.5], 1e-9)); // fractional
        assert!(!p.is_feasible(&[11.0], 1e-9)); // above upper bound
    }

    #[test]
    fn non_finite_points_are_infeasible() {
        // No row sums y, and z's upper bound is infinite: a NaN y and an
        // infinite z once passed every test.
        let mut p = Problem::new(Sense::Minimize);
        p.add_var(0.0, 5.0, 1.0);
        let z = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_constraint(vec![(z, 1.0)], Cmp::Ge, 1.0);
        assert!(p.is_feasible(&[0.0, 1.0], 1e-6));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!p.is_feasible(&[bad, 1.0], 1e-6), "y = {bad}");
            assert!(!p.is_feasible(&[0.0, bad], 1e-6), "z = {bad}");
        }
    }

    #[test]
    fn changes_drop_the_column_form() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 4.0, 3.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 5.0);
        assert_eq!(p.standard_form().n(), 1);
        let y = p.add_var(0.0, 1.0, 2.0);
        assert_eq!(p.standard_form().n(), 2);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.5);
        let form = p.standard_form();
        assert_eq!(form.b, [5.0, 4.5]);
        assert_eq!(form.cols[1], [(1, 1.0)]);
        assert_eq!(form.cost, [-3.0, -2.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn constraint_on_unknown_variable_panics() {
        let mut p = Problem::new(Sense::Minimize);
        p.add_constraint(vec![(VarId(3), 1.0)], Cmp::Le, 1.0);
    }

    #[test]
    #[should_panic(expected = "lower bound must be finite")]
    fn free_variables_are_rejected() {
        let mut p = Problem::new(Sense::Minimize);
        p.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0);
    }
}
