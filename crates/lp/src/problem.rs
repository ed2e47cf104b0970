//! Model builder for linear and mixed-integer programs.

use std::fmt;

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
#[derive(Clone, Debug)]
pub struct Problem {
    sense: Sense,
    objective: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    integer: Vec<bool>,
    constraints: Vec<Constraint>,
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
        self.constraints.push(Constraint { terms, cmp, rhs });
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
