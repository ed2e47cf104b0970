//! Bounded-variable revised simplex with a product-form basis.
//!
//! This is the workhorse LP engine. Compared to the dense reference tableau
//! (`reference` module) it differs in three structural ways:
//!
//! 1. **Implicit bounds.** Every variable carries `[l, u]` bounds handled by
//!    nonbasic *states* (at-lower / at-upper) instead of explicit `x ≤ u`
//!    rows, so the thousands of binary indicator variables of the Joint MILP
//!    no longer double the row count. Row senses become slack bounds:
//!    `≤` rows get a slack in `[0, ∞)`, `≥` rows a slack in `(−∞, 0]` and
//!    `=` rows a fixed slack `[0, 0]`; the constraint matrix is always
//!    `[A | I]` and the all-slack basis is the identity.
//! 2. **Product-form basis.** The basis inverse is an eta file
//!    (`EtaFile` in [`crate::basis`]); a pivot appends one eta and the file is
//!    rebuilt (refactorized) every `REFACTOR_INTERVAL` pivots, which also
//!    recomputes the basic values and bounds floating-point drift.
//! 3. **Feasibility-restoring phase 1.** Instead of artificial variables,
//!    phase 1 minimizes the total bound violation of the basic variables
//!    (the classic composite / piecewise-linear phase 1). This works from
//!    *any* starting basis, which is exactly what the warm-start entry point
//!    needs: a branch-and-bound child re-solves from its parent's final
//!    basis, restores feasibility in a handful of pivots (the parent basis
//!    stays dual-consistent — only one variable bound moved), and re-enters
//!    phase 2.
//!
//! Pricing is Dantzig (most negative reduced cost) with the same automatic
//! switch to Bland's rule after a degenerate stall as the reference tableau.
//! The ratio test is a Harris-style two-pass: pass one finds the maximum
//! step against tolerance-relaxed bounds, pass two picks the
//! largest-pivot-magnitude blocker within that step, trading a bounded bound
//! violation (within the feasibility tolerance) for much better numerical
//! stability on degenerate vertices. Entering variables whose opposite bound
//! is closer than every blocking row simply *bound-flip* without any basis
//! change — on 0/1-heavy MILP relaxations most "pivots" collapse into these
//! O(m) flips.

use crate::basis::{Basis, EtaFile};
use crate::problem::{Cmp, Problem, Sense};
use crate::simplex::{LpResult, LpStatus};
use std::time::Instant;

/// Reduced-cost optimality tolerance.
const OPT_TOL: f64 = 1e-7;
/// Pivot-element tolerance (entries below this never pivot).
const PIVOT_TOL: f64 = 1e-9;
/// Per-variable bound violation below which a basic variable counts as
/// feasible.
const FEAS_TOL: f64 = 1e-7;
/// Final infeasibility verdict: when phase 1 stalls with every violation
/// below this, the point is accepted as feasible (matches the reference
/// tableau's phase-1 threshold).
const INFEAS_DECIDE_TOL: f64 = 1e-6;
/// Eta entries below this magnitude are dropped at refactorization.
const ETA_DROP_TOL: f64 = 1e-12;
/// Pivots between basis refactorizations. Each refactorization rebuilds the
/// eta file from the basic columns and recomputes the basic values from the
/// bounds, so drift can accumulate over at most this many pivots.
pub(crate) const REFACTOR_INTERVAL: usize = 64;
/// A ratio-test step below this counts as a degenerate (stalling) pivot.
const STALL_STEP: f64 = 1e-10;
/// Early-refactorization fill trigger: the basis is reinverted before the
/// pivot-count schedule whenever the eta file holds more than this many
/// entries per row, since FTRAN/BTRAN cost is proportional to the fill.
const ETA_FILL_FACTOR: usize = 48;

/// Variable state: basic, or nonbasic at one of its bounds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum VStat {
    Basic,
    AtLower,
    AtUpper,
}

/// Solves the LP relaxation of `p` with the revised simplex. `warm`
/// optionally restarts from a previous basis of the *same* problem (bounds
/// may differ). Returns the result plus the final basis when the solve ran
/// to a verdict with a factorizable basis.
pub(crate) fn solve(
    p: &Problem,
    lower: &[f64],
    upper: &[f64],
    deadline: Option<Instant>,
    warm: Option<&Basis>,
) -> (LpResult, Option<Basis>) {
    let _span = segrout_obs::span("simplex");
    let mut rsm = Rsm::build(p, lower, upper, deadline);
    let warmed = match warm {
        Some(basis) if rsm.apply_warm_basis(basis) => {
            segrout_obs::counter("simplex.warm_starts").inc();
            true
        }
        _ => false,
    };
    if !warmed {
        rsm.cold_basis();
    }
    let status = rsm.optimize();
    rsm.finish(p, status)
}

/// One candidate block of the ratio test.
#[derive(Clone, Copy)]
struct Blocker {
    row: usize,
    /// Exact (unrelaxed) nonnegative step at which the row blocks.
    step: f64,
    /// The basic variable leaves toward its upper bound.
    to_upper: bool,
}

/// Outcome of one pricing + ratio-test round.
enum StepOutcome {
    /// No eligible entering column: current basis is optimal for the phase.
    NoEntering,
    /// Performed a bound flip or a pivot with the given step length.
    Moved { step: f64 },
    /// Entering column is unblocked and its own range is infinite.
    Unbounded,
}

struct Rsm {
    /// Structural variable count.
    n: usize,
    /// Row count.
    m: usize,
    /// Total column count (`n + m`: structurals then one slack per row).
    nn: usize,
    /// Sparse structural columns (`(row, coeff)`, duplicates pre-summed).
    cols: Vec<Vec<(u32, f64)>>,
    /// Bounds per column (slack bounds encode the row sense).
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Phase-2 cost per column, in minimize form.
    cost: Vec<f64>,
    /// Right-hand side per row.
    b: Vec<f64>,
    stat: Vec<VStat>,
    /// Basic column per row.
    basic: Vec<usize>,
    /// Value of the basic variable of each row.
    xb: Vec<f64>,
    eta: EtaFile,
    iterations: usize,
    iter_limit: usize,
    pivots_since_refactor: usize,
    refactorizations: u64,
    deadline: Option<Instant>,
    /// Scratch dense vectors (length `m`).
    alpha: Vec<f64>,
    work: Vec<f64>,
}

impl Rsm {
    fn build(p: &Problem, lower: &[f64], upper: &[f64], deadline: Option<Instant>) -> Self {
        let n = p.num_vars();
        let m = p.num_constraints();
        let nn = n + m;

        let mut cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        let mut b = Vec::with_capacity(m);
        let mut lb = lower.to_vec();
        let mut ub = upper.to_vec();
        lb.reserve(m);
        ub.reserve(m);
        let mut acc: Vec<f64> = vec![0.0; n];
        let mut touched: Vec<usize> = Vec::new();
        for (i, c) in p.constraints().iter().enumerate() {
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
            // Slack bounds encode the sense: a'x + s = rhs.
            let (sl, su) = match c.cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
            lb.push(sl);
            ub.push(su);
        }

        let sign = match p.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut cost = vec![0.0; nn];
        for (j, &c) in p.objective().iter().enumerate() {
            cost[j] = sign * c;
        }

        let iter_limit = 2000 + 200 * (m + nn);
        Self {
            n,
            m,
            nn,
            cols,
            lb,
            ub,
            cost,
            b,
            stat: vec![VStat::AtLower; nn],
            basic: vec![usize::MAX; m],
            xb: vec![0.0; m],
            eta: EtaFile::default(),
            iterations: 0,
            iter_limit,
            pivots_since_refactor: 0,
            refactorizations: 0,
            deadline,
            alpha: vec![0.0; m],
            work: vec![0.0; m],
        }
    }

    /// Iterates the nonzeros of column `j` (structural or slack).
    #[inline]
    fn for_col(&self, j: usize, mut f: impl FnMut(usize, f64)) {
        if j < self.n {
            for &(i, a) in &self.cols[j] {
                f(i as usize, a);
            }
        } else {
            f(j - self.n, 1.0);
        }
    }

    /// Column nonzero count (for the refactorization pivot order).
    fn col_nnz(&self, j: usize) -> usize {
        if j < self.n {
            self.cols[j].len()
        } else {
            1
        }
    }

    /// All-slack starting basis: `B = I`, structurals at their lower bound.
    fn cold_basis(&mut self) {
        for j in 0..self.n {
            self.stat[j] = VStat::AtLower;
        }
        for i in 0..self.m {
            self.basic[i] = self.n + i;
            self.stat[self.n + i] = VStat::Basic;
        }
        self.eta.clear();
        self.compute_xb();
    }

    /// Restores a snapshot from a previous solve of the same problem.
    /// Returns `false` (leaving the state unusable — caller must fall back
    /// to [`cold_basis`](Self::cold_basis)) when the snapshot does not match
    /// or its basis has become singular.
    fn apply_warm_basis(&mut self, basis: &Basis) -> bool {
        if basis.n_struct != self.n || basis.basic.len() != self.m {
            return false;
        }
        let mut seen = vec![false; self.nn];
        for &c in &basis.basic {
            let c = c as usize;
            if c >= self.nn || seen[c] {
                return false;
            }
            seen[c] = true;
        }
        for (j, &in_basis) in seen.iter().enumerate() {
            self.stat[j] = if in_basis {
                VStat::Basic
            } else if basis.at_upper[j] && self.ub[j].is_finite() {
                VStat::AtUpper
            } else {
                VStat::AtLower
            };
            // A nonbasic column needs a finite bound to sit at; `≥`-row
            // slacks have no lower bound, so park them at their upper (0).
            if self.stat[j] == VStat::AtLower && !self.lb[j].is_finite() {
                self.stat[j] = VStat::AtUpper;
            }
        }
        for (i, &c) in basis.basic.iter().enumerate() {
            self.basic[i] = c as usize;
        }
        if !self.refactor() {
            return false;
        }
        self.compute_xb();
        true
    }

    /// Rebuilds the eta file from the current basic column set (product-form
    /// reinversion), reassigning pivot rows. Returns `false` on a singular
    /// basis.
    fn refactor(&mut self) -> bool {
        self.eta.clear();
        self.refactorizations += 1;
        self.pivots_since_refactor = 0;
        let mut order: Vec<usize> = self.basic.clone();
        order.sort_by_key(|&c| (self.col_nnz(c), c));
        let mut assigned = vec![false; self.m];
        let mut new_basic = vec![usize::MAX; self.m];
        let mut w = vec![0.0; self.m];
        for &c in &order {
            w.fill(0.0);
            self.for_col(c, |i, a| w[i] = a);
            self.eta.ftran(&mut w);
            let mut r = usize::MAX;
            let mut best = 1e-10;
            for i in 0..self.m {
                if !assigned[i] && w[i].abs() > best {
                    best = w[i].abs();
                    r = i;
                }
            }
            if r == usize::MAX {
                return false; // singular
            }
            assigned[r] = true;
            new_basic[r] = c;
            // A still-unit column needs no eta.
            let is_unit = (w[r] - 1.0).abs() < 1e-12
                && w.iter()
                    .enumerate()
                    .all(|(i, &v)| i == r || v.abs() < 1e-12);
            if !is_unit {
                self.eta.push(r, &w, ETA_DROP_TOL);
            }
        }
        self.basic = new_basic;
        true
    }

    /// Value of a nonbasic column (the bound it sits at).
    #[inline]
    fn nb_value(&self, j: usize) -> f64 {
        match self.stat[j] {
            VStat::AtLower => self.lb[j],
            VStat::AtUpper => self.ub[j],
            VStat::Basic => unreachable!("nb_value on a basic column"),
        }
    }

    /// Recomputes `x_B = B⁻¹ (b − N x_N)` from scratch.
    fn compute_xb(&mut self) {
        let mut w = self.b.clone();
        for j in 0..self.nn {
            if self.stat[j] == VStat::Basic {
                continue;
            }
            let v = self.nb_value(j);
            if v != 0.0 {
                self.for_col(j, |i, a| w[i] -= a * v);
            }
        }
        self.eta.ftran(&mut w);
        self.xb.copy_from_slice(&w);
    }

    /// Largest bound violation among the basic variables.
    fn max_infeasibility(&self) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..self.m {
            let c = self.basic[i];
            let v = self.xb[i];
            worst = worst.max(self.lb[c] - v).max(v - self.ub[c]);
        }
        worst
    }

    /// Runs phase 1 (feasibility restoration) then phase 2 (optimization).
    fn optimize(&mut self) -> LpStatus {
        if let Some(s) = self.pivot_loop(true) {
            return s;
        }
        if self.max_infeasibility() > INFEAS_DECIDE_TOL {
            return LpStatus::Infeasible;
        }
        self.pivot_loop(false).unwrap_or(LpStatus::Optimal)
    }

    /// Pivots until the phase is done. Returns `Some(status)` on a terminal
    /// verdict (iteration limit, unboundedness) and `None` when the phase
    /// completed normally (phase 1: as feasible as it can get; phase 2:
    /// optimal — the caller maps `None` accordingly).
    fn pivot_loop(&mut self, phase1: bool) -> Option<LpStatus> {
        let mut stall = 0usize;
        let bland_after = 10 * (self.m + self.nn);
        loop {
            if self.iterations >= self.iter_limit {
                return Some(LpStatus::IterLimit);
            }
            if self.iterations.is_multiple_of(64) {
                if let Some(deadline) = self.deadline {
                    if Instant::now() >= deadline {
                        return Some(LpStatus::IterLimit);
                    }
                }
            }
            // Refactorize on the pivot-count schedule, or early when the eta
            // file has grown dense (fill makes FTRAN/BTRAN cost balloon well
            // before the drift bound kicks in).
            let eta_dense = self.eta.len() > 1 && self.eta.nnz() > ETA_FILL_FACTOR * (self.m + 1);
            if self.pivots_since_refactor >= REFACTOR_INTERVAL || eta_dense {
                if !self.refactor() {
                    return Some(LpStatus::IterLimit);
                }
                self.compute_xb();
            }
            if phase1 && self.max_infeasibility() <= FEAS_TOL {
                return None;
            }
            let use_bland = stall > bland_after;
            match self.step(phase1, use_bland) {
                // Phase done: phase 2 is optimal; phase 1 is as feasible as
                // it gets — the caller re-checks the residual infeasibility.
                StepOutcome::NoEntering => return None,
                StepOutcome::Unbounded => {
                    if phase1 {
                        // The phase-1 objective is bounded below by zero, so
                        // an "unbounded" ray is floating-point degeneracy.
                        // One refactorization retry, then give up soundly.
                        if self.pivots_since_refactor > 0 && self.refactor() {
                            self.compute_xb();
                            continue;
                        }
                        return Some(LpStatus::IterLimit);
                    }
                    return Some(LpStatus::Unbounded);
                }
                StepOutcome::Moved { step } => {
                    if step <= STALL_STEP {
                        stall += 1;
                    } else {
                        stall = 0;
                    }
                }
            }
        }
    }

    /// One pricing + ratio-test + update round.
    fn step(&mut self, phase1: bool, use_bland: bool) -> StepOutcome {
        // BTRAN the basic costs into the dual vector y.
        self.work.fill(0.0);
        let mut any_cost = false;
        for i in 0..self.m {
            let c = self.basic[i];
            let ci = if phase1 {
                // Piecewise-linear phase-1 cost of the basic variable.
                if self.xb[i] < self.lb[c] - FEAS_TOL {
                    -1.0
                } else if self.xb[i] > self.ub[c] + FEAS_TOL {
                    1.0
                } else {
                    0.0
                }
            } else {
                self.cost[c]
            };
            if ci != 0.0 {
                self.work[i] = ci;
                any_cost = true;
            }
        }
        if any_cost {
            self.eta.btran(&mut self.work);
        }

        // Pricing: Dantzig (largest reduced-cost magnitude) or Bland (first
        // eligible index).
        let mut enter: Option<(usize, f64)> = None; // (column, reduced cost)
        let mut best_mag = OPT_TOL;
        for j in 0..self.nn {
            let st = self.stat[j];
            if st == VStat::Basic || self.lb[j] == self.ub[j] {
                continue;
            }
            let cj = if phase1 { 0.0 } else { self.cost[j] };
            let mut d = cj;
            if any_cost {
                let y = &self.work;
                let mut dot = 0.0;
                if j < self.n {
                    for &(i, a) in &self.cols[j] {
                        dot += a * y[i as usize];
                    }
                } else {
                    dot = y[j - self.n];
                }
                d -= dot;
            }
            let eligible = match st {
                VStat::AtLower => d < -OPT_TOL,
                VStat::AtUpper => d > OPT_TOL,
                VStat::Basic => false,
            };
            if !eligible {
                continue;
            }
            if use_bland {
                enter = Some((j, d));
                break;
            }
            if d.abs() > best_mag {
                best_mag = d.abs();
                enter = Some((j, d));
            }
        }
        let Some((q, _)) = enter else {
            return StepOutcome::NoEntering;
        };
        let dir = if self.stat[q] == VStat::AtLower {
            1.0
        } else {
            -1.0
        };

        // FTRAN the entering column: alpha = B⁻¹ a_q. The basic variable of
        // row i moves at rate −dir·alpha_i per unit step of x_q.
        self.alpha.fill(0.0);
        {
            let alpha = &mut self.alpha;
            if q < self.n {
                for &(i, a) in &self.cols[q] {
                    alpha[i as usize] = a;
                }
            } else {
                alpha[q - self.n] = 1.0;
            }
        }
        self.eta.ftran(&mut self.alpha);

        // Harris two-pass ratio test.
        let t_bound = self.ub[q] - self.lb[q]; // may be +inf
        let mut t_max = t_bound;
        let mut blockers: Vec<Blocker> = Vec::new();
        for i in 0..self.m {
            let a = self.alpha[i];
            if a.abs() <= PIVOT_TOL {
                continue;
            }
            let rate = -dir * a;
            let c = self.basic[i];
            let v = self.xb[i];
            let below = v < self.lb[c] - FEAS_TOL;
            let above = v > self.ub[c] + FEAS_TOL;
            // (relaxed, exact) step at which this row blocks, and the bound
            // the leaving variable lands on.
            let cand: Option<(f64, f64, bool)> = if phase1 && below {
                // Infeasible below: blocks only when moving up, at its
                // lower bound (where it becomes feasible).
                (rate > 0.0).then(|| {
                    let num = self.lb[c] - v;
                    ((num + FEAS_TOL) / rate, num / rate, false)
                })
            } else if phase1 && above {
                (rate < 0.0).then(|| {
                    let num = v - self.ub[c];
                    ((num + FEAS_TOL) / -rate, num / -rate, true)
                })
            } else if rate < 0.0 {
                self.lb[c].is_finite().then(|| {
                    let num = v - self.lb[c];
                    ((num + FEAS_TOL) / -rate, num / -rate, false)
                })
            } else {
                self.ub[c].is_finite().then(|| {
                    let num = self.ub[c] - v;
                    ((num + FEAS_TOL) / rate, num / rate, true)
                })
            };
            if let Some((relaxed, exact, to_upper)) = cand {
                t_max = t_max.min(relaxed.max(0.0));
                blockers.push(Blocker {
                    row: i,
                    step: exact.max(0.0),
                    to_upper,
                });
            }
        }

        if blockers.is_empty() && t_bound.is_infinite() {
            return StepOutcome::Unbounded;
        }
        if t_bound <= t_max {
            // Bound flip: the entering variable crosses to its other bound
            // before any basic variable blocks. No basis change.
            self.iterations += 1;
            let delta = dir * t_bound;
            for i in 0..self.m {
                self.xb[i] -= delta * self.alpha[i];
            }
            self.stat[q] = if dir > 0.0 {
                VStat::AtUpper
            } else {
                VStat::AtLower
            };
            return StepOutcome::Moved { step: t_bound };
        }

        // Leaving choice. Bland mode: strict minimum-ratio with a
        // lowest-basic-index tie-break (the anti-cycling guarantee). Harris
        // mode: among blockers within the relaxed maximum step, the largest
        // pivot magnitude wins (numerical stability on degenerate vertices).
        let chosen = if use_bland {
            blockers.iter().copied().min_by(|a, b| {
                a.step
                    .partial_cmp(&b.step)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| self.basic[a.row].cmp(&self.basic[b.row]))
            })
        } else {
            let mut best: Option<Blocker> = None;
            let mut best_piv = 0.0f64;
            for bl in &blockers {
                if bl.step <= t_max + FEAS_TOL {
                    let mag = self.alpha[bl.row].abs();
                    if best.is_none() || mag > best_piv {
                        best_piv = mag;
                        best = Some(*bl);
                    }
                }
            }
            // Numerically every minimal-ratio row is within the relaxed
            // step; fall back to the nearest blocker if tolerance juggling
            // filtered them all out.
            best.or_else(|| {
                blockers.iter().copied().min_by(|a, b| {
                    a.step
                        .partial_cmp(&b.step)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
            })
        };
        let bl = chosen.expect("blockers is non-empty here");
        let t = bl.step.min(t_bound);
        self.pivot(q, dir, bl.row, t, bl.to_upper);
        StepOutcome::Moved { step: t }
    }

    /// Executes the basis change: entering `q` moves by `t` in direction
    /// `dir`, the basic variable of `row` leaves to its lower/upper bound.
    fn pivot(&mut self, q: usize, dir: f64, row: usize, t: f64, to_upper: bool) {
        self.iterations += 1;
        self.pivots_since_refactor += 1;
        let delta = dir * t;
        for i in 0..self.m {
            self.xb[i] -= delta * self.alpha[i];
        }
        let p_col = self.basic[row];
        self.stat[p_col] = if to_upper {
            VStat::AtUpper
        } else {
            VStat::AtLower
        };
        let enter_from = if dir > 0.0 { self.lb[q] } else { self.ub[q] };
        self.xb[row] = enter_from + delta;
        self.basic[row] = q;
        self.stat[q] = VStat::Basic;
        self.eta.push(row, &self.alpha, ETA_DROP_TOL);
    }

    /// Final cleanup: refactorize for crisp values, extract the solution and
    /// flush metrics.
    fn finish(mut self, p: &Problem, status: LpStatus) -> (LpResult, Option<Basis>) {
        let mut basis_ok = true;
        if status == LpStatus::Optimal && self.pivots_since_refactor > 0 {
            if self.refactor() {
                self.compute_xb();
            } else {
                basis_ok = false;
            }
        }
        segrout_obs::counter("simplex.pivots").add(self.iterations as u64);
        segrout_obs::counter("simplex.solves").inc();
        segrout_obs::counter("simplex.refactorizations").add(self.refactorizations);

        let snapshot = basis_ok.then(|| Basis {
            basic: self.basic.iter().map(|&c| c as u32).collect(),
            at_upper: self.stat.iter().map(|&s| s == VStat::AtUpper).collect(),
            n_struct: self.n,
        });
        if status != LpStatus::Optimal {
            return (
                LpResult {
                    status,
                    objective: 0.0,
                    values: Vec::new(),
                    iterations: self.iterations,
                },
                snapshot,
            );
        }
        let mut values = vec![0.0; self.n];
        for (j, v) in values.iter_mut().enumerate() {
            *v = match self.stat[j] {
                VStat::AtLower => self.lb[j],
                VStat::AtUpper => self.ub[j],
                VStat::Basic => 0.0, // filled from xb below
            };
        }
        for i in 0..self.m {
            let c = self.basic[i];
            if c < self.n {
                values[c] = self.xb[i];
            }
        }
        let objective = p.objective_value(&values);
        (
            LpResult {
                status,
                objective,
                values,
                iterations: self.iterations,
            },
            snapshot,
        )
    }
}
