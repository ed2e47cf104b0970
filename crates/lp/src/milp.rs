//! Branch-and-bound mixed-integer solver over the LP relaxation.
//!
//! Strategy: best-bound node selection, closest-to-half fractional
//! branching, feasibility-verified incumbents, optional warm incumbent (the
//! TE heuristics provide excellent starting solutions for the Joint MILP),
//! parent-basis warm starts for the child relaxations, and node/time limits.
//! With the limits disabled the solver is exact; with limits it reports the
//! best incumbent plus a global dual bound — exactly how the paper's Gurobi
//! runs on Abilene-scale Joint instances behave in practice.
//!
//! Every candidate incumbent is re-verified with [`Problem::is_feasible`]
//! before acceptance: the relaxation is integral only up to `INT_TOL`, and
//! rounding each integer variable individually can violate a tight equality
//! row. A rounded point that fails verification is never accepted (and never
//! prunes); instead the node is split around the offending near-integral
//! variable so both children exclude the current relaxation point.

use crate::basis::Basis;
use crate::problem::{Problem, Sense};
use crate::simplex::{
    solve_lp_from_basis, solve_lp_revised, solve_lp_with_engine, LpEngine, LpResult, LpStatus,
};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Integrality tolerance: a relaxation value within this distance of an
/// integer counts as integral.
const INT_TOL: f64 = 1e-6;

/// Feasibility tolerance for accepting incumbents (warm starts and rounded
/// relaxation points alike).
const INC_FEAS_TOL: f64 = 1e-6;

/// Options controlling the branch-and-bound search.
#[derive(Clone, Debug)]
pub struct MilpOptions {
    /// Maximum number of explored nodes (LP solves).
    pub node_limit: usize,
    /// Wall-clock limit.
    pub time_limit: Duration,
    /// Optional warm-start incumbent (a feasible point of the problem); its
    /// objective is used for pruning from the first node on.
    pub warm_start: Option<Vec<f64>>,
    /// Relative optimality gap at which the search stops early.
    pub rel_gap: f64,
    /// LP engine used for the node relaxations. The default revised engine
    /// warm-starts every child from its parent's final basis; the tableau
    /// engine always solves from scratch (kept for differential testing).
    pub engine: LpEngine,
}

impl Default for MilpOptions {
    fn default() -> Self {
        Self {
            node_limit: 100_000,
            time_limit: Duration::from_secs(60),
            warm_start: None,
            rel_gap: 1e-6,
            engine: LpEngine::default(),
        }
    }
}

/// Termination status of the MILP search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MilpStatus {
    /// Search tree exhausted (or gap closed): the incumbent is optimal.
    Optimal,
    /// No feasible integer point exists.
    Infeasible,
    /// A limit was hit; the incumbent (if any) is feasible but possibly
    /// suboptimal.
    LimitReached,
    /// The relaxation is unbounded.
    Unbounded,
}

/// Result of a MILP solve.
#[derive(Clone, Debug)]
pub struct MilpResult {
    /// Termination status.
    pub status: MilpStatus,
    /// Best integer-feasible objective found (in the problem's sense).
    pub objective: Option<f64>,
    /// Best integer-feasible point found.
    pub values: Option<Vec<f64>>,
    /// Global dual bound on the optimum.
    pub bound: f64,
    /// Number of branch-and-bound nodes explored.
    pub nodes: usize,
}

struct Node {
    /// Priority: relaxation bound converted so that "larger is better".
    priority: f64,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Final basis of the parent relaxation, shared by both children: the
    /// child differs from the parent by a single bound, so the revised
    /// engine restores feasibility from it in a handful of pivots.
    basis: Option<Rc<Basis>>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority
            .partial_cmp(&other.priority)
            .unwrap_or(Ordering::Equal)
    }
}

/// Selects the branch variable: the integer variable whose fractional part
/// is closest to one half (most "undecided"), ties broken by lowest index.
/// Returns `None` when every integer variable is integral within
/// [`INT_TOL`].
fn select_branch_var(values: &[f64], integrality: &[bool]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64, f64)> = None; // (index, value, |frac - 0.5|)
    for (j, &is_int) in integrality.iter().enumerate() {
        if !is_int {
            continue;
        }
        let v = values[j];
        let frac = (v - v.round()).abs();
        if frac <= INT_TOL {
            continue;
        }
        let dist = (frac - 0.5).abs();
        if best.is_none_or(|(_, _, d)| dist < d) {
            best = Some((j, v, dist));
        }
    }
    best.map(|(j, v, _)| (j, v))
}

/// Dispatches a node relaxation to the configured engine, warm-starting the
/// revised engine from `basis` when available.
fn solve_relaxation(
    p: &Problem,
    lower: &[f64],
    upper: &[f64],
    deadline: Option<Instant>,
    engine: LpEngine,
    basis: Option<&Basis>,
) -> (LpResult, Option<Basis>) {
    match engine {
        LpEngine::Revised => match basis {
            Some(b) => {
                segrout_obs::counter("milp.nodes_warm_started").inc();
                solve_lp_from_basis(p, lower, upper, deadline, b)
            }
            None => solve_lp_revised(p, lower, upper, deadline),
        },
        LpEngine::Tableau => (
            solve_lp_with_engine(p, lower, upper, deadline, LpEngine::Tableau),
            None,
        ),
    }
}

/// Solves a mixed-integer program by branch-and-bound.
pub fn solve_milp(p: &Problem, options: &MilpOptions) -> MilpResult {
    let start = Instant::now();
    // Every LP solve (including the root) respects the overall time budget,
    // so one huge relaxation cannot overshoot it.
    let deadline = start.checked_add(options.time_limit);
    let minimize = p.sense() == Sense::Minimize;
    // `better(a, b)`: objective a strictly improves on b.
    let better = |a: f64, b: f64| {
        if minimize {
            a < b - 1e-12
        } else {
            a > b + 1e-12
        }
    };

    let mut incumbent_obj: Option<f64> = None;
    let mut incumbent: Option<Vec<f64>> = None;
    if let Some(ws) = &options.warm_start {
        if p.is_feasible(ws, INC_FEAS_TOL) {
            incumbent_obj = Some(p.objective_value(ws));
            incumbent = Some(ws.clone());
            // Flight recorder: for milp.* points (phi, mlu) carries
            // (global dual bound, incumbent objective).
            segrout_obs::trace_point(
                "milp.incumbent",
                0,
                f64::NAN,
                incumbent_obj.expect("just set"),
            );
        }
    }

    let (root, root_basis) = solve_relaxation(
        p,
        p.lower_bounds(),
        p.upper_bounds(),
        deadline,
        options.engine,
        None,
    );
    match root.status {
        LpStatus::IterLimit => {
            // Could not even bound the root in time: report the warm-start
            // incumbent (if any) with a trivial bound.
            return MilpResult {
                status: MilpStatus::LimitReached,
                objective: incumbent_obj,
                values: incumbent,
                bound: if minimize {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                },
                nodes: 1,
            };
        }
        LpStatus::Infeasible => {
            return MilpResult {
                status: if incumbent.is_some() {
                    // A warm start cannot be feasible for an infeasible
                    // problem (is_feasible checked), so this is defensive.
                    MilpStatus::Optimal
                } else {
                    MilpStatus::Infeasible
                },
                objective: incumbent_obj,
                values: incumbent,
                bound: if minimize {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                },
                nodes: 1,
            };
        }
        LpStatus::Unbounded => {
            return MilpResult {
                status: MilpStatus::Unbounded,
                objective: incumbent_obj,
                values: incumbent,
                bound: if minimize {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                },
                nodes: 1,
            };
        }
        LpStatus::Optimal => {}
    }

    let mut heap: BinaryHeap<Node> = BinaryHeap::new();
    let prio = |obj: f64| if minimize { -obj } else { obj };
    heap.push(Node {
        priority: prio(root.objective),
        lower: p.lower_bounds().to_vec(),
        upper: p.upper_bounds().to_vec(),
        basis: root_basis.map(Rc::new),
    });

    let mut nodes = 0usize;
    let mut limit_hit = false;
    let mut bound = root.objective;
    let node_counter = segrout_obs::counter("milp.nodes");

    while let Some(node) = heap.pop() {
        // The heap is ordered best-bound-first, so the popped node's bound is
        // the global dual bound.
        bound = if minimize {
            -node.priority
        } else {
            node.priority
        };
        // Node milestone for the flight recorder: the (bound, incumbent)
        // pair every 64 explored nodes bounds the trace-buffer growth on
        // large searches.
        if nodes.is_multiple_of(64) {
            segrout_obs::trace_point(
                "milp.node",
                nodes as u64,
                bound,
                incumbent_obj.unwrap_or(f64::NAN),
            );
        }
        if let Some(inc) = incumbent_obj {
            // Prune: node cannot improve the incumbent.
            if !better(bound, inc) {
                // Best-bound search: nothing further can improve either.
                return MilpResult {
                    status: MilpStatus::Optimal,
                    objective: incumbent_obj,
                    values: incumbent,
                    bound: inc,
                    nodes,
                };
            }
            let gap = (inc - bound).abs() / (1e-9 + inc.abs());
            if gap <= options.rel_gap {
                return MilpResult {
                    status: MilpStatus::Optimal,
                    objective: incumbent_obj,
                    values: incumbent,
                    bound,
                    nodes,
                };
            }
        }
        if nodes >= options.node_limit || start.elapsed() >= options.time_limit {
            limit_hit = true;
            break;
        }
        nodes += 1;
        node_counter.inc();

        let (relax, relax_basis) = solve_relaxation(
            p,
            &node.lower,
            &node.upper,
            deadline,
            options.engine,
            node.basis.as_deref(),
        );
        match relax.status {
            LpStatus::Infeasible => continue,
            LpStatus::IterLimit => {
                // Treat as unexplorable: drop the node (keeps soundness of
                // the incumbent; the bound becomes heuristic). Extremely
                // rare given the generous iteration limits.
                limit_hit = true;
                continue;
            }
            LpStatus::Unbounded => {
                return MilpResult {
                    status: MilpStatus::Unbounded,
                    objective: incumbent_obj,
                    values: incumbent,
                    bound: if minimize {
                        f64::NEG_INFINITY
                    } else {
                        f64::INFINITY
                    },
                    nodes,
                };
            }
            LpStatus::Optimal => {}
        }
        if let Some(inc) = incumbent_obj {
            if !better(relax.objective, inc) {
                continue; // pruned by bound
            }
        }

        let branch = select_branch_var(&relax.values, p.integrality());
        let (j, v) = match branch {
            Some(jv) => jv,
            None => {
                // Integer feasible up to INT_TOL: candidate incumbent —
                // but only after rounding AND re-verifying. Rounding each
                // integer variable by up to INT_TOL can break a tight
                // equality row, and an unverified incumbent would both
                // prune the true optimum and be returned as Optimal.
                let rounded: Vec<f64> = relax
                    .values
                    .iter()
                    .zip(p.integrality())
                    .map(|(&v, &is_int)| if is_int { v.round() } else { v })
                    .collect();
                if p.is_feasible(&rounded, INC_FEAS_TOL) {
                    let obj = p.objective_value(&rounded);
                    if incumbent_obj.is_none_or(|inc| better(obj, inc)) {
                        incumbent_obj = Some(obj);
                        incumbent = Some(rounded);
                        segrout_obs::trace_point("milp.incumbent", nodes as u64, bound, obj);
                    }
                    continue;
                }
                // Rounding broke a constraint. Split the node around a
                // near-integral variable so both children exclude the
                // current relaxation point; the continuous variables then
                // re-optimize against the pinned integer side.
                match fallback_branch_var(&relax.values, p.integrality(), &node.lower, &node.upper)
                {
                    Some(jv) => jv,
                    None => {
                        // Every integer variable is fixed: no split can
                        // make progress. Dropping the node silently would
                        // let the search claim optimality, so record the
                        // limit instead.
                        limit_hit = true;
                        continue;
                    }
                }
            }
        };

        // Split at (floor(v), ceil(v)) for a fractional v; for the
        // near-integral fallback (v ≈ k) split at (k-1, k) or (k, k+1),
        // whichever keeps both children inside the node's bounds.
        let k = v.round();
        let frac = (v - k).abs();
        let (down_ub, up_lb) = if frac > INT_TOL {
            (v.floor(), v.ceil())
        } else if v < k || (v == k && node.lower[j] < k - INT_TOL) {
            (k - 1.0, k)
        } else {
            (k, k + 1.0)
        };
        let parent_basis = relax_basis.map(Rc::new);
        if down_ub >= node.lower[j] - INT_TOL {
            let mut up = node.upper.clone();
            up[j] = down_ub;
            heap.push(Node {
                priority: prio(relax.objective),
                lower: node.lower.clone(),
                upper: up,
                basis: parent_basis.clone(),
            });
        }
        if up_lb <= node.upper[j] + INT_TOL {
            let mut lo = node.lower.clone();
            lo[j] = up_lb;
            heap.push(Node {
                priority: prio(relax.objective),
                lower: lo,
                upper: node.upper.clone(),
                basis: parent_basis,
            });
        }
    }

    let status = if limit_hit || !heap.is_empty() {
        MilpStatus::LimitReached
    } else if incumbent.is_some() {
        MilpStatus::Optimal
    } else {
        MilpStatus::Infeasible
    };
    if status == MilpStatus::Optimal {
        bound = incumbent_obj.unwrap_or(bound);
    }
    MilpResult {
        status,
        objective: incumbent_obj,
        values: incumbent,
        bound,
        nodes,
    }
}

/// Picks the variable to split on when the relaxation is integral within
/// [`INT_TOL`] but its rounding is infeasible: the not-yet-fixed integer
/// variable with the largest residual fractionality (ties: lowest index).
/// Returns `None` when every integer variable is already fixed.
fn fallback_branch_var(
    values: &[f64],
    integrality: &[bool],
    lower: &[f64],
    upper: &[f64],
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64, f64)> = None; // (index, value, frac)
    for (j, &is_int) in integrality.iter().enumerate() {
        if !is_int || upper[j] - lower[j] <= INT_TOL {
            continue;
        }
        let v = values[j];
        let frac = (v - v.round()).abs();
        if best.is_none_or(|(_, _, f)| frac > f) {
            best = Some((j, v, frac));
        }
    }
    best.map(|(j, v, _)| (j, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Cmp, Problem, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// Runs a case against B&B over both LP engines.
    fn for_both(f: impl Fn(LpEngine)) {
        for engine in [LpEngine::Revised, LpEngine::Tableau] {
            f(engine);
        }
    }

    fn opts(engine: LpEngine) -> MilpOptions {
        MilpOptions {
            engine,
            ..Default::default()
        }
    }

    #[test]
    fn knapsack() {
        // max 8a + 11b + 6c + 4d st 5a + 7b + 4c + 3d <= 14, binary.
        // Optimum: b + c + d = 21 (weight 14).
        for_both(|engine| {
            let mut p = Problem::new(Sense::Maximize);
            let a = p.add_bin_var("a", 8.0);
            let b = p.add_bin_var("b", 11.0);
            let c = p.add_bin_var("c", 6.0);
            let d = p.add_bin_var("d", 4.0);
            p.add_constraint(vec![(a, 5.0), (b, 7.0), (c, 4.0), (d, 3.0)], Cmp::Le, 14.0);
            let r = solve_milp(&p, &opts(engine));
            assert_eq!(r.status, MilpStatus::Optimal, "{engine:?}");
            assert_close(r.objective.unwrap(), 21.0);
            let v = r.values.unwrap();
            assert_close(v[0], 0.0);
            assert_close(v[1], 1.0);
        });
    }

    #[test]
    fn integer_rounding_is_not_lp_rounding() {
        // max y st 2y <= 7 -> LP gives 3.5, MILP must give 3.
        for_both(|engine| {
            let mut p = Problem::new(Sense::Maximize);
            let y = p.add_int_var("y", 0.0, 100.0, 1.0);
            p.add_constraint(vec![(y, 2.0)], Cmp::Le, 7.0);
            let r = solve_milp(&p, &opts(engine));
            assert_eq!(r.status, MilpStatus::Optimal, "{engine:?}");
            assert_close(r.objective.unwrap(), 3.0);
        });
    }

    #[test]
    fn infeasible_integer_program() {
        // 0.4 <= x <= 0.6 has no integer point.
        for_both(|engine| {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_int_var("x", 0.0, 1.0, 1.0);
            p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 0.4);
            p.add_constraint(vec![(x, 1.0)], Cmp::Le, 0.6);
            let r = solve_milp(&p, &opts(engine));
            assert_eq!(r.status, MilpStatus::Infeasible, "{engine:?}");
            assert!(r.values.is_none());
        });
    }

    #[test]
    fn mixed_integer_continuous() {
        // min x + y, x integer, x + 2y >= 5.5, y <= 1.5:
        // x = 3, y = 1.25 -> obj 4.25 (x = 2 forces y > 1.5, infeasible).
        for_both(|engine| {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_int_var("x", 0.0, 100.0, 1.0);
            let y = p.add_var("y", 0.0, 1.5, 1.0);
            p.add_constraint(vec![(x, 1.0), (y, 2.0)], Cmp::Ge, 5.5);
            let r = solve_milp(&p, &opts(engine));
            assert_eq!(r.status, MilpStatus::Optimal, "{engine:?}");
            assert_close(r.objective.unwrap(), 4.25);
        });
    }

    #[test]
    fn warm_start_is_used_and_optimality_still_proven() {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_bin_var("a", 5.0);
        let b = p.add_bin_var("b", 4.0);
        p.add_constraint(vec![(a, 3.0), (b, 2.0)], Cmp::Le, 4.0);
        let opts = MilpOptions {
            warm_start: Some(vec![0.0, 1.0]), // feasible, obj 4
            ..Default::default()
        };
        let r = solve_milp(&p, &opts);
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_close(r.objective.unwrap(), 5.0); // a=1 beats the warm start
    }

    #[test]
    fn infeasible_warm_start_is_rejected() {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_bin_var("a", 1.0);
        p.add_constraint(vec![(a, 1.0)], Cmp::Le, 0.0);
        let opts = MilpOptions {
            warm_start: Some(vec![1.0]), // violates the constraint
            ..Default::default()
        };
        let r = solve_milp(&p, &opts);
        assert_close(r.objective.unwrap(), 0.0);
    }

    #[test]
    fn node_limit_returns_incumbent() {
        // A problem needing some branching; with node_limit 1 we may only
        // have the root: status LimitReached but sound output.
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..6)
            .map(|i| p.add_bin_var(format!("v{i}"), (i + 1) as f64))
            .collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 2.0)).collect();
        p.add_constraint(terms, Cmp::Le, 7.0);
        let opts = MilpOptions {
            node_limit: 1,
            ..Default::default()
        };
        let r = solve_milp(&p, &opts);
        assert_eq!(r.status, MilpStatus::LimitReached);
        // Dual bound must be valid: >= any feasible objective (maximize).
        assert!(r.bound >= 15.0 - 1e-6);
    }

    #[test]
    fn pure_lp_passes_through() {
        for_both(|engine| {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_var("x", 1.0, 3.0, 2.0);
            p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
            let r = solve_milp(&p, &opts(engine));
            assert_eq!(r.status, MilpStatus::Optimal, "{engine:?}");
            assert_close(r.objective.unwrap(), 4.0);
        });
    }

    #[test]
    fn equality_milp() {
        // x + y = 5, x,y integer, min 3x + y -> x = 0, y = 5, obj 5.
        for_both(|engine| {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_int_var("x", 0.0, 10.0, 3.0);
            let y = p.add_int_var("y", 0.0, 10.0, 1.0);
            p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 5.0);
            let r = solve_milp(&p, &opts(engine));
            assert_close(r.objective.unwrap(), 5.0);
            let v = r.values.unwrap();
            assert_close(v[0], 0.0);
            assert_close(v[1], 5.0);
        });
    }

    /// Regression (unsound incumbent): the relaxation optimum is integral
    /// within `INT_TOL`, but rounding it violates a tight `Eq` row by more
    /// than the feasibility tolerance. The old driver accepted the rounded
    /// point as an `Optimal` incumbent; the fixed driver must re-verify with
    /// `is_feasible`, reject it, and prove the program `Infeasible`.
    #[test]
    fn rounded_incumbent_violating_tight_eq_row_is_rejected() {
        const DELTA: f64 = 9e-7; // below INT_TOL, but 2*DELTA > INC_FEAS_TOL
        for_both(|engine| {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_int_var("x", 0.0, 1.0, 0.0);
            let z = p.add_int_var("z", 0.0, 1.0, 0.0);
            // x + z = 1 and x - z = 1 - 2*DELTA intersect only at the
            // fractional point (1 - DELTA, DELTA): no integer point exists.
            p.add_constraint(vec![(x, 1.0), (z, 1.0)], Cmp::Eq, 1.0);
            p.add_constraint(vec![(x, 1.0), (z, -1.0)], Cmp::Eq, 1.0 - 2.0 * DELTA);
            let r = solve_milp(&p, &opts(engine));
            // The LP point (1-DELTA, DELTA) is integral within INT_TOL, and
            // its rounding (1, 0) violates row 2 by 2*DELTA > 1e-6. Any
            // returned incumbent must satisfy the problem; here none can.
            if let Some(v) = &r.values {
                assert!(
                    p.is_feasible(v, INC_FEAS_TOL),
                    "{engine:?}: returned an infeasible incumbent {v:?}"
                );
            }
            assert_ne!(
                r.status,
                MilpStatus::Optimal,
                "{engine:?}: claimed optimality of an infeasible program"
            );
        });
    }

    /// Regression (broken branching rule): the old selector required
    /// `frac > best_frac` before comparing distance to one half, so after
    /// seeing frac 0.9 the most fractional variable (frac 0.5) was never
    /// selected. Pin the pure closest-to-half rule.
    #[test]
    fn branching_picks_closest_to_half() {
        let integrality = [true, true, true];
        // Fractional parts 0.9, 0.5, 0.2 -> must pick index 1.
        let values = [3.9, 2.5, 7.2];
        let (j, v) = select_branch_var(&values, &integrality).expect("fractional");
        assert_eq!(j, 1);
        assert_close(v, 2.5);

        // Continuous variables are never selected even when fractional.
        let (j, _) = select_branch_var(&[0.5, 0.49], &[false, true]).expect("fractional");
        assert_eq!(j, 1);

        // Ties go to the lowest index.
        let (j, _) = select_branch_var(&[1.7, 2.3], &[true, true]).expect("fractional");
        assert_eq!(j, 0);

        // Integral vectors yield no branch variable.
        assert!(select_branch_var(&[1.0, 2.0 + 1e-9], &[true, true]).is_none());
    }

    /// The fallback splitter skips fixed variables and prefers the largest
    /// residual fractionality.
    #[test]
    fn fallback_branching_skips_fixed_vars() {
        let integrality = [true, true];
        let lower = [1.0, 0.0];
        let upper = [1.0, 5.0]; // variable 0 is fixed
        let picked = fallback_branch_var(&[1.0, 3.0 + 5e-7], &integrality, &lower, &upper);
        assert_eq!(picked.map(|(j, _)| j), Some(1));
        // All fixed: no split possible.
        assert!(fallback_branch_var(&[1.0, 3.0], &integrality, &[1.0, 3.0], &[1.0, 3.0]).is_none());
    }
}
