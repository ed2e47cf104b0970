//! # segrout-lp
//!
//! A self-contained linear-programming and mixed-integer-programming solver,
//! standing in for the Gurobi solver the paper used for its OPT / LWO / WPO /
//! Joint formulations.
//!
//! * [`problem`] — model builder: bounded (optionally integer) variables,
//!   sparse linear constraints, min/max objective.
//! * [`simplex`] — the two LP solve entry points, over a **bounded-variable
//!   revised simplex** ([`revised`]): both variable bounds are handled
//!   implicitly (nonbasic-at-lower / nonbasic-at-upper), the basis inverse
//!   is a product-form eta file with periodic refactorization ([`basis`]),
//!   pricing is Dantzig with a Bland anti-cycling fallback, and the ratio
//!   test is a Harris-style two-pass. [`solve_lp`] solves a problem as
//!   built; [`solve_lp_from`] takes overridden bounds, a deadline and a
//!   previous basis snapshot (with its factorization) to warm-start from —
//!   the branch-and-bound driver uses it to start each child from its
//!   parent's basis. A [`Problem`] keeps its column form from its first
//!   solve until it changes, so repeated solves share it. The dense
//!   tableau this crate started with is `segrout_check::lp_oracle` now,
//!   where only tests and `segrout fuzz` reach it.
//! * [`milp`] — best-bound branch-and-bound over the LP relaxation with
//!   closest-to-half branching, feasibility-verified incumbents, parent-basis
//!   warm starts, and node/time limits (mirroring how a commercial solver is
//!   used with a time limit on the paper's Abilene-scale Joint MILP).
//!   [`solve_milp_with`] runs the same search over a node solver passed in,
//!   the seam through which the LP oracle's B&B swaps in the tableau.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basis;
pub mod milp;
pub mod problem;
pub mod revised;
pub mod simplex;

pub use basis::Basis;
pub use milp::{solve_milp, solve_milp_with, MilpOptions, MilpResult, MilpStatus};
pub use problem::{Cmp, Problem, Sense, VarId};
pub use simplex::{solve_lp, solve_lp_from, LpResult, LpStatus};
