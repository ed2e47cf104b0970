//! # segrout-milp
//!
//! Exact LP/MILP formulations of the paper's four optimization problems
//! (provided by the paper's artifact \[18\] and solved there with Gurobi):
//!
//! * [`opt_lp`] — `OPT`: the minimum-MLU multi-commodity flow LP (and the
//!   maximum-concurrent-flow variant used for demand scaling),
//! * [`mod@wpo_ilp`] — `WPO`: optimal waypoint selection under *fixed* weights.
//!   With weights fixed the ECMP splitting of every segment is fixed too, so
//!   the problem reduces to a selection MILP over precomputed per-waypoint
//!   load vectors — equivalent to the paper's "add one equality constraint
//!   per link" reduction from the Joint MILP, but far smaller,
//! * [`mod@joint`] — `Joint` (and `LWO` as its `W = 0` restriction): the
//!   full mixed-integer formulation with integer weight variables, big-M
//!   shortest-path-indicator constraints, exact ECMP even-split flow
//!   coupling, and binary waypoint choice per demand.
//!
//! Exactness of the ECMP coupling: with integer weights, an edge is on the
//! shortest-path DAG iff its distance slack is zero, and slack is forced
//! `≥ 1` on non-DAG edges; flows of active edges at a node are tied to a
//! common per-node share variable. A standard induction along flow-carrying
//! nodes shows distance variables then equal true shortest distances, making
//! the model exact (see `joint` module docs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod joint;
pub mod opt_lp;
pub mod wpo_ilp;

pub use joint::{
    joint_milp, joint_milp_robust, joint_milp_with, lwo_ilp, lwo_ilp_robust, JointMilpOptions,
    JointMilpOutcome,
};
pub use opt_lp::{max_concurrent_lp, opt_mlu_lp, OptLpOutcome};
pub use wpo_ilp::{wpo_ilp, WpoIlpOptions, WpoIlpOutcome};
