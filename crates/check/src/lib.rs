//! # segrout-check
//!
//! The correctness backstop of the `segrout` workspace: the **differential
//! kinds** that pin every fast path to a from-scratch oracle and check the
//! paper's routing model from first principles, and a seeded **differential
//! fuzzer** with case shrinking and a replayable regression corpus.
//!
//! The optimizer stack has three fast paths — the parallel ECMP evaluator,
//! the incremental evaluation engine, and the warm-started revised simplex —
//! whose correctness rests on subtle tie-breaking and floating-point
//! contracts. This crate hunts interaction bugs between them automatically:
//!
//! * [`differential`] is the one checker: scenario kinds (the routing
//!   invariants of a state, incremental probe walks, edge-disable probes and
//!   failure sweeps, the serving session, the optimizers against their
//!   one-matrix reductions and a dense reference greedy) that read their
//!   starting state from a [`Case`], compare every fast path with one oracle
//!   (`Router` on a copy of the network with the dead edges deleted), and
//!   must reproduce their 1-thread bit trace at every thread count. Its
//!   `invariants` kind checks a state against the paper's model (§2):
//!   per-destination SP-DAG acyclicity and shortest-path optimality, ECMP
//!   even splits re-derived independently, flow conservation at every
//!   node, waypoint-segment stitching, non-negative loads and a consistent
//!   MLU; `joint` checks JOINT-Heur's output the same way. The six
//!   differential test suites run the kinds on a fixed table of cases; the
//!   fuzzer runs them on generated and stored ones.
//! * [`Case`] is a self-contained fuzz scenario in a line-oriented text
//!   format (the topology/demand section plus an embedded
//!   `segrout-config v1` block), replayable from `tests/corpus/*.case`.
//!   [`Case::run`] runs the case's kinds, the MCF lower bound on its MLU,
//!   and on tiny instances the MILP oracle.
//! * [`lp_oracle`] is the dense two-phase tableau simplex, the oracle the
//!   revised simplex of `segrout-lp` is checked against: by the LP
//!   differential suite, and by [`Case::run`] on the Joint MILP of tiny
//!   instances.
//! * [`fuzz_campaign`] generates seeded random scenarios (synthetic and
//!   embedded topologies × demand matrices × weight/waypoint perturbations
//!   × thread counts × multi-matrix demand sets × serve-event streams), runs
//!   each, and **shrinks** failures (drop events, matrices, demands and
//!   links, round weights) to minimal reproducers.
//!
//! The cheap in-tree complement — `debug_assertions`-gated hooks at the
//! optimizer commit points — lives in `segrout_core::hooks` so the algorithm
//! crates can call it without a dependency cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod differential;
pub mod fuzz;
pub mod lp_oracle;

pub use case::{Case, CaseOutcome};
pub use fuzz::{fuzz_campaign, FuzzConfig, FuzzFailure, FuzzReport};
