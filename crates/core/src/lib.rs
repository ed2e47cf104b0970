//! # segrout-core
//!
//! The traffic-engineering model of
//! *Traffic Engineering with Joint Link Weight and Segment Optimization*
//! (Parham, Fenz, Süss, Foerster, Schmid — CoNEXT'21), paper §2.
//!
//! A TE instance consists of
//!
//! * a [`Network`] `N = (V, E, c)` — a directed capacitated multigraph,
//! * a [`DemandList`] `D` of `(s, t, d)` demands,
//! * a [`WeightSetting`] `w: E → R+` steering OSPF shortest paths,
//! * optionally a [`WaypointSetting`] `π` assigning up to `W` segment-routing
//!   waypoints to each demand.
//!
//! The central evaluation primitive is the ECMP flow engine ([`ecmp`]): given
//! weights and waypointed demands it computes per-link loads of the induced
//! ECMP flow — flow splits *evenly* over all shortest-path next hops at every
//! node — and the **maximum link utilization** (MLU), the objective every
//! optimizer in this workspace minimizes.
//!
//! [`esflow`] provides the more general *even-split flows* over arbitrary
//! DAGs together with effective capacities (paper Definition 5.1), which the
//! LWO-APX approximation algorithm builds on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod demand;
pub mod ecmp;
pub mod error;
pub mod esflow;
pub mod failure;
pub mod hooks;
pub mod incremental;
pub mod network;
pub mod report;
pub mod rng;
pub mod robust;
pub mod textio;
pub mod waypoints;
pub mod weights;

pub use cost::{fortz_phi, max_link_utilization, utilizations};
pub use demand::{Demand, DemandList};
pub use ecmp::{LoadReport, Router, Segment};
pub use error::TeError;
pub use failure::{
    sweep_failures, FailurePattern, FailureSet, ScenarioOutcome, ScenarioResult, SweepReport,
    WorstCaseCertificate,
};
pub use incremental::{IncrementalEvaluator, Probe};
pub use network::Network;
pub use report::UtilizationReport;
pub use robust::{evaluate_robust, DemandSet, RobustObjective, RobustReport};
pub use textio::{read_config, write_config};
pub use waypoints::WaypointSetting;
pub use weights::WeightSetting;

pub use segrout_graph::{Digraph, EdgeId, NodeId};
