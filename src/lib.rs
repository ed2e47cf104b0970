//! # segrout
//!
//! Umbrella crate for the `segrout` workspace — a production-quality Rust
//! implementation of *Traffic Engineering with Joint Link Weight and Segment
//! Optimization* (Parham, Fenz, Süss, Foerster, Schmid — CoNEXT 2021).
//!
//! Everything is re-exported here so downstream users can depend on a
//! single crate:
//!
//! ```
//! use segrout::core::{DemandList, Network, NodeId};
//! use segrout::algos::{joint_heur, JointHeurConfig};
//!
//! let mut b = Network::builder(3);
//! b.bilink(NodeId(0), NodeId(1), 10.0);
//! b.bilink(NodeId(1), NodeId(2), 10.0);
//! b.bilink(NodeId(0), NodeId(2), 1.0);
//! let net = b.build().unwrap();
//!
//! let mut demands = DemandList::new();
//! demands.push(NodeId(0), NodeId(2), 5.0);
//!
//! let result = joint_heur(&net, &demands, &JointHeurConfig::default()).unwrap();
//! assert!(result.mlu <= 1.0 + 1e-9); // the detour fits
//! ```
//!
//! | module | contents |
//! |---|---|
//! | [`graph`] | directed multigraph, Dijkstra/SP-DAGs, max-flow, decompositions |
//! | [`core`]  | the TE model: networks, demands, weights, waypoints, ECMP engine |
//! | [`algos`] | LWO-APX, HeurOSPF, GreedyWPO, JOINT-Heur, MCF FPTAS |
//! | [`lp`]    | simplex + branch-and-bound MILP |
//! | [`milp`]  | OPT/LWO/WPO/Joint formulations |
//! | [`topo`]  | embedded backbones, SNDLib/GraphML parsers, generators |
//! | [`traffic`] | MCF-synthetic and gravity demand matrices |
//! | [`sim`]   | hash-based ECMP stream simulator |
//! | [`instances`] | the paper's worst-case constructions |
//! | [`obs`]   | structured events, span timers, metrics registry, JSONL telemetry |
//! | [`par`]   | deterministic worker pool: chunked `par_map`, results in index order |
//! | [`check`] | differential kinds, routing invariants, fuzzer, shrinking corpus |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use segrout_algos as algos;
pub use segrout_check as check;
pub use segrout_core as core;
pub use segrout_graph as graph;
pub use segrout_instances as instances;
pub use segrout_lp as lp;
pub use segrout_milp as milp;
pub use segrout_obs as obs;
pub use segrout_par as par;
pub use segrout_sim as sim;
pub use segrout_topo as topo;
pub use segrout_traffic as traffic;
