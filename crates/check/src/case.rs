//! Self-contained fuzz scenarios with a replayable text format.
//!
//! A [`Case`] bundles everything one differential check needs — topology,
//! demands, configuration, and execution knobs — in a line-oriented format
//! that extends the `segrout-config v1` grammar with topology directives:
//!
//! ```text
//! # segrout-case v1
//! seed 42
//! threads 4
//! pipeline 1
//! nodes 4
//! link 0 1 100
//! demand 0 3 2.5
//! matrix 1.25          # extra traffic matrix: one size per demand
//! event scale 0 1.5    # serve-event stream: demand scaling, ...
//! event down 2         # ... link flaps, ...
//! event cap 1 50       # ... capacity changes, ...
//! event noop           # ... keep-alives, and
//! event matrix 0 3 2.5 # full matrix swaps (src dst size triples)
//! # segrout-config v1
//! weight 0 2
//! waypoint 0 2
//! ```
//!
//! The `weight`/`waypoint` section is parsed by the canonical
//! `segrout_core::read_config` so corpus files stay hand-editable with the
//! same rules as deployed configurations.

use crate::differential::{
    assert_mcf_bound, disable, guard, invariants, joint, joint_cfg, ospf, ospf_cfg, reductions,
    robust_joint, run_case_kind, serve, sweep, walk, wpo, Kind,
};
use crate::lp_oracle;
use segrout_algos::{joint_heur, joint_heur_robust, JointHeurResult, ServeEvent};
use segrout_core::{
    read_config, Demand, DemandList, DemandSet, Network, RobustObjective, Router, TeError,
    WaypointSetting, WeightSetting,
};
use segrout_graph::{EdgeId, NodeId};
use segrout_lp::{MilpOptions, MilpStatus};
use segrout_milp::{
    joint_milp, joint_milp_robust, joint_milp_with, JointMilpOptions, JointMilpOutcome,
};
use std::fmt;
use std::str::{FromStr, SplitWhitespace};
use std::time::Duration;

/// Result of running one case.
#[derive(Clone, Debug)]
pub enum CaseOutcome {
    /// Every enabled check passed.
    Pass {
        /// Number of individual checks performed.
        checks: usize,
    },
    /// The state is not evaluable (unroutable, invalid weights, solver
    /// limit, ...) — a property of the input, **not** a failure.
    Error(String),
    /// A check failed, or the pipeline panicked (recorded by the fuzzer's
    /// catch-unwind shim).
    Panic(String),
}

impl CaseOutcome {
    /// `true` for the outcomes that indicate a genuine bug.
    pub fn is_failure(&self) -> bool {
        matches!(self, Self::Panic(_))
    }
}

impl fmt::Display for CaseOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Pass { checks } => write!(f, "pass ({checks} checks)"),
            Self::Error(e) => write!(f, "benign error: {e}"),
            Self::Panic(msg) => write!(f, "panic: {msg}"),
        }
    }
}

/// One self-contained differential scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Case {
    /// Node count of the topology.
    pub nodes: usize,
    /// Directed links `(src, dst, capacity)` in edge-index order.
    pub links: Vec<(u32, u32, f64)>,
    /// Demands `(src, dst, size)` — the base traffic matrix.
    pub demands: Vec<(u32, u32, f64)>,
    /// Additional traffic matrices for the robust multi-matrix kinds, each a
    /// size row over the **same pairs** as `demands` (aligned by
    /// construction). Empty for classic single-matrix cases.
    pub extra_matrices: Vec<Vec<f64>>,
    /// Serve-event stream of the `serve` kind: each event is fed to a
    /// `ServeSession` and the post-event state is checked against the
    /// oracle. Out-of-range indices and disconnecting failures are **legal**
    /// inputs here — the daemon must answer them with an error reply and
    /// untouched state, not die.
    pub events: Vec<ServeEvent>,
    /// Link weights, one per link.
    pub weights: Vec<f64>,
    /// Waypoint rows, one per demand (possibly empty).
    pub waypoints: Vec<Vec<u32>>,
    /// Worker-thread count the MCF bound and the MILP oracle run under, and
    /// at which every kind reruns against its 1-thread trace.
    pub threads: usize,
    /// Whether the optimizer kinds (`ospf`, `wpo`, `joint`) and the MILP
    /// oracle on tiny instances run on top of the state's checks.
    pub pipeline: bool,
    /// Seed of the `walk` kind's probes and of every HeurOSPF search.
    pub seed: u64,
}

/// Tolerance of the MILP oracle's optimality sandwiches.
const TOL: f64 = 1e-6;

/// The next token of a line as a number.
fn num(parts: &mut SplitWhitespace<'_>, lineno: usize, what: &str) -> Result<f64, TeError> {
    parts
        .next()
        .and_then(|s| s.parse::<f64>().ok())
        .ok_or_else(|| TeError::InvalidWaypoints(format!("line {}: needs {what}", lineno + 1)))
}

/// The next token of a line as a non-negative integer: a node, thread,
/// edge or index field, where `2.9` or `-1` is an error and not a cast.
fn int<T: FromStr>(
    parts: &mut SplitWhitespace<'_>,
    lineno: usize,
    what: &str,
) -> Result<T, TeError> {
    let line = lineno + 1;
    let tok = parts
        .next()
        .ok_or_else(|| TeError::InvalidWaypoints(format!("line {line}: needs {what}")))?;
    tok.parse().map_err(|_| {
        TeError::InvalidWaypoints(format!(
            "line {line}: {what} must be a non-negative integer, not '{tok}'"
        ))
    })
}

/// The next token of a line as a `0` or `1` switch.
fn flag(parts: &mut SplitWhitespace<'_>, lineno: usize) -> Result<bool, TeError> {
    match int::<u8>(parts, lineno, "0 or 1")? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(TeError::InvalidWaypoints(format!(
            "line {}: needs 0 or 1",
            lineno + 1
        ))),
    }
}

impl Case {
    /// Builds the network described by the topology section.
    ///
    /// # Errors
    /// Rejects out-of-range endpoints, self-loops and invalid capacities.
    pub fn network(&self) -> Result<Network, TeError> {
        let mut b = Network::builder(self.nodes);
        for &(u, v, cap) in &self.links {
            if u as usize >= self.nodes || v as usize >= self.nodes {
                return Err(TeError::InvalidWaypoints(format!(
                    "link {u} -> {v} out of range for {} nodes",
                    self.nodes
                )));
            }
            if u == v {
                return Err(TeError::InvalidWaypoints(format!(
                    "link {u} -> {v} is a self-loop"
                )));
            }
            b.link(NodeId(u), NodeId(v), cap);
        }
        b.build()
    }

    /// Builds the demand list described by the demand section.
    ///
    /// # Errors
    /// Rejects out-of-range or equal endpoints and invalid sizes.
    pub fn demand_list(&self) -> Result<DemandList, TeError> {
        let mut d = Vec::new();
        for &(s, t, size) in &self.demands {
            if s as usize >= self.nodes || t as usize >= self.nodes {
                return Err(TeError::InvalidWaypoints(format!(
                    "demand {s} -> {t} out of range for {} nodes",
                    self.nodes
                )));
            }
            if s == t {
                return Err(TeError::InvalidWaypoints(format!(
                    "demand {s} -> {t} needs distinct endpoints"
                )));
            }
            d.push(Demand::new(NodeId(s), NodeId(t), size));
        }
        DemandList::from_vec(d)
    }

    /// Builds the full multi-matrix [`DemandSet`]: the base matrix (`m0`)
    /// plus one matrix per `matrix` row (`m1`, `m2`, ...), all sharing the
    /// base's pair list.
    ///
    /// # Errors
    /// Rejects size-count mismatches and non-positive or non-finite sizes.
    pub fn demand_set(&self) -> Result<DemandSet, TeError> {
        let base = self.demand_list()?;
        let mut set = DemandSet::new();
        set.push("m0", base);
        for (j, row) in self.extra_matrices.iter().enumerate() {
            if row.len() != self.demands.len() {
                return Err(TeError::InvalidWaypoints(format!(
                    "matrix {j} has {} sizes for {} demands",
                    row.len(),
                    self.demands.len()
                )));
            }
            let mut d = DemandList::new();
            for (i, (&(s, t, _), &size)) in self.demands.iter().zip(row).enumerate() {
                if !(size.is_finite() && size > 0.0) {
                    return Err(TeError::InvalidDemand {
                        index: i,
                        value: size,
                    });
                }
                d.push(NodeId(s), NodeId(t), size);
            }
            set.push(format!("m{}", j + 1), d);
        }
        Ok(set)
    }

    fn weight_setting(&self, net: &Network) -> Result<WeightSetting, TeError> {
        WeightSetting::new(net, self.weights.clone())
    }

    pub(crate) fn waypoint_setting(&self) -> Result<WaypointSetting, TeError> {
        if self.waypoints.len() != self.demands.len() {
            return Err(TeError::InvalidWaypoints(format!(
                "{} waypoint rows for {} demands",
                self.waypoints.len(),
                self.demands.len()
            )));
        }
        let mut wp = WaypointSetting::none(self.demands.len());
        for (i, row) in self.waypoints.iter().enumerate() {
            if !row.is_empty() {
                wp.set(i, row.iter().map(|&v| NodeId(v)).collect());
            }
        }
        Ok(wp)
    }

    /// Serializes the case to its text format. The output round-trips
    /// bit-exactly through [`Case::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = String::from("# segrout-case v1\n");
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("threads {}\n", self.threads));
        out.push_str(&format!("pipeline {}\n", u8::from(self.pipeline)));
        out.push_str(&format!("nodes {}\n", self.nodes));
        for &(u, v, cap) in &self.links {
            out.push_str(&format!("link {u} {v} {cap}\n"));
        }
        for &(s, t, size) in &self.demands {
            out.push_str(&format!("demand {s} {t} {size}\n"));
        }
        for row in &self.extra_matrices {
            out.push_str("matrix");
            for s in row {
                out.push_str(&format!(" {s}"));
            }
            out.push('\n');
        }
        for event in &self.events {
            match event {
                ServeEvent::Noop => out.push_str("event noop\n"),
                ServeEvent::DemandScale { index, factor } => {
                    out.push_str(&format!("event scale {index} {factor}\n"));
                }
                ServeEvent::LinkDown { edge } => {
                    out.push_str(&format!("event down {}\n", edge.0));
                }
                ServeEvent::LinkUp { edge } => {
                    out.push_str(&format!("event up {}\n", edge.0));
                }
                ServeEvent::Capacity { edge, capacity } => {
                    out.push_str(&format!("event cap {} {capacity}\n", edge.0));
                }
                ServeEvent::DemandMatrix { demands } => {
                    out.push_str("event matrix");
                    for (s, t, size) in demands {
                        out.push_str(&format!(" {} {} {size}", s.0, t.0));
                    }
                    out.push('\n');
                }
            }
        }
        out.push_str("# segrout-config v1\n");
        for (e, w) in self.weights.iter().enumerate() {
            out.push_str(&format!("weight {e} {w}\n"));
        }
        for (i, row) in self.waypoints.iter().enumerate() {
            if !row.is_empty() {
                out.push_str(&format!(
                    "waypoint {i}{}\n",
                    row.iter().map(|v| format!(" {v}")).collect::<String>()
                ));
            }
        }
        out
    }

    /// Parses a case from its text format. `weight` and `waypoint` lines are
    /// handed to the canonical `segrout_core::read_config` parser.
    ///
    /// # Errors
    /// Reports malformed lines with their line numbers.
    pub fn from_text(text: &str) -> Result<Self, TeError> {
        let mut case = Case {
            nodes: 0,
            links: Vec::new(),
            demands: Vec::new(),
            extra_matrices: Vec::new(),
            events: Vec::new(),
            weights: Vec::new(),
            waypoints: Vec::new(),
            threads: 1,
            pipeline: true,
            seed: 0,
        };
        let mut config_lines = String::new();

        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad = |msg: &str| TeError::InvalidWaypoints(format!("line {}: {msg}", lineno + 1));
            let mut parts = line.split_whitespace();
            let directive = parts.next().expect("non-empty line has a first token");
            let p = &mut parts;
            match directive {
                "seed" => case.seed = int(p, lineno, "a seed")?,
                "threads" => case.threads = int(p, lineno, "a thread count")?,
                "pipeline" => case.pipeline = flag(p, lineno)?,
                "nodes" => case.nodes = int(p, lineno, "a node count")?,
                "link" => {
                    let u = int(p, lineno, "a source")?;
                    let v = int(p, lineno, "a destination")?;
                    let cap = num(p, lineno, "a capacity")?;
                    if u == v {
                        return Err(bad("a link needs distinct endpoints"));
                    }
                    case.links.push((u, v, cap));
                }
                "demand" => {
                    let s = int(p, lineno, "a source")?;
                    let t = int(p, lineno, "a destination")?;
                    let size = num(p, lineno, "a size")?;
                    if s == t {
                        return Err(bad("a demand needs distinct endpoints"));
                    }
                    if !(size.is_finite() && size > 0.0) {
                        return Err(bad("a demand size must be positive and finite"));
                    }
                    case.demands.push((s, t, size));
                }
                "matrix" => {
                    let mut row = Vec::new();
                    for tok in p.by_ref() {
                        row.push(tok.parse::<f64>().map_err(|_| bad("matrix needs sizes"))?);
                    }
                    if row.is_empty() {
                        return Err(bad("matrix needs at least one size"));
                    }
                    case.extra_matrices.push(row);
                }
                "event" => {
                    let kind = p.next().ok_or_else(|| bad("event needs a kind"))?;
                    let event = match kind {
                        "noop" => ServeEvent::Noop,
                        "scale" => ServeEvent::DemandScale {
                            index: int(p, lineno, "a demand index")?,
                            factor: num(p, lineno, "a factor")?,
                        },
                        "down" => ServeEvent::LinkDown {
                            edge: EdgeId(int(p, lineno, "an edge id")?),
                        },
                        "up" => ServeEvent::LinkUp {
                            edge: EdgeId(int(p, lineno, "an edge id")?),
                        },
                        "cap" => ServeEvent::Capacity {
                            edge: EdgeId(int(p, lineno, "an edge id")?),
                            capacity: num(p, lineno, "a capacity")?,
                        },
                        "matrix" => {
                            let mut demands = Vec::new();
                            while p.clone().next().is_some() {
                                let s = NodeId(int(p, lineno, "a source")?);
                                let t = NodeId(int(p, lineno, "a destination")?);
                                demands.push((s, t, num(p, lineno, "a size")?));
                            }
                            if demands.is_empty() {
                                return Err(bad("event matrix needs src dst size triples"));
                            }
                            ServeEvent::DemandMatrix { demands }
                        }
                        other => return Err(bad(&format!("unknown event kind '{other}'"))),
                    };
                    case.events.push(event);
                }
                "weight" | "waypoint" => {
                    config_lines.push_str(line);
                    config_lines.push('\n');
                }
                other => return Err(bad(&format!("unknown directive '{other}'"))),
            }
        }

        for (j, row) in case.extra_matrices.iter().enumerate() {
            if row.len() != case.demands.len() {
                return Err(TeError::InvalidWaypoints(format!(
                    "matrix {j} has {} sizes for {} demands",
                    row.len(),
                    case.demands.len()
                )));
            }
        }
        let net = case.network()?;
        let demands = case.demand_list()?;
        let (weights, waypoints) = read_config(&net, &demands, &config_lines)?;
        case.weights = weights.as_slice().to_vec();
        case.waypoints = (0..waypoints.len())
            .map(|i| waypoints.get(i).iter().map(|n| n.0).collect())
            .collect();
        Ok(case)
    }

    /// Runs every check of the case and reports the outcome.
    ///
    /// A case that does not build or whose state does not route is a
    /// benign [`CaseOutcome::Error`]. Otherwise the
    /// [`differential`](crate::differential) kinds run, each checked at 1
    /// thread and again at the case's thread count when that is above 1,
    /// which must reproduce the 1-thread trace: `invariants` first, then on
    /// a non-empty demand list `walk`, `disable` and `sweep`, `serve` on an
    /// event stream, `ospf`, `wpo` and `joint` when `pipeline` is set, and
    /// `reductions` and `robust_joint` on extra matrices. Last, the bounds
    /// run once at the case's thread count (see `run_bounds`): the MCF
    /// lower bound unless `fast` is set, and the MILP oracle on tiny
    /// instances when `pipeline` is set. A failed check panics, which the
    /// fuzzer's shield turns into [`CaseOutcome::Panic`]. The whole run
    /// holds the differential lock, so no concurrent run moves the thread
    /// count.
    pub fn run(&self, fast: bool) -> CaseOutcome {
        let _guard = guard();
        segrout_par::set_threads(self.threads);

        let built = (|| {
            let net = self.network()?;
            let demands = self.demand_list()?;
            let weights = self.weight_setting(&net)?;
            let waypoints = self.waypoint_setting()?;
            let set = self.demand_set()?;
            let mlu = Router::new(&net, &weights)
                .evaluate(&demands, &waypoints)?
                .mlu;
            Ok::<_, TeError>((net, demands, set, mlu))
        })();
        let (net, demands, set, mlu) = match built {
            Ok(x) => x,
            Err(e) => return CaseOutcome::Error(e.to_string()),
        };

        let mut checks = 0;
        for (name, kind) in self.kinds() {
            checks += run_case_kind(name, self, kind);
        }
        segrout_par::set_threads(self.threads);
        match self.run_bounds(&net, &demands, &set, mlu, fast) {
            Ok(bounds) => CaseOutcome::Pass {
                checks: checks + bounds,
            },
            Err(e) => CaseOutcome::Error(e.to_string()),
        }
    }

    /// The differential kinds the case runs: `invariants`, then on a
    /// non-empty demand list `walk`, `disable` and `sweep`, `serve` on an
    /// event stream, the optimizer kinds when `pipeline` is set, and the
    /// robust kinds on extra matrices.
    fn kinds(&self) -> Vec<(&'static str, Kind)> {
        let mut kinds: Vec<(&str, Kind)> = vec![("invariants", invariants)];
        if self.demands.is_empty() {
            return kinds;
        }
        kinds.extend([
            ("walk", walk as Kind),
            ("disable", disable),
            ("sweep", sweep),
        ]);
        if !self.events.is_empty() {
            kinds.push(("serve", serve));
        }
        if self.pipeline {
            kinds.extend([("ospf", ospf as Kind), ("wpo", wpo), ("joint", joint)]);
        }
        if !self.extra_matrices.is_empty() {
            kinds.extend([
                ("reductions", reductions as Kind),
                ("robust_joint", robust_joint),
            ]);
        }
        kinds
    }

    /// The bounds, once per case, on a non-empty demand list: the case
    /// state's `mlu` must not beat the MCF lower bound ([`assert_mcf_bound`],
    /// skipped when `fast` is set), and on tiny instances with `pipeline`
    /// set the MILP oracle runs. JOINT-Heur's MLU must lie between the
    /// Joint MILP's dual bound and its proven optimum, the same MILP solved
    /// over the [`lp_oracle`] must agree on a proven optimum, and on extra
    /// matrices JOINT-Heur-robust's worst-case MLU must lie the same way
    /// against the robust Joint MILP, which runs on the production engine
    /// only. The heuristics search a subset of the MILP's space (integer
    /// weights up to [`ospf_cfg`]'s 4, at most one waypoint), so a
    /// proven-optimal MILP can never lose to them, and the dual bound holds
    /// unconditionally. Returns the number of checks made.
    fn run_bounds(
        &self,
        net: &Network,
        demands: &DemandList,
        set: &DemandSet,
        mlu: f64,
        fast: bool,
    ) -> Result<usize, TeError> {
        if demands.is_empty() {
            return Ok(0);
        }
        let mut checks = 0;
        if !fast {
            assert_mcf_bound(net, demands, mlu, "case input")?;
            checks += 1;
        }
        let tiny =
            net.node_count() <= 5 && net.edge_count() <= 12 && (1..=3).contains(&demands.len());
        if !(self.pipeline && tiny) {
            return Ok(checks);
        }
        let heur = joint_heur(net, demands, &joint_cfg(self.seed))?;
        let options = |warm: &JointHeurResult| JointMilpOptions {
            max_weight: ospf_cfg(self.seed).max_weight,
            waypoints: 1,
            milp: MilpOptions {
                node_limit: 2000,
                time_limit: Duration::from_secs(10),
                ..Default::default()
            },
            warm_start: Some((warm.weights.clone(), warm.waypoints.clone())),
            ..Default::default()
        };
        // A solver limit leaves the sandwich undecided, not failed.
        let decided = |r: Result<JointMilpOutcome, TeError>| match r {
            Err(TeError::SolverLimit { .. }) => Ok(None),
            r => r.map(Some),
        };
        // Each assert fails only when its comparison holds, so a NaN passes:
        // an unproved dual bound of `-inf` makes `bound - TOL · (1 + bound)`
        // NaN.
        let sandwich = |invariant: &str, milp: &JointMilpOutcome, mlu: f64| {
            let loses = milp.status == MilpStatus::Optimal && milp.mlu > mlu + TOL * (1.0 + mlu);
            let (opt, bound) = (milp.mlu, milp.bound);
            assert!(
                !loses,
                "case [{invariant}]: optimal MILP MLU {opt} exceeds heuristic MLU {mlu}"
            );
            let beats = mlu < bound - TOL * (1.0 + bound);
            assert!(
                !beats,
                "case [{invariant}]: heuristic MLU {mlu} beats the MILP dual bound {bound}"
            );
        };

        let heur_options = options(&heur);
        if let Some(primary) = decided(joint_milp(net, demands, &heur_options))? {
            sandwich("milp-oracle", &primary, heur.mlu);
            checks += 1;
            let oracle = joint_milp_with(net, demands, &heur_options, lp_oracle::solve_milp);
            let optimal = |o: &JointMilpOutcome| o.status == MilpStatus::Optimal;
            if let Some(oracle) = decided(oracle)?.filter(|o| optimal(o) && optimal(&primary)) {
                let (a, b) = (primary.mlu, oracle.mlu);
                let differ = (a - b).abs() > TOL * (1.0 + a);
                assert!(
                    !differ,
                    "case [engine-differential]: optimal MLU differs from the LP oracle's: \
                     {a} vs {b}"
                );
                checks += 1;
            }
        }

        if (2..=4).contains(&set.len()) {
            let worst = RobustObjective::WorstCase;
            let robust = joint_heur_robust(net, set, worst, &joint_cfg(self.seed))?;
            let milp = joint_milp_robust(net, set, worst, &options(&robust));
            if let Some(milp) = decided(milp)? {
                sandwich("robust-milp-oracle", &milp, robust.mlu);
                checks += 1;
            }
        }
        Ok(checks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond_case() -> Case {
        Case {
            nodes: 4,
            links: vec![
                (0, 1, 10.0),
                (1, 0, 10.0),
                (1, 3, 10.0),
                (3, 1, 10.0),
                (0, 2, 10.0),
                (2, 0, 10.0),
                (2, 3, 10.0),
                (3, 2, 10.0),
            ],
            demands: vec![(0, 3, 4.0), (1, 2, 1.5)],
            extra_matrices: vec![vec![2.0, 3.0], vec![5.5, 0.75]],
            events: vec![
                ServeEvent::Noop,
                ServeEvent::DemandScale {
                    index: 0,
                    factor: 2.5,
                },
                ServeEvent::LinkDown { edge: EdgeId(0) },
                // Legal garbage: out-of-range index answered with an error.
                ServeEvent::DemandScale {
                    index: 99,
                    factor: 2.0,
                },
                ServeEvent::LinkUp { edge: EdgeId(0) },
                ServeEvent::Capacity {
                    edge: EdgeId(2),
                    capacity: 4.0,
                },
                ServeEvent::DemandMatrix {
                    demands: vec![(NodeId(0), NodeId(3), 3.0), (NodeId(2), NodeId(1), 1.0)],
                },
            ],
            weights: vec![1.0; 8],
            waypoints: vec![vec![2], vec![]],
            threads: 2,
            pipeline: true,
            seed: 7,
        }
    }

    #[test]
    fn text_round_trip_is_exact() {
        let case = diamond_case();
        let text = case.to_text();
        let back = Case::from_text(&text).unwrap();
        assert_eq!(case, back);
        assert_eq!(text, back.to_text());
    }

    #[test]
    fn malformed_text_is_rejected_with_line_numbers() {
        for (text, needle) in [
            ("frobnicate 1", "unknown directive"),
            ("nodes", "node count"),
            ("link 0 9 1\nnodes 2", "out of range"),
            ("nodes 2\nlink 0 1 5\nweight 3 1", "out of range"),
            ("matrix", "at least one size"),
            ("matrix 1 bad", "matrix needs sizes"),
            // Once a panic in the network or demand builders, or a silent
            // truncation of a non-integral or negative field.
            (
                "nodes 2\nlink 1 1 5",
                "line 2: a link needs distinct endpoints",
            ),
            (
                "nodes 2\ndemand 0 0 1",
                "line 2: a demand needs distinct endpoints",
            ),
            (
                "nodes 2\ndemand 0 1 -5",
                "line 2: a demand size must be positive",
            ),
            (
                "nodes 2.9",
                "line 1: a node count must be a non-negative integer",
            ),
            (
                "nodes 2\nlink 0.7 1 5",
                "line 2: a source must be a non-negative integer",
            ),
            ("threads -1", "line 1: a thread count must be"),
            ("pipeline 2", "line 1: needs 0 or 1"),
            ("event down 1.5", "line 1: an edge id must be"),
            ("event scale -1 2", "line 1: a demand index must be"),
            ("event matrix 0 1.5 2", "line 1: a destination must be"),
            ("event matrix 0 1", "line 1: needs a size"),
            (
                "nodes 2\nlink 0 1 5\nlink 1 0 5\ndemand 0 1 1\nmatrix 1 2\nweight 0 1\nweight 1 1",
                "2 sizes for 1 demands",
            ),
        ] {
            let err = Case::from_text(text).unwrap_err().to_string();
            assert!(
                err.contains(needle),
                "'{text}' -> '{err}' missing '{needle}'"
            );
        }
    }

    #[test]
    fn builders_return_errors_for_what_would_panic() {
        let mut case = diamond_case();
        case.links[0] = (1, 1, 10.0);
        assert!(case.network().is_err());
        for bad in [(0, 0, 1.0), (0, 3, -1.0), (0, 3, f64::NAN)] {
            let mut case = diamond_case();
            case.demands[0] = bad;
            assert!(case.demand_list().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn diamond_case_passes_end_to_end() {
        let outcome = diamond_case().run(false);
        match outcome {
            CaseOutcome::Pass { checks } => assert!(checks > 50, "only {checks} checks"),
            other => panic!("expected pass, got {other}"),
        }
    }

    #[test]
    fn bad_extra_matrix_size_is_benign() {
        let mut case = diamond_case();
        case.extra_matrices[0][1] = -3.0;
        let outcome = case.run(false);
        assert!(matches!(outcome, CaseOutcome::Error(_)), "got {outcome}");
        assert!(!outcome.is_failure());
    }

    #[test]
    fn unroutable_case_is_benign() {
        let case = Case {
            nodes: 3,
            links: vec![(0, 1, 1.0), (1, 2, 1.0)],
            demands: vec![(2, 0, 1.0)],
            extra_matrices: Vec::new(),
            events: Vec::new(),
            weights: vec![1.0, 1.0],
            waypoints: vec![vec![]],
            threads: 1,
            pipeline: false,
            seed: 1,
        };
        assert!(matches!(case.run(false), CaseOutcome::Error(_)));
        assert!(!case.run(false).is_failure());
    }
}
