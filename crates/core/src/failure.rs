//! Failure-scenario enumeration and the fleet-scale what-if sweep engine.
//!
//! The paper optimizes weights and waypoints for the intact topology, but
//! the question an operator actually asks is *post-failure* congestion: what
//! does the MLU become when a link (or two) goes down, possibly under a
//! scaled traffic matrix? This module turns that question into a first-class
//! sweep:
//!
//! * [`FailureSet`] enumerates failure *patterns* — all single-link and
//!   optionally all double-link failures at the **undirected-link** level
//!   (both directions of a bi-directed arc fail together, the way a fiber
//!   cut behaves) — over the distinct links of a [`Network`].
//! * [`sweep_failures`] crosses the patterns with a list of demand scalings
//!   and evaluates every resulting scenario with the read-only
//!   [`IncrementalEvaluator::probe_disable`] edge-disable probe, fanned out
//!   over the `segrout-par` pool. One evaluator is built per scaling; every
//!   failure pattern then repairs only the destinations whose shortest-path
//!   DAG actually used a failed edge, which is what makes whole-fleet sweeps
//!   (hundreds of thousands of scenarios) affordable.
//! * Scenarios that cut a demand off its destination are **classified**, not
//!   errored: they surface as [`ScenarioOutcome::Disconnected`] with the
//!   severed `(src, dst)` pair, and the sweep carries on.
//!
//! The [`SweepReport`] carries the per-scenario MLU distribution, a
//! [`WorstCaseCertificate`] naming the worst scenario *and* its bottleneck
//! link, and aggregates over the survivors through the same
//! [`RobustObjective`] machinery the multi-matrix optimizer uses — so
//! "minimize the worst-case MLU over the failure set" is the same code path
//! as "minimize the worst case over a demand set".

use crate::demand::{Demand, DemandList};
use crate::error::TeError;
use crate::incremental::IncrementalEvaluator;
use crate::network::Network;
use crate::robust::RobustObjective;
use crate::waypoints::WaypointSetting;
use crate::weights::WeightSetting;
use segrout_graph::{EdgeId, NodeId};

/// One failure pattern: a set of failed undirected links, expanded to the
/// directed edges the routing layer masks out.
#[derive(Clone, Debug)]
pub struct FailurePattern {
    /// Indices into [`FailureSet::links`] of the failed links, ascending.
    pub links: Vec<usize>,
    /// All directed edges belonging to the failed links, ascending by id.
    pub dead: Vec<EdgeId>,
}

/// The enumerated failure patterns of a network: all single-link and
/// optionally all double-link failures, at the undirected-link level.
///
/// Links are recovered from the directed edge list by greedy reverse-pairing
/// in ascending edge-id order — exactly inverse to the `bilink` construction
/// every SNDLib topology uses; a directed edge without a reverse partner
/// forms a single-edge link of its own.
#[derive(Clone, Debug)]
pub struct FailureSet {
    links: Vec<Vec<EdgeId>>,
    patterns: Vec<FailurePattern>,
}

impl FailureSet {
    /// Enumerates failure patterns over `net`: every single link, plus every
    /// unordered pair of links when `doubles` is set. Disconnecting patterns
    /// are *not* filtered out here — the sweep classifies them.
    pub fn enumerate(net: &Network, doubles: bool) -> Self {
        let g = net.graph();
        let mut link_of = vec![usize::MAX; g.edge_count()];
        let mut links: Vec<Vec<EdgeId>> = Vec::new();
        for (e, u, v) in g.edges() {
            if link_of[e.index()] != usize::MAX {
                continue;
            }
            let id = links.len();
            link_of[e.index()] = id;
            let mut members = vec![e];
            // First unpaired reverse edge, by ascending id: the partner the
            // `bilink` convention created.
            if let Some(&r) = g
                .out_edges(v)
                .iter()
                .find(|&&r| g.dst(r) == u && link_of[r.index()] == usize::MAX)
            {
                link_of[r.index()] = id;
                members.push(r);
            }
            links.push(members);
        }

        let mut patterns = Vec::new();
        for (i, members) in links.iter().enumerate() {
            patterns.push(FailurePattern {
                links: vec![i],
                dead: members.clone(),
            });
        }
        if doubles {
            for i in 0..links.len() {
                for j in (i + 1)..links.len() {
                    let mut dead: Vec<EdgeId> =
                        links[i].iter().chain(links[j].iter()).copied().collect();
                    dead.sort_unstable();
                    patterns.push(FailurePattern {
                        links: vec![i, j],
                        dead,
                    });
                }
            }
        }
        Self { links, patterns }
    }

    /// The undirected links, each as its directed-edge members.
    #[inline]
    pub fn links(&self) -> &[Vec<EdgeId>] {
        &self.links
    }

    /// The enumerated failure patterns.
    #[inline]
    pub fn patterns(&self) -> &[FailurePattern] {
        &self.patterns
    }

    /// Number of undirected links.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of failure patterns.
    #[inline]
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// `true` if no patterns were enumerated (edgeless network).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Human-readable label of a pattern, e.g. `"Berlin–Hamburg"` or
    /// `"A–B + C–D"` for a double failure.
    pub fn pattern_label(&self, net: &Network, p: usize) -> String {
        let g = net.graph();
        self.patterns[p]
            .links
            .iter()
            .map(|&l| {
                let e = self.links[l][0];
                format!("{}–{}", net.node_name(g.src(e)), net.node_name(g.dst(e)))
            })
            .collect::<Vec<_>>()
            .join(" + ")
    }
}

/// What one failure scenario did to the network.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioOutcome {
    /// The scenario routes: the resulting objective state.
    Evaluated {
        /// Maximum link utilization under the failure.
        mlu: f64,
        /// Fortz–Thorup congestion cost Φ under the failure.
        phi: f64,
        /// Destinations whose DAG had to be repaired.
        dirty_dests: usize,
    },
    /// The scenario cuts a demand off its destination: the first severed
    /// `(src, dst)` pair found, in ascending destination order.
    Disconnected {
        /// A source that can no longer reach `dst`.
        src: NodeId,
        /// The unreachable destination.
        dst: NodeId,
    },
}

/// The outcome of one `(pattern, scaling)` scenario.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Index into [`FailureSet::patterns`].
    pub pattern: usize,
    /// Index into the sweep's scaling list.
    pub scaling: usize,
    /// What happened.
    pub outcome: ScenarioOutcome,
}

/// The worst-case certificate: the scenario attaining the maximum MLU over
/// all evaluated scenarios, with the bottleneck link that attains the
/// utilization — enough for an operator to verify the claim by hand.
#[derive(Clone, Debug)]
pub struct WorstCaseCertificate {
    /// Index into [`FailureSet::patterns`].
    pub pattern: usize,
    /// Index into the sweep's scaling list.
    pub scaling: usize,
    /// The demand scaling factor of the scenario.
    pub scale: f64,
    /// The failed directed edges.
    pub dead: Vec<EdgeId>,
    /// The worst-case MLU.
    pub mlu: f64,
    /// The link attaining the MLU (smallest edge id on ties — the same
    /// argmax rule `max_link_utilization` folds with).
    pub bottleneck: EdgeId,
    /// Load on the bottleneck link.
    pub bottleneck_load: f64,
}

/// The result of a full failure sweep.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Undirected links in the network.
    pub link_count: usize,
    /// Failure patterns swept.
    pub patterns: usize,
    /// The demand scaling factors, in sweep order.
    pub scalings: Vec<f64>,
    /// Total scenarios = patterns × scalings.
    pub scenarios: usize,
    /// Scenarios that routed.
    pub evaluated: usize,
    /// Scenarios classified as disconnecting.
    pub disconnects: usize,
    /// Intact-topology MLU per scaling (the sweep's baseline).
    pub base_mlu: Vec<f64>,
    /// Per-scenario outcomes, scaling-major then pattern order.
    pub results: Vec<ScenarioResult>,
    /// The worst evaluated scenario, if any scenario routed.
    pub worst: Option<WorstCaseCertificate>,
}

impl SweepReport {
    /// The MLUs of all evaluated scenarios, ascending (`total_cmp` order).
    pub fn mlu_distribution(&self) -> Vec<f64> {
        let mut mlus: Vec<f64> = self
            .results
            .iter()
            .filter_map(|r| match r.outcome {
                ScenarioOutcome::Evaluated { mlu, .. } => Some(mlu),
                ScenarioOutcome::Disconnected { .. } => None,
            })
            .collect();
        mlus.sort_unstable_by(f64::total_cmp);
        mlus
    }

    /// Aggregates the evaluated-scenario MLUs under a [`RobustObjective`]
    /// (worst case or quantile) — the same aggregation the multi-matrix
    /// optimizer uses over demand sets. `None` if every scenario
    /// disconnected.
    pub fn aggregate_mlu(&self, objective: RobustObjective) -> Option<f64> {
        let mlus = self.mlu_distribution();
        if mlus.is_empty() {
            None
        } else {
            Some(objective.aggregate(&mlus))
        }
    }
}

/// Metric handles for the sweep engine.
fn sweep_metrics() -> &'static (
    std::sync::Arc<segrout_obs::Counter>,
    std::sync::Arc<segrout_obs::Counter>,
    std::sync::Arc<segrout_obs::Gauge>,
) {
    static HANDLES: std::sync::OnceLock<(
        std::sync::Arc<segrout_obs::Counter>,
        std::sync::Arc<segrout_obs::Counter>,
        std::sync::Arc<segrout_obs::Gauge>,
    )> = std::sync::OnceLock::new();
    HANDLES.get_or_init(|| {
        (
            segrout_obs::counter("sweep.scenarios"),
            segrout_obs::counter("sweep.disconnects"),
            segrout_obs::gauge("sweep.worst_mlu"),
        )
    })
}

/// Scales every demand size by `scale` (sources, destinations and order are
/// preserved). [`TeError::InvalidDemand`] when a scaled size overflows to
/// infinity or underflows to zero.
fn scale_demands(demands: &DemandList, scale: f64) -> Result<DemandList, TeError> {
    let scaled = demands
        .iter()
        .map(|d| Demand::new(d.src, d.dst, d.size * scale));
    DemandList::from_vec(scaled.collect())
}

/// Sweeps every `(failure pattern, demand scaling)` scenario of `set` over
/// the given workload and reports per-scenario outcomes plus the worst-case
/// certificate.
///
/// One [`IncrementalEvaluator`] is built per scaling (an intact-topology
/// base state); each failure pattern is then answered by the read-only
/// [`IncrementalEvaluator::probe_disable`], fanned out over the
/// `segrout-par` pool. Results are deterministic and independent of the
/// thread count — scenario outcomes are collected in sweep order, and each
/// probe is bit-identical to a from-scratch evaluation of the edge-deleted
/// topology.
///
/// Errors if the *intact* workload fails to route for some scaling
/// (failure-induced disconnections are classified per scenario instead),
/// and with [`TeError::InvalidDemand`] if a scaling takes a demand size out
/// of the positive finite range.
pub fn sweep_failures(
    net: &Network,
    weights: &WeightSetting,
    demands: &DemandList,
    waypoints: &WaypointSetting,
    set: &FailureSet,
    scalings: &[f64],
) -> Result<SweepReport, TeError> {
    let scalings: Vec<f64> = if scalings.is_empty() {
        vec![1.0]
    } else {
        scalings.to_vec()
    };
    for &s in &scalings {
        assert!(s.is_finite() && s > 0.0, "demand scaling must be positive");
    }

    let (scen_counter, disc_counter, worst_gauge) = sweep_metrics();
    let mut results = Vec::with_capacity(set.len() * scalings.len());
    let mut base_mlu = Vec::with_capacity(scalings.len());
    let mut evaluated = 0usize;
    let mut disconnects = 0usize;
    // Worst over evaluated scenarios: (mlu, index into `results`), ties to
    // the earliest scenario so the certificate is deterministic.
    let mut worst: Option<(f64, usize)> = None;

    for (si, &scale) in scalings.iter().enumerate() {
        let scaled = scale_demands(demands, scale)?;
        let eval = IncrementalEvaluator::new(net, weights, &scaled, waypoints)?;
        base_mlu.push(eval.mlu());
        let outcomes =
            segrout_par::par_map(set.len(), |p| eval.probe_disable(&set.patterns()[p].dead));
        for (p, out) in outcomes.into_iter().enumerate() {
            scen_counter.inc();
            let outcome = match out {
                Ok(probe) => {
                    evaluated += 1;
                    ScenarioOutcome::Evaluated {
                        mlu: probe.mlu,
                        phi: probe.phi,
                        dirty_dests: probe.dirty_count,
                    }
                }
                Err(TeError::Unroutable { src, dst }) => {
                    disconnects += 1;
                    disc_counter.inc();
                    ScenarioOutcome::Disconnected { src, dst }
                }
                Err(other) => return Err(other),
            };
            if let ScenarioOutcome::Evaluated { mlu, .. } = outcome {
                let better = match worst {
                    None => true,
                    Some((w, _)) => mlu.total_cmp(&w) == std::cmp::Ordering::Greater,
                };
                if better {
                    worst = Some((mlu, results.len()));
                }
            }
            results.push(ScenarioResult {
                pattern: p,
                scaling: si,
                outcome,
            });
        }
    }

    // Materialize the certificate: re-answer the winning scenario once to
    // recover its load vector and name the bottleneck link.
    let worst = match worst {
        None => None,
        Some((mlu, idx)) => {
            let r = &results[idx];
            let scaled = scale_demands(demands, scalings[r.scaling])?;
            let eval = IncrementalEvaluator::new(net, weights, &scaled, waypoints)?;
            let probe = eval
                .probe_disable(&set.patterns()[r.pattern].dead)
                .expect("worst scenario evaluated in the sweep must re-evaluate");
            let caps = net.capacities();
            let (mut bottleneck, mut best_util) = (EdgeId(0), f64::NEG_INFINITY);
            for (i, (&l, &c)) in probe.loads.iter().zip(caps).enumerate() {
                let util = l / c;
                if util > best_util {
                    best_util = util;
                    bottleneck = EdgeId(i as u32);
                }
            }
            worst_gauge.set(mlu);
            Some(WorstCaseCertificate {
                pattern: r.pattern,
                scaling: r.scaling,
                scale: scalings[r.scaling],
                dead: set.patterns()[r.pattern].dead.clone(),
                mlu,
                bottleneck,
                bottleneck_load: probe.loads[bottleneck.index()],
            })
        }
    };

    Ok(SweepReport {
        link_count: set.link_count(),
        patterns: set.len(),
        scenarios: set.len() * scalings.len(),
        evaluated,
        disconnects,
        scalings,
        base_mlu,
        results,
        worst,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Router;

    /// Bi-directed diamond: links 0–1, 1–3, 0–2, 2–3 (8 directed edges).
    fn diamond() -> Network {
        let mut b = Network::builder(4);
        b.bilink(NodeId(0), NodeId(1), 1.0);
        b.bilink(NodeId(1), NodeId(3), 1.0);
        b.bilink(NodeId(0), NodeId(2), 1.0);
        b.bilink(NodeId(2), NodeId(3), 1.0);
        b.build().unwrap()
    }

    fn demand() -> DemandList {
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 2.0);
        d
    }

    #[test]
    fn enumerates_links_by_reverse_pairing() {
        let net = diamond();
        let set = FailureSet::enumerate(&net, false);
        assert_eq!(set.link_count(), 4);
        assert_eq!(set.len(), 4);
        for link in set.links() {
            assert_eq!(link.len(), 2, "bilink must pair into one link");
            let g = net.graph();
            assert_eq!(g.src(link[0]), g.dst(link[1]));
            assert_eq!(g.dst(link[0]), g.src(link[1]));
        }
    }

    #[test]
    fn unpaired_edge_forms_its_own_link() {
        let mut b = Network::builder(3);
        b.bilink(NodeId(0), NodeId(1), 1.0);
        b.link(NodeId(1), NodeId(2), 1.0); // one-way
        let net = b.build().unwrap();
        let set = FailureSet::enumerate(&net, false);
        assert_eq!(set.link_count(), 2);
        assert_eq!(set.links()[1], vec![EdgeId(2)]);
    }

    #[test]
    fn doubles_enumerate_all_pairs() {
        let net = diamond();
        let set = FailureSet::enumerate(&net, true);
        assert_eq!(set.len(), 4 + 6);
        for p in set.patterns().iter().skip(4) {
            assert_eq!(p.links.len(), 2);
            assert_eq!(p.dead.len(), 4);
        }
    }

    #[test]
    fn sweep_classifies_and_matches_deleted_topology() {
        let net = diamond();
        let d = demand();
        let w = WeightSetting::unit(&net);
        let wp = WaypointSetting::none(1);
        let set = FailureSet::enumerate(&net, true);
        let rep = sweep_failures(&net, &w, &d, &wp, &set, &[1.0]).unwrap();
        assert_eq!(rep.scenarios, 10);
        assert_eq!(rep.evaluated + rep.disconnects, rep.scenarios);
        // Single failures of any one link leave the alternative 2-hop path;
        // of the six double failures only {0–1, 1–3} and {0–2, 2–3} (one
        // whole path each) keep 0 connected to 3 — the other four cut it.
        assert_eq!(rep.disconnects, 4);
        // Killing link 0–1 doubles the load on the lower path: MLU 2.0.
        match &rep.results[0].outcome {
            ScenarioOutcome::Evaluated { mlu, .. } => assert_eq!(*mlu, 2.0),
            other => panic!("expected evaluated, got {other:?}"),
        }
        let worst = rep.worst.as_ref().expect("some scenarios evaluated");
        assert_eq!(worst.mlu, 2.0);
        assert_eq!(worst.bottleneck_load, 2.0);
        // The certificate's MLU is reproducible from scratch on the
        // edge-deleted topology via a plain router.
        let pattern = &set.patterns()[worst.pattern];
        let mut b = Network::builder(4);
        for (e, u, v) in net.graph().edges() {
            if !pattern.dead.contains(&e) {
                b.link(u, v, net.capacities()[e.index()]);
            }
        }
        let net2 = b.build().unwrap();
        let w2 = WeightSetting::unit(&net2);
        let fresh = Router::new(&net2, &w2).evaluate(&d, &wp).unwrap();
        assert_eq!(fresh.mlu.to_bits(), worst.mlu.to_bits());
    }

    #[test]
    fn scalings_scale_the_baseline_and_results() {
        let net = diamond();
        let d = demand();
        let w = WeightSetting::unit(&net);
        let wp = WaypointSetting::none(1);
        let set = FailureSet::enumerate(&net, false);
        let rep = sweep_failures(&net, &w, &d, &wp, &set, &[0.5, 1.0]).unwrap();
        assert_eq!(rep.scenarios, 8);
        assert_eq!(rep.base_mlu.len(), 2);
        assert_eq!(rep.base_mlu[0], 0.5);
        assert_eq!(rep.base_mlu[1], 1.0);
        let worst = rep.worst.unwrap();
        assert_eq!(worst.scale, 1.0);
        assert_eq!(worst.mlu, 2.0);
    }

    #[test]
    fn aggregate_reuses_robust_objectives() {
        let net = diamond();
        let d = demand();
        let w = WeightSetting::unit(&net);
        let wp = WaypointSetting::none(1);
        let set = FailureSet::enumerate(&net, false);
        let rep = sweep_failures(&net, &w, &d, &wp, &set, &[]).unwrap();
        let worst = rep.aggregate_mlu(RobustObjective::WorstCase).unwrap();
        assert_eq!(worst, rep.worst.as_ref().unwrap().mlu);
        let median = rep.aggregate_mlu(RobustObjective::Quantile(0.5)).unwrap();
        assert!(median <= worst);
        let dist = rep.mlu_distribution();
        assert_eq!(dist.len(), rep.evaluated);
        assert!(dist.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn intact_unroutable_is_still_an_error() {
        let mut b = Network::builder(3);
        b.bilink(NodeId(0), NodeId(1), 1.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(2), 1.0);
        let w = WeightSetting::unit(&net);
        let set = FailureSet::enumerate(&net, false);
        let err = sweep_failures(&net, &w, &d, &WaypointSetting::none(1), &set, &[1.0]);
        assert!(err.is_err(), "intact disconnection must error");
    }
}
