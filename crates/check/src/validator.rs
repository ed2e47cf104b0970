//! The pipeline-wide invariant validator (see crate docs).

use segrout_core::{
    evaluate_robust, fortz_phi, max_link_utilization, sweep_failures, Demand, DemandList,
    DemandSet, FailureSet, IncrementalEvaluator, Network, NodeId, RobustObjective, Router,
    ScenarioOutcome, TeError, WaypointSetting, WeightSetting,
};
use segrout_graph::{approx_eq, SpDag, INFINITY};
use std::collections::BTreeMap;
use std::fmt;

/// One failed invariant.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Stable invariant key (`"dag-acyclic"`, `"even-split"`, ...).
    pub invariant: &'static str,
    /// Human-readable diagnostic.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Result of one [`Validator::validate`] run.
#[derive(Clone, Debug, Default)]
pub struct ValidationReport {
    /// Number of individual invariant checks performed.
    pub checks: usize,
    /// Every failed invariant, in check order.
    pub violations: Vec<Violation>,
}

impl ValidationReport {
    /// `true` when no invariant failed.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn check(&mut self, ok: bool, invariant: &'static str, detail: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.violations.push(Violation {
                invariant,
                detail: detail(),
            });
        }
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} checks, {} violations",
            self.checks,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Knobs of the validator — everything defaults to the full suite.
#[derive(Clone, Debug)]
pub struct ValidatorConfig {
    /// Cross-check the state against the incremental evaluation engine.
    pub compare_incremental: bool,
    /// Re-evaluate at thread counts 1 and 4 and require bit-identical loads.
    pub compare_thread_counts: bool,
    /// Check heuristic MLU against the MCF fluid lower bound (runs the
    /// FPTAS — the most expensive check).
    pub mcf_lower_bound: bool,
    /// FPTAS accuracy for the lower-bound check.
    pub mcf_epsilon: f64,
}

impl Default for ValidatorConfig {
    fn default() -> Self {
        Self {
            compare_incremental: true,
            compare_thread_counts: true,
            mcf_lower_bound: true,
            mcf_epsilon: 0.1,
        }
    }
}

/// Validates one `(Network, demands, weights, waypoints)` state against the
/// full routing-invariant suite.
pub struct Validator<'a> {
    net: &'a Network,
    demands: &'a DemandList,
    weights: &'a WeightSetting,
    waypoints: &'a WaypointSetting,
    cfg: ValidatorConfig,
}

/// Relative tolerance for comparing independently recomputed load vectors.
/// ECMP propagation accumulates sums in an implementation-defined order, so
/// a scaled tolerance is required; genuine logic errors produce divergences
/// many orders of magnitude above it.
const LOAD_TOL: f64 = 1e-7;

impl<'a> Validator<'a> {
    /// Binds a validator to one configuration state (full default suite).
    pub fn new(
        net: &'a Network,
        demands: &'a DemandList,
        weights: &'a WeightSetting,
        waypoints: &'a WaypointSetting,
    ) -> Self {
        Self {
            net,
            demands,
            weights,
            waypoints,
            cfg: ValidatorConfig::default(),
        }
    }

    /// Replaces the validator configuration.
    #[must_use]
    pub fn with_config(mut self, cfg: ValidatorConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Runs every enabled invariant check.
    ///
    /// # Errors
    /// Returns the underlying [`TeError`] when the state cannot be evaluated
    /// at all (e.g. a disconnected segment) — that is a *property of the
    /// input*, not an invariant violation.
    pub fn validate(&self) -> Result<ValidationReport, TeError> {
        let mut rep = ValidationReport::default();
        let router = Router::new(self.net, self.weights);
        let report = router.evaluate(self.demands, self.waypoints)?;

        let segments = self.check_stitching(&mut rep);
        self.check_dags(&router, &segments, &mut rep);
        self.check_even_split(&router, &segments, &report.loads, &mut rep);
        self.check_conservation(&segments, &report.loads, &mut rep);
        self.check_loads(&report.loads, report.mlu, &mut rep);
        if self.cfg.compare_incremental {
            self.check_incremental(&report.loads, report.mlu, &mut rep)?;
        }
        if self.cfg.compare_thread_counts {
            self.check_thread_counts(&report.loads, &mut rep)?;
        }
        if self.cfg.mcf_lower_bound && !self.demands.is_empty() {
            self.check_mcf_bound(report.mlu, &mut rep)?;
        }
        Ok(rep)
    }

    /// Runs [`Validator::validate`] and panics with the full report on any
    /// violation.
    ///
    /// # Panics
    /// Panics when the state violates an invariant or cannot be evaluated.
    pub fn assert_valid(&self) {
        let rep = self.validate().expect("state must be evaluable");
        assert!(rep.is_ok(), "invariant violations:\n{rep}");
    }

    /// Waypoint-segment stitching: every demand's segment chain must start
    /// at its source, end at its destination, be consecutive, and carry the
    /// full demand size on every hop. Returns the flattened segment list.
    fn check_stitching(&self, rep: &mut ValidationReport) -> Vec<(NodeId, NodeId, f64)> {
        let mut segments = Vec::new();
        for i in 0..self.demands.len() {
            let d = self.demands[i];
            let segs = self.waypoints.segments_of(i, &d);
            rep.check(!segs.is_empty() || d.src == d.dst, "stitching", || {
                format!(
                    "demand {i}: empty segment chain for {:?}->{:?}",
                    d.src, d.dst
                )
            });
            if segs.is_empty() {
                continue;
            }
            rep.check(segs[0].0 == d.src, "stitching", || {
                format!(
                    "demand {i}: chain starts at {:?}, not {:?}",
                    segs[0].0, d.src
                )
            });
            rep.check(segs[segs.len() - 1].1 == d.dst, "stitching", || {
                format!(
                    "demand {i}: chain ends at {:?}, not {:?}",
                    segs[segs.len() - 1].1,
                    d.dst
                )
            });
            for w in segs.windows(2) {
                rep.check(w[0].1 == w[1].0, "stitching", || {
                    format!(
                        "demand {i}: segment chain breaks at {:?} -> {:?}",
                        w[0].1, w[1].0
                    )
                });
            }
            for &(s, t, amount) in &segs {
                rep.check(s != t, "stitching", || {
                    format!("demand {i}: degenerate segment at {s:?}")
                });
                rep.check(approx_eq(amount, d.size), "stitching", || {
                    format!(
                        "demand {i}: segment {s:?}->{t:?} carries {amount}, demand size {}",
                        d.size
                    )
                });
            }
            segments.extend(segs);
        }
        segments
    }

    /// SP-DAG structure for every destination the routing uses: distances
    /// are Bellman-optimal, the DAG edge set is exactly the tight edges, the
    /// adjacency mirrors it, and the subgraph is acyclic.
    fn check_dags(
        &self,
        router: &Router<'_>,
        segments: &[(NodeId, NodeId, f64)],
        rep: &mut ValidationReport,
    ) {
        let g = self.net.graph();
        let w = self.weights.as_slice();
        let mut dests: Vec<NodeId> = segments.iter().map(|&(_, t, _)| t).collect();
        dests.sort_unstable();
        dests.dedup();

        for &t in &dests {
            let dag = router.dag(t);
            rep.check(dag.dist[t.index()] == 0.0, "dag-optimal", || {
                format!("dest {t:?}: dist[t] = {}", dag.dist[t.index()])
            });
            for (e, u, v) in g.edges() {
                let du = dag.dist[u.index()];
                let dv = dag.dist[v.index()];
                let via = w[e.index()] + dv;
                // Bellman optimality: no edge offers a shorter route to t.
                if dv < INFINITY {
                    rep.check(du <= via || approx_eq(du, via), "dag-optimal", || {
                        format!(
                            "dest {t:?}: edge {e:?} ({u:?}->{v:?}) relaxes dist \
                             {du} > {} + {dv}",
                            w[e.index()]
                        )
                    });
                }
                // The DAG edge set is exactly the tight edges.
                let tight = du < INFINITY && dv < INFINITY && approx_eq(du, via);
                rep.check(dag.edge_on_dag[e.index()] == tight, "dag-tight", || {
                    format!(
                        "dest {t:?}: edge {e:?} on_dag={} but tightness={tight} \
                         (dist {du} vs {} + {dv})",
                        dag.edge_on_dag[e.index()],
                        w[e.index()]
                    )
                });
                // Adjacency mirrors the membership flags.
                rep.check(
                    dag.dag_out(u).contains(&e) == dag.edge_on_dag[e.index()],
                    "dag-adjacency",
                    || format!("dest {t:?}: edge {e:?} adjacency/membership mismatch"),
                );
            }
            rep.check(dag_is_acyclic(self.net, &dag), "dag-acyclic", || {
                format!("dest {t:?}: shortest-path DAG contains a cycle")
            });
        }
    }

    /// ECMP even-split conservation: re-derives the load vector with an
    /// independent per-destination propagation (even splits over the DAG
    /// out-edges, own topological order) and compares to the engine's loads.
    fn check_even_split(
        &self,
        router: &Router<'_>,
        segments: &[(NodeId, NodeId, f64)],
        loads: &[f64],
        rep: &mut ValidationReport,
    ) {
        let g = self.net.graph();
        let n = g.node_count();
        let mut by_dest: BTreeMap<NodeId, Vec<(NodeId, f64)>> = BTreeMap::new();
        for &(s, t, amount) in segments {
            if s != t && amount > 0.0 {
                by_dest.entry(t).or_default().push((s, amount));
            }
        }

        let mut ref_loads = vec![0.0f64; g.edge_count()];
        for (&t, injections) in &by_dest {
            let dag = router.dag(t);
            let order = match kahn_order(self.net, &dag) {
                Some(o) => o,
                None => return, // cycle already reported by check_dags
            };
            let mut node_flow = vec![0.0f64; n];
            for &(s, amount) in injections {
                node_flow[s.index()] += amount;
            }
            for &v in &order {
                if v == t {
                    continue;
                }
                let outs = dag.dag_out(v);
                let flow = node_flow[v.index()];
                if flow == 0.0 || outs.is_empty() {
                    continue;
                }
                let share = flow / outs.len() as f64;
                for &e in outs {
                    ref_loads[e.index()] += share;
                    node_flow[g.dst(e).index()] += share;
                }
            }
        }

        let scale = 1.0 + loads.iter().cloned().fold(0.0f64, f64::max);
        for (e, (&got, &want)) in loads.iter().zip(&ref_loads).enumerate() {
            rep.check((got - want).abs() <= LOAD_TOL * scale, "even-split", || {
                format!("edge {e}: engine load {got} vs even-split reference {want}")
            });
        }
    }

    /// Aggregate flow conservation on the reported loads: at every node,
    /// link inflow plus injected traffic equals link outflow plus delivered
    /// traffic (summed over all segments).
    fn check_conservation(
        &self,
        segments: &[(NodeId, NodeId, f64)],
        loads: &[f64],
        rep: &mut ValidationReport,
    ) {
        let g = self.net.graph();
        let n = g.node_count();
        let mut injected = vec![0.0f64; n];
        let mut delivered = vec![0.0f64; n];
        for &(s, t, amount) in segments {
            if s != t {
                injected[s.index()] += amount;
                delivered[t.index()] += amount;
            }
        }
        let scale = 1.0 + loads.iter().cloned().fold(0.0f64, f64::max);
        for v in g.nodes() {
            let inflow: f64 = g.in_edges(v).iter().map(|e| loads[e.index()]).sum();
            let outflow: f64 = g.out_edges(v).iter().map(|e| loads[e.index()]).sum();
            let balance = inflow + injected[v.index()] - outflow - delivered[v.index()];
            rep.check(balance.abs() <= LOAD_TOL * scale, "conservation", || {
                format!(
                    "node {v:?}: inflow {inflow} + injected {} != outflow {outflow} \
                     + delivered {} (imbalance {balance})",
                    injected[v.index()],
                    delivered[v.index()]
                )
            });
        }
    }

    /// Link-load sanity: finite, non-negative, and the reported MLU is the
    /// exact maximum utilization of the reported loads.
    fn check_loads(&self, loads: &[f64], mlu: f64, rep: &mut ValidationReport) {
        for (e, &l) in loads.iter().enumerate() {
            rep.check(l.is_finite() && l >= 0.0, "load-nonnegative", || {
                format!("edge {e}: load {l}")
            });
        }
        let recomputed = max_link_utilization(loads, self.net.capacities());
        rep.check(
            mlu.to_bits() == recomputed.to_bits(),
            "mlu-consistent",
            || format!("reported MLU {mlu} != max utilization of reported loads {recomputed}"),
        );
    }

    /// Cross-engine consistency: the incremental evaluation engine must
    /// reproduce the router's loads (bit-identical under tie-exact integral
    /// weights), Φ, and MLU.
    fn check_incremental(
        &self,
        loads: &[f64],
        mlu: f64,
        rep: &mut ValidationReport,
    ) -> Result<(), TeError> {
        let ev = IncrementalEvaluator::new(self.net, self.weights, self.demands, self.waypoints)?;
        let integral = self.weights.as_slice().iter().all(|w| w.fract() == 0.0);
        let scale = 1.0 + loads.iter().cloned().fold(0.0f64, f64::max);
        for (e, (&got, &want)) in ev.loads().iter().zip(loads).enumerate() {
            let ok = if integral {
                got.to_bits() == want.to_bits()
            } else {
                (got - want).abs() <= LOAD_TOL * scale
            };
            rep.check(ok, "incremental-loads", || {
                format!("edge {e}: incremental load {got} vs router load {want} (integral = {integral})")
            });
        }
        let ok_mlu = if integral {
            ev.mlu().to_bits() == mlu.to_bits()
        } else {
            (ev.mlu() - mlu).abs() <= LOAD_TOL * (1.0 + mlu)
        };
        rep.check(ok_mlu, "incremental-mlu", || {
            format!("incremental MLU {} vs router MLU {mlu}", ev.mlu())
        });
        let phi = fortz_phi(loads, self.net.capacities());
        rep.check(
            (ev.phi() - phi).abs() <= LOAD_TOL * (1.0 + phi),
            "incremental-phi",
            || {
                format!(
                    "incremental Φ {} vs fortz_phi of router loads {phi}",
                    ev.phi()
                )
            },
        );
        Ok(())
    }

    /// Parallel-path consistency: evaluating at 1 and 4 worker threads must
    /// produce bit-identical loads (the `segrout-par` determinism contract).
    fn check_thread_counts(
        &self,
        loads: &[f64],
        rep: &mut ValidationReport,
    ) -> Result<(), TeError> {
        let prev = segrout_par::threads();
        let mut result = Ok(());
        let mut per_thread: Vec<Vec<f64>> = Vec::new();
        for t in [1usize, 4] {
            segrout_par::set_threads(t);
            match Router::new(self.net, self.weights).evaluate(self.demands, self.waypoints) {
                Ok(r) => per_thread.push(r.loads),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        segrout_par::set_threads(prev);
        result?;
        for (t, other) in [1usize, 4].iter().zip(&per_thread) {
            for (e, (&got, &want)) in other.iter().zip(loads).enumerate() {
                rep.check(
                    got.to_bits() == want.to_bits(),
                    "parallel-determinism",
                    || {
                        format!(
                            "edge {e}: load at {t} threads {got} != load at ambient threads {want}"
                        )
                    },
                );
            }
        }
        Ok(())
    }

    /// Fluid lower bound: any ECMP routing's MLU is at least the optimal
    /// multi-commodity-flow MLU; the FPTAS result certifies `(1-ε)² ·
    /// opt_mlu` as a true lower bound on the fluid optimum.
    fn check_mcf_bound(&self, mlu: f64, rep: &mut ValidationReport) -> Result<(), TeError> {
        let eps = self.cfg.mcf_epsilon;
        let mcf = segrout_algos::max_concurrent_flow(self.net, self.demands, eps)?;
        let lower = (1.0 - eps) * (1.0 - eps) * mcf.opt_mlu;
        rep.check(
            mlu >= lower - LOAD_TOL * (1.0 + lower),
            "mcf-lower-bound",
            || {
                format!(
                    "heuristic MLU {mlu} beats the fluid lower bound {lower} \
                 (FPTAS opt_mlu {}, ε {eps})",
                    mcf.opt_mlu
                )
            },
        );
        Ok(())
    }
}

/// Robust multi-matrix invariants for one `(Network, DemandSet, weights,
/// waypoints)` state:
///
/// * **per-matrix recomputation** — every entry of
///   [`evaluate_robust`]'s per-matrix MLU/Φ vectors must be bit-identical
///   to an independent from-scratch [`Router`] evaluation of that matrix,
/// * **incremental agreement** — a fresh [`IncrementalEvaluator`] per
///   matrix must reproduce the scratch loads (bit-identical under integral
///   weights, within tolerance otherwise),
/// * **aggregation identities** — the worst-case aggregate equals a manual
///   `max` fold, `Quantile(1.0)` equals `WorstCase` bit-exactly, and any
///   lower quantile never exceeds the worst case,
/// * **monotonicity** — the worst case over the first `k` matrices never
///   decreases as `k` grows.
///
/// # Errors
/// Returns the underlying [`TeError`] when the state cannot be evaluated
/// (disconnected segment, misaligned set) — a property of the input, not an
/// invariant violation.
pub fn validate_robust(
    net: &Network,
    set: &DemandSet,
    weights: &WeightSetting,
    waypoints: &WaypointSetting,
) -> Result<ValidationReport, TeError> {
    let mut rep = ValidationReport::default();
    set.require_aligned()?;
    let robust_rep = evaluate_robust(net, weights, set, waypoints)?;
    let integral = weights.as_slice().iter().all(|w| w.fract() == 0.0);

    let mut worst_prefix = f64::NEG_INFINITY;
    for (k, (name, demands)) in set.iter().enumerate() {
        let fresh = Router::new(net, weights).evaluate(demands, waypoints)?;
        rep.check(
            fresh.mlu.to_bits() == robust_rep.mlus[k].to_bits(),
            "robust-matrix-mlu",
            || {
                format!(
                    "matrix {k} ({name}): scratch MLU {} != robust report {}",
                    fresh.mlu, robust_rep.mlus[k]
                )
            },
        );
        let phi = fortz_phi(&fresh.loads, net.capacities());
        rep.check(
            phi.to_bits() == robust_rep.phis[k].to_bits(),
            "robust-matrix-phi",
            || {
                format!(
                    "matrix {k} ({name}): scratch Φ {phi} != robust report {}",
                    robust_rep.phis[k]
                )
            },
        );

        let ev = IncrementalEvaluator::new(net, weights, demands, waypoints)?;
        let scale = 1.0 + fresh.loads.iter().cloned().fold(0.0f64, f64::max);
        for (e, (&got, &want)) in ev.loads().iter().zip(&fresh.loads).enumerate() {
            let ok = if integral {
                got.to_bits() == want.to_bits()
            } else {
                (got - want).abs() <= LOAD_TOL * scale
            };
            rep.check(ok, "robust-incremental", || {
                format!(
                    "matrix {k} ({name}), edge {e}: incremental load {got} vs \
                     scratch {want} (integral = {integral})"
                )
            });
        }

        // Worst case over the first k+1 matrices is a running max.
        worst_prefix = worst_prefix.max(robust_rep.mlus[k]);
        let prefix = RobustObjective::WorstCase.aggregate(&robust_rep.mlus[..=k]);
        rep.check(
            prefix.to_bits() == worst_prefix.to_bits(),
            "robust-monotone",
            || {
                format!(
                    "prefix of {} matrices: worst-case aggregate {prefix} != \
                     running max {worst_prefix}",
                    k + 1
                )
            },
        );
    }

    let manual_worst = robust_rep
        .mlus
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    let worst = RobustObjective::WorstCase.aggregate(&robust_rep.mlus);
    rep.check(
        worst.to_bits() == manual_worst.to_bits(),
        "robust-aggregate",
        || format!("worst-case aggregate {worst} != manual max {manual_worst}"),
    );
    let q1 = RobustObjective::Quantile(1.0).aggregate(&robust_rep.mlus);
    rep.check(
        q1.to_bits() == worst.to_bits(),
        "robust-quantile-unit",
        || format!("Quantile(1.0) {q1} != WorstCase {worst}"),
    );
    let median = RobustObjective::Quantile(0.5).aggregate(&robust_rep.mlus);
    rep.check(median <= worst, "robust-quantile-order", || {
        format!("Quantile(0.5) {median} exceeds worst case {worst}")
    });
    Ok(rep)
}

/// Failure-sweep invariants for one `(Network, demands, weights, waypoints)`
/// state: enumerates the failure set (single links, plus doubles when
/// `doubles` is set), runs [`sweep_failures`] over `scalings`, and checks
///
/// * **bookkeeping** — scenario counts add up (`scenarios` = patterns ×
///   scalings, `evaluated + disconnects = scenarios`),
/// * **scratch differential** — every [`ScenarioOutcome::Evaluated`] is
///   reproduced by a from-scratch [`Router`] evaluation of a rebuilt
///   topology with the dead edges *deleted* (bit-identical loads, MLU and
///   Φ under integral weights, within tolerance otherwise), the disable probe
///   carries exactly zero load on every dead edge, and every
///   [`ScenarioOutcome::Disconnected`] corresponds to a scratch evaluation
///   that is genuinely unroutable,
/// * **certificate** — the worst-case certificate's MLU equals the maximum
///   of the evaluated distribution, its bottleneck link attains that
///   utilization, and the [`RobustObjective::WorstCase`] aggregate agrees,
/// * **distribution** — the MLU distribution is sorted and covers exactly
///   the evaluated scenarios.
///
/// # Errors
/// Returns the underlying [`TeError`] when the *intact* workload cannot be
/// evaluated — a property of the input, not an invariant violation.
pub fn validate_sweep(
    net: &Network,
    demands: &DemandList,
    weights: &WeightSetting,
    waypoints: &WaypointSetting,
    doubles: bool,
    scalings: &[f64],
) -> Result<ValidationReport, TeError> {
    let mut rep = ValidationReport::default();
    let set = FailureSet::enumerate(net, doubles);
    let sweep = sweep_failures(net, weights, demands, waypoints, &set, scalings)?;
    let integral = weights.as_slice().iter().all(|w| w.fract() == 0.0);

    rep.check(
        sweep.scenarios == set.len() * sweep.scalings.len(),
        "sweep-bookkeeping",
        || {
            format!(
                "{} scenarios for {} patterns x {} scalings",
                sweep.scenarios,
                set.len(),
                sweep.scalings.len()
            )
        },
    );
    rep.check(
        sweep.evaluated + sweep.disconnects == sweep.scenarios,
        "sweep-bookkeeping",
        || {
            format!(
                "evaluated {} + disconnects {} != scenarios {}",
                sweep.evaluated, sweep.disconnects, sweep.scenarios
            )
        },
    );
    rep.check(
        sweep.results.len() == sweep.scenarios,
        "sweep-bookkeeping",
        || {
            format!(
                "{} results for {} scenarios",
                sweep.results.len(),
                sweep.scenarios
            )
        },
    );

    for (si, &scale) in sweep.scalings.iter().enumerate() {
        let scaled: DemandList = demands
            .iter()
            .map(|d| Demand::new(d.src, d.dst, d.size * scale))
            .collect();
        let eval = IncrementalEvaluator::new(net, weights, &scaled, waypoints)?;
        for (p, pattern) in set.patterns().iter().enumerate() {
            let r = &sweep.results[si * set.len() + p];
            rep.check(
                r.pattern == p && r.scaling == si,
                "sweep-bookkeeping",
                || {
                    format!(
                        "result order: expected ({p}, {si}), found ({}, {})",
                        r.pattern, r.scaling
                    )
                },
            );

            // Rebuild the topology with the dead edges *deleted* — the
            // ground truth the disable probe claims to be equivalent to.
            let mut b = Network::builder(net.node_count());
            let mut kept = Vec::new();
            let mut kept_weights = Vec::new();
            for (e, u, v) in net.graph().edges() {
                if !pattern.dead.contains(&e) {
                    b.link(u, v, net.capacities()[e.index()]);
                    kept.push(e);
                    kept_weights.push(weights.as_slice()[e.index()]);
                }
            }
            let deleted = if kept.is_empty() {
                None
            } else {
                b.build().ok()
            };
            let Some(net2) = deleted else {
                rep.check(
                    matches!(r.outcome, ScenarioOutcome::Disconnected { .. }),
                    "sweep-classify",
                    || {
                        format!(
                            "pattern {p}: no surviving edges but outcome {:?}",
                            r.outcome
                        )
                    },
                );
                continue;
            };
            let w2 = WeightSetting::new(&net2, kept_weights)?;
            let fresh = Router::new(&net2, &w2).evaluate(&scaled, waypoints);

            match (&r.outcome, fresh) {
                (&ScenarioOutcome::Evaluated { mlu, phi, .. }, Ok(fresh)) => {
                    let probe = eval
                        .probe_disable(&pattern.dead)
                        .expect("evaluated scenario must re-probe");
                    let scale_tol = 1.0 + fresh.loads.iter().cloned().fold(0.0f64, f64::max);
                    let ok_mlu = if integral {
                        mlu.to_bits() == fresh.mlu.to_bits()
                    } else {
                        (mlu - fresh.mlu).abs() <= LOAD_TOL * (1.0 + fresh.mlu)
                    };
                    rep.check(ok_mlu, "sweep-scratch-mlu", || {
                        format!(
                            "pattern {p} @ x{scale}: probe MLU {mlu} vs deleted-topology \
                             scratch MLU {} (integral = {integral})",
                            fresh.mlu
                        )
                    });
                    for (new_idx, &old) in kept.iter().enumerate() {
                        let got = probe.loads[old.index()];
                        let want = fresh.loads[new_idx];
                        let ok = if integral {
                            got.to_bits() == want.to_bits()
                        } else {
                            (got - want).abs() <= LOAD_TOL * scale_tol
                        };
                        rep.check(ok, "sweep-scratch-loads", || {
                            format!(
                                "pattern {p} @ x{scale}, edge {}: probe load {got} vs \
                                 deleted-topology scratch {want}",
                                old.index()
                            )
                        });
                    }
                    for &dead in &pattern.dead {
                        rep.check(probe.loads[dead.index()] == 0.0, "sweep-dead-load", || {
                            format!(
                                "pattern {p} @ x{scale}: dead edge {} carries load {}",
                                dead.index(),
                                probe.loads[dead.index()]
                            )
                        });
                    }
                    let fresh_phi = fortz_phi(&fresh.loads, net2.capacities());
                    let ok_phi = if integral {
                        phi.to_bits() == fresh_phi.to_bits()
                    } else {
                        (phi - fresh_phi).abs() <= LOAD_TOL * (1.0 + fresh_phi)
                    };
                    rep.check(ok_phi, "sweep-scratch-phi", || {
                        format!(
                            "pattern {p} @ x{scale}: probe Φ {phi} vs deleted-topology \
                             scratch Φ {fresh_phi} (integral = {integral})"
                        )
                    });
                }
                (&ScenarioOutcome::Disconnected { .. }, Err(TeError::Unroutable { .. })) => {
                    rep.check(true, "sweep-classify", String::new);
                }
                (outcome, fresh) => {
                    rep.check(false, "sweep-classify", || {
                        format!(
                            "pattern {p} @ x{scale}: sweep outcome {outcome:?} but \
                             deleted-topology scratch gave {:?}",
                            fresh.map(|f| f.mlu)
                        )
                    });
                }
            }
        }
    }

    let dist = sweep.mlu_distribution();
    rep.check(dist.len() == sweep.evaluated, "sweep-distribution", || {
        format!(
            "distribution has {} entries for {} evaluated",
            dist.len(),
            sweep.evaluated
        )
    });
    rep.check(
        dist.windows(2).all(|w| w[0] <= w[1]),
        "sweep-distribution",
        || "MLU distribution is not sorted ascending".to_string(),
    );
    match (&sweep.worst, dist.last()) {
        (Some(cert), Some(&max)) => {
            rep.check(
                cert.mlu.to_bits() == max.to_bits(),
                "sweep-certificate",
                || format!("certificate MLU {} != distribution max {max}", cert.mlu),
            );
            let util = cert.bottleneck_load / net.capacities()[cert.bottleneck.index()];
            rep.check(
                util.to_bits() == cert.mlu.to_bits(),
                "sweep-certificate",
                || {
                    format!(
                        "bottleneck edge {} utilization {util} != certificate MLU {}",
                        cert.bottleneck.index(),
                        cert.mlu
                    )
                },
            );
            let agg = sweep.aggregate_mlu(RobustObjective::WorstCase);
            rep.check(
                agg.map(f64::to_bits) == Some(cert.mlu.to_bits()),
                "sweep-certificate",
                || {
                    format!(
                        "worst-case aggregate {agg:?} != certificate MLU {}",
                        cert.mlu
                    )
                },
            );
        }
        (None, None) => {
            rep.check(sweep.evaluated == 0, "sweep-certificate", || {
                format!("{} evaluated scenarios but no certificate", sweep.evaluated)
            });
        }
        (cert, max) => {
            rep.check(false, "sweep-certificate", || {
                format!("certificate {cert:?} inconsistent with distribution max {max:?}")
            });
        }
    }
    Ok(rep)
}

/// Kahn topological order of the nodes over the on-DAG edges; `None` when
/// the subgraph has a cycle.
fn kahn_order(net: &Network, dag: &SpDag) -> Option<Vec<NodeId>> {
    let g = net.graph();
    let n = g.node_count();
    let mut indeg = vec![0usize; n];
    for (e, _, v) in g.edges() {
        if dag.edge_on_dag[e.index()] {
            indeg[v.index()] += 1;
        }
    }
    let mut stack: Vec<NodeId> = g.nodes().filter(|v| indeg[v.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = stack.pop() {
        order.push(v);
        for &e in dag.dag_out(v) {
            let w = g.dst(e);
            indeg[w.index()] -= 1;
            if indeg[w.index()] == 0 {
                stack.push(w);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// `true` when the destination DAG's edge subgraph is acyclic.
fn dag_is_acyclic(net: &Network, dag: &SpDag) -> bool {
    kahn_order(net, dag).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Network, DemandList) {
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), 1.0);
        b.link(NodeId(1), NodeId(3), 1.0);
        b.link(NodeId(0), NodeId(2), 1.0);
        b.link(NodeId(2), NodeId(3), 1.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 2.0);
        d.push(NodeId(1), NodeId(3), 0.5);
        (net, d)
    }

    #[test]
    fn valid_state_passes_the_full_suite() {
        let (net, demands) = diamond();
        let w = WeightSetting::unit(&net);
        let mut wp = WaypointSetting::none(demands.len());
        wp.set(0, vec![NodeId(2)]);
        let rep = Validator::new(&net, &demands, &w, &wp).validate().unwrap();
        assert!(rep.is_ok(), "{rep}");
        assert!(rep.checks > 20, "suite ran only {} checks", rep.checks);
    }

    #[test]
    fn fractional_weights_pass_with_tolerant_comparison() {
        let (net, demands) = diamond();
        let w = WeightSetting::new(&net, vec![1.25, 1.0, 1.0, 1.25]).unwrap();
        let wp = WaypointSetting::none(demands.len());
        Validator::new(&net, &demands, &w, &wp).assert_valid();
    }

    #[test]
    fn unroutable_state_is_an_error_not_a_violation() {
        // One-way chain: demand against the arrow direction.
        let mut b = Network::builder(3);
        b.link(NodeId(0), NodeId(1), 1.0);
        b.link(NodeId(1), NodeId(2), 1.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(2), NodeId(0), 1.0);
        let w = WeightSetting::unit(&net);
        let wp = WaypointSetting::none(d.len());
        let err = Validator::new(&net, &d, &w, &wp).validate().unwrap_err();
        assert!(matches!(err, TeError::Unroutable { .. }));
    }

    #[test]
    fn robust_state_passes_and_misalignment_errors() {
        let (net, demands) = diamond();
        let scaled: DemandList = demands
            .iter()
            .map(|d| segrout_core::Demand::new(d.src, d.dst, d.size * 0.25))
            .collect();
        let mut set = DemandSet::single(demands.clone());
        set.push("offpeak", scaled);
        let w = WeightSetting::unit(&net);
        let mut wp = WaypointSetting::none(demands.len());
        wp.set(0, vec![NodeId(2)]);
        let rep = validate_robust(&net, &set, &w, &wp).unwrap();
        assert!(rep.is_ok(), "{rep}");
        assert!(rep.checks > 10, "suite ran only {} checks", rep.checks);

        // A misaligned set (different pair list) with waypoints is an input
        // error, not a violation.
        let mut other = DemandList::new();
        other.push(NodeId(1), NodeId(0), 1.0);
        let mut bad = DemandSet::single(demands.clone());
        bad.push("misaligned", other);
        assert!(validate_robust(&net, &bad, &w, &wp).is_err());
    }

    #[test]
    fn sweep_suite_passes_on_bidirected_diamond() {
        // Bi-directed diamond so single failures leave an alternate path and
        // doubles produce genuine disconnects — both classification arms of
        // the suite run.
        let mut b = Network::builder(4);
        b.bilink(NodeId(0), NodeId(1), 1.0);
        b.bilink(NodeId(1), NodeId(3), 1.0);
        b.bilink(NodeId(0), NodeId(2), 1.0);
        b.bilink(NodeId(2), NodeId(3), 1.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 2.0);
        let w = WeightSetting::unit(&net);
        let wp = WaypointSetting::none(d.len());
        let rep = validate_sweep(&net, &d, &w, &wp, true, &[0.5, 1.0]).unwrap();
        assert!(rep.is_ok(), "{rep}");
        assert!(rep.checks > 50, "suite ran only {} checks", rep.checks);
    }

    #[test]
    fn sweep_suite_handles_fractional_weights_and_waypoints() {
        let (net, demands) = diamond();
        let w = WeightSetting::new(&net, vec![1.25, 1.0, 1.0, 1.25]).unwrap();
        let mut wp = WaypointSetting::none(demands.len());
        wp.set(0, vec![NodeId(2)]);
        let rep = validate_sweep(&net, &demands, &w, &wp, false, &[1.0]).unwrap();
        assert!(rep.is_ok(), "{rep}");
    }

    #[test]
    fn abilene_gravity_state_passes() {
        let net = segrout_topo::abilene();
        let demands = segrout_traffic::gravity(
            &net,
            &segrout_traffic::TrafficConfig {
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let w = WeightSetting::inverse_capacity(&net);
        let wp = WaypointSetting::none(demands.len());
        let cfg = ValidatorConfig {
            mcf_lower_bound: true,
            ..Default::default()
        };
        let rep = Validator::new(&net, &demands, &w, &wp)
            .with_config(cfg)
            .validate()
            .unwrap();
        assert!(rep.is_ok(), "{rep}");
    }
}
