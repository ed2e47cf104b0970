//! HeurOSPF: the Fortz–Thorup local search for link-weight optimization
//! (paper \[11\], used as the subroutine of JOINT-Heur in §6).
//!
//! Weights are integers in `[1, max_weight]`. The search starts from the
//! inverse-capacity setting (plus optional random restarts), and repeatedly
//! scans the links in random order trying a small family of candidate weight
//! changes per link, accepting the first strict improvement of the
//! objective. A hash set of visited weight vectors avoids re-evaluating
//! settings, and a no-improvement full pass ends a descent.
//!
//! Each link's candidate neighbourhood is scored **speculatively in
//! parallel** on the `segrout-par` pool, then the first improving candidate
//! in fixed candidate order is accepted. Candidate generation, visited-set
//! filtering, and the accepting reduction all run serially on the caller, so
//! the search is bit-identical at any thread count.
//!
//! Candidate scoring goes through the **incremental evaluation engine**
//! ([`segrout_core::IncrementalEvaluator`]): probes borrow the shared base
//! state read-only and repair only the destinations whose shortest-path DAG
//! the single-edge change can touch; the accepted move is committed in
//! place. Probe answers are bit-identical to a from-scratch [`Router`]
//! evaluation (pinned by the differential harness's `walk` kind in
//! `tests/incremental_differential.rs`, the fuzzer's probe/commit stage and
//! the debug-build commit hooks), so the search takes the trajectory a
//! from-scratch scorer would, at a fraction of the work. Building a
//! descent's evaluators is one full evaluation, which also scores its
//! start: the inverse-capacity start is evaluated once, and restart 0
//! descends from the evaluators that scored it.
//!
//! [`Router`]: segrout_core::Router
//!
//! Objective: the paper's local search minimizes the piecewise-linear
//! congestion cost `Φ` (which correlates with, and tie-breaks on, MLU); the
//! evaluation in §7 reports MLU. Both orderings are supported.
//!
//! **Robust multi-matrix search** ([`heur_ospf_robust`]): the same descent
//! against a [`DemandSet`] of `K` traffic matrices. Every candidate move is
//! probed against *every* matrix (one [`IncrementalEvaluator`] per matrix;
//! the `(candidate × matrix)` grid fans out on the `segrout-par` pool), and
//! the per-matrix `(Φ, MLU)` values fold through a [`RobustObjective`]
//! before entering the lexicographic comparison. [`heur_ospf`] is the
//! `K = 1` special case and delegates here — a one-matrix set reproduces
//! the classic search bit for bit.

use segrout_core::rng::{SliceRandom, StdRng};
use segrout_core::{
    DemandList, DemandSet, EdgeId, FailureSet, IncrementalEvaluator, Network, RobustObjective,
    WaypointSetting, WeightSetting,
};
use segrout_obs::{event, Level};
use std::collections::HashSet;

/// Which objective the local search descends on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Lexicographic `(Φ, MLU)` — the Fortz–Thorup congestion cost first.
    PhiThenMlu,
    /// Lexicographic `(MLU, Φ)` — minimize the paper's reported metric
    /// directly, tie-breaking on Φ.
    MluThenPhi,
}

/// Configuration of the local search.
#[derive(Clone, Debug)]
pub struct HeurOspfConfig {
    /// Largest integer weight (Fortz–Thorup use 16–20 for ISP topologies).
    pub max_weight: u32,
    /// Number of random restarts in addition to the inverse-capacity start.
    pub restarts: usize,
    /// Upper bound on full link-scan passes per descent.
    pub max_passes: usize,
    /// Objective ordering.
    pub objective: Objective,
    /// RNG seed (the search is deterministic given the seed).
    pub seed: u64,
}

impl Default for HeurOspfConfig {
    fn default() -> Self {
        Self {
            max_weight: 20,
            restarts: 2,
            max_passes: 30,
            objective: Objective::MluThenPhi,
            seed: 0x5eed,
        }
    }
}

/// Objective value: a lexicographic pair.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Score(f64, f64);

impl Score {
    /// The MLU component of the lexicographic pair.
    fn mlu(&self, objective: Objective) -> f64 {
        match objective {
            Objective::PhiThenMlu => self.1,
            Objective::MluThenPhi => self.0,
        }
    }

    /// The Φ component of the lexicographic pair.
    fn phi(&self, objective: Objective) -> f64 {
        match objective {
            Objective::PhiThenMlu => self.0,
            Objective::MluThenPhi => self.1,
        }
    }

    fn better_than(&self, other: &Score) -> bool {
        const REL: f64 = 1e-9;
        let tol0 = REL * (1.0 + other.0.abs());
        if self.0 < other.0 - tol0 {
            return true;
        }
        if self.0 > other.0 + tol0 {
            return false;
        }
        self.1 < other.1 - REL * (1.0 + other.1.abs())
    }
}

/// Weight vectors already evaluated during one descent.
///
/// Membership is exact: the set stores the full integer vectors, not a
/// digest. An earlier revision tracked a single 64-bit `DefaultHasher`
/// digest per vector, so a hash collision would silently mark a
/// never-evaluated candidate as visited and discard it — an unrecoverable
/// false positive, since the local search never revisits. Lookups borrow
/// the candidate as a slice, so only genuinely fresh vectors allocate.
#[derive(Default)]
struct VisitedSet(HashSet<Vec<u32>>);

impl VisitedSet {
    /// Inserts `w`, returning `true` when it was not seen before.
    fn insert(&mut self, w: &[u32]) -> bool {
        if self.0.contains(w) {
            return false;
        }
        self.0.insert(w.to_vec())
    }
}

/// Folds `(Φ, MLU)` into the configured lexicographic ordering.
fn score_from(phi: f64, mlu: f64, objective: Objective) -> Score {
    match objective {
        Objective::PhiThenMlu => Score(phi, mlu),
        Objective::MluThenPhi => Score(mlu, phi),
    }
}

/// Scales the inverse-capacity setting into the integer range
/// `[1, max_weight]` — the conventional warm start.
///
/// # Panics
/// Panics with a descriptive message on degenerate inputs — an empty edge
/// set or non-finite/non-positive capacities — instead of silently emitting
/// `INFINITY`-derived garbage weights.
fn inverse_capacity_start(net: &Network, max_weight: u32) -> Vec<u32> {
    assert!(
        net.edge_count() > 0,
        "inverse-capacity start is undefined on a network with no links"
    );
    let min_cap = net
        .capacities()
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    assert!(
        min_cap.is_finite() && min_cap > 0.0,
        "inverse-capacity start needs positive finite link capacities (min capacity = {min_cap})"
    );
    net.capacities()
        .iter()
        .map(|&c| {
            let w = (min_cap / c * max_weight as f64).round();
            (w as u32).clamp(1, max_weight)
        })
        .collect()
}

/// Builds one incremental evaluation engine per matrix for the current
/// integer weights.
///
/// `None` when any matrix is unroutable: the descent then scores the
/// weights infinitely bad (see [`evaluators_score`]).
fn build_evaluators<'n>(
    net: &'n Network,
    set: &DemandSet,
    weights: &[u32],
) -> Option<Vec<IncrementalEvaluator<'n>>> {
    let w = WeightSetting::new(net, weights.iter().map(|&x| x as f64).collect())
        .expect("integer weights in range are always valid");
    let mut evs = Vec::with_capacity(set.len());
    for demands in set.matrices() {
        evs.push(
            IncrementalEvaluator::new(net, &w, demands, &WaypointSetting::none(demands.len()))
                .ok()?,
        );
    }
    Some(evs)
}

/// The robust-aggregated lexicographic score of the evaluators' base state.
/// `None` — some scenario is unroutable — scores infinitely bad.
fn evaluators_score(
    evs: Option<&[IncrementalEvaluator<'_>]>,
    robust: RobustObjective,
    objective: Objective,
) -> Score {
    let Some(evs) = evs else {
        return Score(f64::INFINITY, f64::INFINITY);
    };
    let phis: Vec<f64> = evs.iter().map(IncrementalEvaluator::phi).collect();
    let mlus: Vec<f64> = evs.iter().map(IncrementalEvaluator::mlu).collect();
    score_from(robust.aggregate(&phis), robust.aggregate(&mlus), objective)
}

/// Runs the HeurOSPF local search, returning the best weight setting found.
///
/// Deterministic for a fixed seed. Routability does not depend on the
/// weights, so demands unroutable under one setting are unroutable under
/// all: every score is then infinite, and the inverse-capacity start is
/// returned unchanged.
pub fn heur_ospf(net: &Network, demands: &DemandList, cfg: &HeurOspfConfig) -> WeightSetting {
    heur_ospf_robust(
        net,
        &DemandSet::single(demands.clone()),
        RobustObjective::WorstCase,
        cfg,
    )
}

/// Runs the HeurOSPF local search against a set of traffic matrices,
/// descending on the `robust`-aggregated per-matrix `(Φ, MLU)`.
///
/// Every candidate weight change is probed against every matrix (one
/// incremental evaluator per matrix, the `(candidate × matrix)` grid
/// scored speculatively on the `segrout-par` pool) and the per-matrix
/// metrics fold through `robust` before the lexicographic comparison. A
/// single-matrix set is bit-identical to [`heur_ospf`].
///
/// # Panics
/// Panics on an empty demand set or `max_weight < 2`.
pub fn heur_ospf_robust(
    net: &Network,
    set: &DemandSet,
    robust: RobustObjective,
    cfg: &HeurOspfConfig,
) -> WeightSetting {
    assert!(
        cfg.max_weight >= 2,
        "max_weight must allow at least {{1, 2}}"
    );
    assert!(!set.is_empty(), "demand set must hold at least one matrix");
    let _span = segrout_obs::span("heurospf");
    descend(
        net,
        cfg,
        robust,
        set.len(),
        |w| build_evaluators(net, set, w),
        |cur, evs| {
            // Commit-point hook: every evaluator's repaired state must equal
            // a from-scratch evaluation of the accepted weights.
            let w = WeightSetting::new(net, cur.iter().map(|&x| f64::from(x)).collect())
                .expect("integer weights in range are always valid");
            for (demands, ev) in set.matrices().zip(evs.iter()) {
                segrout_core::hooks::assert_commit_consistent(
                    net,
                    &w,
                    demands,
                    &WaypointSetting::none(demands.len()),
                    ev.loads(),
                    ev.mlu(),
                );
            }
        },
    )
}

/// Runs the HeurOSPF local search against a [`FailureSet`], descending on
/// the `robust`-aggregated `(Φ, MLU)` over all *surviving* failure
/// scenarios: the intact topology plus every pattern that keeps all demands
/// routable.
///
/// Whether a pattern disconnects a demand depends only on the topology —
/// masked routing never consults weights for reachability — so the
/// surviving-scenario set is classified once up front and stays fixed for
/// the whole search. Every candidate weight change is then probed against
/// every scenario (one [`IncrementalEvaluator`] per scenario, built with
/// [`IncrementalEvaluator::new_with_failures`]; the `(candidate × scenario)`
/// grid fans out on the `segrout-par` pool) and the per-scenario metrics
/// fold through `robust` before the lexicographic comparison. Probing a
/// scenario's own dead link is a no-op by construction: a failed link's
/// weight cannot steer traffic that never crosses it.
///
/// # Panics
/// Panics when `max_weight < 2`.
pub fn heur_ospf_failure_robust<'n>(
    net: &'n Network,
    demands: &DemandList,
    failures: &FailureSet,
    robust: RobustObjective,
    cfg: &HeurOspfConfig,
) -> WeightSetting {
    assert!(
        cfg.max_weight >= 2,
        "max_weight must allow at least {{1, 2}}"
    );
    let _span = segrout_obs::span("heurospf_fail");
    let wp = WaypointSetting::none(demands.len());

    // Classify disconnecting patterns once. Construction performs a full
    // masked evaluation, so `Err(Unroutable)` is exactly "this pattern cuts
    // some demand off its destination" — those scenarios are excluded from
    // the aggregation (the sweep engine reports them separately; an
    // optimizer cannot weight its way around a partitioned topology).
    let probe_w = WeightSetting::unit(net);
    let mut scenarios: Vec<&[EdgeId]> = vec![&[]];
    let mut disconnected = 0usize;
    for p in failures.patterns() {
        match IncrementalEvaluator::new_with_failures(net, &probe_w, demands, &wp, &p.dead) {
            Ok(_) => scenarios.push(&p.dead),
            Err(_) => disconnected += 1,
        }
    }
    let k = scenarios.len();
    event!(
        Level::Debug,
        "heurospf_fail.setup",
        patterns = failures.len(),
        scenarios = k,
        disconnected = disconnected,
    );

    let build = |w: &[u32]| -> Option<Vec<IncrementalEvaluator<'n>>> {
        let ws = WeightSetting::new(net, w.iter().map(|&x| f64::from(x)).collect())
            .expect("integer weights in range are always valid");
        let mut evs = Vec::with_capacity(scenarios.len());
        for dead in &scenarios {
            evs.push(IncrementalEvaluator::new_with_failures(net, &ws, demands, &wp, dead).ok()?);
        }
        Some(evs)
    };
    descend(net, cfg, robust, k, build, |cur, evs| {
        // Commit-point hook: each scenario's repaired state must equal a
        // from-scratch masked evaluation of the accepted weights.
        let ws = WeightSetting::new(net, cur.iter().map(|&x| f64::from(x)).collect())
            .expect("integer weights in range are always valid");
        for (dead, ev) in scenarios.iter().zip(evs.iter()) {
            let fresh = IncrementalEvaluator::new_with_failures(net, &ws, demands, &wp, dead)
                .expect("surviving scenarios stay routable under any weights");
            assert_eq!(
                fresh.mlu().to_bits(),
                ev.mlu().to_bits(),
                "committed failure-scenario state diverged from scratch"
            );
            assert_eq!(
                fresh.phi().to_bits(),
                ev.phi().to_bits(),
                "committed failure-scenario state diverged from scratch"
            );
        }
    })
}

/// The shared first-improvement descent: restarts, shuffled link scans, and
/// the speculative `(candidate × scenario)` probe grid, generic over what a
/// "scenario" is. [`heur_ospf_robust`] instantiates it with one incremental
/// evaluator per traffic matrix; [`heur_ospf_failure_robust`] with one per
/// failure scenario.
///
/// `build` constructs the per-scenario evaluators for a weight vector
/// (`None` ⇒ some scenario is unroutable ⇒ an infinite score no move can
/// improve), and `debug_check` asserts commit consistency of every
/// evaluator after an accepted move (invoked in debug builds only).
fn descend<'n, B, C>(
    net: &'n Network,
    cfg: &HeurOspfConfig,
    robust: RobustObjective,
    k: usize,
    build: B,
    debug_check: C,
) -> WeightSetting
where
    B: Fn(&[u32]) -> Option<Vec<IncrementalEvaluator<'n>>>,
    C: Fn(&[u32], &[IncrementalEvaluator<'n>]),
{
    // `heurospf.iterations` counts candidate-weight evaluations (one full
    // ECMP scoring each); the trajectory series records the incumbent MLU at
    // every accepted move — the Figure 4-6 convergence signal. Robust runs
    // (`K > 1`) additionally count per-matrix evaluations, K per candidate.
    let iterations = segrout_obs::counter("heurospf.iterations");
    let matrix_evals = (k > 1).then(|| segrout_obs::counter("robust.matrix_evals"));
    let trajectory = segrout_obs::series("heurospf.mlu_trajectory");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let m = net.edge_count();

    let mut best: Vec<u32> = inverse_capacity_start(net, cfg.max_weight);
    let start_evaluators = build(&best);
    let mut best_score = evaluators_score(start_evaluators.as_deref(), robust, cfg.objective);
    iterations.inc();
    // Local evaluation count for the flight recorder (the global counter is
    // shared across concurrent runs in one process); `trace_best` gates the
    // trace on *global* improvement so the recorded best-MLU curve is
    // monotone across restarts. Tracing never feeds back into the search.
    let mut total_evals: u64 = 1;
    let mut trace_best = best_score;
    segrout_obs::trace_point(
        "heurospf.start",
        total_evals,
        best_score.phi(cfg.objective),
        best_score.mlu(cfg.objective),
    );
    trajectory.push(best_score.mlu(cfg.objective));
    event!(
        Level::Debug,
        "heurospf.start",
        edges = m,
        matrices = k,
        restarts = cfg.restarts,
        start_mlu = best_score.mlu(cfg.objective),
    );

    // Restart 0 descends from the evaluators that scored the start, so the
    // start costs one evaluation.
    let mut start_evaluators = Some(start_evaluators);
    for restart in 0..=cfg.restarts {
        // The evaluators own the descent's base state (weights, per-dest
        // DAGs and load partials, Φ/MLU per matrix); construction is one
        // full evaluation per matrix, so their aggregated score is the
        // restart's starting score.
        let (mut cur, mut evaluators) = match start_evaluators.take() {
            Some(evs) => (best.clone(), evs),
            None => {
                let cur: Vec<u32> = (0..m).map(|_| rng.gen_range(1..=cfg.max_weight)).collect();
                iterations.inc();
                total_evals += 1;
                let evs = build(&cur);
                (cur, evs)
            }
        };
        let mut cur_score = evaluators_score(evaluators.as_deref(), robust, cfg.objective);
        event!(
            Level::Debug,
            "heurospf.restart",
            restart = restart,
            mlu = cur_score.mlu(cfg.objective),
        );
        let mut visited = VisitedSet::default();
        visited.insert(&cur);

        let mut edge_order: Vec<usize> = (0..m).collect();
        for pass in 0..cfg.max_passes {
            let mut improved = false;
            // Batched locally and flushed once per pass so the hot candidate
            // loop pays no atomic traffic.
            let mut pass_evals: u64 = 0;
            edge_order.shuffle(&mut rng);
            for &e in &edge_order {
                let old = cur[e];
                // Candidate moves: small steps, halving/doubling, extremes,
                // and one random value — a cheap but diverse neighbourhood.
                // Computed before any evaluation so the RNG stream is
                // independent of how the neighbourhood is scheduled.
                let candidates = [
                    old.saturating_sub(1).max(1),
                    (old + 1).min(cfg.max_weight),
                    (old / 2).max(1),
                    (old * 2).min(cfg.max_weight),
                    1,
                    cfg.max_weight,
                    rng.gen_range(1..=cfg.max_weight),
                ];
                // Filter against the visited set serially, in candidate
                // order (set membership must not depend on scheduling).
                let mut fresh: Vec<u32> = Vec::with_capacity(candidates.len());
                for &cand in &candidates {
                    if cand == old {
                        continue;
                    }
                    cur[e] = cand;
                    let is_new = visited.insert(&cur);
                    cur[e] = old;
                    if is_new {
                        fresh.push(cand);
                    }
                }
                pass_evals += fresh.len() as u64;
                // Unroutable weights score ∞, and so does every candidate
                // (routability does not depend on the weights): the pass
                // rejects the neighbourhood without probing it.
                let Some(evs) = evaluators.as_mut() else {
                    continue;
                };
                // Score the whole neighbourhood speculatively on the pool,
                // then accept the first improving candidate *in candidate
                // order* — the ordered (score, index) reduction that keeps
                // the search bit-identical at any thread count. Probes
                // borrow the base state read-only: each one repairs only the
                // destinations the single-edge change can affect, then
                // re-sums the cached load partials — no full ECMP
                // evaluation, no weight vector clone. The fan-out covers the
                // full (candidate × matrix) grid, candidate-major, so
                // candidate `ci`'s probes live at `[ci·K, ci·K+K)`.
                let ev_refs: &[IncrementalEvaluator] = evs;
                let eid = segrout_core::EdgeId(e as u32);
                let tasks: Vec<(usize, usize)> = fresh
                    .iter()
                    .enumerate()
                    .flat_map(|(ci, _)| (0..k).map(move |mi| (ci, mi)))
                    .collect();
                let mut probes = segrout_par::par_map_slice(&tasks, |_, &(ci, mi)| {
                    ev_refs[mi].probe(eid, f64::from(fresh[ci])).ok()
                });
                for (idx, &cand) in fresh.iter().enumerate() {
                    let group = &probes[idx * k..(idx + 1) * k];
                    let s = if group.iter().all(Option::is_some) {
                        let mut phis = Vec::with_capacity(k);
                        let mut mlus = Vec::with_capacity(k);
                        for p in group.iter().flatten() {
                            phis.push(p.phi);
                            mlus.push(p.mlu);
                        }
                        score_from(
                            robust.aggregate(&phis),
                            robust.aggregate(&mlus),
                            cfg.objective,
                        )
                    } else {
                        Score(f64::INFINITY, f64::INFINITY)
                    };
                    if s.better_than(&cur_score) {
                        for (mi, ev) in evs.iter_mut().enumerate() {
                            let p = probes[idx * k + mi]
                                .take()
                                .expect("an infinite score never improves");
                            ev.commit(p);
                        }
                        cur[e] = cand;
                        cur_score = s;
                        improved = true;
                        if cfg!(debug_assertions) {
                            debug_check(&cur, evs);
                        }
                        trajectory.push(cur_score.mlu(cfg.objective));
                        if segrout_obs::trace_enabled() && cur_score.better_than(&trace_best) {
                            trace_best = cur_score;
                            segrout_obs::trace_point(
                                "heurospf.accept",
                                total_evals + pass_evals,
                                cur_score.phi(cfg.objective),
                                cur_score.mlu(cfg.objective),
                            );
                            // Robust runs also record the accepted move's
                            // per-matrix state (`iter` is the matrix index
                            // within the set).
                            if k > 1 {
                                for (mi, ev) in evs.iter().enumerate() {
                                    segrout_obs::trace_point(
                                        "robust.matrix",
                                        mi as u64,
                                        ev.phi(),
                                        ev.mlu(),
                                    );
                                }
                            }
                        }
                        event!(
                            Level::Trace,
                            "heurospf.accept",
                            edge = e,
                            weight = cand,
                            mlu = cur_score.mlu(cfg.objective),
                        );
                        break; // first improvement: keep cand
                    }
                }
            }
            iterations.add(pass_evals);
            if let Some(ctr) = &matrix_evals {
                ctr.add(pass_evals * k as u64);
            }
            total_evals += pass_evals;
            event!(
                Level::Debug,
                "heurospf.pass",
                restart = restart,
                pass = pass,
                evals = pass_evals,
                improved = improved,
                mlu = cur_score.mlu(cfg.objective),
            );
            if !improved {
                break;
            }
        }
        if cur_score.better_than(&best_score) {
            best_score = cur_score;
            best = cur;
        }
    }

    segrout_obs::gauge("heurospf.best_mlu").set(best_score.mlu(cfg.objective));
    segrout_obs::trace_point(
        "heurospf.done",
        total_evals,
        best_score.phi(cfg.objective),
        best_score.mlu(cfg.objective),
    );
    event!(
        Level::Info,
        "heurospf.done",
        evals = iterations.get(),
        best_mlu = best_score.mlu(cfg.objective),
    );
    WeightSetting::new(net, best.iter().map(|&x| x as f64).collect())
        .expect("integer weights in range are always valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use segrout_core::{NodeId, Router};

    /// The Figure-1 style trap: direct link (s,t) with capacity 1, detour
    /// with capacity 10. Unit weights overload the direct link; the local
    /// search must lengthen it.
    fn trap_network() -> (Network, DemandList) {
        let mut b = Network::builder(3);
        b.link(NodeId(0), NodeId(2), 1.0); // direct, thin
        b.link(NodeId(0), NodeId(1), 10.0);
        b.link(NodeId(1), NodeId(2), 10.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(2), 10.0);
        (net, d)
    }

    #[test]
    fn escapes_the_thin_direct_link() {
        let (net, d) = trap_network();
        let cfg = HeurOspfConfig::default();
        let w = heur_ospf(&net, &d, &cfg);
        let router = Router::new(&net, &w);
        let mlu = router.mlu(&d).unwrap();
        // Routing everything over the detour gives MLU 1.0; splitting gives
        // 5.0; direct-only gives 10. The search must find <= 1.0.
        assert!(mlu <= 1.0 + 1e-9, "mlu = {mlu}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (net, d) = trap_network();
        let cfg = HeurOspfConfig::default();
        let a = heur_ospf(&net, &d, &cfg);
        let b = heur_ospf(&net, &d, &cfg);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn weights_stay_in_range() {
        let (net, d) = trap_network();
        let cfg = HeurOspfConfig {
            max_weight: 7,
            ..Default::default()
        };
        let w = heur_ospf(&net, &d, &cfg);
        for &x in w.as_slice() {
            assert!((1.0..=7.0).contains(&x));
            assert_eq!(x, x.round());
        }
    }

    #[test]
    fn phi_objective_also_improves() {
        let (net, d) = trap_network();
        let cfg = HeurOspfConfig {
            objective: Objective::PhiThenMlu,
            ..Default::default()
        };
        let w = heur_ospf(&net, &d, &cfg);
        let router = Router::new(&net, &w);
        assert!(router.mlu(&d).unwrap() <= 1.0 + 1e-9);
    }

    #[test]
    fn multi_demand_balancing() {
        // Square with two crossing demands; unit capacities force the search
        // to keep the demands on disjoint sides.
        let mut b = Network::builder(4);
        b.bilink(NodeId(0), NodeId(1), 1.0);
        b.bilink(NodeId(1), NodeId(2), 1.0);
        b.bilink(NodeId(2), NodeId(3), 1.0);
        b.bilink(NodeId(3), NodeId(0), 1.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(2), 1.0);
        d.push(NodeId(2), NodeId(0), 1.0);
        let w = heur_ospf(&net, &d, &HeurOspfConfig::default());
        let router = Router::new(&net, &w);
        // Perfectly balanced: each unit takes one two-hop side, MLU 1.0 (or
        // 0.5 each way if split). Must not exceed 1.
        assert!(router.mlu(&d).unwrap() <= 1.0 + 1e-9);
    }

    #[test]
    fn inverse_capacity_start_is_sane() {
        let (net, _) = trap_network();
        let start = inverse_capacity_start(&net, 20);
        assert_eq!(start[0], 20); // thin link gets the largest weight
        assert_eq!(start[1], 2); // 1/10 of max, rounded
    }

    #[test]
    #[should_panic(expected = "no links")]
    fn inverse_capacity_start_rejects_edgeless_network() {
        let net = Network::builder(3).build().unwrap();
        inverse_capacity_start(&net, 20);
    }

    /// The visited set must be exact: every distinct weight vector is fresh
    /// exactly once, regardless of how collision-prone its content is. (The
    /// old 64-bit digest version could silently discard a never-evaluated
    /// candidate on a hash collision.)
    #[test]
    fn visited_set_is_exact() {
        let mut visited = VisitedSet::default();
        let mut vectors: Vec<Vec<u32>> = Vec::new();
        // Small, highly regular vectors — the worst case for weak digests.
        for a in 1..=40u32 {
            for b in 1..=40u32 {
                vectors.push(vec![a, b]);
                vectors.push(vec![b, a]);
            }
        }
        for (i, v) in vectors.iter().enumerate() {
            // a==b produces the only duplicates in the stream; every first
            // occurrence must be fresh, every repeat must not.
            let first_occurrence = vectors.iter().position(|x| x == v) == Some(i);
            assert_eq!(visited.insert(v), first_occurrence, "vector {v:?}");
        }
        for v in &vectors {
            assert!(!visited.insert(v), "vector {v:?} reported fresh twice");
        }
    }

    /// Demands no weight setting can route (node 2 has no path to node 0)
    /// score ∞ at the start and at every restart, so no move is accepted
    /// and the inverse-capacity start comes back unchanged.
    #[test]
    fn unroutable_demand_returns_inverse_capacity_start() {
        let (net, _) = trap_network();
        let mut d = DemandList::new();
        d.push(NodeId(2), NodeId(0), 1.0);
        for objective in [Objective::MluThenPhi, Objective::PhiThenMlu] {
            let cfg = HeurOspfConfig {
                objective,
                ..Default::default()
            };
            let w = heur_ospf(&net, &d, &cfg);
            let start: Vec<f64> = inverse_capacity_start(&net, cfg.max_weight)
                .iter()
                .map(|&x| f64::from(x))
                .collect();
            assert_eq!(w.as_slice(), start.as_slice());
        }
    }

    /// A two-matrix robust search must find weights whose *worst-case* MLU
    /// beats optimizing for either matrix alone on an instance built to
    /// punish single-matrix tuning.
    #[test]
    fn robust_search_protects_the_worst_matrix() {
        // Two parallel two-hop corridors between 0 and 3; matrix A loads
        // (0→3), matrix B loads (3→0). Tuning weights for one direction
        // only is free to break the other.
        let mut b = Network::builder(4);
        b.bilink(NodeId(0), NodeId(1), 1.0);
        b.bilink(NodeId(1), NodeId(3), 1.0);
        b.bilink(NodeId(0), NodeId(2), 1.0);
        b.bilink(NodeId(2), NodeId(3), 1.0);
        let net = b.build().unwrap();
        let mut a = DemandList::new();
        a.push(NodeId(0), NodeId(3), 1.6);
        let mut bm = DemandList::new();
        bm.push(NodeId(3), NodeId(0), 1.6);
        let mut set = DemandSet::single(a);
        set.push("reverse", bm);

        let w = heur_ospf_robust(
            &net,
            &set,
            RobustObjective::WorstCase,
            &HeurOspfConfig::default(),
        );
        let rep =
            segrout_core::evaluate_robust(&net, &w, &set, &WaypointSetting::none(set.pair_count()))
                .unwrap();
        // Splitting each 1.6-unit demand across both corridors gives 0.8 on
        // every link; any single-corridor routing hits 1.6.
        assert!(rep.worst_mlu() <= 0.8 + 1e-9, "worst {}", rep.worst_mlu());
    }

    /// Four parallel links, one fat: the inverse-capacity start puts all
    /// traffic on the fat link (every thin-link failure scenario — and the
    /// intact one — then sits at MLU 1.0); the failure-robust search must
    /// lengthen the fat link into the tie so that losing any one link
    /// still leaves an even split over the remaining three.
    #[test]
    fn failure_robust_search_lowers_worst_case() {
        let mut b = Network::builder(2);
        b.bilink(NodeId(0), NodeId(1), 2.0); // fat
        b.bilink(NodeId(0), NodeId(1), 1.0);
        b.bilink(NodeId(0), NodeId(1), 1.0);
        b.bilink(NodeId(0), NodeId(1), 1.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(1), 2.0);
        let failures = FailureSet::enumerate(&net, false);

        let w = heur_ospf_failure_robust(
            &net,
            &d,
            &failures,
            RobustObjective::WorstCase,
            &HeurOspfConfig::default(),
        );
        let rep = segrout_core::sweep_failures(
            &net,
            &w,
            &d,
            &WaypointSetting::none(d.len()),
            &failures,
            &[1.0],
        )
        .unwrap();
        // All four links tied: intact split 0.5 each (MLU 0.5); losing any
        // link leaves a 3-way split of 2.0 = 2/3 on a thin link — the
        // optimum, well below the start's worst case of 1.0.
        assert!(
            rep.base_mlu[0] <= 0.5 + 1e-9,
            "intact mlu = {}",
            rep.base_mlu[0]
        );
        let worst = rep.worst.as_ref().expect("patterns evaluated").mlu;
        assert!(worst <= 2.0 / 3.0 + 1e-9, "worst-case mlu = {worst}");
        assert_eq!(rep.disconnects, 0);
    }

    #[test]
    fn failure_robust_is_deterministic() {
        let mut b = Network::builder(5);
        b.bilink(NodeId(0), NodeId(1), 2.0);
        b.bilink(NodeId(1), NodeId(4), 2.0);
        b.bilink(NodeId(0), NodeId(2), 1.0);
        b.bilink(NodeId(2), NodeId(4), 1.0);
        b.bilink(NodeId(0), NodeId(3), 1.0);
        b.bilink(NodeId(3), NodeId(4), 1.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(4), 1.5);
        d.push(NodeId(4), NodeId(0), 0.5);
        let failures = FailureSet::enumerate(&net, false);

        let first = heur_ospf_failure_robust(
            &net,
            &d,
            &failures,
            RobustObjective::WorstCase,
            &HeurOspfConfig::default(),
        );
        let again = heur_ospf_failure_robust(
            &net,
            &d,
            &failures,
            RobustObjective::WorstCase,
            &HeurOspfConfig::default(),
        );
        assert_eq!(first.as_slice(), again.as_slice());
    }

    /// A pendant demand whose only link appears in the failure set: those
    /// patterns are classified as disconnecting and excluded, and the
    /// search still optimizes the surviving scenarios.
    #[test]
    fn failure_robust_skips_disconnecting_patterns() {
        let mut b = Network::builder(5);
        b.bilink(NodeId(0), NodeId(1), 1.0);
        b.bilink(NodeId(1), NodeId(3), 1.0);
        b.bilink(NodeId(0), NodeId(2), 1.0);
        b.bilink(NodeId(2), NodeId(3), 1.0);
        b.bilink(NodeId(3), NodeId(4), 1.0); // pendant: only route to 4
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 1.2);
        d.push(NodeId(0), NodeId(4), 0.3);
        let failures = FailureSet::enumerate(&net, false);

        let w = heur_ospf_failure_robust(
            &net,
            &d,
            &failures,
            RobustObjective::WorstCase,
            &HeurOspfConfig::default(),
        );
        for &x in w.as_slice() {
            assert!((1.0..=20.0).contains(&x));
            assert_eq!(x, x.round());
        }
        // Sanity: the surviving worst case (losing one diamond corridor
        // reroutes 1.2 + 0.3 onto the other) is achieved.
        let rep = segrout_core::sweep_failures(
            &net,
            &w,
            &d,
            &WaypointSetting::none(d.len()),
            &failures,
            &[1.0],
        )
        .unwrap();
        assert_eq!(rep.disconnects, 1, "only the pendant link disconnects");
        let worst = rep.worst.as_ref().expect("patterns evaluated").mlu;
        assert!(worst <= 1.5 + 1e-9, "worst-case mlu = {worst}");
    }

    /// A one-matrix `DemandSet` must reproduce the classic single-matrix
    /// search bit for bit (the module-level reduction contract).
    #[test]
    fn single_matrix_set_reduces_bit_identically() {
        let (net, d) = trap_network();
        let cfg = HeurOspfConfig::default();
        let classic = heur_ospf(&net, &d, &cfg);
        let robust = heur_ospf_robust(
            &net,
            &DemandSet::single(d.clone()),
            RobustObjective::Quantile(1.0),
            &cfg,
        );
        assert_eq!(classic.as_slice(), robust.as_slice());
    }
}
