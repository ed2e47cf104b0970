//! Reconfiguration-aware re-optimization — the extension the paper's
//! conclusion calls for: *"It would be interesting to explore TE algorithms
//! that react to shifts in the traffic demand and account for
//! reconfiguration costs."*
//!
//! When the traffic matrix drifts, re-running HeurOSPF from scratch may
//! rewrite most link weights; every changed weight triggers an IGP
//! re-convergence with transient loops and packet loss, so operators want
//! *few* changes. [`reoptimize_weights`] runs HeurOSPF's descent, the
//! crate's one Fortz–Thorup local search, once from the deployed setting
//! under a change budget: at most `max_weight_changes` links may differ
//! from it. The re-solve runs the descent online — the neighbourhood
//! without the halve and double moves, candidates probed one at a time up
//! to the first improvement — as `segrout serve` does on every local and
//! escalate reply ([`reoptimize_weights_on`]). Because segment-routing
//! waypoints are per-demand header state (no IGP flooding), waypoint churn
//! is free by comparison — so [`reoptimize_joint`] first spends the cheap
//! knob (waypoints on the *old* weights) and only then the constrained
//! weight changes, quantifying the papers' intuition that the joint
//! approach also helps operationally.

use crate::greedy_wpo::{greedy_wpo, GreedyWpoConfig};
use crate::heur_ospf::{heur_ospf, Descent, HeurOspfConfig, Mode, Step};
use segrout_core::rng::StdRng;
use segrout_core::{
    DemandList, IncrementalEvaluator, Network, RobustObjective, Router, TeError, WaypointSetting,
    WeightSetting,
};
use segrout_obs::{event, Level};

/// Configuration for reconfiguration-aware re-optimization.
#[derive(Clone, Debug)]
pub struct ReoptimizeConfig {
    /// Maximum number of links whose weight may differ from the deployed
    /// setting (the reconfiguration budget).
    pub max_weight_changes: usize,
    /// Local-search parameters (weight range, passes, seed, objective).
    pub ospf: HeurOspfConfig,
    /// Waypoint stage parameters for [`reoptimize_joint`].
    pub wpo: GreedyWpoConfig,
}

impl Default for ReoptimizeConfig {
    fn default() -> Self {
        Self {
            max_weight_changes: 3,
            ospf: HeurOspfConfig::default(),
            wpo: GreedyWpoConfig::default(),
        }
    }
}

/// Result of a re-optimization step.
#[derive(Clone, Debug)]
pub struct ReoptimizeResult {
    /// The new weight setting (within the change budget of the deployed
    /// one for the constrained entry points).
    pub weights: WeightSetting,
    /// New waypoint setting (empty rows for [`reoptimize_weights`]).
    pub waypoints: WaypointSetting,
    /// MLU under the new configuration.
    pub mlu: f64,
    /// Number of links whose weight changed vs the deployed setting.
    pub weight_changes: usize,
}

/// Counts links where two settings differ.
pub fn weight_distance(a: &WeightSetting, b: &WeightSetting) -> usize {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .filter(|(x, y)| (*x - *y).abs() > 1e-9)
        .count()
}

/// Rounds a deployed weight setting into the integer range `[1,
/// max_weight]` — re-optimization assumes the deployed setting came from the
/// same toolchain, which emits integral weights.
pub fn round_deployed(net: &Network, deployed: &WeightSetting, max_weight: u32) -> WeightSetting {
    WeightSetting::new(
        net,
        deployed
            .as_slice()
            .iter()
            .map(|&w| (w.round() as u32).clamp(1, max_weight) as f64)
            .collect(),
    )
    .expect("rounded integer weights are valid")
}

/// Outcome of [`reoptimize_weights_on`]: the accepted weight setting plus
/// the search's bookkeeping (the evaluator itself is left committed on
/// exactly these weights).
#[derive(Clone, Debug)]
pub struct EvaluatorReopt {
    /// The new weight setting (within the change budget of the base).
    pub weights: WeightSetting,
    /// MLU under the new setting (bit-identical to the evaluator's).
    pub mlu: f64,
    /// Fortz–Thorup Φ under the new setting.
    pub phi: f64,
    /// Number of links whose weight changed vs the base setting.
    pub weight_changes: usize,
    /// Evaluations the search spent: the start's, plus one per probe.
    pub evaluations: u64,
}

/// The budgeted Fortz–Thorup descent on a **caller-provided** evaluator:
/// HeurOSPF's engine run once, online, from the evaluator's committed
/// weights, with at most `cfg.max_weight_changes` links allowed to differ
/// from them. Every candidate is an incremental probe against `ev`'s live
/// state — the daemon path must not rebuild `|D|` SP-DAGs per event, let
/// alone per candidate — scored one at a time up to the first improvement,
/// and accepted moves are committed in place, so on return the evaluator
/// sits exactly on the returned weights.
///
/// The objective is scored on whatever workload (demands, waypoints,
/// failure mask, capacity overrides) the evaluator holds — which is what
/// lets the serving loop re-optimize under link failures and capacity
/// changes that a plain `(net, demands)` signature cannot express.
///
/// # Errors
/// [`TeError::InvalidWeight`] for the first committed weight that is not
/// an integer in `[1, cfg.ospf.max_weight]` (see [`round_deployed`]); the
/// evaluator is left untouched.
pub fn reoptimize_weights_on(
    ev: &mut IncrementalEvaluator<'_>,
    cfg: &ReoptimizeConfig,
) -> Result<EvaluatorReopt, TeError> {
    let _span = segrout_obs::span("reopt.weights");
    let max = f64::from(cfg.ospf.max_weight);
    let mut base = Vec::with_capacity(ev.weights().len());
    for (edge, &value) in ev.weights().iter().enumerate() {
        if value.fract() != 0.0 || !(1.0..=max).contains(&value) {
            return Err(TeError::InvalidWeight { edge, value });
        }
        base.push(value as u32);
    }

    // Flight recorder: `iter` counts the start plus the probes made.
    segrout_obs::trace_point("reopt.start", 1, ev.phi(), ev.mlu());
    let search = Descent {
        cfg: &cfg.ospf,
        mode: Mode::Online,
        robust: RobustObjective::WorstCase,
        budget: Some((&base, cfg.max_weight_changes)),
    };
    let mut rng = StdRng::seed_from_u64(cfg.ospf.seed);
    let mut cur = base.clone();
    let evs = Some(std::slice::from_mut(ev));
    let (_, probes) = search.run(&mut rng, evs, &mut cur, |step| {
        if let Step::Accept(_, _, _, evals, evs) = step {
            segrout_obs::trace_point("reopt.accept", 1 + evals, evs[0].phi(), evs[0].mlu());
        }
    });
    segrout_obs::counter("reopt.evaluations").add(probes);

    let weights = WeightSetting::new(ev.network(), cur.iter().map(|&x| x as f64).collect())
        .expect("integer weights are valid");
    let (mlu, phi) = (ev.mlu(), ev.phi());
    let weight_changes = cur.iter().zip(&base).filter(|(a, b)| a != b).count();
    segrout_obs::trace_point("reopt.done", 1 + probes, phi, mlu);
    event!(
        Level::Info,
        "reopt.weights_done",
        mlu = mlu,
        weight_changes = weight_changes,
        budget = cfg.max_weight_changes,
    );
    Ok(EvaluatorReopt {
        weights,
        mlu,
        phi,
        weight_changes,
        evaluations: 1 + probes,
    })
}

/// Re-optimizes link weights for `demands` starting from the deployed
/// setting, changing at most `cfg.max_weight_changes` link weights.
///
/// The deployed weights are rounded into the integer range `[1,
/// cfg.ospf.max_weight]` first (re-optimization assumes the deployed
/// setting came from the same toolchain). One incremental evaluator is
/// built for the whole search ([`reoptimize_weights_on`] does the work) —
/// callers that already hold a live evaluator, like the serving loop,
/// should call that entry point directly and skip the build.
///
/// # Errors
/// Propagates routing errors (disconnected demands under every setting).
pub fn reoptimize_weights(
    net: &Network,
    demands: &DemandList,
    deployed: &WeightSetting,
    cfg: &ReoptimizeConfig,
) -> Result<ReoptimizeResult, TeError> {
    let rounded = round_deployed(net, deployed, cfg.ospf.max_weight);
    let mut ev = IncrementalEvaluator::new(
        net,
        &rounded,
        demands,
        &WaypointSetting::none(demands.len()),
    )?;
    let r = reoptimize_weights_on(&mut ev, cfg)?;
    Ok(ReoptimizeResult {
        weights: r.weights,
        waypoints: WaypointSetting::none(demands.len()),
        mlu: r.mlu,
        weight_changes: r.weight_changes,
    })
}

/// Joint re-optimization: first re-assign waypoints under the *deployed*
/// weights (free: no IGP churn), then spend the weight-change budget, then
/// re-assign waypoints once more under the final weights. Returns the best
/// stage.
///
/// # Errors
/// Propagates routing errors.
pub fn reoptimize_joint(
    net: &Network,
    demands: &DemandList,
    deployed: &WeightSetting,
    cfg: &ReoptimizeConfig,
) -> Result<ReoptimizeResult, TeError> {
    let _span = segrout_obs::span("reopt.joint");
    // Stage 1: waypoints on deployed weights.
    let router_old = Router::new(net, deployed);
    let wp1 = greedy_wpo(net, demands, deployed, &cfg.wpo)?;
    let mlu1 = router_old.evaluate(demands, &wp1)?.mlu;
    event!(Level::Debug, "reopt.joint_stage1", mlu = mlu1);

    // Stage 2: constrained weight changes (on the direct demands; the
    // waypoint stage is cheap to re-run afterwards).
    let rw = reoptimize_weights(net, demands, deployed, cfg)?;

    // Stage 3: waypoints on the new weights.
    let wp3 = greedy_wpo(net, demands, &rw.weights, &cfg.wpo)?;
    let router_new = Router::new(net, &rw.weights);
    let mlu3 = router_new.evaluate(demands, &wp3)?.mlu;
    event!(
        Level::Info,
        "reopt.joint_done",
        waypoints_only_mlu = mlu1,
        reweighted_mlu = mlu3,
        kept_deployed_weights = mlu1 <= mlu3,
    );

    let result = if mlu1 <= mlu3 {
        ReoptimizeResult {
            weights: deployed.clone(),
            waypoints: wp1,
            mlu: mlu1,
            weight_changes: 0,
        }
    } else {
        ReoptimizeResult {
            weights: rw.weights,
            waypoints: wp3,
            mlu: mlu3,
            weight_changes: rw.weight_changes,
        }
    };
    // Commit-point hook: the returned (weights, waypoints, mlu) triple must
    // be internally consistent — the stage-selection logic above pairs
    // values computed against different routers (debug builds only).
    #[cfg(debug_assertions)]
    {
        let report = Router::new(net, &result.weights).evaluate(demands, &result.waypoints)?;
        segrout_core::hooks::assert_commit_consistent(
            net,
            &result.weights,
            demands,
            &result.waypoints,
            &report.loads,
            result.mlu,
        );
    }
    Ok(result)
}

/// Convenience oracle: unconstrained re-optimization (full HeurOSPF from
/// scratch) for comparing against the budgeted variants.
pub fn reoptimize_unconstrained(
    net: &Network,
    demands: &DemandList,
    deployed: &WeightSetting,
    cfg: &ReoptimizeConfig,
) -> Result<ReoptimizeResult, TeError> {
    let weights = heur_ospf(net, demands, &cfg.ospf);
    let router = Router::new(net, &weights);
    let mlu = router.mlu(demands)?;
    Ok(ReoptimizeResult {
        weights: weights.clone(),
        waypoints: WaypointSetting::none(demands.len()),
        mlu,
        weight_changes: weight_distance(&weights, deployed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use segrout_core::NodeId;

    /// Deployed weights tuned for one matrix; then the traffic shifts.
    fn shifted_scenario() -> (Network, DemandList, DemandList) {
        let mut b = Network::builder(4);
        b.bilink(NodeId(0), NodeId(1), 10.0);
        b.bilink(NodeId(1), NodeId(2), 10.0);
        b.bilink(NodeId(2), NodeId(3), 10.0);
        b.bilink(NodeId(3), NodeId(0), 10.0);
        b.bilink(NodeId(0), NodeId(2), 2.0);
        let net = b.build().unwrap();
        let mut before = DemandList::new();
        before.push(NodeId(1), NodeId(3), 8.0);
        let mut after = DemandList::new();
        after.push(NodeId(0), NodeId(2), 8.0); // now the thin diagonal beckons
        (net, before, after)
    }

    #[test]
    fn budget_is_respected() {
        let (net, before, after) = shifted_scenario();
        let deployed = heur_ospf(&net, &before, &HeurOspfConfig::default());
        for budget in [0usize, 1, 3] {
            let cfg = ReoptimizeConfig {
                max_weight_changes: budget,
                ..Default::default()
            };
            let r = reoptimize_weights(&net, &after, &deployed, &cfg).unwrap();
            assert!(
                r.weight_changes <= budget,
                "budget {budget} violated: {} changes",
                r.weight_changes
            );
        }
    }

    #[test]
    fn zero_budget_keeps_deployed_weights() {
        let (net, before, after) = shifted_scenario();
        let deployed = heur_ospf(&net, &before, &HeurOspfConfig::default());
        let cfg = ReoptimizeConfig {
            max_weight_changes: 0,
            ..Default::default()
        };
        let r = reoptimize_weights(&net, &after, &deployed, &cfg).unwrap();
        assert_eq!(r.weight_changes, 0);
    }

    #[test]
    fn more_budget_never_hurts() {
        let (net, before, after) = shifted_scenario();
        let deployed = heur_ospf(&net, &before, &HeurOspfConfig::default());
        let mut last = f64::INFINITY;
        for budget in [0usize, 2, 6] {
            let cfg = ReoptimizeConfig {
                max_weight_changes: budget,
                ..Default::default()
            };
            let r = reoptimize_weights(&net, &after, &deployed, &cfg).unwrap();
            assert!(r.mlu <= last + 1e-9, "budget {budget}: {} > {last}", r.mlu);
            last = r.mlu;
        }
    }

    #[test]
    fn joint_reopt_beats_or_matches_weights_only() {
        let (net, before, after) = shifted_scenario();
        let deployed = heur_ospf(&net, &before, &HeurOspfConfig::default());
        let cfg = ReoptimizeConfig {
            max_weight_changes: 1,
            ..Default::default()
        };
        let w_only = reoptimize_weights(&net, &after, &deployed, &cfg).unwrap();
        let joint = reoptimize_joint(&net, &after, &deployed, &cfg).unwrap();
        assert!(joint.mlu <= w_only.mlu + 1e-9);
    }

    #[test]
    fn unconstrained_is_the_quality_oracle() {
        let (net, before, after) = shifted_scenario();
        let deployed = heur_ospf(&net, &before, &HeurOspfConfig::default());
        let cfg = ReoptimizeConfig {
            max_weight_changes: 2,
            ..Default::default()
        };
        let constrained = reoptimize_weights(&net, &after, &deployed, &cfg).unwrap();
        let oracle = reoptimize_unconstrained(&net, &after, &deployed, &cfg).unwrap();
        assert!(oracle.mlu <= constrained.mlu + 1e-9);
    }

    /// The descent walks integer weights, so an evaluator sitting elsewhere
    /// — between integers, or above `max_weight` — is refused before any
    /// probe, and left as it was. (Rounding it silently would return
    /// weights the evaluator, and its reported MLU, never sat on.)
    #[test]
    fn start_off_the_integer_range_is_refused() {
        let (net, _, after) = shifted_scenario();
        let wp = WaypointSetting::none(after.len());
        let cfg = ReoptimizeConfig::default();
        for (w, edge, value) in [
            (
                vec![1.4, 1.5, 1.0, 1.7, 2.0, 1.0, 3.0, 1.0, 2.5, 1.0],
                0,
                1.4,
            ),
            (
                vec![1.0, 2.0, 21.0, 1.0, 2.0, 1.0, 3.0, 1.0, 2.0, 1.0],
                2,
                21.0,
            ),
        ] {
            let w = WeightSetting::new(&net, w).unwrap();
            let mut ev = IncrementalEvaluator::new(&net, &w, &after, &wp).unwrap();
            let before = (
                ev.weights().to_vec(),
                ev.mlu().to_bits(),
                ev.phi().to_bits(),
            );
            let err = reoptimize_weights_on(&mut ev, &cfg).unwrap_err();
            assert_eq!(err, TeError::InvalidWeight { edge, value });
            let after = (
                ev.weights().to_vec(),
                ev.mlu().to_bits(),
                ev.phi().to_bits(),
            );
            assert_eq!(after, before, "the evaluator must be left untouched");
        }
    }

    #[test]
    fn weight_distance_counts_differences() {
        let (net, _, _) = shifted_scenario();
        let a = WeightSetting::unit(&net);
        let mut b = WeightSetting::unit(&net);
        b.set(segrout_core::EdgeId(0), 5.0);
        b.set(segrout_core::EdgeId(3), 2.0);
        assert_eq!(weight_distance(&a, &b), 2);
        assert_eq!(weight_distance(&a, &a), 0);
    }
}
