//! `exact-abilene`: the WPO selection MILP (`wpo_ilp`) on Abilene with
//! inverse-capacity weights, one MCF-synthetic instance per operation (20%
//! of pairs, one flow each). Branch-and-bound stops at a fixed node limit
//! and has no time limit, so an instance's work does not depend on the
//! host's speed. The only workload through the `lp` and `milp` crates.

use super::{measure, ms_since, trace_ops, Ctx, Run};
use crate::spans::Spans;
use crate::stats::geomean;
use segrout_core::{DemandList, Network, Router, WeightSetting};
use segrout_lp::MilpOptions;
use segrout_milp::{wpo_ilp, WpoIlpOptions, WpoIlpOutcome};
use segrout_topo::by_name;
use segrout_traffic::{mcf_synthetic, TrafficConfig};
use std::time::{Duration, Instant};

const TAG_DEMANDS: u64 = 8;
/// Instances whose MLU makes up the `mlu` figure; every run solves at least
/// these.
const QUALITY_OPS: usize = 24;
const SETUP_REPS: usize = 21;
/// Instances the set-up repetitions cycle through: one each.
const SETUP_INSTANCES: usize = SETUP_REPS;
const TOPOLOGY: &str = "Abilene";
const NODE_LIMIT: usize = 300;

/// One solved instance.
struct Solved {
    ms: f64,
    outcome: WpoIlpOutcome,
    nodes: u64,
}

fn options(node_limit: usize) -> WpoIlpOptions {
    WpoIlpOptions {
        milp: MilpOptions {
            node_limit,
            time_limit: Duration::from_secs(24 * 3600),
            ..Default::default()
        },
        candidates: None,
    }
}

/// Instance `k`, drawn from the workload seed.
fn instance(ctx: &Ctx, net: &Network, k: usize) -> Result<DemandList, String> {
    let cfg = TrafficConfig {
        seed: ctx.derive(TAG_DEMANDS, k as u64),
        pair_fraction: 0.2,
        flows_per_pair: Some(1),
        ..Default::default()
    };
    mcf_synthetic(net, &cfg).map_err(|e| format!("demands: {e}"))
}

fn solve(
    net: &Network,
    weights: &WeightSetting,
    demands: &DemandList,
    options: &WpoIlpOptions,
    spans: &mut Spans,
    k: usize,
) -> Result<Solved, String> {
    let nodes0 = segrout_obs::counter("milp.nodes").get();
    let t = Instant::now();
    let outcome = spans
        .time("milp.wpo_ilp", k as u64, || {
            wpo_ilp(net, demands, weights, options)
        })
        .map_err(|e| format!("wpo_ilp: {e}"))?;
    Ok(Solved {
        ms: ms_since(t),
        outcome,
        nodes: segrout_obs::counter("milp.nodes").get() - nodes0,
    })
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let net = by_name(TOPOLOGY).ok_or("embedded topology missing")?;
    let weights = WeightSetting::inverse_capacity(&net);
    let full = options(if ctx.smoke { 60 } else { NODE_LIMIT });
    let min_ops = if ctx.smoke { 2 } else { QUALITY_OPS };
    let t = Instant::now();
    let mut instances = (0..SETUP_INSTANCES)
        .map(|k| instance(ctx, &net, k))
        .collect::<Result<Vec<_>, _>>()?;
    run.inputs_s = t.elapsed().as_secs_f64();

    // Set-up: `wpo_ilp` stopped after the root node, i.e. building the
    // model (every option's loads) and solving the root LP, on a different
    // instance each time: the root LP's cost varies with the instance, and
    // the median over many of them varies far less with the seed.
    let root_only = options(1);
    let heads = instances.clone();
    let mut rep = 0;
    let setup = || {
        let d = &heads[rep % SETUP_INSTANCES];
        rep += 1;
        solve(&net, &weights, d, &root_only, &mut Spans::new(false), 0)
            .map(|s| drop(std::hint::black_box(s)))
    };
    let mut solved: Vec<Solved> = Vec::new();
    let mut off = Spans::new(false);
    let mut inputs_s = 0.0;
    let timed = measure(ctx.budget(), min_ops, SETUP_REPS, setup, |k| {
        if k == instances.len() {
            // Input generation, timed apart from the operation.
            let t = Instant::now();
            instances.push(instance(ctx, &net, k)?);
            inputs_s += t.elapsed().as_secs_f64();
        }
        let s = solve(&net, &weights, &instances[k], &full, &mut off, k)?;
        let ms = s.ms;
        solved.push(s);
        Ok(ms)
    })?;
    run.record(timed);
    run.inputs_s += inputs_s;
    run.work = solved.iter().map(|s| s.nodes).sum::<u64>() as f64;

    // The chosen waypoints, evaluated from scratch, must give the MLU the
    // solver reports.
    let verified = |k: usize, s: &Solved| {
        Router::new(&net, &weights)
            .evaluate(&instances[k], &s.outcome.waypoints)
            .is_ok_and(|r| r.mlu.to_bits() == s.outcome.mlu.to_bits())
    };
    for (k, s) in solved.iter().enumerate() {
        run.checks.check(verified(k, s), || {
            format!("instance {k}: the chosen waypoints do not evaluate to the reported MLU")
        });
    }
    // Branch-and-bound is deterministic: solving instance 0 again must
    // explore the same nodes and select the same waypoints.
    let again = solve(&net, &weights, &instances[0], &full, &mut off, 0)?;
    let first = &solved[0];
    run.checks.check(
        again.nodes == first.nodes
            && again.outcome.mlu.to_bits() == first.outcome.mlu.to_bits()
            && (0..instances[0].len())
                .all(|i| again.outcome.waypoints.get(i) == first.outcome.waypoints.get(i)),
        || "instance 0 solved twice explored different trees".to_string(),
    );

    let quality: Vec<f64> = solved.iter().take(min_ops).map(|s| s.outcome.mlu).collect();
    run.deterministic.push(("mlu", geomean(&quality)));
    let head_nodes: u64 = solved.iter().take(min_ops).map(|s| s.nodes).sum();
    run.deterministic
        .push(("nodes_of_quality_instances", head_nodes as f64));
    run.details.push(("instances", solved.len() as f64));
    run.details.push((
        "at_node_limit",
        solved
            .iter()
            .filter(|s| s.nodes as usize >= full.milp.node_limit)
            .count() as f64,
    ));

    if ctx.trace {
        let tracing = trace_ops(ctx, &run.op_ms, |k, spans| {
            let s = solve(&net, &weights, &instances[k], &full, spans, k)?;
            run.checks
                .check(verified(k, &s) && s.nodes == solved[k].nodes, || {
                    format!("instance {k}: the traced solve differs")
                });
            Ok(s.ms)
        })?;
        run.tracing = Some(tracing);
    }
    Ok(run)
}
