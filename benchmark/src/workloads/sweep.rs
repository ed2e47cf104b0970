//! `sweep-g50`: what-if failure sweeps. Every operation is one
//! `sweep_failures` call over the 88 single link failures of Germany50 at
//! one demand scaling (13 scalings, 0.52 to 1.48, in turn), with gravity
//! demands and inverse-capacity weights.
//!
//! Double failures (3,916 patterns) would make one call take half a second,
//! too few per run for a stable median; single failures run the same
//! per-scenario code.
//!
//! This is the read-only mirror of `serve-g50`: `probe_disable` calls fanned
//! out over the `par` pool, no writes to the evaluator and no `algos`.

use super::{measure, ms_since, trace_ops, Ctx, Run};
use crate::stats::{mean, median, percentile};
use segrout_core::{
    fortz_phi, sweep_failures, DemandList, EdgeId, FailureSet, IncrementalEvaluator, Network,
    Router, ScenarioOutcome, SweepReport, TeError, WaypointSetting, WeightSetting,
};
use segrout_topo::by_name;
use segrout_traffic::{gravity, TrafficConfig};
use std::time::Instant;

const TAG_DEMANDS: u64 = 3;
/// Every 97th scenario (counted across operations) is checked against a
/// from-scratch evaluation of the edge-deleted topology.
const CHECK_STRIDE: usize = 97;
const SETUP_REPS: usize = 21;
const SCALINGS: usize = 13;

/// Demand scaling of operation `k`; operation 0 runs the nominal matrix.
fn scaling(k: usize) -> f64 {
    0.52 + 0.08 * ((k + 6) % SCALINGS) as f64
}

/// The demands scaled by `s`, exactly as `sweep_failures` scales them.
fn scaled(demands: &DemandList, s: f64) -> DemandList {
    let mut out = DemandList::new();
    for d in demands.iter() {
        out.push(d.src, d.dst, d.size * s);
    }
    out
}

/// The outcome a from-scratch `Router` gives on a copy of `net` with the
/// `dead` edges physically deleted: `Some((mlu, phi))`, or `None` when a
/// demand is cut off.
fn scratch_outcome(
    net: &Network,
    weights: &WeightSetting,
    demands: &DemandList,
    dead: &[EdgeId],
) -> Result<Option<(f64, f64)>, String> {
    let mut b = Network::builder(net.node_count());
    let mut kept = Vec::new();
    for (e, u, v) in net.graph().edges() {
        if !dead.contains(&e) {
            b.link(u, v, net.capacity(e));
            kept.push(weights.get(e));
        }
    }
    let copy = b.build().map_err(|e| format!("deleted copy: {e}"))?;
    let w = WeightSetting::new(&copy, kept).map_err(|e| format!("deleted copy: {e}"))?;
    match Router::new(&copy, &w).evaluate(demands, &WaypointSetting::none(demands.len())) {
        Ok(rep) => Ok(Some((rep.mlu, fortz_phi(&rep.loads, copy.capacities())))),
        Err(TeError::Unroutable { .. }) => Ok(None),
        Err(e) => Err(format!("scratch evaluation: {e}")),
    }
}

struct Sweep {
    net: Network,
    weights: WeightSetting,
    demands: DemandList,
    set: FailureSet,
}

/// What operation `k`'s report says about the scenarios its check covers.
struct Sample {
    /// The report has one scenario per pattern, each evaluated or
    /// disconnected.
    consistent: bool,
    /// `(pattern, outcome, is the worst-case certificate)`: every scenario
    /// whose global index is a multiple of [`CHECK_STRIDE`], and the
    /// certificate with its certified MLU as the outcome.
    picks: Vec<(usize, ScenarioOutcome, bool)>,
}

impl Sweep {
    fn report(&self, s: f64) -> Result<SweepReport, String> {
        let wp = WaypointSetting::none(self.demands.len());
        sweep_failures(
            &self.net,
            &self.weights,
            &self.demands,
            &wp,
            &self.set,
            &[s],
        )
        .map_err(|e| format!("sweep_failures: {e}"))
    }

    fn sample(&self, k: usize, rep: &SweepReport) -> Sample {
        let n = self.set.len();
        let consistent = rep.scenarios == n && rep.evaluated + rep.disconnects == n;
        let first = (CHECK_STRIDE - (k * n) % CHECK_STRIDE) % CHECK_STRIDE;
        let mut picks: Vec<(usize, ScenarioOutcome, bool)> = (first..rep.results.len())
            .step_by(CHECK_STRIDE)
            .map(|p| (p, rep.results[p].outcome.clone(), false))
            .collect();
        if let Some(w) = &rep.worst {
            let certified = ScenarioOutcome::Evaluated {
                mlu: w.mlu,
                phi: f64::NAN,
                dirty_dests: 0,
            };
            picks.push((w.pattern, certified, true));
        }
        Sample {
            consistent: consistent && rep.results.len() == n,
            picks,
        }
    }

    /// Checks operation `k`'s sample against the edge-deleted topology;
    /// the first problem found, if any.
    fn verify(&self, k: usize, sample: &Sample) -> Result<Option<String>, String> {
        let n = self.set.len();
        if !sample.consistent {
            return Ok(Some(format!(
                "op {k}: the report's scenarios do not add up to {n} patterns x 1 scaling"
            )));
        }
        let demands = scaled(&self.demands, scaling(k));
        for (p, outcome, certificate) in &sample.picks {
            let dead = &self.set.patterns()[*p].dead;
            let fresh = scratch_outcome(&self.net, &self.weights, &demands, dead)?;
            let ok = match (outcome, fresh) {
                (ScenarioOutcome::Evaluated { mlu, phi, .. }, Some((m, f))) => {
                    mlu.to_bits() == m.to_bits() && (*certificate || phi.to_bits() == f.to_bits())
                }
                (ScenarioOutcome::Disconnected { .. }, None) => !certificate,
                _ => false,
            };
            if !ok {
                return Ok(Some(format!(
                    "op {k}: scenario {p} differs from the edge-deleted topology"
                )));
            }
        }
        Ok(None)
    }
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let t = Instant::now();
    let topology = if ctx.smoke { "Abilene" } else { "Germany50" };
    let net = by_name(topology).ok_or("embedded topology missing")?;
    let demands = gravity(
        &net,
        &TrafficConfig {
            seed: ctx.derive(TAG_DEMANDS, 0),
            ..Default::default()
        },
    )
    .map_err(|e| format!("demands: {e}"))?;
    run.inputs_s = t.elapsed().as_secs_f64();
    let st = Sweep {
        weights: WeightSetting::inverse_capacity(&net),
        set: FailureSet::enumerate(&net, false),
        net,
        demands,
    };

    // Set-up: loading the topology, enumerating its failures and building
    // the intact-topology evaluator that `sweep_failures` documents it
    // builds before answering any scenario. `sweep_failures` has no entry
    // point that stops there, so this calls the same constructor.
    let wp = WaypointSetting::none(st.demands.len());
    let setup = || {
        let net = by_name(topology).ok_or("embedded topology missing")?;
        let set = FailureSet::enumerate(&net, false);
        IncrementalEvaluator::new(&net, &st.weights, &st.demands, &wp)
            .map(|ev| {
                std::hint::black_box((set.len(), ev.mlu()));
            })
            .map_err(|e| format!("evaluator: {e}"))
    };
    let mut first_mean_mlu = 0.0;
    let mut samples = Vec::new();
    let timed = measure(ctx.budget(), 1, SETUP_REPS, setup, |k| {
        let t = Instant::now();
        let rep = st.report(scaling(k))?;
        let ms = ms_since(t);
        samples.push(st.sample(k, &rep));
        if k == 0 {
            first_mean_mlu = mean(&rep.mlu_distribution());
        }
        Ok(ms)
    })?;
    run.record(timed);
    for (k, sample) in samples.iter().enumerate() {
        let problem = st.verify(k, sample)?;
        run.checks
            .check(problem.is_none(), || problem.unwrap_or_default());
    }
    let n = run.op_ms.len();
    run.work = (n * st.set.len()) as f64;
    run.deterministic.push(("mean_mlu", first_mean_mlu));
    run.details.push(("patterns", st.set.len() as f64));
    run.details.push(("sweeps", n as f64));

    if ctx.trace {
        traced(ctx, &st, &mut run)?;
    }
    Ok(run)
}

/// The traced run: the same sweeps again under the profiler, then every
/// scenario replayed through `IncrementalEvaluator::new` + `probe_disable`,
/// each call timed, and matched bit for bit against the sweep's report.
fn traced(ctx: &Ctx, st: &Sweep, run: &mut Run) -> Result<(), String> {
    let mut reports = Vec::with_capacity(run.op_ms.len());
    let mut tracing = trace_ops(ctx, &run.op_ms, |k, spans| {
        let t = Instant::now();
        let rep = spans.time("core.sweep_failures", k as u64, || st.report(scaling(k)))?;
        let ms = ms_since(t);
        reports.push(rep);
        Ok(ms)
    })?;
    let spans = &mut tracing.spans;

    let wp = WaypointSetting::none(st.demands.len());
    let threads = segrout_par::threads() as f64;
    let (mut builds_ms, mut disable_us, mut busy, mut wall) = (Vec::new(), Vec::new(), 0.0, 0.0);
    for (k, rep) in reports.iter().enumerate() {
        let op = spans.open("sweep.replay", k as u64);
        let demands = scaled(&st.demands, scaling(k));
        let t = Instant::now();
        let ev = spans
            .time("core.build", k as u64, || {
                IncrementalEvaluator::new(&st.net, &st.weights, &demands, &wp)
            })
            .map_err(|e| format!("evaluator: {e}"))?;
        builds_ms.push(ms_since(t));
        let batch = spans.open("par.batch", k as u64);
        let t = Instant::now();
        let outs = segrout_par::par_map(st.set.len(), |p| {
            let start = Instant::now();
            let r = ev.probe_disable(&st.set.patterns()[p].dead);
            (r, start, Instant::now())
        });
        wall += t.elapsed().as_secs_f64();
        let mut differing = Vec::new();
        for (p, (out, start, end)) in outs.into_iter().enumerate() {
            spans.record("core.probe_disable", k as u64, start, end);
            let secs = (end - start).as_secs_f64();
            busy += secs;
            disable_us.push(secs * 1e6);
            let same = match (&rep.results[p].outcome, &out) {
                (
                    ScenarioOutcome::Evaluated {
                        mlu,
                        phi,
                        dirty_dests,
                    },
                    Ok(pr),
                ) => {
                    mlu.to_bits() == pr.mlu.to_bits()
                        && phi.to_bits() == pr.phi.to_bits()
                        && *dirty_dests == pr.dirty_count
                }
                (
                    ScenarioOutcome::Disconnected { src, dst },
                    Err(TeError::Unroutable { src: s, dst: d }),
                ) => (src, dst) == (s, d),
                _ => false,
            };
            if !same {
                differing.push(p);
            }
        }
        run.checks.check(differing.is_empty(), || {
            format!("op {k}: replayed scenarios {differing:?} differ from the sweep report")
        });
        spans.close(batch);
        spans.close(op);
    }

    let dirty: Vec<f64> = reports
        .iter()
        .flat_map(|r| &r.results)
        .filter_map(|r| match r.outcome {
            ScenarioOutcome::Evaluated { dirty_dests, .. } => Some(dirty_dests as f64),
            ScenarioOutcome::Disconnected { .. } => None,
        })
        .collect();
    let layers = &mut tracing.layers;
    layers.set("core.build_ms", median(&builds_ms));
    layers.set("core.disable_us.p50", median(&disable_us));
    layers.set("core.disable_us.p99", percentile(&disable_us, 99.0));
    layers.set("core.disable_dirty_mean", mean(&dirty));
    layers.set("par.busy_frac", busy / (wall * threads));
    run.tracing = Some(tracing);
    Ok(())
}
