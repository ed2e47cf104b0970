//! `scale-geo400`: HeurOSPF's probe/commit move on a WAN eight times
//! Germany50's size. `geo_backbone(400 nodes, 800 links)` with
//! MCF-synthetic demands (2% of pairs, one flow each, about 3.2k demands to
//! 399 destinations) and one fixed draw of integer weights in 1..=20.
//! Every operation is one local-search move, HeurOSPF's probe/commit
//! pattern: a seeded neighbourhood of 16 single-weight changes is probed
//! with `par_map_slice`, and the best candidate is committed if it lowers
//! (MLU, Φ). The changed links are drawn in rounds over all links
//! ([`EdgeRounds`]): a run probes about 2,000 links, and a probe costs from
//! well under a millisecond to tens depending on the link, so independent
//! draws would make a run's mix of cheap and costly links depend on the
//! seed.
//!
//! The load arena here is 399 x 1,600 x 8 B, about 5 MB plus a prefix slab
//! of the same size: well beyond a core's L2 cache, where Germany50's arena
//! (about 140 KB) fits. So the load fold and large repair frontiers weigh
//! here and not in `offline-g50`.

use super::{measure, ms_since, trace_ops, Ctx, EdgeRounds, Run};
use crate::spans::Spans;
use crate::stats::{mean, median, percentile};
use segrout_core::rng::StdRng;
use segrout_core::{
    fortz_phi, DemandList, EdgeId, IncrementalEvaluator, Network, Router, WaypointSetting,
    WeightSetting,
};
use segrout_topo::geo_backbone;
use segrout_traffic::{mcf_synthetic, TrafficConfig};
use std::cell::RefCell;
use std::time::Instant;

/// The WAN and its starting weights are fixed, as the other workloads use
/// one embedded topology; the workload seed draws demands and moves. A
/// probe's cost depends on how many shortest-path DAGs the probed link
/// lies on, so weights drawn per seed would change the work per move from
/// one seed to the next.
const TOPOLOGY_SEED: u64 = 400;
const TAG_DEMANDS: u64 = 5;
const TAG_MOVES: u64 = 7;
/// HeurOSPF's weight range.
const MAX_WEIGHT: u32 = 20;
/// Candidates per move. Links differ widely in how many destinations'
/// DAGs they lie on, so a single probe costs anywhere from well under a
/// millisecond to tens; a move over several links keeps the per-move time
/// distribution smooth enough for a stable median.
const NEIGHBOURHOOD: usize = 16;
/// Every this many probes (counted across moves), one is checked bit for
/// bit against a from-scratch `Router`.
const CHECK_EVERY: usize = 64;
/// Moves after which the committed MLU makes up the `mlu` figure; every run
/// makes at least these.
const QUALITY_OPS: usize = 64;
const SETUP_REPS: usize = 11;

struct Scale {
    net: Network,
    demands: DemandList,
    base: WeightSetting,
}

/// The seeded draws of the moves: links in rounds, new weights at random.
struct Moves {
    rng: StdRng,
    links: EdgeRounds,
}

impl Moves {
    fn new(ctx: &Ctx, net: &Network) -> Self {
        Self {
            rng: StdRng::seed_from_u64(ctx.derive(TAG_MOVES, 0)),
            links: EdgeRounds::new(net),
        }
    }
}

/// Probe tallies and timings of a run.
#[derive(Default)]
struct Tally {
    probes: usize,
    probe_us: Vec<f64>,
    commit_ms: Vec<f64>,
    busy_s: f64,
    batch_s: f64,
}

/// A probe to check against a from-scratch `Router` after the run: the
/// weight change it probed and the (MLU, Φ) it reported.
struct ProbeCheck {
    change: (EdgeId, f64),
    mlu: f64,
    phi: f64,
}

/// One move's outcome.
struct Move {
    ms: f64,
    /// The weight change committed, if any.
    committed: Option<(EdgeId, f64)>,
    /// A committed move left the evaluator at the chosen candidate's MLU.
    commit_ok: bool,
    check: Option<ProbeCheck>,
}

impl Scale {
    fn evaluator(&self, weights: &WeightSetting) -> Result<IncrementalEvaluator<'_>, String> {
        let wp = WaypointSetting::none(self.demands.len());
        IncrementalEvaluator::new(&self.net, weights, &self.demands, &wp)
            .map_err(|e| format!("evaluator: {e}"))
    }

    /// Move `k`: probes a new weight on each of the next [`NEIGHBOURHOOD`]
    /// links of `moves` and commits the best change if it lowers (MLU, Φ).
    /// Every [`CHECK_EVERY`]th probe is handed back for checking.
    fn step(
        &self,
        moves: &mut Moves,
        ev: &mut IncrementalEvaluator<'_>,
        k: usize,
        spans: &mut Spans,
        tally: &mut Tally,
    ) -> Result<Move, String> {
        let Moves { rng, links } = moves;
        let cands: Vec<(EdgeId, f64)> = (0..NEIGHBOURHOOD)
            .map(|_| {
                let e = links.next(rng);
                let old = ev.weights()[e.index()] as u32;
                // A weight other than the current one.
                let w = 1 + (old + rng.gen_range(0..MAX_WEIGHT - 1)) % MAX_WEIGHT;
                (e, f64::from(w))
            })
            .collect();
        let first_probe = tally.probes;
        let checked = (first_probe.div_ceil(CHECK_EVERY) * CHECK_EVERY)
            .checked_sub(first_probe)
            .filter(|&i| i < cands.len());
        let current = (ev.mlu(), ev.phi());

        let op = spans.open("scale.move", k as u64);
        let t = Instant::now();
        let batch = spans.open("par.batch", k as u64);
        // Only each candidate's (MLU, Φ) is kept and the winner is probed
        // again to commit it, so memory holds one probe's repaired DAGs at
        // a time rather than sixteen.
        let timed = {
            let ev = &*ev;
            segrout_par::par_map_slice(&cands, |_, &(e, w)| {
                let start = Instant::now();
                let p = ev.probe(e, w).map(|p| (p.mlu, p.phi));
                (p, start, Instant::now())
            })
        };
        tally.batch_s += t.elapsed().as_secs_f64();
        let mut scores = Vec::with_capacity(timed.len());
        for (p, start, end) in timed {
            spans.record("core.probe", k as u64, start, end);
            let secs = (end - start).as_secs_f64();
            tally.busy_s += secs;
            tally.probe_us.push(secs * 1e6);
            scores.push(p.map_err(|e| format!("probe: {e}"))?);
        }
        spans.close(batch);
        tally.probes += scores.len();
        let best = (0..scores.len())
            .min_by(|&a, &b| {
                let ((ma, pa), (mb, pb)) = (scores[a], scores[b]);
                ma.total_cmp(&mb).then(pa.total_cmp(&pb))
            })
            .filter(|&i| scores[i] < current);
        let committed = match best {
            Some(i) => {
                let (e, w) = cands[i];
                let tc = Instant::now();
                let chosen = spans
                    .time("core.probe", k as u64, || ev.probe(e, w))
                    .map_err(|e| format!("probe: {e}"))?;
                spans.time("core.commit", k as u64, || ev.commit(chosen));
                tally.commit_ms.push(ms_since(tc));
                Some(i)
            }
            None => None,
        };
        let ms = ms_since(t);
        spans.close(op);
        Ok(Move {
            ms,
            committed: committed.map(|i| cands[i]),
            commit_ok: committed.is_none_or(|i| ev.mlu().to_bits() == scores[i].0.to_bits()),
            check: checked.map(|i| ProbeCheck {
                change: cands[i],
                mlu: scores[i].0,
                phi: scores[i].1,
            }),
        })
    }

    /// Whether a probe from `weights` matches a from-scratch evaluation.
    fn verified(&self, weights: &[f64], c: &ProbeCheck) -> Result<bool, String> {
        let mut probed = weights.to_vec();
        probed[c.change.0.index()] = c.change.1;
        let ws = WeightSetting::new(&self.net, probed).map_err(|e| format!("weights: {e}"))?;
        let fresh = Router::new(&self.net, &ws)
            .evaluate(&self.demands, &WaypointSetting::none(self.demands.len()))
            .map_err(|e| format!("scratch evaluation: {e}"))?;
        let phi = fortz_phi(&fresh.loads, self.net.capacities());
        Ok(fresh.mlu.to_bits() == c.mlu.to_bits() && phi.to_bits() == c.phi.to_bits())
    }

    /// Checks the moves of a run (untraced or traced), replaying their
    /// commits from the starting weights.
    fn check_moves(&self, moves: &[Move], run: &mut Run) -> Result<(), String> {
        let mut weights = self.base.as_slice().to_vec();
        for (k, m) in moves.iter().enumerate() {
            let ok = match &m.check {
                Some(c) => m.commit_ok && self.verified(&weights, c)?,
                None => m.commit_ok,
            };
            run.checks.check(ok, || {
                format!("move {k}: a probe or the commit differs from a from-scratch evaluation")
            });
            if let Some((e, w)) = m.committed {
                weights[e.index()] = w;
            }
        }
        Ok(())
    }
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let (n, links) = if ctx.smoke { (100, 200) } else { (400, 800) };
    let t = Instant::now();
    let net = geo_backbone(n, links, TOPOLOGY_SEED);
    let demands = mcf_synthetic(
        &net,
        &TrafficConfig {
            seed: ctx.derive(TAG_DEMANDS, 0),
            pair_fraction: 0.02,
            flows_per_pair: Some(1),
            mcf_epsilon: 0.2,
            ..Default::default()
        },
    )
    .map_err(|e| format!("demands: {e}"))?;
    let mut rng = StdRng::seed_from_u64(TOPOLOGY_SEED);
    let w: Vec<f64> = (0..net.edge_count())
        .map(|_| f64::from(rng.gen_range(1..=20u32)))
        .collect();
    let base = WeightSetting::new(&net, w).map_err(|e| format!("weights: {e}"))?;
    run.inputs_s = t.elapsed().as_secs_f64();
    let st = Scale { net, demands, base };

    // Set-up: building the evaluator the moves run on (every destination's
    // SP-DAG and the load arena). Each repetition drops the evaluator and
    // builds it again from its current weights, so one is alive at a time;
    // a rebuilt evaluator is bit-identical to the one it replaces.
    let slot: RefCell<Option<IncrementalEvaluator>> = RefCell::new(None);
    let setup = || {
        let weights = match slot.take() {
            Some(ev) => WeightSetting::new(&st.net, ev.weights().to_vec())
                .map_err(|e| format!("weights: {e}"))?,
            None => st.base.clone(),
        };
        slot.replace(Some(st.evaluator(&weights)?));
        Ok(())
    };
    let mut quality = 0.0;
    let mut off = Spans::new(false);
    let mut untraced = Tally::default();
    let mut moves = Vec::new();
    let mut moves_drawn = Moves::new(ctx, &st.net);
    let timed = measure(ctx.budget(), QUALITY_OPS, SETUP_REPS, setup, |k| {
        let mut slot = slot.borrow_mut();
        let ev = slot.as_mut().expect("set-up runs before the first move");
        let m = st.step(&mut moves_drawn, ev, k, &mut off, &mut untraced)?;
        if k + 1 == QUALITY_OPS {
            quality = ev.mlu();
        }
        let ms = m.ms;
        moves.push(m);
        Ok(ms)
    })?;
    run.record(timed);
    let ev = slot.into_inner().expect("set-up ran");
    run.details
        .push(("destinations", ev.destination_count() as f64));
    drop(ev);
    st.check_moves(&moves, &mut run)?;
    run.work = untraced.probes as f64;
    run.deterministic.push(("mlu", quality));
    run.details.push(("demands", st.demands.len() as f64));

    if ctx.trace {
        let t = Instant::now();
        let mut ev = st.evaluator(&st.base)?;
        let build_ms = ms_since(t);
        let mut timings = Tally::default();
        let mut replayed_moves = Moves::new(ctx, &st.net);
        let mut replayed = Vec::with_capacity(moves.len());
        let mut tracing = trace_ops(ctx, &run.op_ms, |k, spans| {
            let m = st.step(&mut replayed_moves, &mut ev, k, spans, &mut timings)?;
            let ms = m.ms;
            replayed.push(m);
            Ok(ms)
        })?;
        st.check_moves(&replayed, &mut run)?;
        let threads = segrout_par::threads() as f64;
        let layers = &mut tracing.layers;
        layers.set("core.build_ms", build_ms);
        layers.set("core.probe_us.p50", median(&timings.probe_us));
        layers.set("core.probe_us.p99", percentile(&timings.probe_us, 99.0));
        layers.set("core.commit_ms", mean(&timings.commit_ms));
        layers.set(
            "par.busy_frac",
            timings.busy_s / (timings.batch_s * threads),
        );
        run.tracing = Some(tracing);
    }
    Ok(run)
}
