//! The differential harness: every fast path pinned `f64::to_bits`-identical
//! to a from-scratch evaluation, at every worker-thread count.
//!
//! One case table ([`cases`]), one scratch oracle ([`oracle`]), one thread
//! axis ([`run_kind`]) and one lock serve every scenario kind:
//!
//! * [`walk`]: incremental probe/commit weight changes, intact or
//!   waypointed;
//! * [`disable`] and [`sweep`]: edge-disable probes and failure sweeps;
//! * [`serve`]: the serving session's scripted event walk;
//! * [`ospf`], [`wpo`], [`joint`], [`reductions`] and [`robust_joint`]: the
//!   optimizers (GreedyWPO's waypoints also against the dense
//!   [`reference_greedy_wpo`]), and [`router`]: the oracle's own thread
//!   invariance;
//! * [`dag_engines`] and [`dag_repairs`]: the Dijkstra engines and the
//!   SP-DAG repairs, with no thread axis (the graph crate runs
//!   single-threaded).
//!
//! A kind runs at 1 thread with its oracle checks, then at 2, 4 and 8
//! threads, where it must reproduce the 1-thread bit trace exactly; a
//! [`Grid`] selects either half alone. Every trace ends with a `Router`
//! evaluation of the final state, which pins the oracle's own thread
//! invariance too.
//!
//! The oracle is `Router` on a copy of the network with the dead edges
//! deleted and the current capacities. Its loads map back by edge id, and
//! dead edges read exactly `0.0`. No comparison has an epsilon.
//!
//! The suites `incremental_differential`, `hotloop_differential`,
//! `failure_differential`, `robust_differential`, `serve_differential` and
//! `parallel_determinism` include this module. Each of their tests runs
//! one kind over one slice of the case table and one [`Grid`].
#![allow(dead_code)] // each suite runs only its own kinds

use segrout::algos::{
    greedy_wpo, greedy_wpo_robust, heur_ospf, heur_ospf_robust, joint_heur, joint_heur_robust,
    reoptimize_weights_on, round_deployed, GreedyWpoConfig, HeurOspfConfig, JointHeurConfig,
    JointHeurResult, ServeConfig, ServeEvent, ServeSession, ServeTier,
};
use segrout::core::rng::StdRng;
use segrout::core::{
    fortz_phi, max_link_utilization, sweep_failures, DemandList, DemandSet, EdgeId, FailureSet,
    IncrementalEvaluator, Network, NodeId, RobustObjective, Router, ScenarioOutcome, Segment,
    TeError, WaypointSetting, WeightSetting,
};
use segrout::graph::{
    disable_edge_update, shortest_path_dag, single_target_distances, single_target_distances_heap,
    update_shortest_path_dag, Digraph, SpDag, SpDagUpdate,
};
use segrout::instances::{instance1, instance3, instance5};
use segrout::topo::{by_name, geo_backbone, random_connected};
use std::sync::{Mutex, MutexGuard};

/// One input of the case table.
pub struct Case {
    pub label: String,
    pub net: Network,
    pub demands: DemandList,
}

/// Seeded list of `count` demands between distinct nodes, sizes in `[1, 10]`.
pub fn seeded_demands(net: &Network, seed: u64, count: usize) -> DemandList {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = net.node_count() as u32;
    let mut demands = DemandList::new();
    while demands.len() < count {
        let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if s != t {
            demands.push(NodeId(s), NodeId(t), f64::from(rng.gen_range(1..=10u32)));
        }
    }
    demands
}

/// The case table: [`small_cases`] plus [`germany50`].
pub fn cases() -> Vec<Case> {
    let mut out = small_cases();
    out.push(germany50());
    out
}

/// The paper's TE-Instances 1, 3 and 5 with their own demands, and three
/// seeded random strongly connected topologies: the cases on which the
/// optimizers run in a debug build in well under a second.
pub fn small_cases() -> Vec<Case> {
    let mut out = Vec::new();
    for (label, inst) in [
        ("instance1(m=8)", instance1(8)),
        ("instance3(m=5)", instance3(5)),
        ("instance5(m=3)", instance5(3)),
    ] {
        out.push(Case {
            label: label.into(),
            net: inst.network,
            demands: inst.demands,
        });
    }
    for seed in [17u64, 29, 41] {
        let net = random_connected(12, 26, seed);
        let demands = seeded_demands(&net, seed * 7919, 12);
        let label = format!("random(seed={seed})");
        out.push(Case {
            label,
            net,
            demands,
        });
    }
    out
}

/// Germany50 with a seeded 40-demand matrix.
pub fn germany50() -> Case {
    let net = by_name("Germany50").expect("embedded topology");
    let demands = seeded_demands(&net, 0x6e50, 40);
    let label = "Germany50".into();
    Case {
        label,
        net,
        demands,
    }
}

/// Seeded integral weights in `[1, 20]`: the regime every optimizer emits,
/// and the one in which the bit-identity contract holds.
fn integral_weights(m: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| f64::from(rng.gen_range(1..=20u32)))
        .collect()
}

fn weight_setting(net: &Network, weights: &[f64]) -> WeightSetting {
    WeightSetting::new(net, weights.to_vec()).expect("weights in range")
}

pub fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Per-link loads, Φ and MLU as bit patterns.
#[derive(Debug, PartialEq)]
pub struct State {
    pub loads: Vec<u64>,
    pub phi: u64,
    pub mlu: u64,
}

impl State {
    fn of(loads: &[f64], phi: f64, mlu: f64) -> Self {
        Self {
            loads: bits(loads),
            phi: phi.to_bits(),
            mlu: mlu.to_bits(),
        }
    }

    fn of_evaluator(ev: &IncrementalEvaluator<'_>) -> Self {
        Self::of(ev.loads(), ev.phi(), ev.mlu())
    }

    fn row(&self) -> Vec<u64> {
        let mut row = self.loads.clone();
        row.extend([self.phi, self.mlu]);
        row
    }
}

/// Copy of `net` carrying `caps` as its capacities, without the edges
/// in `dead`. Also returns the old id of each copied edge.
fn copy(net: &Network, caps: &[f64], dead: &[EdgeId]) -> (Network, Vec<EdgeId>) {
    let mut b = Network::builder(net.node_count());
    let mut kept = Vec::new();
    for (e, u, v) in net.graph().edges() {
        if !dead.contains(&e) {
            b.link(u, v, caps[e.index()]);
            kept.push(e);
        }
    }
    (b.build().expect("a copy of a valid network is valid"), kept)
}

/// The scratch oracle: `Router` on [`copy`], its loads mapped back by edge
/// id, dead edges at `0.0`.
pub fn oracle(
    net: &Network,
    caps: &[f64],
    dead: &[EdgeId],
    weights: &[f64],
    demands: &DemandList,
    waypoints: &WaypointSetting,
) -> Result<State, TeError> {
    let (copy, kept) = copy(net, caps, dead);
    let kept_weights: Vec<f64> = kept.iter().map(|e| weights[e.index()]).collect();
    let report =
        Router::new(&copy, &weight_setting(&copy, &kept_weights)).evaluate(demands, waypoints)?;
    let mut loads = vec![0.0; net.edge_count()];
    for (&e, &load) in kept.iter().zip(&report.loads) {
        loads[e.index()] = load;
    }
    let phi = fortz_phi(&report.loads, copy.capacities());
    Ok(State::of(&loads, phi, report.mlu))
}

/// [`oracle`] on the intact network, for states that must route.
pub fn intact_oracle(net: &Network, w: &[f64], d: &DemandList, wp: &WaypointSetting) -> State {
    oracle(net, net.capacities(), &[], w, d, wp).expect("the intact cases route")
}

/// A kind's bit trace: one row per step, everything observable about it.
pub type Trace = Vec<Vec<u64>>;

/// Where a kind runs: the case, kind and thread count every failure
/// message names, and whether this run makes the oracle checks (the
/// 1-thread run does; the others must match its trace).
pub struct Ctx {
    run: String,
    checks: bool,
}

impl Ctx {
    fn at(&self, step: impl std::fmt::Display) -> String {
        format!("{} step {step}", self.run)
    }
}

/// Holds the harness's one lock, since the thread-count override and the
/// obs counters are process-global. Restores the default thread count when
/// dropped, also when a check panics.
pub struct Guard {
    _lock: MutexGuard<'static, ()>,
}

pub fn guard() -> Guard {
    static LOCK: Mutex<()> = Mutex::new(());
    Guard {
        _lock: LOCK.lock().unwrap_or_else(|e| e.into_inner()),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        segrout::par::set_threads(0);
    }
}

/// Which runs of the thread axis a test makes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// 1 thread with the oracle checks, then 2, 4 and 8 threads, each of
    /// which must reproduce the 1-thread trace.
    Full,
    /// Only the 1-thread run with its oracle checks.
    Oracle,
    /// 1, 2, 4 and 8 threads without the oracle checks: the thread half of
    /// `Full`, for a kind that makes no checks or whose checks another test
    /// runs as `Oracle`.
    Threads,
}

/// Runs `kind` on every case over the thread counts of `grid`. The 1-thread
/// run is the reference every other run must reproduce.
pub fn run_kind(kind: &str, grid: Grid, cases: Vec<Case>, f: impl Fn(&Case, &Ctx) -> Trace) {
    let _guard = guard();
    let threads: &[usize] = match grid {
        Grid::Oracle => &[1],
        Grid::Full | Grid::Threads => &[1, 2, 4, 8],
    };
    for case in cases {
        let mut reference: Option<Trace> = None;
        for &t in threads {
            segrout::par::set_threads(t);
            let ctx = Ctx {
                run: format!("{} {kind} threads={t}", case.label),
                checks: t == 1 && grid != Grid::Threads,
            };
            let trace = f(&case, &ctx);
            let Some(want) = &reference else {
                reference = Some(trace);
                continue;
            };
            for (step, (got, want)) in trace.iter().zip(want).enumerate() {
                assert!(got == want, "{}: diverged from 1 thread", ctx.at(step));
            }
            assert_eq!(trace.len(), want.len(), "{}", ctx.at("count"));
        }
    }
}

/// `walk`: 24 seeded single-edge probe/commit weight changes, on the intact
/// routing or with every demand waypointed through a detour node. Every
/// probe and every committed state must equal the oracle.
pub fn walk(case: &Case, ctx: &Ctx, waypointed: bool) -> Trace {
    let (net, demands) = (&case.net, &case.demands);
    let m = net.edge_count();
    let mut wp = WaypointSetting::none(demands.len());
    if waypointed {
        for (i, d) in demands.iter().enumerate() {
            let via = NodeId((d.src.0 + 1) % net.node_count() as u32);
            if via != d.src && via != d.dst {
                wp.set(i, vec![via]);
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(0xd1ff + 31 * m as u64);
    let mut weights = integral_weights(m, rng.gen());
    let ws = weight_setting(net, &weights);
    let mut ev = IncrementalEvaluator::new(net, &ws, demands, &wp).expect("routable");
    let check = |weights: &[f64], got: &State, step: String| {
        if ctx.checks {
            let want = intact_oracle(net, weights, demands, &wp);
            assert_eq!(got, &want, "{}", ctx.at(step));
        }
    };
    check(&weights, &State::of_evaluator(&ev), "build".into());
    let mut trace = Trace::new();
    for step in 0..24 {
        let e = EdgeId(rng.gen_range(0..m as u32));
        let w = f64::from(rng.gen_range(1..=20u32));
        let probe = ev.probe(e, w).expect("probe routable");
        weights[e.index()] = w;
        let probed = State::of(&probe.loads, probe.phi, probe.mlu);
        check(&weights, &probed, format!("{step} probe"));
        let mut row = probed.row();
        row.push(probe.dirty_count as u64);
        trace.push(row);
        ev.commit(probe);
        let committed = State::of_evaluator(&ev);
        check(&weights, &committed, format!("{step} commit"));
        trace.push(committed.row());
    }
    trace.push(intact_oracle(net, ev.weights(), demands, &wp).row());
    trace
}

/// The seeded weights the failure kinds route with.
fn failure_weights(net: &Network) -> Vec<f64> {
    integral_weights(net.edge_count(), 0xd15a + net.edge_count() as u64)
}

/// `disable`: every single-link failure through `probe_disable`, checked
/// against the oracle on the edge-deleted copy (a disconnect must be one
/// there too).
pub fn disable(case: &Case, ctx: &Ctx) -> Trace {
    let (net, demands) = (&case.net, &case.demands);
    let weights = failure_weights(net);
    let wp = WaypointSetting::none(demands.len());
    let ev = IncrementalEvaluator::new(net, &weight_setting(net, &weights), demands, &wp)
        .expect("intact routable");
    let mut trace = Trace::new();
    let mut evaluated = 0;
    for (p, pattern) in FailureSet::enumerate(net, false)
        .patterns()
        .iter()
        .enumerate()
    {
        let probe = ev.probe_disable(&pattern.dead);
        let got = probe
            .as_ref()
            .ok()
            .map(|g| State::of(&g.loads, g.phi, g.mlu));
        if ctx.checks {
            let want = oracle(net, net.capacities(), &pattern.dead, &weights, demands, &wp);
            let at = ctx.at(format!("pattern {p}"));
            match (&probe, want) {
                (Ok(_), Ok(want)) => assert_eq!(got.as_ref(), Some(&want), "{at}"),
                (Err(TeError::Unroutable { .. }), Err(TeError::Unroutable { .. })) => {}
                (got, want) => panic!(
                    "{at}: probe {:?}, deleted copy {:?}",
                    got.as_ref().map(|g| g.mlu),
                    want.map(|w| w.mlu)
                ),
            }
        }
        evaluated += usize::from(got.is_some());
        trace.push(got.map_or(Vec::new(), |g| g.row()));
    }
    if ctx.checks {
        let at = ctx.at("probes");
        assert!(
            evaluated > 0,
            "{at}: every single-link failure disconnected"
        );
    }
    trace.push(intact_oracle(net, &weights, demands, &wp).row());
    trace
}

/// `sweep`: `sweep_failures` over every single-link failure at scalings
/// 0.8, 1.0 and 1.2, whose 1.0 rows must equal the [`disable`] probes.
pub fn sweep(case: &Case, ctx: &Ctx) -> Trace {
    let (net, demands) = (&case.net, &case.demands);
    let weights = failure_weights(net);
    let ws = weight_setting(net, &weights);
    let wp = WaypointSetting::none(demands.len());
    let set = FailureSet::enumerate(net, false);
    let rep =
        sweep_failures(net, &ws, demands, &wp, &set, &[0.8, 1.0, 1.2]).expect("intact routable");
    let probes = ctx
        .checks
        .then(|| IncrementalEvaluator::new(net, &ws, demands, &wp).expect("intact routable"));
    let mut trace = Trace::new();
    for r in &rep.results {
        let outcome = match r.outcome {
            ScenarioOutcome::Evaluated { mlu, phi, .. } => Some((mlu.to_bits(), phi.to_bits())),
            ScenarioOutcome::Disconnected { .. } => None,
        };
        // Scaling 1 (x1.0) is the workload the probes run.
        if let (Some(ev), 1) = (&probes, r.scaling) {
            let probe = ev.probe_disable(&set.patterns()[r.pattern].dead);
            let want = probe.ok().map(|g| (g.mlu.to_bits(), g.phi.to_bits()));
            let at = ctx.at(format!("pattern {}", r.pattern));
            assert_eq!(outcome, want, "{at}: sweep row vs probe");
        }
        let (mlu, phi) = outcome.unwrap_or((u64::MAX, u64::MAX));
        trace.push(vec![r.pattern as u64, r.scaling as u64, mlu, phi]);
    }
    let mut summary = vec![rep.evaluated as u64, rep.disconnects as u64];
    if let Some(c) = &rep.worst {
        summary.extend([c.pattern as u64, c.scaling as u64, c.mlu.to_bits()]);
        summary.extend([c.bottleneck.index() as u64, c.bottleneck_load.to_bits()]);
    }
    trace.push(summary);
    trace.push(intact_oracle(net, &weights, demands, &wp).row());
    trace
}

/// A scripted event sequence covering every event type. Link downs are
/// tracked so a later event brings one back up.
fn scripted_events(net: &Network, demands: &DemandList) -> Vec<ServeEvent> {
    let mut rng = StdRng::seed_from_u64(0xd1ff);
    let m = net.edge_count() as u32;
    let mut down: Vec<EdgeId> = Vec::new();
    (0..12)
        .map(|step| match step % 6 {
            0 | 3 => ServeEvent::DemandScale {
                index: rng.gen_range(0..demands.len() as u64) as usize,
                factor: 0.5 + 1.5 * rng.gen_f64(),
            },
            1 => {
                let e = EdgeId(rng.gen_range(0..m));
                down.push(e);
                ServeEvent::LinkDown { edge: e }
            }
            2 => ServeEvent::Capacity {
                edge: EdgeId(rng.gen_range(0..m)),
                capacity: 1.0 + 20.0 * rng.gen_f64(),
            },
            4 => down
                .pop()
                .map_or(ServeEvent::Noop, |e| ServeEvent::LinkUp { edge: e }),
            // Same pairs, globally rescaled: the in-place workload swap.
            _ => ServeEvent::DemandMatrix {
                demands: demands
                    .iter()
                    .map(|d| (d.src, d.dst, d.size * 0.9))
                    .collect(),
            },
        })
        .collect()
}

/// The edges an evaluator's failure mask disables.
fn dead_edges(ev: &IncrementalEvaluator<'_>) -> Vec<EdgeId> {
    let dead = ev.disabled().iter().enumerate().filter(|(_, &d)| d);
    dead.map(|(i, _)| EdgeId(i as u32)).collect()
}

/// [`oracle`] on a serving session's current state, which must route.
fn session_oracle(s: &ServeSession<'_>) -> State {
    let (ev, dead) = (s.evaluator(), dead_edges(s.evaluator()));
    let (caps, w) = (ev.capacities(), ev.weights());
    oracle(s.network(), caps, &dead, w, s.demands(), s.waypoints())
        .expect("committed session state routes")
}

/// Everything a serving session holds, as bits.
fn session_bits(s: &ServeSession<'_>) -> Vec<u64> {
    let ev = s.evaluator();
    let mut row = bits(ev.weights());
    row.extend(State::of_evaluator(ev).row());
    row.extend(bits(ev.capacities()));
    row.extend(ev.disabled().iter().map(|&d| u64::from(d)));
    row.extend(s.demands().iter().map(|d| d.size.to_bits()));
    row
}

/// `serve`: the scripted 12-event walk through a `ServeSession`. After each
/// event the state must equal the oracle, the response's weight diff must
/// replay the pre-event weights onto the post-event ones, an error reply
/// must leave the state untouched, and a local or escalate tier must be
/// reproduced by `reoptimize_weights_on` from the pre-event weights.
pub fn serve(case: &Case, ctx: &Ctx) -> Trace {
    let (net, demands) = (&case.net, &case.demands);
    let deployed = round_deployed(net, &WeightSetting::unit(net), 20);
    let wp = WaypointSetting::none(demands.len());
    let mut session =
        ServeSession::new(net, &deployed, demands.clone(), wp, ServeConfig::default())
            .expect("session opens");
    let mut trace = Trace::new();
    for (k, event) in scripted_events(net, demands).iter().enumerate() {
        let before = session_bits(&session);
        let pre: Vec<f64> = session.evaluator().weights().to_vec();
        let r = session.apply(event);
        let ev = session.evaluator();
        let at = ctx.at(format!("{k} ({event:?})"));
        if ctx.checks {
            assert_eq!(r.seq, k as u64 + 1, "{at}: seq");
            assert_eq!(r.churn, r.weight_diffs.len(), "{at}: churn");
            assert_eq!(r.mlu.to_bits(), ev.mlu().to_bits(), "{at}: reported MLU");
            assert_eq!(r.phi.to_bits(), ev.phi().to_bits(), "{at}: reported Φ");
            let mut replay = pre.clone();
            for &(e, old, new) in &r.weight_diffs {
                assert_eq!(old.to_bits(), replay[e.index()].to_bits(), "{at}: diff old");
                replay[e.index()] = new;
            }
            assert_eq!(bits(&replay), bits(ev.weights()), "{at}: diff replay");
            if r.tier == ServeTier::Error {
                assert_eq!(session_bits(&session), before, "{at}: error changed state");
            }
            let want = session_oracle(&session);
            assert_eq!(State::of_evaluator(ev), want, "{at}: state vs oracle");
            if matches!(r.tier, ServeTier::Local | ServeTier::Escalate) {
                let (recap, _) = copy(net, ev.capacities(), &[]);
                let failed = dead_edges(ev);
                let mut fresh = IncrementalEvaluator::new_with_failures(
                    &recap,
                    &weight_setting(&recap, &pre),
                    session.demands(),
                    session.waypoints(),
                    &failed,
                )
                .expect("pre-event state routes");
                let mut cfg = session.config().reopt.clone();
                if r.tier == ServeTier::Escalate {
                    cfg.max_weight_changes = net.edge_count();
                }
                let search = reoptimize_weights_on(&mut fresh, &cfg).expect("search runs");
                assert_eq!(
                    bits(search.weights.as_slice()),
                    bits(ev.weights()),
                    "{at}: search from the pre-event weights"
                );
                assert_eq!(search.mlu.to_bits(), ev.mlu().to_bits(), "{at}: search MLU");
            }
        }
        let mut row = vec![r.seq, r.tier as u64, r.churn as u64, r.evaluations];
        row.extend(session_bits(&session));
        trace.push(row);
    }
    trace.push(session_oracle(&session).row());
    trace
}

/// Waypoint rows as bits: each demand's count, then its nodes.
fn waypoint_bits(wp: &WaypointSetting) -> Vec<u64> {
    let mut row = Vec::new();
    for i in 0..wp.len() {
        row.push(wp.get(i).len() as u64);
        row.extend(wp.get(i).iter().map(|v| u64::from(v.0)));
    }
    row
}

fn joint_bits(r: &JointHeurResult) -> Vec<u64> {
    let mut row = bits(r.weights.as_slice());
    row.extend(waypoint_bits(&r.waypoints));
    row.extend([r.mlu.to_bits(), r.mlu_weights_only.to_bits()]);
    row.extend(bits(&r.matrix_mlus));
    row
}

/// An aligned set of the base demands plus `extra` variants whose pairs
/// are rescaled by different factors (shape changes, not just scale).
pub fn scaled_set(demands: &DemandList, extra: usize, seed: u64) -> DemandSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = DemandSet::single(demands.clone());
    for j in 0..extra {
        let mut m = DemandList::new();
        for d in demands.iter() {
            m.push(d.src, d.dst, d.size * (0.5 + 1.5 * rng.gen::<f64>()));
        }
        set.push(format!("x{j}"), m);
    }
    set
}

/// The HeurOSPF configuration every optimizer kind shares: cheap, but long
/// enough to accept many moves.
fn ospf_cfg() -> HeurOspfConfig {
    HeurOspfConfig {
        max_weight: 6,
        restarts: 1,
        max_passes: 2,
        seed: 0xd15ea5e,
        ..Default::default()
    }
}

fn joint_cfg() -> JointHeurConfig {
    JointHeurConfig {
        ospf: ospf_cfg(),
        ..Default::default()
    }
}

/// `ospf`: HeurOSPF's weights and the routing they give.
pub fn ospf(case: &Case, _: &Ctx) -> Trace {
    let (net, demands) = (&case.net, &case.demands);
    let w = heur_ospf(net, demands, &ospf_cfg());
    let none = WaypointSetting::none(demands.len());
    let state = intact_oracle(net, w.as_slice(), demands, &none);
    vec![bits(w.as_slice()), state.row()]
}

/// `demands` with every demand split into `parts` equal consecutive
/// sub-flows, as the paper's instances split each pair.
pub fn split(demands: &DemandList, parts: usize) -> DemandList {
    let mut out = DemandList::new();
    for d in demands.iter() {
        for _ in 0..parts {
            out.push(d.src, d.dst, d.size / parts as f64);
        }
    }
    out
}

/// The dense loads of each segment of `d` routed along `chain`, in chain
/// order.
fn dense_segments(
    router: &Router<'_>,
    d: segrout::core::Demand,
    chain: &[NodeId],
) -> Result<Vec<Vec<f64>>, TeError> {
    let stops: Vec<NodeId> = std::iter::once(d.src)
        .chain(chain.iter().copied())
        .chain(std::iter::once(d.dst))
        .collect();
    let segment = |hop: &[NodeId]| Segment {
        src: hop[0],
        dst: hop[1],
        amount: d.size,
    };
    stops
        .windows(2)
        .map(|hop| router.loads_for_segments(&[segment(hop)]))
        .collect()
}

/// Adds (`sign = 1.0`) or removes (`sign = -1.0`) the dense segment loads
/// from `loads`, segment by segment.
fn apply_dense(loads: &mut [f64], segments: &[Vec<f64>], sign: f64) {
    for seg in segments {
        for (l, x) in loads.iter_mut().zip(seg) {
            *l += sign * x;
        }
    }
}

/// The reference GreedyWPO: the descending order and acceptance rule of
/// `greedy_wpo_robust`, but every candidate is scored on a dense copy of
/// the running loads plus the dense loads of each of its segments, through
/// `max_link_utilization` and `RobustObjective::aggregate`. Nothing is
/// shared between demands and no sparse delta is built.
pub fn reference_greedy_wpo(
    net: &Network,
    set: &DemandSet,
    weights: &WeightSetting,
    robust: RobustObjective,
    cfg: &GreedyWpoConfig,
) -> WaypointSetting {
    let router = Router::new(net, weights);
    let caps = net.capacities();
    let candidates = cfg
        .candidates
        .clone()
        .unwrap_or_else(|| net.graph().nodes().collect());
    let mut setting = WaypointSetting::none(set.pair_count());
    let mut loads: Vec<Vec<f64>> = set
        .matrices()
        .map(|d| router.evaluate(d, &setting).expect("routes").loads)
        .collect();
    let mlu_of = |loads: &[Vec<f64>]| {
        let mlus: Vec<f64> = loads
            .iter()
            .map(|l| max_link_utilization(l, caps))
            .collect();
        robust.aggregate(&mlus)
    };
    let mut u_min = mlu_of(&loads);
    for _pass in 0..cfg.max_waypoints.max(1) {
        let mut inserted_any = false;
        for i in set.indices_by_descending_total_size() {
            let chain = setting.get(i).to_vec();
            if chain.len() >= cfg.max_waypoints {
                continue;
            }
            let current: Vec<Vec<Vec<f64>>> = (0..set.len())
                .map(|mi| dense_segments(&router, set.matrix(mi)[i], &chain).expect("routes"))
                .collect();
            for (l, segs) in loads.iter_mut().zip(&current) {
                apply_dense(l, segs, -1.0);
            }
            let (src, dst) = (set.matrix(0)[i].src, set.matrix(0)[i].dst);
            let mut best: Option<(Vec<NodeId>, f64, Vec<Vec<f64>>)> = None;
            for pos in 0..=chain.len() {
                for &w in &candidates {
                    if w == src || w == dst || chain.contains(&w) {
                        continue;
                    }
                    let mut cand = chain.clone();
                    cand.insert(pos, w);
                    let patched: Result<Vec<Vec<f64>>, TeError> = (0..set.len())
                        .map(|mi| {
                            let segs = dense_segments(&router, set.matrix(mi)[i], &cand)?;
                            let mut l = loads[mi].clone();
                            apply_dense(&mut l, &segs, 1.0);
                            Ok(l)
                        })
                        .collect();
                    let Ok(patched) = patched else { continue };
                    let u = mlu_of(&patched);
                    let current_best = best.as_ref().map_or(u_min, |b| b.1);
                    if u < current_best * (1.0 - cfg.min_improvement) {
                        best = Some((cand, u, patched));
                    }
                }
            }
            match best {
                Some((cand, u, patched)) => {
                    setting.set(i, cand);
                    loads = patched;
                    u_min = u;
                    inserted_any = true;
                }
                None => {
                    for (l, segs) in loads.iter_mut().zip(&current) {
                        apply_dense(l, segs, 1.0);
                    }
                }
            }
        }
        if !inserted_any {
            break;
        }
    }
    setting
}

/// The inputs of the [`wpo`] kind: the case's demands as they are and
/// split into 4 equal sub-flows each (the sub-flows of a pair share their
/// candidate deltas), each as one matrix and as a 3-matrix set whose extra
/// matrices rescale every pair, at waypoint budgets 1 and 2. Germany50,
/// whose 48 candidates × 3 matrices clear GreedyWPO's pool cutoff, runs the
/// split demands at budget 1 only, which keeps the debug run short.
fn wpo_inputs(case: &Case) -> Vec<(String, DemandSet, usize)> {
    let germany50 = case.label == "Germany50";
    let mut inputs = Vec::new();
    for parts in [1, 4] {
        if germany50 && parts == 1 {
            continue;
        }
        let three = scaled_set(&case.demands, 2, 0x3a7);
        let three = three
            .iter()
            .map(|(name, d)| (name.to_string(), split(d, parts)));
        let sets = [
            DemandSet::single(split(&case.demands, parts)),
            DemandSet::from_named(three.collect()),
        ];
        for set in sets {
            for budget in [1, 2] {
                if germany50 && budget == 2 {
                    continue;
                }
                let label = format!("{} matrices, {parts} parts, W={budget}", set.len());
                inputs.push((label, set.clone(), budget));
            }
        }
    }
    inputs
}

/// `wpo`: GreedyWPO's waypoints on inverse-capacity weights, and the
/// routing they give on every matrix, for each of [`wpo_inputs`]. The
/// waypoints must equal [`reference_greedy_wpo`]'s.
pub fn wpo(case: &Case, ctx: &Ctx) -> Trace {
    let net = &case.net;
    let invcap = WeightSetting::inverse_capacity(net);
    let worst = RobustObjective::WorstCase;
    let mut trace = Trace::new();
    for (label, set, budget) in wpo_inputs(case) {
        let cfg = GreedyWpoConfig {
            max_waypoints: budget,
            ..Default::default()
        };
        let p = greedy_wpo_robust(net, &set, &invcap, worst, &cfg).expect("routes");
        if ctx.checks {
            let want = reference_greedy_wpo(net, &set, &invcap, worst, &cfg);
            let at = ctx.at(&label);
            assert_eq!(
                waypoint_bits(&p),
                waypoint_bits(&want),
                "{at}: vs reference"
            );
        }
        trace.push(waypoint_bits(&p));
        for demands in set.matrices() {
            trace.push(intact_oracle(net, invcap.as_slice(), demands, &p).row());
        }
    }
    trace
}

/// `joint`: JOINT-Heur's weights, waypoints and MLUs; the MLU must equal
/// the oracle's.
pub fn joint(case: &Case, ctx: &Ctx) -> Trace {
    let (net, demands) = (&case.net, &case.demands);
    let j = joint_heur(net, demands, &joint_cfg()).expect("routes");
    let state = intact_oracle(net, j.weights.as_slice(), demands, &j.waypoints);
    if ctx.checks {
        let at = ctx.at("joint_heur MLU");
        assert_eq!(j.mlu.to_bits(), state.mlu, "{at}");
    }
    vec![joint_bits(&j), state.row()]
}

/// `reductions`: the one-matrix `*_robust` reduction of HeurOSPF, GreedyWPO
/// and JOINT-Heur must reproduce the classic optimizer bit for bit. The
/// classic entry points delegate to the robust code, so the [`ospf`],
/// [`wpo`] and [`joint`] traces pin its thread invariance.
pub fn reductions(case: &Case, ctx: &Ctx) -> Trace {
    let (net, demands) = (&case.net, &case.demands);
    let (worst, ospf, wpo, joint) = (
        RobustObjective::WorstCase,
        ospf_cfg(),
        GreedyWpoConfig::default(),
        joint_cfg(),
    );
    let invcap = WeightSetting::inverse_capacity(net);
    let single = DemandSet::single(demands.clone());
    let reduced = vec![
        bits(heur_ospf_robust(net, &single, worst, &ospf).as_slice()),
        waypoint_bits(&greedy_wpo_robust(net, &single, &invcap, worst, &wpo).expect("routes")),
        joint_bits(&joint_heur_robust(net, &single, worst, &joint).expect("routes")),
    ];
    if ctx.checks {
        let classic = [
            bits(heur_ospf(net, demands, &ospf).as_slice()),
            waypoint_bits(&greedy_wpo(net, demands, &invcap, &wpo).expect("routes")),
            joint_bits(&joint_heur(net, demands, &joint).expect("routes")),
        ];
        assert_eq!(reduced, classic, "{}", ctx.at("one-matrix reductions"));
    }
    reduced
}

/// `robust_joint`: JOINT-Heur-robust on a 4-matrix set under `WorstCase`
/// and `Quantile(0.5)`. Every per-matrix MLU must equal the oracle's.
pub fn robust_joint(case: &Case, ctx: &Ctx) -> Trace {
    let set = scaled_set(&case.demands, 3, 0x5ca1e);
    let mut trace = Trace::new();
    for objective in [RobustObjective::WorstCase, RobustObjective::Quantile(0.5)] {
        let r = joint_heur_robust(&case.net, &set, objective, &joint_cfg()).expect("routes");
        trace.push(joint_bits(&r));
        for k in 0..set.len() {
            let w = r.weights.as_slice();
            let state = intact_oracle(&case.net, w, set.matrix(k), &r.waypoints);
            if ctx.checks {
                let at = ctx.at(format!("{objective:?} matrix {k}"));
                assert_eq!(r.matrix_mlus[k].to_bits(), state.mlu, "{at}");
            }
            trace.push(state.row());
        }
    }
    trace
}

/// `router`: the oracle itself on inverse-capacity weights, whose
/// multi-destination loads must not depend on the thread count.
pub fn router(case: &Case, _: &Ctx) -> Trace {
    let (net, demands) = (&case.net, &case.demands);
    let invcap = WeightSetting::inverse_capacity(net);
    let none = WaypointSetting::none(demands.len());
    vec![intact_oracle(net, invcap.as_slice(), demands, &none).row()]
}

/// The networks of the `dag` walks: every case's, plus a 120-node
/// synthetic WAN whose repairs move tens of nodes.
fn dag_networks() -> Vec<(String, Network)> {
    let mut nets: Vec<(String, Network)> = cases().into_iter().map(|c| (c.label, c.net)).collect();
    nets.push(("geo_backbone(120)".into(), geo_backbone(120, 240, 0x6e0)));
    nets
}

/// Full structural bit-equality of two DAGs.
fn assert_same_dag(a: &SpDag, b: &SpDag, ctx: &str) {
    assert_eq!(bits(&a.dist), bits(&b.dist), "{ctx}: dist diverged");
    assert_eq!(a.edge_on_dag, b.edge_on_dag, "{ctx}: edge set diverged");
    assert_eq!(a.dag_start, b.dag_start, "{ctx}: CSR offsets diverged");
    assert_eq!(a.dag_edges, b.dag_edges, "{ctx}: CSR edge slab diverged");
    assert_eq!(a.order, b.order, "{ctx}: topological order diverged");
}

/// From-scratch DAG of a state, its distances checked against the heap
/// oracle. Both engines feed one DAG builder, so this is also the DAG a
/// heap-engine build produces.
fn scratch_dag(g: &Digraph, w: &[f64], t: NodeId, mask: &[bool], ctx: &str) -> SpDag {
    let dag = shortest_path_dag(g, w, t, mask);
    let heap = single_target_distances_heap(g, w, t, mask);
    assert_eq!(bits(&dag.dist), bits(&heap), "{ctx}: scratch dist vs heap");
    dag
}

/// `dag` engines: Dial against the heap oracle on every target, intact and
/// under a seeded failure mask, and the from-scratch DAG of each.
pub fn dag_engines() {
    for (label, net) in &dag_networks() {
        let g = net.graph();
        let m = net.edge_count();
        let w = integral_weights(m, 0xb0c3 + m as u64);
        let mut rng = StdRng::seed_from_u64(0x3a5c + m as u64);
        let mut mask: Vec<bool> = (0..m).map(|_| rng.gen_range(0..8u32) == 0).collect();
        mask[rng.gen_range(0..m)] = true;
        for t in g.nodes() {
            for (kind, disabled) in [("intact", &[][..]), ("masked", &mask[..])] {
                let ctx = format!("{label} dag {kind} target {t:?}");
                let dial = single_target_distances(g, &w, t, disabled);
                let heap = single_target_distances_heap(g, &w, t, disabled);
                assert_eq!(bits(&dial), bits(&heap), "{ctx}: dial vs heap");
                scratch_dag(g, &w, t, disabled, &ctx);
            }
        }
    }
}

/// `dag` repairs: weight-repair and masked-repair walks at frontier caps 8
/// and `n` (a small cap sends large repairs to the rebuild fallback, `n`
/// sends every repair through the DAG patch), with at least one disconnect
/// per network and cap.
pub fn dag_repairs() {
    for (label, net) in &dag_networks() {
        for cap in [8, net.node_count()] {
            weight_walk(label, net, cap);
            let cut = masked_walk(label, net, cap);
            assert!(cut > 0, "{label} dag cap {cap}: nothing disconnected");
        }
    }
}

/// Random single-edge weight changes, each repaired for six fixed targets
/// and compared with a from-scratch build of the same state.
fn weight_walk(label: &str, net: &Network, cap: usize) {
    let g = net.graph();
    let m = net.edge_count();
    let mut rng = StdRng::seed_from_u64(0x0d1a + m as u64);
    let mut w = integral_weights(m, 0x5eed + m as u64);
    let targets: Vec<NodeId> = g.nodes().take(6).collect();
    let mut dags: Vec<SpDag> = targets
        .iter()
        .map(|&t| shortest_path_dag(g, &w, t, &[]))
        .collect();
    for step in 0..20 {
        let e = EdgeId(rng.gen_range(0..m as u32));
        let old_w = w[e.index()];
        w[e.index()] = f64::from(rng.gen_range(1..=20u32));
        for (dag, &t) in dags.iter_mut().zip(&targets) {
            let repaired = match update_shortest_path_dag(g, &w, dag, e, old_w, cap, &[]) {
                SpDagUpdate::Unchanged => dag.clone(),
                SpDagUpdate::Repaired(d, _) | SpDagUpdate::Rebuilt(d) => d,
            };
            let ctx = format!("{label} dag cap {cap} weight step {step} target {t:?}");
            assert_same_dag(&repaired, &scratch_dag(g, &w, t, &[], &ctx), &ctx);
            *dag = repaired;
        }
    }
}

/// For six fixed targets, disables random on-DAG edges one at a time under a
/// growing mask, repairing with `disable_edge_update` and comparing with a
/// from-scratch masked build. Returns how many nodes the walks cut off.
fn masked_walk(label: &str, net: &Network, cap: usize) -> usize {
    let g = net.graph();
    let m = net.edge_count();
    let mut rng = StdRng::seed_from_u64(0xd15a + m as u64);
    let w = integral_weights(m, 0x5eed + m as u64);
    let mut disconnected = 0;
    for t in g.nodes().take(6) {
        let mut mask = vec![false; m];
        let mut dag = shortest_path_dag(g, &w, t, &[]);
        for step in 0..25 {
            let on_dag: Vec<usize> = (0..m).filter(|&i| dag.edge_on_dag[i]).collect();
            if on_dag.is_empty() {
                break; // every other node is cut off already
            }
            let e = EdgeId(on_dag[rng.gen_range(0..on_dag.len())] as u32);
            mask[e.index()] = true;
            let repaired = disable_edge_update(g, &w, &dag, e, cap, &mask)
                .into_dag()
                .expect("an on-DAG removal dirties the DAG");
            let ctx = format!("{label} dag cap {cap} masked step {step} target {t:?}");
            assert_same_dag(&repaired, &scratch_dag(g, &w, t, &mask, &ctx), &ctx);
            for v in g.nodes() {
                if dag.reaches_target(v) && !repaired.reaches_target(v) {
                    assert!(!repaired.order.contains(&v), "{ctx}: {v:?} left in order");
                    disconnected += 1;
                }
            }
            dag = repaired;
        }
    }
    disconnected
}
