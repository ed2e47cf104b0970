//! The differential kinds: every fast path pinned to a from-scratch
//! evaluation, at every worker-thread count, on one input type.
//!
//! A kind reads its starting state from a [`Case`] (network, demands,
//! weights, waypoints, extra matrices, events and seed) and returns a bit
//! [`Trace`] of everything it observed:
//!
//! * [`invariants`]: the oracle on the case's state, checked against the
//!   paper's routing model from first principles ([`assert_invariants`]);
//! * [`walk`]: seeded probe/commit/discard weight changes through
//!   `IncrementalEvaluator`;
//! * [`disable`] and [`sweep`]: edge-disable probes and failure sweeps;
//! * [`serve`]: the case's event stream through a `ServeSession`;
//! * [`ospf`], [`wpo`], [`joint`], [`reductions`] and [`robust_joint`]: the
//!   optimizers (GreedyWPO's waypoints also against the dense
//!   [`reference_greedy_wpo`], JOINT-Heur's output also through
//!   [`assert_invariants`]);
//! * [`dag_engines`] and [`dag_repairs`]: the Dijkstra engines and the
//!   SP-DAG repairs on given networks, with no thread axis (the graph crate
//!   runs single-threaded).
//!
//! The one oracle is `Router` on a copy of the network with the dead edges
//! deleted and the current capacities (`oracle`). Its loads map back by
//! edge id, and dead edges read exactly `0.0`. A fast path must equal it bit
//! for bit when every weight is integral, and within `LOAD_TOL` otherwise.
//!
//! The one thread axis: a kind runs at 1 thread with its checks, then at
//! more threads, where it must reproduce the 1-thread trace bit for bit.
//! Every trace carries a `Router` evaluation of the state it ends in, which
//! pins the oracle's own thread invariance too. [`run_kind`] runs a fixed
//! table over a [`Grid`] (the differential test suites); [`Case::run`] runs
//! a case's kinds at 1 thread and again at the case's own thread count
//! (`segrout fuzz` and `corpus_replay`). Both hold the one lock ([`guard`]),
//! since the thread count and the obs counters are process-global.
//!
//! A failed check of any kind is a panic naming the case, the kind, the
//! thread count and the step; [`assert_invariants`] and
//! [`assert_mcf_bound`] also name the invariant that failed.

use crate::case::Case;
use segrout_algos::{
    greedy_wpo, greedy_wpo_robust, heur_ospf, heur_ospf_robust, joint_heur, joint_heur_robust,
    reoptimize_weights_on, GreedyWpoConfig, HeurOspfConfig, JointHeurConfig, JointHeurResult,
    ReoptimizeConfig, ServeConfig, ServeSession, ServeTier,
};
use segrout_core::rng::{SliceRandom, StdRng};
use segrout_core::{
    evaluate_robust, fortz_phi, max_link_utilization, sweep_failures, Demand, DemandList,
    DemandSet, FailureSet, IncrementalEvaluator, Network, RobustObjective, Router, ScenarioOutcome,
    Segment, TeError, WaypointSetting, WeightSetting,
};
use segrout_graph::{
    approx_eq, patch_dag, shortest_path_dag, single_target_distances, single_target_distances_heap,
    topological_order, DagRepair, Digraph, EdgeId, NodeId, RepairOutcome, SpDag, INFINITY,
};
use std::fmt::Display;
use std::sync::{Mutex, MutexGuard};

/// Relative tolerance for comparing independently recomputed load vectors.
/// ECMP propagation accumulates sums in an implementation-defined order, so
/// a scaled tolerance is required; genuine logic errors produce divergences
/// many orders of magnitude above it.
const LOAD_TOL: f64 = 1e-7;

/// The bit patterns of `xs`.
pub fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Per-link loads, Φ and MLU as bit patterns.
#[derive(Debug, PartialEq)]
pub struct State {
    /// Per-link loads.
    pub loads: Vec<u64>,
    /// Fortz–Thorup Φ.
    pub phi: u64,
    /// Maximum link utilization.
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

    /// The loads, then Φ and MLU: one trace row.
    fn row(&self) -> Vec<u64> {
        let mut row = self.loads.clone();
        row.extend([self.phi, self.mlu]);
        row
    }
}

/// `true` when every weight is integral: the regime in which a fast path
/// must equal the oracle bit for bit.
fn integral(weights: &[f64]) -> bool {
    weights.iter().all(|w| w.fract() == 0.0)
}

/// `got` agrees with `want`: bit for bit when `exact`, within `LOAD_TOL`
/// of `scale` otherwise.
fn agree(got: f64, want: f64, exact: bool, scale: f64) -> bool {
    if exact {
        got.to_bits() == want.to_bits()
    } else {
        (got - want).abs() <= LOAD_TOL * scale
    }
}

/// Asserts that a fast path's `got` equals the oracle's `want`: bit for bit
/// when every weight is integral, within `LOAD_TOL` otherwise (loads relative
/// to the largest load, Φ and MLU to themselves).
fn assert_oracle(got: &State, want: &State, weights: &[f64], at: &str) {
    if integral(weights) {
        assert_eq!(got, want, "{at}");
        return;
    }
    let f = f64::from_bits;
    let top = want.loads.iter().map(|&l| f(l)).fold(0.0, f64::max);
    let close = |g: u64, w: u64, scale: f64| agree(f(g), f(w), false, 1.0 + scale);
    assert!(
        got.loads.len() == want.loads.len()
            && got
                .loads
                .iter()
                .zip(&want.loads)
                .all(|(&g, &w)| close(g, w, top))
            && close(got.phi, want.phi, f(want.phi))
            && close(got.mlu, want.mlu, f(want.mlu)),
        "{at}: MLU {} and Φ {} vs oracle {} and {}, beyond LOAD_TOL",
        f(got.mlu),
        f(got.phi),
        f(want.mlu),
        f(want.phi)
    );
}

/// Asserts that every edge in `dead` carries exactly `0.0`.
fn assert_dead_zero(got: &State, dead: &[EdgeId], at: &str) {
    for e in dead {
        let load = f64::from_bits(got.loads[e.index()]);
        assert!(load == 0.0, "{at}: dead edge {e:?} carries {load}");
    }
}

fn weight_setting(net: &Network, weights: &[f64]) -> WeightSetting {
    WeightSetting::new(net, weights.to_vec()).expect("weights in range")
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

/// The scratch oracle: `Router` on `copy`, its loads mapped back by edge
/// id, dead edges at `0.0`.
///
/// # Errors
/// The router's error when the copy does not route the demands.
pub(crate) fn oracle(
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

/// `oracle` on the intact network, for states that must route.
///
/// # Panics
/// When the state does not route.
pub fn intact_oracle(net: &Network, w: &[f64], d: &DemandList, wp: &WaypointSetting) -> State {
    oracle(net, net.capacities(), &[], w, d, wp).expect("the intact state routes")
}

/// A kind's bit trace: one row per step, everything observable about it.
pub type Trace = Vec<Vec<u64>>;

/// A differential kind: one scenario run on a case.
pub(crate) type Kind = fn(&Case, &Ctx) -> Trace;

/// Where a kind runs: the case, kind and thread count every failure
/// message names, and whether this run makes the oracle checks (the
/// 1-thread run does; the others must match its trace).
pub struct Ctx {
    run: String,
    checks: bool,
}

impl Ctx {
    fn at(&self, step: impl Display) -> String {
        format!("{} step {step}", self.run)
    }
}

/// Holds the one lock of every differential run, since the thread-count
/// override and the obs counters are process-global. Restores the default
/// thread count when dropped, also when a check panics.
pub struct Guard {
    _lock: MutexGuard<'static, ()>,
}

/// Takes the one lock. Not reentrant: [`run_kind`] and [`Case::run`] take
/// it themselves.
pub fn guard() -> Guard {
    static LOCK: Mutex<()> = Mutex::new(());
    Guard {
        _lock: LOCK.lock().unwrap_or_else(|e| e.into_inner()),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        segrout_par::set_threads(0);
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

/// Runs `f` on `case` at each of `threads` in turn. The first run makes
/// the checks when `checks` is set, and every later run must reproduce its
/// trace. Returns the trace rows the runs checked. The caller holds the
/// [`guard`].
fn thread_axis(
    label: &str,
    kind: &str,
    case: &Case,
    threads: &[usize],
    checks: bool,
    f: impl Fn(&Case, &Ctx) -> Trace,
) -> usize {
    let mut reference: Option<Trace> = None;
    let mut rows = 0;
    for &t in threads {
        segrout_par::set_threads(t);
        let ctx = Ctx {
            run: format!("{label} {kind} threads={t}"),
            checks: checks && reference.is_none(),
        };
        let trace = f(case, &ctx);
        rows += trace.len();
        let Some(want) = &reference else {
            reference = Some(trace);
            continue;
        };
        for (step, (got, want)) in trace.iter().zip(want).enumerate() {
            assert!(got == want, "{}: diverged from 1 thread", ctx.at(step));
        }
        assert_eq!(trace.len(), want.len(), "{}", ctx.at("count"));
    }
    rows
}

/// Runs `kind` on every labelled case over the thread counts of `grid`. The
/// 1-thread run is the reference every other run must reproduce.
pub fn run_kind(
    kind: &str,
    grid: Grid,
    cases: Vec<(String, Case)>,
    f: impl Fn(&Case, &Ctx) -> Trace,
) {
    let _guard = guard();
    let threads: &[usize] = match grid {
        Grid::Oracle => &[1],
        Grid::Full | Grid::Threads => &[1, 2, 4, 8],
    };
    for (label, case) in &cases {
        thread_axis(label, kind, case, threads, grid != Grid::Threads, &f);
    }
}

/// Runs `f` on `case` the way fuzz does: checked at 1 thread, then again at
/// the case's thread count when that is above 1, which must reproduce the
/// 1-thread trace. Returns the trace rows checked. The caller holds the
/// [`guard`].
pub(crate) fn run_case_kind(kind: &str, case: &Case, f: Kind) -> usize {
    let threads = [1, case.threads];
    let threads = if case.threads > 1 {
        &threads[..]
    } else {
        &threads[..1]
    };
    thread_axis("case", kind, case, threads, true, f)
}

/// What a kind starts from, built from its case.
struct Input {
    net: Network,
    demands: DemandList,
    weights: Vec<f64>,
    waypoints: WaypointSetting,
}

/// Builds a kind's [`Input`]. [`Case::run`] rejects a case that does not
/// build before any kind runs.
fn input(case: &Case) -> Input {
    Input {
        net: case.network().expect("the case builds"),
        demands: case.demand_list().expect("the case builds"),
        weights: case.weights.clone(),
        waypoints: case.waypoint_setting().expect("the case builds"),
    }
}

/// `invariants`: the oracle on the case's state, whose multi-destination
/// loads must not depend on the thread count. The checking run asserts
/// [`assert_invariants`] on the state.
pub fn invariants(case: &Case, ctx: &Ctx) -> Trace {
    let Input {
        net,
        demands,
        weights,
        waypoints,
    } = input(case);
    if ctx.checks {
        assert_invariants(&net, &demands, &weights, &waypoints, &ctx.at("input"))
            .expect("the case routes");
    }
    vec![intact_oracle(&net, &weights, &demands, &waypoints).row()]
}

/// Asserts the paper's routing model (§2) on one state from first
/// principles. A failure names `at` and its invariant:
///
/// * `stitching`: every demand's segment chain starts at its source, ends
///   at its destination, is consecutive, and carries the demand's size on
///   every hop;
/// * `dag-optimal`, `dag-tight`, `dag-adjacency` and `dag-acyclic`: for
///   every destination a segment routes to, `Router`'s distances are
///   Bellman-optimal, its DAG's edges are exactly the tight edges, the CSR
///   adjacency lists the same edges, and they form no cycle;
/// * `even-split`: an independent propagation, the segments' amounts split
///   evenly over the DAG out-edges in a `topological_order`, re-derives
///   `Router`'s loads within `LOAD_TOL`;
/// * `conservation`: at every node, link inflow plus injected traffic
///   equals link outflow plus delivered traffic;
/// * `load-nonnegative` and `mlu-consistent`: every load is finite and
///   non-negative, and the MLU is exactly the largest utilization.
///
/// # Errors
/// The router's error when the state does not route: a property of the
/// input, not a failed check.
pub fn assert_invariants(
    net: &Network,
    demands: &DemandList,
    weights: &[f64],
    waypoints: &WaypointSetting,
    at: &str,
) -> Result<(), TeError> {
    let router = Router::new(net, &weight_setting(net, weights));
    let report = router.evaluate(demands, waypoints)?;
    let (g, loads) = (net.graph(), &report.loads);

    let mut segments = Vec::new();
    for (i, d) in demands.iter().enumerate() {
        let segs = waypoints.segments_of(i, d);
        let first = segs.first().map_or(d.src, |hop| hop.0);
        let last = segs.last().map_or(d.src, |hop| hop.1);
        let stitched = (first, last) == (d.src, d.dst)
            && segs.windows(2).all(|pair| pair[0].1 == pair[1].0)
            && segs
                .iter()
                .all(|&(s, t, amount)| s != t && approx_eq(amount, d.size));
        assert!(
            stitched,
            "{at}: [stitching] demand {i} {d:?}: chain {segs:?}"
        );
        segments.extend(segs);
    }

    let mut dests: Vec<NodeId> = segments.iter().map(|&(_, t, _)| t).collect();
    dests.sort_unstable();
    dests.dedup();
    let mut reference = vec![0.0; g.edge_count()];
    for t in dests {
        let dag = router.dag(t);
        let at = format!("{at}: dest {t:?}");
        let dt = dag.dist[t.index()];
        assert!(dt == 0.0, "{at}: [dag-optimal] distance {dt} to itself");
        for (e, u, v) in g.edges() {
            let (du, dv, w) = (dag.dist[u.index()], dag.dist[v.index()], weights[e.index()]);
            let via = w + dv;
            if dv < INFINITY {
                assert!(
                    du <= via || approx_eq(du, via),
                    "{at}: [dag-optimal] {e:?} ({u:?}->{v:?}): {du} > {w} + {dv}"
                );
            }
            let tight = du < INFINITY && dv < INFINITY && approx_eq(du, via);
            let on = dag.edge_on_dag[e.index()];
            assert!(
                on == tight,
                "{at}: [dag-tight] {e:?} on the DAG: {on}, tight: {tight} ({du} vs {w} + {dv})"
            );
            let listed = dag.dag_out(u).contains(&e);
            assert!(
                listed == on,
                "{at}: [dag-adjacency] {e:?} listed: {listed}, on: {on}"
            );
        }
        let order = topological_order(g, &dag.edge_on_dag)
            .unwrap_or_else(|| panic!("{at}: [dag-acyclic] the DAG has a cycle"));
        let mut node_flow = vec![0.0; g.node_count()];
        for &(s, _, amount) in segments.iter().filter(|hop| hop.1 == t) {
            node_flow[s.index()] += amount;
        }
        for v in order.into_iter().filter(|&v| v != t) {
            let outs = dag.dag_out(v);
            let share = node_flow[v.index()] / outs.len() as f64;
            for &e in outs {
                reference[e.index()] += share;
                node_flow[g.dst(e).index()] += share;
            }
        }
    }

    let scale = 1.0 + loads.iter().copied().fold(0.0, f64::max);
    for (e, (&got, &want)) in loads.iter().zip(&reference).enumerate() {
        let ok = agree(got, want, false, scale);
        assert!(
            ok,
            "{at}: [even-split] edge {e}: load {got} vs even split {want}"
        );
    }
    let mut injected = vec![0.0; g.node_count()];
    for &(s, t, amount) in &segments {
        injected[s.index()] += amount;
        injected[t.index()] -= amount;
    }
    for v in g.nodes() {
        let sum = |edges: &[EdgeId]| edges.iter().map(|e| loads[e.index()]).sum::<f64>();
        let (inflow, outflow) = (sum(g.in_edges(v)), sum(g.out_edges(v)));
        let imbalance = inflow + injected[v.index()] - outflow;
        assert!(
            imbalance.abs() <= LOAD_TOL * scale,
            "{at}: [conservation] {v:?}: inflow {inflow} + injected {} - outflow {outflow}",
            injected[v.index()]
        );
    }
    for (e, &load) in loads.iter().enumerate() {
        let ok = load.is_finite() && load >= 0.0;
        assert!(ok, "{at}: [load-nonnegative] edge {e}: load {load}");
    }
    let util = max_link_utilization(loads, net.capacities());
    assert!(
        report.mlu.to_bits() == util.to_bits(),
        "{at}: [mlu-consistent] MLU {} vs largest utilization {util}",
        report.mlu
    );
    Ok(())
}

/// The FPTAS accuracy of [`assert_mcf_bound`].
const MCF_EPSILON: f64 = 0.1;

/// `mcf-lower-bound`: no routing of `demands` has an MLU below the optimal
/// multi-commodity flow's, which the FPTAS bounds from below by `(1 - ε)² ·
/// opt_mlu`. A failure names `at`.
///
/// # Errors
/// The FPTAS's error when a demand does not route.
pub fn assert_mcf_bound(
    net: &Network,
    demands: &DemandList,
    mlu: f64,
    at: &str,
) -> Result<(), TeError> {
    let mcf = segrout_algos::max_concurrent_flow(net, demands, MCF_EPSILON)?;
    let lower = (1.0 - MCF_EPSILON) * (1.0 - MCF_EPSILON) * mcf.opt_mlu;
    assert!(
        mlu >= lower - LOAD_TOL * (1.0 + lower),
        "{at}: [mcf-lower-bound] MLU {mlu} beats the fluid lower bound {lower} \
         (FPTAS opt_mlu {}, ε {MCF_EPSILON})",
        mcf.opt_mlu
    );
    Ok(())
}

/// `walk`: 24 seeded single-edge weight probes to weights in `[1, 8]`
/// through `IncrementalEvaluator`, each committed or discarded at random. Every
/// probe and every committed state must equal the oracle, and a discarded
/// probe must leave the evaluator untouched. The oracle's state of every
/// probe and commit joins the trace, which pins the oracle's own thread
/// invariance on every state the walk visits.
pub fn walk(case: &Case, ctx: &Ctx) -> Trace {
    let Input {
        net,
        demands,
        mut weights,
        waypoints: wp,
    } = input(case);
    let m = net.edge_count();
    let ws = weight_setting(&net, &weights);
    let mut ev = IncrementalEvaluator::new(&net, &ws, &demands, &wp).expect("routable");
    let check = |weights: &[f64], got: &State, step: String| {
        let want = intact_oracle(&net, weights, &demands, &wp);
        if ctx.checks {
            assert_oracle(got, &want, weights, &ctx.at(step));
        }
        want.row()
    };
    let mut trace = vec![check(&weights, &State::of_evaluator(&ev), "build".into())];
    let mut rng = StdRng::seed_from_u64(case.seed);
    for step in 0..24 {
        let e = EdgeId(rng.gen_range(0..m as u32));
        let w = f64::from(rng.gen_range(1..=8u32));
        let before = State::of_evaluator(&ev);
        let probe = ev.probe(e, w).expect("probe routable");
        let mut probed = weights.clone();
        probed[e.index()] = w;
        let got = State::of(&probe.loads, probe.phi, probe.mlu);
        let want = check(&probed, &got, format!("{step} probe"));
        let mut row = got.row();
        row.push(probe.dirty_count as u64);
        trace.extend([row, want]);
        if rng.gen::<bool>() {
            ev.commit(probe);
            weights = probed;
            let committed = State::of_evaluator(&ev);
            let want = check(&weights, &committed, format!("{step} commit"));
            trace.extend([committed.row(), want]);
        } else {
            let kept = State::of_evaluator(&ev);
            if ctx.checks {
                let at = ctx.at(format!("{step} discard"));
                assert_eq!(bits(ev.weights()), bits(&weights), "{at}: weights moved");
                assert_eq!(kept, before, "{at}: state moved");
            }
            trace.push(kept.row());
        }
    }
    trace
}

/// The failure patterns of the failure kinds: every single-link failure,
/// plus every double on networks of at most 10 links.
fn failure_set(net: &Network) -> FailureSet {
    FailureSet::enumerate(net, net.edge_count() <= 10)
}

/// One failure pattern through `probe_disable`: the probe's state, `None`
/// on a disconnect. With a step to name (`at`), the probe must equal the
/// oracle on the edge-deleted copy, dead edges at exactly `0.0`, and a
/// disconnect must be one there too.
fn probe_failure(
    ev: &IncrementalEvaluator<'_>,
    weights: &[f64],
    demands: &DemandList,
    wp: &WaypointSetting,
    dead: &[EdgeId],
    at: Option<&str>,
) -> Option<State> {
    let probe = ev.probe_disable(dead);
    let got = probe
        .as_ref()
        .ok()
        .map(|g| State::of(&g.loads, g.phi, g.mlu));
    let Some(at) = at else { return got };
    let net = ev.network();
    match (
        &got,
        oracle(net, net.capacities(), dead, weights, demands, wp),
    ) {
        (Some(got), Ok(want)) => {
            assert_dead_zero(got, dead, at);
            assert_oracle(got, &want, weights, at);
        }
        (None, Err(TeError::Unroutable { .. }))
            if matches!(probe, Err(TeError::Unroutable { .. })) => {}
        (_, want) => panic!(
            "{at}: probe {:?}, deleted copy {:?}",
            probe.map(|g| g.mlu),
            want.map(|w| f64::from_bits(w.mlu))
        ),
    }
    got
}

/// `disable`: every pattern of the failure set through `probe_disable`,
/// checked against the oracle on the edge-deleted copy (a disconnect must
/// be one there too), dead edges at exactly `0.0`.
pub fn disable(case: &Case, ctx: &Ctx) -> Trace {
    let Input {
        net,
        demands,
        weights,
        waypoints: wp,
    } = input(case);
    let ev = IncrementalEvaluator::new(&net, &weight_setting(&net, &weights), &demands, &wp)
        .expect("intact routable");
    let mut trace = Trace::new();
    for (p, pattern) in failure_set(&net).patterns().iter().enumerate() {
        let at = ctx.checks.then(|| ctx.at(format!("pattern {p}")));
        let got = probe_failure(&ev, &weights, &demands, &wp, &pattern.dead, at.as_deref());
        trace.push(got.map_or(Vec::new(), |g| g.row()));
    }
    trace.push(intact_oracle(&net, &weights, &demands, &wp).row());
    trace
}

/// The demand scalings of the [`sweep`] kind.
const SCALINGS: [f64; 3] = [0.8, 1.0, 1.2];

/// `sweep`: `sweep_failures` over the failure set at scalings 0.8, 1.0 and
/// 1.2. Its bookkeeping must add up (one result per scenario, in (scaling,
/// pattern) order, evaluated + disconnects = scenarios); every row must
/// equal a `probe_disable` on the scaled demands, and that probe the
/// oracle's routing of them, dead edges at exactly `0.0`; the MLU
/// distribution must be sorted and sized; and the worst-case certificate's
/// MLU must equal the distribution's max, its bottleneck's utilization and
/// the `WorstCase` aggregate.
pub fn sweep(case: &Case, ctx: &Ctx) -> Trace {
    let Input {
        net,
        demands,
        weights,
        waypoints: wp,
    } = input(case);
    let ws = weight_setting(&net, &weights);
    let set = failure_set(&net);
    let rep = sweep_failures(&net, &ws, &demands, &wp, &set, &SCALINGS).expect("intact routable");
    let scaled: Vec<DemandList> = SCALINGS
        .iter()
        .map(|&s| {
            let scale = |d: &Demand| Demand::new(d.src, d.dst, d.size * s);
            demands.iter().map(scale).collect()
        })
        .collect();
    if ctx.checks {
        let at = ctx.at("bookkeeping");
        let scenarios = set.len() * SCALINGS.len();
        assert_eq!(rep.scenarios, scenarios, "{at}: scenarios");
        assert_eq!(rep.results.len(), scenarios, "{at}: results");
        assert_eq!(rep.evaluated + rep.disconnects, scenarios, "{at}: outcomes");
    }
    let probes: Vec<IncrementalEvaluator<'_>> = if ctx.checks {
        let ev = |d| IncrementalEvaluator::new(&net, &ws, d, &wp).expect("intact routable");
        scaled.iter().map(ev).collect()
    } else {
        Vec::new()
    };
    let mut trace = Trace::new();
    for (i, r) in rep.results.iter().enumerate() {
        let outcome = match r.outcome {
            ScenarioOutcome::Evaluated { mlu, phi, .. } => Some((mlu.to_bits(), phi.to_bits())),
            ScenarioOutcome::Disconnected { .. } => None,
        };
        if ctx.checks {
            let (s, p) = (i / set.len(), i % set.len());
            let at = ctx.at(format!("pattern {p} x{}", SCALINGS[s]));
            assert_eq!((r.pattern, r.scaling), (p, s), "{at}: result order");
            let dead = &set.patterns()[p].dead;
            let got = probe_failure(&probes[s], &weights, &scaled[s], &wp, dead, Some(&at));
            let row = got.map(|g| (g.mlu, g.phi));
            assert_eq!(outcome, row, "{at}: sweep row vs probe");
        }
        let (mlu, phi) = outcome.unwrap_or((u64::MAX, u64::MAX));
        trace.push(vec![r.pattern as u64, r.scaling as u64, mlu, phi]);
    }
    if ctx.checks {
        let at = ctx.at("certificate");
        let dist = rep.mlu_distribution();
        assert_eq!(dist.len(), rep.evaluated, "{at}: distribution size");
        assert!(dist.windows(2).all(|w| w[0] <= w[1]), "{at}: unsorted");
        match (&rep.worst, dist.last()) {
            (Some(c), Some(&max)) => {
                let util = c.bottleneck_load / net.capacities()[c.bottleneck.index()];
                let agg = rep.aggregate_mlu(RobustObjective::WorstCase);
                assert_eq!(
                    bits(&[max, util, agg.unwrap_or(f64::NAN)]),
                    bits(&[c.mlu; 3]),
                    "{at}: MLU vs the distribution's max, the bottleneck's \
                     utilization and the WorstCase aggregate"
                );
            }
            (None, None) => {}
            (c, max) => panic!("{at}: certificate {c:?} vs distribution max {max:?}"),
        }
    }
    let mut summary = vec![rep.evaluated as u64, rep.disconnects as u64];
    if let Some(c) = &rep.worst {
        summary.extend([c.pattern as u64, c.scaling as u64, c.mlu.to_bits()]);
        summary.extend([c.bottleneck.index() as u64, c.bottleneck_load.to_bits()]);
    }
    trace.push(summary);
    trace.push(intact_oracle(&net, &weights, &demands, &wp).row());
    trace
}

/// The edges an evaluator's failure mask disables.
fn dead_edges(ev: &IncrementalEvaluator<'_>) -> Vec<EdgeId> {
    let dead = ev.disabled().iter().enumerate().filter(|(_, &d)| d);
    dead.map(|(i, _)| EdgeId(i as u32)).collect()
}

/// `oracle` on a serving session's current state, which must route.
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

/// `serve`: the case's events through a `ServeSession` deployed on the
/// case's weights, its searches on `ospf_cfg`. After each event the state
/// must equal the oracle; every entry of the response's weight diff must be
/// in range and a real change, and the diff must replay the pre-event
/// weights onto the post-event ones; an error reply must leave the state
/// untouched; and a local or escalate tier must be reproduced by
/// `reoptimize_weights_on` from the pre-event weights. At the end the
/// session's tier tallies must partition the events, and its error, churn
/// and SLO counts must agree with the responses.
pub fn serve(case: &Case, ctx: &Ctx) -> Trace {
    let Input {
        net,
        demands,
        weights,
        waypoints,
    } = input(case);
    let cfg = ServeConfig {
        reopt: ReoptimizeConfig {
            ospf: ospf_cfg(case.seed),
            ..Default::default()
        },
        ..Default::default()
    };
    let slo = cfg.slo_ms;
    let deployed = weight_setting(&net, &weights);
    let mut session =
        ServeSession::new(&net, &deployed, demands, waypoints, cfg).expect("session opens");
    let (mut errors, mut churn, mut slow) = (0, 0, 0);
    let mut trace = Trace::new();
    for (k, event) in case.events.iter().enumerate() {
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
                let real = e.index() < replay.len() && old.to_bits() != new.to_bits();
                assert!(real, "{at}: diff entry {e:?} {old} -> {new}");
                assert_eq!(old.to_bits(), replay[e.index()].to_bits(), "{at}: diff old");
                replay[e.index()] = new;
            }
            assert_eq!(bits(&replay), bits(ev.weights()), "{at}: diff replay");
            if r.tier == ServeTier::Error {
                assert_eq!(session_bits(&session), before, "{at}: error changed state");
            }
            let want = session_oracle(&session);
            assert_oracle(&State::of_evaluator(ev), &want, ev.weights(), &at);
            if matches!(r.tier, ServeTier::Local | ServeTier::Escalate) {
                let (recap, _) = copy(&net, ev.capacities(), &[]);
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
        errors += u64::from(r.tier == ServeTier::Error);
        churn += r.churn as u64;
        slow += u64::from(slo > 0.0 && r.latency_ms > slo);
        let mut row = vec![r.seq, r.tier as u64, r.churn as u64, r.evaluations];
        row.extend(session_bits(&session));
        trace.push(row);
    }
    let st = *session.stats();
    if ctx.checks {
        let at = ctx.at("tallies");
        assert_eq!(st.events, case.events.len() as u64, "{at}: events");
        let tiers = st.probe_only + st.local_reopts + st.escalations + st.errors;
        assert_eq!(
            tiers, st.events,
            "{at}: the tiers do not partition the events"
        );
        assert_eq!(
            [st.errors, st.weight_churn, st.slo_violations],
            [errors, churn, slow],
            "{at}: error, churn and SLO counts vs the responses"
        );
    }
    trace.push(vec![
        st.probe_only,
        st.local_reopts,
        st.escalations,
        st.errors,
    ]);
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

/// The one HeurOSPF configuration of the optimizer kinds, the serving
/// session's searches and the fuzz MILP stages: cheap, but long enough to
/// accept many moves, and within the MILP oracle's weight range of 1–4.
pub(crate) fn ospf_cfg(seed: u64) -> HeurOspfConfig {
    HeurOspfConfig {
        max_weight: 4,
        restarts: 1,
        max_passes: 2,
        seed,
        ..Default::default()
    }
}

/// JOINT-Heur on [`ospf_cfg`], at most one waypoint per demand.
pub(crate) fn joint_cfg(seed: u64) -> JointHeurConfig {
    JointHeurConfig {
        ospf: ospf_cfg(seed),
        ..Default::default()
    }
}

/// `ospf`: HeurOSPF's weights and the routing they give.
pub fn ospf(case: &Case, _: &Ctx) -> Trace {
    let Input { net, demands, .. } = input(case);
    let w = heur_ospf(&net, &demands, &ospf_cfg(case.seed));
    let none = WaypointSetting::none(demands.len());
    let state = intact_oracle(&net, w.as_slice(), &demands, &none);
    vec![bits(w.as_slice()), state.row()]
}

/// `demands` with every demand split into `parts` equal consecutive
/// sub-flows, as the paper's instances split each pair.
fn split(demands: &DemandList, parts: usize) -> DemandList {
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
    d: Demand,
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
///
/// # Panics
/// When the set does not route without waypoints.
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

/// The inputs of the [`wpo`] kind: the case's demands as they are and split
/// into 4 equal sub-flows each (the sub-flows of a pair share their
/// candidate deltas), each as one matrix and, when the case has extra
/// matrices, as its whole set, at waypoint budgets 1 and 2. A network of
/// more than 20 nodes runs the split demands at budget 1 only, which keeps
/// a debug run on Germany50 short.
fn wpo_inputs(case: &Case) -> Vec<(String, DemandSet, usize)> {
    let large = case.nodes > 20;
    let whole = case.demand_set().expect("the case builds");
    let mut inputs = Vec::new();
    for parts in [1, 4] {
        if large && parts == 1 {
            continue;
        }
        let mut sets = vec![DemandSet::single(split(whole.matrix(0), parts))];
        if whole.len() > 1 {
            let each = whole
                .iter()
                .map(|(name, d)| (name.to_string(), split(d, parts)));
            sets.push(DemandSet::from_named(each.collect()));
        }
        for set in sets {
            for budget in [1, 2] {
                if large && budget == 2 {
                    continue;
                }
                let label = format!("{} matrices, {parts} parts, W={budget}", set.len());
                inputs.push((label, set.clone(), budget));
            }
        }
    }
    inputs
}

/// `wpo`: GreedyWPO's waypoints on the case's weights, and the routing they
/// give on every matrix, for each of `wpo_inputs`. The waypoints must
/// equal [`reference_greedy_wpo`]'s.
pub fn wpo(case: &Case, ctx: &Ctx) -> Trace {
    let Input { net, weights, .. } = input(case);
    let ws = weight_setting(&net, &weights);
    let worst = RobustObjective::WorstCase;
    let mut trace = Trace::new();
    for (label, set, budget) in wpo_inputs(case) {
        let cfg = GreedyWpoConfig {
            max_waypoints: budget,
            ..Default::default()
        };
        let p = greedy_wpo_robust(&net, &set, &ws, worst, &cfg).expect("routes");
        if ctx.checks {
            let want = reference_greedy_wpo(&net, &set, &ws, worst, &cfg);
            let at = ctx.at(&label);
            assert_eq!(
                waypoint_bits(&p),
                waypoint_bits(&want),
                "{at}: vs reference"
            );
        }
        trace.push(waypoint_bits(&p));
        for demands in set.matrices() {
            trace.push(intact_oracle(&net, &weights, demands, &p).row());
        }
    }
    trace
}

/// `joint`: JOINT-Heur's weights, waypoints and MLUs. The MLU must equal
/// the oracle's, the output state must pass [`assert_invariants`], and a
/// fresh `IncrementalEvaluator` on it must equal the oracle.
pub fn joint(case: &Case, ctx: &Ctx) -> Trace {
    let Input { net, demands, .. } = input(case);
    let j = joint_heur(&net, &demands, &joint_cfg(case.seed)).expect("routes");
    let (weights, waypoints) = (j.weights.as_slice(), &j.waypoints);
    let state = intact_oracle(&net, weights, &demands, waypoints);
    if ctx.checks {
        assert_eq!(j.mlu.to_bits(), state.mlu, "{}", ctx.at("joint_heur MLU"));
        let at = ctx.at("joint_heur output");
        assert_invariants(&net, &demands, weights, waypoints, &at).expect("the output routes");
        let ev = IncrementalEvaluator::new(&net, &j.weights, &demands, waypoints).expect("routes");
        assert_oracle(&State::of_evaluator(&ev), &state, weights, &at);
    }
    vec![joint_bits(&j), state.row()]
}

/// `reductions`: the one-matrix `*_robust` reduction of HeurOSPF, GreedyWPO
/// (on the case's weights) and JOINT-Heur must reproduce the classic
/// optimizer bit for bit. The classic entry points delegate to the robust
/// code, so the [`ospf`], [`wpo`] and [`joint`] traces pin its thread
/// invariance.
pub fn reductions(case: &Case, ctx: &Ctx) -> Trace {
    let Input {
        net,
        demands,
        weights,
        ..
    } = input(case);
    let (worst, ospf, wpo, joint) = (
        RobustObjective::WorstCase,
        ospf_cfg(case.seed),
        GreedyWpoConfig::default(),
        joint_cfg(case.seed),
    );
    let ws = weight_setting(&net, &weights);
    let single = DemandSet::single(demands.clone());
    let reduced = vec![
        bits(heur_ospf_robust(&net, &single, worst, &ospf).as_slice()),
        waypoint_bits(&greedy_wpo_robust(&net, &single, &ws, worst, &wpo).expect("routes")),
        joint_bits(&joint_heur_robust(&net, &single, worst, &joint).expect("routes")),
    ];
    if ctx.checks {
        let classic = [
            bits(heur_ospf(&net, &demands, &ospf).as_slice()),
            waypoint_bits(&greedy_wpo(&net, &demands, &ws, &wpo).expect("routes")),
            joint_bits(&joint_heur(&net, &demands, &joint).expect("routes")),
        ];
        assert_eq!(reduced, classic, "{}", ctx.at("one-matrix reductions"));
    }
    reduced
}

/// `evaluate_robust` on one state of a set, checked: each matrix's MLU and
/// Φ, and a fresh `IncrementalEvaluator` on it, must equal the oracle's;
/// the `WorstCase` aggregate of every prefix must be its running max;
/// `Quantile(1.0)` must equal `WorstCase` and `Quantile(0.5)` must not
/// exceed it. Returns the per-matrix MLUs and Φs as trace rows.
fn robust_state(
    net: &Network,
    set: &DemandSet,
    weights: &[f64],
    wp: &WaypointSetting,
    ctx: &Ctx,
    what: &str,
) -> Trace {
    let ws = weight_setting(net, weights);
    let rep = evaluate_robust(net, &ws, set, wp).expect("routes");
    if ctx.checks {
        let exact = integral(weights);
        let mut running = f64::NEG_INFINITY;
        for (k, demands) in set.matrices().enumerate() {
            let at = ctx.at(format!("{what} matrix {k}"));
            let want = intact_oracle(net, weights, demands, wp);
            let ev = IncrementalEvaluator::new(net, &ws, demands, wp).expect("routes");
            assert_oracle(&State::of_evaluator(&ev), &want, weights, &at);
            let (mlu, phi) = (f64::from_bits(want.mlu), f64::from_bits(want.phi));
            assert!(
                agree(rep.mlus[k], mlu, exact, 1.0 + mlu)
                    && agree(rep.phis[k], phi, exact, 1.0 + phi),
                "{at}: evaluate_robust MLU {} and Φ {} vs oracle {mlu} and {phi}",
                rep.mlus[k],
                rep.phis[k]
            );
            running = running.max(rep.mlus[k]);
            let prefix = RobustObjective::WorstCase.aggregate(&rep.mlus[..=k]);
            assert_eq!(prefix.to_bits(), running.to_bits(), "{at}: prefix max");
        }
        let at = ctx.at(format!("{what} aggregates"));
        let worst = RobustObjective::WorstCase.aggregate(&rep.mlus);
        let q1 = RobustObjective::Quantile(1.0).aggregate(&rep.mlus);
        assert_eq!(
            bits(&[worst, q1]),
            bits(&[running; 2]),
            "{at}: max fold, Quantile(1.0)"
        );
        let median = RobustObjective::Quantile(0.5).aggregate(&rep.mlus);
        assert!(
            median <= worst,
            "{at}: Quantile(0.5) {median} > WorstCase {worst}"
        );
    }
    vec![bits(&rep.mlus), bits(&rep.phis)]
}

/// `robust_joint`: `robust_state` on the case's state over its whole set
/// of matrices, then JOINT-Heur-robust under `WorstCase` and
/// `Quantile(0.5)`, whose per-matrix MLUs must equal `evaluate_robust`'s on
/// its output, itself checked by `robust_state`.
pub fn robust_joint(case: &Case, ctx: &Ctx) -> Trace {
    let Input {
        net,
        weights,
        waypoints,
        ..
    } = input(case);
    let set = case.demand_set().expect("the case builds");
    let mut trace = robust_state(&net, &set, &weights, &waypoints, ctx, "input");
    for objective in [RobustObjective::WorstCase, RobustObjective::Quantile(0.5)] {
        let r = joint_heur_robust(&net, &set, objective, &joint_cfg(case.seed)).expect("routes");
        let what = format!("{objective:?}");
        let state = robust_state(&net, &set, r.weights.as_slice(), &r.waypoints, ctx, &what);
        if ctx.checks {
            let at = ctx.at(format!("{what} per-matrix MLUs"));
            assert_eq!(bits(&r.matrix_mlus), state[0], "{at}");
        }
        trace.push(joint_bits(&r));
        trace.extend(state);
    }
    trace
}

/// Seeded integral weights in `[1, 20]` for the `dag` walks.
fn dag_weights(m: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| f64::from(rng.gen_range(1..=20u32)))
        .collect()
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

/// `dag` engines: Dial against the heap oracle on every target of every
/// network, intact and under a seeded failure mask, and the from-scratch
/// DAG of each.
pub fn dag_engines(nets: &[(String, Network)]) {
    for (label, net) in nets {
        let g = net.graph();
        let m = net.edge_count();
        let w = dag_weights(m, 0xb0c3 + m as u64);
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

/// `dag` repairs: weight-repair walks and masked walks (links down, then
/// back up) on every network at frontier caps 8 and `n` (a small cap sends
/// large repairs to the rebuild fallback, `n` sends every repair through
/// the DAG patch), with at least one disconnect per network and cap.
pub fn dag_repairs(nets: &[(String, Network)]) {
    for (label, net) in nets {
        for cap in [8, net.node_count()] {
            weight_walk(label, net, cap);
            let cut = masked_walk(label, net, cap);
            assert!(cut > 0, "{label} dag cap {cap}: nothing disconnected");
        }
    }
}

/// `prev` after a change of the `changed` edges from `old_w` (see
/// [`DagRepair::repair`]) under the new weights `w` and mask: the repair's
/// diff patched in ([`patch_dag`]), as the incremental evaluator scores and
/// commits a change.
fn repaired_dag(
    g: &Digraph,
    w: &[f64],
    prev: &SpDag,
    (changed, old_w): (&[EdgeId], f64),
    cap: usize,
    mask: &[bool],
) -> SpDag {
    let mut r = DagRepair::default();
    match r.repair(g, w, prev, changed, old_w, cap, mask) {
        RepairOutcome::Unchanged => prev.clone(),
        _ => patch_dag(g, w, mask, prev, r.moved(), changed),
    }
}

/// Random single-edge weight changes, each repaired for six fixed targets
/// and compared with a from-scratch build of the same state.
fn weight_walk(label: &str, net: &Network, cap: usize) {
    let g = net.graph();
    let m = net.edge_count();
    let mut rng = StdRng::seed_from_u64(0x0d1a + m as u64);
    let mut w = dag_weights(m, 0x5eed + m as u64);
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
            let repaired = repaired_dag(g, &w, dag, (&[e], old_w), cap, &[]);
            let ctx = format!("{label} dag cap {cap} weight step {step} target {t:?}");
            assert_same_dag(&repaired, &scratch_dag(g, &w, t, &[], &ctx), &ctx);
            *dag = repaired;
        }
    }
}

/// For six fixed targets, takes one to three edges down per step under a
/// growing mask, in one repair (a weight increase to ∞ on each), then
/// re-enables the masked edges in random order back to the intact topology
/// (each a decrease from ∞), and compares every step with a from-scratch
/// masked build. A down step takes a random on-DAG edge; any other edge it
/// takes is another out-edge of that edge's tail, the same edge listed
/// again, or any edge at all. Returns how many nodes the walks cut off.
fn masked_walk(label: &str, net: &Network, cap: usize) -> usize {
    let g = net.graph();
    let m = net.edge_count();
    let mut rng = StdRng::seed_from_u64(0xd15a + m as u64);
    let mut up_rng = StdRng::seed_from_u64(0x0e4a + m as u64);
    let w = dag_weights(m, 0x5eed + m as u64);
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
            let mut dead = vec![e];
            for _ in 0..rng.gen_range(0..3u32) {
                let siblings = g.out_edges(g.src(e));
                dead.push(match rng.gen_range(0..3u32) {
                    0 => siblings[rng.gen_range(0..siblings.len())],
                    1 => e,
                    _ => EdgeId(rng.gen_range(0..m as u32)),
                });
            }
            for d in &dead {
                mask[d.index()] = true;
            }
            let repaired = repaired_dag(g, &w, &dag, (&dead, f64::INFINITY), cap, &mask);
            let ctx = format!("{label} dag cap {cap} masked step {step} {dead:?} target {t:?}");
            assert_same_dag(&repaired, &scratch_dag(g, &w, t, &mask, &ctx), &ctx);
            for v in g.nodes() {
                if dag.reaches_target(v) && !repaired.reaches_target(v) {
                    assert!(!repaired.order.contains(&v), "{ctx}: {v:?} left in order");
                    disconnected += 1;
                }
            }
            dag = repaired;
        }
        let mut masked: Vec<usize> = (0..m).filter(|&i| mask[i]).collect();
        masked.shuffle(&mut up_rng);
        for (step, e) in masked.into_iter().map(|i| EdgeId(i as u32)).enumerate() {
            mask[e.index()] = false;
            let repaired = repaired_dag(g, &w, &dag, (&[e], f64::INFINITY), cap, &mask);
            let ctx = format!("{label} dag cap {cap} re-enable step {step} target {t:?}");
            assert_same_dag(&repaired, &scratch_dag(g, &w, t, &mask, &ctx), &ctx);
            dag = repaired;
        }
    }
    disconnected
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bidirected diamond (8 links, so the failure kinds also sweep
    /// doubles) with one demand across it and one extra matrix.
    fn diamond(weights: Vec<f64>) -> Case {
        let bilink = |u, v| [(u, v, 1.0), (v, u, 1.0)];
        Case {
            nodes: 4,
            links: [bilink(0, 1), bilink(1, 3), bilink(0, 2), bilink(2, 3)].concat(),
            demands: vec![(0, 3, 2.0), (1, 3, 0.5)],
            extra_matrices: vec![vec![0.5, 0.125]],
            events: Vec::new(),
            weights,
            waypoints: vec![Vec::new(); 2],
            threads: 1,
            pipeline: true,
            seed: 7,
        }
    }

    /// The state of a case as [`assert_invariants`] takes it.
    fn assert_case(case: &Case) -> Result<(), TeError> {
        let Input {
            net,
            demands,
            weights,
            waypoints,
        } = input(case);
        assert_invariants(&net, &demands, &weights, &waypoints, "test")
    }

    #[test]
    fn a_waypointed_diamond_passes_the_invariants() {
        let mut case = diamond(vec![1.0; 8]);
        case.waypoints[0] = vec![2];
        assert_case(&case).unwrap();
        let Input {
            net,
            demands,
            weights,
            waypoints,
        } = input(&case);
        let mlu = f64::from_bits(intact_oracle(&net, &weights, &demands, &waypoints).mlu);
        assert_mcf_bound(&net, &demands, mlu, "test").unwrap();
    }

    #[test]
    fn fractional_weights_pass_the_invariants_within_tolerance() {
        assert_case(&diamond(vec![1.25, 1.0, 1.0, 1.25, 1.0, 1.0, 1.25, 1.0])).unwrap();
    }

    #[test]
    fn an_unroutable_state_is_an_error_not_a_failed_check() {
        // One-way chain: the demand runs against the arrows.
        let case = Case {
            nodes: 3,
            links: vec![(0, 1, 1.0), (1, 2, 1.0)],
            demands: vec![(2, 0, 1.0)],
            extra_matrices: Vec::new(),
            events: Vec::new(),
            weights: vec![1.0; 2],
            waypoints: vec![Vec::new()],
            threads: 1,
            pipeline: false,
            seed: 1,
        };
        let err = assert_case(&case).unwrap_err();
        assert!(matches!(err, TeError::Unroutable { .. }), "{err}");
    }

    #[test]
    fn abilene_gravity_passes_the_invariants_and_the_mcf_bound() {
        let net = segrout_topo::abilene();
        let cfg = segrout_traffic::TrafficConfig {
            seed: 5,
            ..Default::default()
        };
        let demands = segrout_traffic::gravity(&net, &cfg).unwrap();
        let weights = WeightSetting::inverse_capacity(&net);
        let none = WaypointSetting::none(demands.len());
        assert_invariants(&net, &demands, weights.as_slice(), &none, "test").unwrap();
        let mlu = Router::new(&net, &weights).mlu(&demands).unwrap();
        assert_mcf_bound(&net, &demands, mlu, "test").unwrap();
    }

    /// A kind whose trace records the thread count it ran at.
    fn threads(_: &Case, _: &Ctx) -> Trace {
        vec![vec![segrout_par::threads() as u64]]
    }

    #[test]
    #[should_panic(expected = "diverged from 1 thread")]
    fn a_thread_dependent_trace_fails_the_grid() {
        let table = vec![("diamond".to_string(), diamond(vec![1.0; 8]))];
        run_kind("threads", Grid::Full, table, threads);
    }

    #[test]
    #[should_panic(expected = "diverged from 1 thread")]
    fn a_thread_dependent_trace_fails_the_case_rerun() {
        let _guard = guard();
        let case = Case {
            threads: 4,
            ..diamond(vec![1.0; 8])
        };
        run_case_kind("threads", &case, threads);
    }

    /// Single failures of the diamond reroute and some doubles cut node 0
    /// off, so both outcome arms of `disable` and `sweep` run.
    #[test]
    fn failure_kinds_cover_routed_and_disconnected_patterns() {
        let table = || vec![("diamond".to_string(), diamond(vec![1.0; 8]))];
        run_kind("disable", Grid::Full, table(), disable);
        run_kind("sweep", Grid::Full, table(), |case, ctx| {
            let trace = sweep(case, ctx);
            let rows = &trace[..trace.len() - 2];
            assert!(rows.iter().any(|r| r[2] == u64::MAX), "no disconnect");
            assert!(rows.iter().any(|r| r[2] != u64::MAX), "nothing routed");
            trace
        });
    }

    /// Fractional weights and a waypoint take the comparator's tolerant
    /// path through every kind that reads the case's state.
    #[test]
    fn fractional_weights_pass_the_tolerant_comparison() {
        let mut case = diamond(vec![1.25, 1.0, 1.0, 1.25, 1.0, 1.0, 1.25, 1.0]);
        case.waypoints[0] = vec![2];
        let table = || vec![("fractional diamond".to_string(), case.clone())];
        for (name, kind) in [
            ("walk", walk as Kind),
            ("disable", disable),
            ("sweep", sweep),
            ("robust_joint", robust_joint),
            ("invariants", invariants),
        ] {
            run_kind(name, Grid::Full, table(), kind);
        }
    }
}
