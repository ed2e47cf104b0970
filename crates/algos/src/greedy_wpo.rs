//! Algorithm 3 (GreedyWPO): greedy waypoint selection under fixed weights.
//!
//! Demands are visited in descending size order. For each demand `ψ = (s, t,
//! d)` every node `w` is probed as a single waypoint — the demand is replaced
//! by the two segments `(s, w, d)` and `(w, t, d)` — and the waypoint that
//! lowers the current MLU the most is kept (none if no node improves it).
//!
//! The implementation maintains the running load vector of the *current*
//! routing (earlier demands keep their chosen waypoints), which both matches
//! the greedy "improve the MLU of the whole configuration" reading of the
//! pseudo-code and avoids quadratic re-evaluation: probing a waypoint is a
//! sparse delta on the load vector, scored by `patched_mlu` in `O(|δ|)`
//! against one utilization-sorted copy of the running loads.
//!
//! **Shared candidate deltas.** A candidate chain's delta depends only on the
//! demand's source, destination, per-matrix sizes and current chain, never
//! on the running loads. The paper's instances split every pair into equal
//! sub-flows, which the descending order visits one after another, so the
//! candidate chains and their deltas are built once per run of equal
//! consecutive demands (`PairProbes`) and every sub-flow of the run re-scores
//! them against its own running loads. Delta builds are segment walks
//! ([`Router::append_segment_loads`]) and fan out on the `segrout-par` pool
//! once the `(candidate × matrix)` grid clears `GRID_SERIAL_CUTOFF`; the
//! re-scoring pass is a few dozen nanoseconds per cell and runs serially.
//! The candidate chains are generated in fixed (position, waypoint) order
//! and the acceptance fold replays that order, so the selected waypoints
//! are bit-identical at any thread count, and to a sweep that rebuilds
//! every delta for every demand.
//!
//! **Robust multi-matrix selection** ([`greedy_wpo_robust`]): the same
//! greedy sweep against an aligned [`DemandSet`] of `K` matrices. One
//! running load vector is maintained *per matrix*, every candidate chain is
//! probed against every matrix, and the per-matrix patched MLUs fold
//! through a [`RobustObjective`] before the acceptance test. [`greedy_wpo`]
//! is the `K = 1` special case and delegates here — a one-matrix set
//! reproduces the classic sweep bit for bit.

use segrout_core::{
    max_link_utilization, DemandList, DemandSet, EdgeId, Network, NodeId, RobustObjective, Router,
    TeError, WaypointSetting, WeightSetting,
};
use segrout_obs::{event, Level};
use std::cell::RefCell;

/// Work threshold for building a run's candidate deltas: below this many
/// cells the build runs serially on the caller. A cell is one candidate
/// chain's segment walks for one matrix — far cheaper than the
/// Dijkstra-sized work `par_map`'s default threshold assumes. A
/// single-matrix build at budget 1 has `|V| - 2` cells, so on Germany50
/// (48 cells) it runs serially, while a 3-matrix build (144 cells) fans
/// out. Re-scoring a built grid always runs serially.
const GRID_SERIAL_CUTOFF: usize = 128;

/// Sparse per-edge load delta of one candidate routing.
type SparseLoads = Vec<(EdgeId, f64)>;

/// Initial capacity of a candidate delta: a two-segment delta on Germany50
/// holds about 15 `(edge, load)` pairs, so most deltas never regrow.
const DELTA_CAPACITY: usize = 32;

/// Slot-table entry of an edge the current delta has not touched.
const UNTOUCHED: u32 = u32::MAX;

/// Per-thread scratch of [`patched_mlu`], clean between calls: `slot[e]` is
/// edge `e`'s index into `touched`, or [`UNTOUCHED`].
struct PatchScratch {
    slot: Vec<u32>,
    touched: Vec<(usize, f64)>,
}

thread_local! {
    static PATCH_SCRATCH: RefCell<PatchScratch> = const {
        RefCell::new(PatchScratch {
            slot: Vec::new(),
            touched: Vec::new(),
        })
    };
}

/// MLU of `loads` patched by the sparse `delta`, without materializing the
/// patched vector.
///
/// `base_util_desc` holds the *unpatched* per-edge utilizations sorted in
/// descending order: the maximum over edges the delta does not touch is the
/// first untouched entry in that order. A per-thread edge → slot table
/// dedupes the touched edges, so a probe costs `O(|δ| + scan)` instead of
/// an `O(|E|)` clone-and-fold; the table is reset edge by edge before
/// returning.
///
/// Bit-identity with the dense path: each touched edge's patched load
/// replays the exact accumulation sequence `loads[e] += l` would perform on
/// a full copy (first occurrence reads the base load, later duplicates add
/// onto the running sum, in delta order), and a maximum over the same value
/// multiset is order-independent, so the result equals
/// `max_link_utilization(&patched, caps)` bit for bit.
fn patched_mlu(
    loads: &[f64],
    caps: &[f64],
    base_util_desc: &[(f64, usize)],
    delta: &[(EdgeId, f64)],
) -> f64 {
    PATCH_SCRATCH.with(|scratch| {
        let PatchScratch { slot, touched } = &mut *scratch.borrow_mut();
        if slot.len() < loads.len() {
            slot.resize(loads.len(), UNTOUCHED);
        }
        touched.clear();
        for &(e, l) in delta {
            let idx = e.index();
            match slot[idx] {
                UNTOUCHED => {
                    slot[idx] = touched.len() as u32;
                    touched.push((idx, loads[idx] + l));
                }
                at => touched[at as usize].1 += l,
            }
        }
        let mut mlu = 0.0f64;
        for &(u, idx) in base_util_desc {
            if slot[idx] == UNTOUCHED {
                mlu = mlu.max(u);
                break; // descending order: the first untouched edge is the max
            }
        }
        for &(idx, v) in touched.iter() {
            mlu = mlu.max(v / caps[idx]);
            slot[idx] = UNTOUCHED;
        }
        mlu
    })
}

/// Appends the loads of routing `amount` along the segment chain
/// `src -> chain[0] -> ... -> dst` to `out` (degenerate hops skipped).
fn chain_loads(
    router: &Router<'_>,
    chain: &[NodeId],
    src: NodeId,
    dst: NodeId,
    amount: f64,
    out: &mut SparseLoads,
) -> Result<(), TeError> {
    let mut cur = src;
    for &hop in chain.iter().chain(std::iter::once(&dst)) {
        if hop != cur {
            router.append_segment_loads(cur, hop, amount, out)?;
            cur = hop;
        }
    }
    Ok(())
}

/// What a demand's candidate deltas depend on: source, destination,
/// per-matrix sizes (as bits) and current chain.
#[derive(PartialEq)]
struct ProbeKey {
    src: NodeId,
    dst: NodeId,
    size_bits: Vec<u64>,
    chain: Vec<NodeId>,
}

/// The candidate chains of one run of equal consecutive demands and their
/// per-matrix loads, shared by every demand of the run.
struct PairProbes {
    key: ProbeKey,
    /// Per matrix, the loads of the current chain.
    current: Vec<SparseLoads>,
    /// Candidate chains in fixed (position, waypoint) order.
    chains: Vec<Vec<NodeId>>,
    /// Candidate-major: chain `ci`'s delta on matrix `mi` sits at
    /// `ci·K + mi`, `None` where the chain is unroutable.
    deltas: Vec<Option<SparseLoads>>,
}

impl PairProbes {
    /// Routes the current chain and every candidate chain of `key` on every
    /// matrix; the `(candidate × matrix)` grid fans out on the pool.
    fn build(
        router: &Router<'_>,
        key: ProbeKey,
        sizes: &[f64],
        candidates: &[NodeId],
    ) -> Result<Self, TeError> {
        let (src, dst, chain) = (key.src, key.dst, &key.chain);
        let mut current = Vec::with_capacity(sizes.len());
        for &size in sizes {
            let mut loads = Vec::new();
            chain_loads(router, chain, src, dst, size, &mut loads)?;
            current.push(loads);
        }
        let mut chains = Vec::new();
        for pos in 0..=chain.len() {
            for &w in candidates {
                if w == src || w == dst || chain.contains(&w) {
                    continue;
                }
                let mut cand = chain.clone();
                cand.insert(pos, w);
                chains.push(cand);
            }
        }
        let k = sizes.len();
        let deltas = segrout_par::par_map_min(chains.len() * k, GRID_SERIAL_CUTOFF, |cell| {
            let mut delta = Vec::with_capacity(DELTA_CAPACITY);
            chain_loads(
                router,
                &chains[cell / k],
                src,
                dst,
                sizes[cell % k],
                &mut delta,
            )
            .ok()
            .map(|()| delta)
        });
        Ok(Self {
            key,
            current,
            chains,
            deltas,
        })
    }
}

/// Configuration of GreedyWPO.
#[derive(Clone, Debug)]
pub struct GreedyWpoConfig {
    /// Candidate waypoints to consider for each demand. `None` probes every
    /// node (the paper's algorithm); a subset makes sweeps cheaper.
    pub candidates: Option<Vec<NodeId>>,
    /// Minimum relative MLU improvement for a waypoint to be accepted
    /// (guards against floating-point churn).
    pub min_improvement: f64,
    /// Waypoint budget `W` per demand. The paper's Algorithm 3 uses 1;
    /// larger budgets run additional greedy passes that insert one more
    /// waypoint into each demand's current segment chain.
    pub max_waypoints: usize,
}

impl Default for GreedyWpoConfig {
    fn default() -> Self {
        Self {
            candidates: None,
            min_improvement: 1e-9,
            max_waypoints: 1,
        }
    }
}

/// Runs GreedyWPO, returning the waypoint setting (at most one waypoint per
/// demand, the paper's `W = 1` regime of Algorithm 3).
///
/// # Errors
/// Fails when the initial ECMP routing of some demand is impossible.
pub fn greedy_wpo(
    net: &Network,
    demands: &DemandList,
    weights: &WeightSetting,
    cfg: &GreedyWpoConfig,
) -> Result<WaypointSetting, TeError> {
    greedy_wpo_robust(
        net,
        &DemandSet::single(demands.clone()),
        weights,
        RobustObjective::WorstCase,
        cfg,
    )
}

/// Runs GreedyWPO against an aligned set of traffic matrices: one waypoint
/// setting, accepted only when it improves the `robust`-aggregated
/// per-matrix MLU.
///
/// Each matrix keeps its own running load vector. A candidate chain's
/// per-matrix deltas are built once per run of equal consecutive demands,
/// on the `segrout-par` pool over the `(candidate × matrix)` grid; its
/// per-matrix patched MLUs are folded through `robust` serially, in
/// candidate order — bit-identical at any thread count. A single-matrix
/// set is bit-identical to [`greedy_wpo`].
///
/// # Errors
/// Fails when the set is misaligned (waypoints are per demand index), when
/// a candidate is not a node of the network, or when the initial ECMP
/// routing of some demand is impossible.
///
/// # Panics
/// Panics on an empty demand set.
pub fn greedy_wpo_robust(
    net: &Network,
    set: &DemandSet,
    weights: &WeightSetting,
    robust: RobustObjective,
    cfg: &GreedyWpoConfig,
) -> Result<WaypointSetting, TeError> {
    assert!(!set.is_empty(), "demand set must hold at least one matrix");
    set.require_aligned()?;
    for &w in cfg.candidates.iter().flatten() {
        net.check_node(w)?;
    }
    let _span = segrout_obs::span("greedywpo");
    let k = set.len();
    let candidates_evaluated = segrout_obs::counter("greedywpo.candidates_evaluated");
    let waypoints_set = segrout_obs::counter("greedywpo.waypoints_set");
    let matrix_evals = (k > 1).then(|| segrout_obs::counter("robust.matrix_evals"));
    let router = Router::new(net, weights);
    let caps = net.capacities();
    let n_demands = set.pair_count();
    let mut setting = WaypointSetting::none(n_demands);

    // Per-matrix loads of the all-direct routing.
    let mut loads: Vec<Vec<f64>> = Vec::with_capacity(k);
    for demands in set.matrices() {
        loads.push(router.evaluate(demands, &setting).map(|r| r.loads)?);
    }
    let mlu_of = |loads: &[Vec<f64>]| -> f64 {
        let mlus: Vec<f64> = loads
            .iter()
            .map(|l| max_link_utilization(l, caps))
            .collect();
        robust.aggregate(&mlus)
    };
    let mut u_min = mlu_of(&loads);
    // Local probe count for the flight recorder; GreedyWPO tracks no Φ, so
    // trace points carry `NaN` there (rendered as JSON null).
    let mut total_probes: u64 = 0;
    segrout_obs::trace_point("greedywpo.start", 0, f64::NAN, u_min);
    event!(
        Level::Debug,
        "greedywpo.start",
        demands = n_demands,
        matrices = k,
        initial_mlu = u_min,
    );

    let all_nodes: Vec<NodeId> = net.graph().nodes().collect();
    let candidates: &[NodeId] = cfg.candidates.as_deref().unwrap_or(&all_nodes);

    // The candidate deltas of the last run of equal demands, and per-demand
    // buffers reused across demands.
    let mut probes: Option<PairProbes> = None;
    let mut base_util: Vec<Vec<(f64, usize)>> = vec![Vec::with_capacity(caps.len()); k];
    let mut mlus: Vec<f64> = Vec::with_capacity(k);
    let mut best_mlus: Vec<f64> = Vec::with_capacity(k);

    // One greedy pass per waypoint of budget: each pass may insert one more
    // waypoint into every demand's chain (pass 1 with an empty chain is
    // exactly the paper's Algorithm 3).
    for _pass in 0..cfg.max_waypoints.max(1) {
        let mut inserted_any = false;
        for i in set.indices_by_descending_total_size() {
            let d = set.matrix(0)[i];
            if setting.get(i).len() >= cfg.max_waypoints {
                continue;
            }
            let sizes: Vec<f64> = (0..k).map(|mi| set.matrix(mi)[i].size).collect();
            let key = ProbeKey {
                src: d.src,
                dst: d.dst,
                size_bits: sizes.iter().map(|s| s.to_bits()).collect(),
                chain: setting.get(i).to_vec(),
            };
            if probes.as_ref().is_none_or(|p| p.key != key) {
                probes = Some(PairProbes::build(&router, key, &sizes, candidates)?);
            }
            let p = probes.as_ref().expect("built for this key");
            // Remove this demand's current contribution from every matrix.
            for (l, current) in loads.iter_mut().zip(&p.current) {
                for &(e, load) in current {
                    l[e.index()] -= load;
                }
            }
            // Per-matrix base utilizations sorted descending, shared
            // read-only by every probe of this demand: one O(|E| log |E|)
            // sort per matrix replaces an O(|E|) load-vector clone per
            // probe.
            for (u, l) in base_util.iter_mut().zip(&loads) {
                u.clear();
                u.extend(
                    l.iter()
                        .zip(caps)
                        .map(|(l, c)| l / c)
                        .enumerate()
                        .map(|(idx, u)| (u, idx)),
                );
                u.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
            }

            // Re-score the shared deltas against this demand's running
            // loads, folding in candidate order.
            let mut best: Option<(usize, f64)> = None;
            let mut probed: u64 = 0;
            for (ci, group) in p.deltas.chunks(k).enumerate() {
                if group.iter().any(Option::is_none) {
                    continue;
                }
                probed += 1;
                mlus.clear();
                for (mi, delta) in group.iter().flatten().enumerate() {
                    mlus.push(patched_mlu(&loads[mi], caps, &base_util[mi], delta));
                }
                // The aggregate of one value is that value.
                let u = if k == 1 {
                    mlus[0]
                } else {
                    robust.aggregate(&mlus)
                };
                let current_best = best.map(|(_, u)| u).unwrap_or(u_min);
                if u < current_best * (1.0 - cfg.min_improvement) {
                    best = Some((ci, u));
                    best_mlus.clone_from(&mlus);
                }
            }

            candidates_evaluated.add(probed);
            if let Some(ctr) = &matrix_evals {
                ctr.add(probed * k as u64);
            }
            total_probes += probed;
            match best {
                Some((ci, u)) => {
                    segrout_obs::trace_point("greedywpo.accept", total_probes, f64::NAN, u);
                    let cand = p.chains[ci].clone();
                    event!(
                        Level::Debug,
                        "greedywpo.pick",
                        demand = i,
                        waypoints = cand.len(),
                        mlu = u,
                    );
                    setting.set(i, cand);
                    let accepted = &p.deltas[ci * k..(ci + 1) * k];
                    for (mi, (l, delta)) in
                        loads.iter_mut().zip(accepted.iter().flatten()).enumerate()
                    {
                        // The shared delta stays in place for the run's
                        // next demand.
                        for &(e, load) in delta {
                            l[e.index()] += load;
                        }
                        let u_mi = best_mlus[mi];
                        if k > 1 && segrout_obs::trace_enabled() {
                            // Robust runs record the accepted move's
                            // per-matrix MLU (`iter` is the matrix index).
                            segrout_obs::trace_point("robust.matrix", mi as u64, f64::NAN, u_mi);
                        }
                        // Commit-point hook: each matrix's sparsely patched
                        // load vector and patched MLU must equal a
                        // from-scratch evaluation of the accepted waypoint
                        // setting (debug builds only).
                        #[cfg(debug_assertions)]
                        segrout_core::hooks::assert_commit_consistent(
                            net,
                            weights,
                            set.matrix(mi),
                            &setting,
                            l,
                            u_mi,
                        );
                        #[cfg(not(debug_assertions))]
                        let _ = u_mi;
                    }
                    u_min = u;
                    waypoints_set.inc();
                    inserted_any = true;
                }
                None => {
                    event!(
                        Level::Trace,
                        "greedywpo.reject",
                        demand = i,
                        probed = probed
                    );
                    // Keep the current chain: restore each matrix's
                    // contribution.
                    for (l, current) in loads.iter_mut().zip(&p.current) {
                        for &(e, load) in current {
                            l[e.index()] += load;
                        }
                    }
                }
            }
        }
        if !inserted_any {
            break;
        }
    }
    segrout_obs::gauge("greedywpo.final_mlu").set(u_min);
    segrout_obs::trace_point("greedywpo.done", total_probes, f64::NAN, u_min);
    event!(
        Level::Info,
        "greedywpo.done",
        candidates_evaluated = candidates_evaluated.get(),
        waypoints = waypoints_set.get(),
        mlu = u_min,
    );
    Ok(setting)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sparse probe evaluation must equal the dense clone-and-fold it
    /// replaced, bit for bit — including duplicate edges inside one delta
    /// (two segments of a chain sharing a link, one edge three times) and
    /// deltas that demote the current maximum edge. The deltas run as
    /// consecutive calls on one thread, overlapping and disjoint in turn, so
    /// every result after the first also proves the previous call left the
    /// slot table clean; the table is checked clean at the end too.
    #[test]
    fn patched_mlu_matches_dense_evaluation() {
        let loads = vec![0.3, 1.5, 0.0, 2.25, 0.7];
        let caps = vec![1.0, 2.0, 1.0, 3.0, 0.5];
        let mut base_util: Vec<(f64, usize)> = loads
            .iter()
            .zip(&caps)
            .map(|(l, c)| l / c)
            .enumerate()
            .map(|(idx, u)| (u, idx))
            .collect();
        base_util.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));

        let deltas: Vec<SparseLoads> = vec![
            vec![],
            vec![(EdgeId(2), 0.125)],
            vec![(EdgeId(4), 0.1), (EdgeId(4), 0.2)], // duplicate edge
            vec![(EdgeId(4), -0.7)],                  // overlaps: demote the max edge
            vec![(EdgeId(0), 0.05), (EdgeId(2), 0.3)], // disjoint from the last
            (0..5).map(|e| (EdgeId(e), 0.01 * e as f64)).collect(), // all touched
            vec![(EdgeId(1), 0.3), (EdgeId(3), 0.41), (EdgeId(1), 0.3)],
            vec![
                (EdgeId(3), 0.1),
                (EdgeId(3), 0.2),
                (EdgeId(0), 0.4),
                (EdgeId(3), 0.3),
            ], // 3x
            vec![(EdgeId(4), 0.05)], // disjoint: the max edge alone
            (0..5).rev().map(|e| (EdgeId(e), -0.1)).collect(), // all touched, reversed
            vec![(EdgeId(2), 0.01)],
        ];
        for delta in &deltas {
            let mut dense = loads.clone();
            for &(e, l) in delta {
                dense[e.index()] += l;
            }
            let want = max_link_utilization(&dense, &caps);
            let got = patched_mlu(&loads, &caps, &base_util, delta);
            assert_eq!(got.to_bits(), want.to_bits(), "delta {delta:?}");
        }
        PATCH_SCRATCH.with(|s| {
            let s = s.borrow();
            assert!(s.slot.iter().all(|&at| at == UNTOUCHED), "{:?}", s.slot);
        });
    }

    /// TE-Instance-1 shape with m = 3: chain s=0 -> 1 -> 2 with thick links
    /// (cap 3), thin links (cap 1) from each chain node to t=3.
    fn instance1_like() -> (Network, DemandList) {
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), 3.0); // e0
        b.link(NodeId(1), NodeId(2), 3.0); // e1
        b.link(NodeId(0), NodeId(3), 1.0); // e2 (s,t)
        b.link(NodeId(1), NodeId(3), 1.0); // e3
        b.link(NodeId(2), NodeId(3), 1.0); // e4
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        for _ in 0..3 {
            d.push(NodeId(0), NodeId(3), 1.0);
        }
        (net, d)
    }

    /// Weights under which the direct (s,t) link is the unique shortest
    /// path, so all three unit demands pile onto the capacity-1 link.
    fn direct_heavy_weights(net: &Network) -> WeightSetting {
        // chain links weight 1, (v_i, t) links weight 10 except (s,t) = 2.
        WeightSetting::new(net, vec![1.0, 1.0, 2.0, 10.0, 10.0]).unwrap()
    }

    #[test]
    fn waypoints_spread_the_load() {
        let (net, d) = instance1_like();
        let w = direct_heavy_weights(&net);
        let router = Router::new(&net, &w);
        let before = router.mlu(&d).unwrap();
        assert!((before - 3.0).abs() < 1e-9); // all 3 units on the (s,t) link

        let wp = greedy_wpo(&net, &d, &w, &GreedyWpoConfig::default()).unwrap();
        let after = router.evaluate(&d, &wp).unwrap().mlu;
        assert!(
            after < before - 0.5,
            "greedy waypoints should reduce MLU: {before} -> {after}"
        );
    }

    #[test]
    fn no_waypoint_when_nothing_improves() {
        // Single demand over a single path: no waypoint can help.
        let mut b = Network::builder(3);
        b.link(NodeId(0), NodeId(1), 1.0);
        b.link(NodeId(1), NodeId(2), 1.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(2), 1.0);
        let w = WeightSetting::unit(&net);
        let wp = greedy_wpo(&net, &d, &w, &GreedyWpoConfig::default()).unwrap();
        assert!(wp.get(0).is_empty());
    }

    #[test]
    fn mlu_never_increases() {
        let (net, d) = instance1_like();
        for weights in [
            WeightSetting::unit(&net),
            WeightSetting::inverse_capacity(&net),
            direct_heavy_weights(&net),
        ] {
            let router = Router::new(&net, &weights);
            let before = router.mlu(&d).unwrap();
            let wp = greedy_wpo(&net, &d, &weights, &GreedyWpoConfig::default()).unwrap();
            let after = router.evaluate(&d, &wp).unwrap().mlu;
            assert!(after <= before + 1e-9, "{before} -> {after}");
        }
    }

    #[test]
    fn candidate_restriction_is_respected() {
        let (net, d) = instance1_like();
        let w = direct_heavy_weights(&net);
        let cfg = GreedyWpoConfig {
            candidates: Some(vec![NodeId(1)]),
            ..Default::default()
        };
        let wp = greedy_wpo(&net, &d, &w, &cfg).unwrap();
        for i in 0..d.len() {
            for &x in wp.get(i) {
                assert_eq!(x, NodeId(1));
            }
        }
    }

    #[test]
    fn descending_order_assigns_biggest_first() {
        // Two demands of different size; only one useful waypoint slot
        // (capacities make a single reroute beneficial). The big demand gets
        // first pick.
        let (net, _) = instance1_like();
        let w = direct_heavy_weights(&net);
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 0.4);
        d.push(NodeId(0), NodeId(3), 2.0);
        let wp = greedy_wpo(&net, &d, &w, &GreedyWpoConfig::default()).unwrap();
        // The larger demand (index 1) must have been rerouted.
        assert!(!wp.get(1).is_empty());
    }
    #[test]
    fn two_waypoint_budget_runs_extra_passes() {
        // TE-Instance 3 needs two waypoints for its optimal routing; with
        // W = 2 greedy must do at least as well as with W = 1.
        let (net, d) = instance1_like();
        let w = direct_heavy_weights(&net);
        let router = Router::new(&net, &w);
        let one = greedy_wpo(&net, &d, &w, &GreedyWpoConfig::default()).unwrap();
        let two = greedy_wpo(
            &net,
            &d,
            &w,
            &GreedyWpoConfig {
                max_waypoints: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let u1 = router.evaluate(&d, &one).unwrap().mlu;
        let u2 = router.evaluate(&d, &two).unwrap().mlu;
        assert!(u2 <= u1 + 1e-9, "W=2 never worse: {u2} vs {u1}");
        assert!(two.max_used() <= 2);
    }

    /// A one-matrix `DemandSet` must reproduce the classic single-matrix
    /// sweep bit for bit (the module-level reduction contract).
    #[test]
    fn single_matrix_set_reduces_bit_identically() {
        let (net, d) = instance1_like();
        let w = direct_heavy_weights(&net);
        let classic = greedy_wpo(&net, &d, &w, &GreedyWpoConfig::default()).unwrap();
        let robust = greedy_wpo_robust(
            &net,
            &DemandSet::single(d.clone()),
            &w,
            RobustObjective::Quantile(1.0),
            &GreedyWpoConfig::default(),
        )
        .unwrap();
        for i in 0..d.len() {
            assert_eq!(classic.get(i), robust.get(i));
        }
    }

    /// The robust sweep must never increase the worst-case MLU of the set,
    /// and a misaligned set must be rejected.
    #[test]
    fn robust_sweep_improves_worst_case_and_checks_alignment() {
        let (net, d) = instance1_like();
        let w = direct_heavy_weights(&net);
        // Second matrix: same pairs, scaled sizes (a diurnal-style peak).
        let scaled: DemandList = d
            .iter()
            .map(|x| segrout_core::Demand::new(x.src, x.dst, x.size * 1.5))
            .collect();
        let mut set = DemandSet::single(d.clone());
        set.push("peak", scaled);

        let before =
            segrout_core::evaluate_robust(&net, &w, &set, &WaypointSetting::none(set.pair_count()))
                .unwrap()
                .worst_mlu();
        let wp = greedy_wpo_robust(
            &net,
            &set,
            &w,
            RobustObjective::WorstCase,
            &GreedyWpoConfig::default(),
        )
        .unwrap();
        let after = segrout_core::evaluate_robust(&net, &w, &set, &wp)
            .unwrap()
            .worst_mlu();
        assert!(after <= before + 1e-9, "{before} -> {after}");

        let mut skewed = DemandList::new();
        skewed.push(NodeId(1), NodeId(3), 1.0);
        let mut bad = DemandSet::single(d);
        bad.push("skewed", skewed);
        assert!(greedy_wpo_robust(
            &net,
            &bad,
            &w,
            RobustObjective::WorstCase,
            &GreedyWpoConfig::default()
        )
        .is_err());
    }
}
