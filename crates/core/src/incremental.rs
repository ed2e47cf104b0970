//! Incremental ECMP re-evaluation for single-edge changes — the engine
//! behind the HeurOSPF candidate loop, the failure sweep and the serve
//! daemon. [`crate::Router`] stays as the from-scratch oracle the tests and
//! debug commit hooks compare it against.
//!
//! The Fortz–Thorup local search asks one question thousands of times per
//! pass: *"what are Φ / MLU if edge `e`'s weight becomes `w`?"* Answering it
//! from scratch costs one Dijkstra plus one load propagation **per
//! destination**, even though a single-edge change leaves most shortest-path
//! DAGs untouched, and most of a touched DAG's flow where it was.
//! [`IncrementalEvaluator`] maintains, for a base weight vector, every
//! per-destination SP-DAG, every destination's node flows *and* a
//! per-destination decomposition of the link-load vector, and answers
//! probes in three steps whose cost follows the damage a change does, not
//! the size of the graph:
//!
//! 1. **Affected-destination test** — destination `t` is *dirty* only if the
//!    change can alter `t`'s DAG: a weight increase on an edge that is on
//!    the DAG, a decrease that reaches the current distance at the edge's
//!    tail, or a failure with some dead edge on the DAG. Everything else is
//!    provably clean and is skipped entirely.
//! 2. **Bounded repair into a diff** — dirty destinations are repaired with
//!    a Ramalingam–Reps-style dynamic Dijkstra update in per-thread,
//!    epoch-stamped scratch; a failure of several links is one update over
//!    all its dead edges. It leaves a diff: the nodes whose distance moved,
//!    with their new distances, as an overlay on the committed DAG, which
//!    answers whether an edge is on the repaired DAG by re-testing only the
//!    edges the change can flip. When the moved set exceeds the *fallback
//!    threshold* (`frontier_cap`, default half the node count), a full
//!    per-destination Dijkstra produces the diff instead. One call per
//!    destination, [`segrout_graph::DagRepair::repair`], makes both steps.
//!    A probe builds no DAG: only [`IncrementalEvaluator::commit`] turns
//!    the accepted change's diffs into DAGs ([`segrout_graph::patch_dag`]).
//! 3. **Sparse re-spread and column fold** — from the diff, only the nodes
//!    whose flow can change are re-spread: the moved nodes that carry flow
//!    and both ends of every flipped edge whose tail carries flow seed a
//!    worklist, processed in the repaired DAG's topological order. Each
//!    re-accumulates its seed plus its in-edges' shares in exactly the
//!    order the full propagation adds them, and a node passes the change on
//!    to its next hops only if it carries flow and its flow, next hops or
//!    position changed. The changed
//!    node flows and load partials are kept as `(index, value)` pairs; the
//!    probe's total loads are the committed totals with only the touched
//!    edges' columns re-summed, **in ascending destination order** with the
//!    probe's values substituted — exactly the operation sequence of the
//!    from-scratch evaluator, which keeps every load, Φ and MLU value
//!    **bit-identical** to [`crate::Router`] at any thread count. (A
//!    subtract-stale/add-new patch would be cheaper still, but `f64`
//!    addition is not associative — re-summing a column is the only patch
//!    that preserves the bit pattern.)
//!
//! These steps are one change path. A weight probe
//! ([`IncrementalEvaluator::probe`]), a failure probe
//! ([`IncrementalEvaluator::probe_disable`]) and a link going down or up
//! ([`IncrementalEvaluator::set_link_state`]) all run the same
//! per-destination loop, which hands each destination the changed edges: a
//! link going down is a weight increase to ∞ on the edges it kills, a link
//! coming back up a weight decrease from ∞. Each yields a
//! [`Probe`], and [`IncrementalEvaluator::commit`] applies any of them: it
//! patches the changed DAGs, writes the changed partials and node flows,
//! and takes the totals, Φ and MLU from the probe, which already holds the
//! exact fold.
//!
//! A workload update keeps every DAG, since no weight moves.
//! [`IncrementalEvaluator::set_workload`] (a new matrix) and
//! [`IncrementalEvaluator::set_demand`] (one demand's new size) rewrite the
//! destination-grouped injection lists, refold the seed rows that moved,
//! propagate only those destinations again, diffed against their committed
//! node flows and partials, and re-sum only the columns whose partials
//! changed. `set_demand` finds its demand's segments in the lists through
//! the slots kept for them, so it costs in proportion to the demand's
//! destinations, not to the workload. A change of the destination set
//! rebuilds in place.
//!
//! The partials live in a `LoadArena`: one flat `|E| · |D|` slab stored
//! edge-major, so edge `e`'s partials under every destination form one
//! contiguous column and a re-sum walks it without striding. Every column
//! is its own ascending fold over destinations (the router adds
//! per-destination vectors elementwise), so re-summing the touched columns
//! and copying the others from the committed totals is bit-safe. Next to
//! the injection seeds, an `n × |D|` slab caches every destination's node
//! flows — what the propagation leaves behind — so the re-spread reads the
//! flows it does not recompute.
//!
//! An evaluator built with failed links keeps them as a disabled-edge mask
//! through every build, repair and probe
//! ([`IncrementalEvaluator::new_with_failures`]). One built without failed
//! links keeps an empty mask, so its Dijkstra runs take the loops compiled
//! without the mask test.
//!
//! Probes borrow the evaluator read-only, so a speculative candidate
//! neighbourhood can be scored in parallel on the `segrout-par` pool against
//! one shared base state; the accepted candidate is then applied in place
//! with [`IncrementalEvaluator::commit`]. Once a worker's scratch has grown
//! to the graph, a probe allocates a fixed handful of buffers whatever the
//! number of dirty destinations (`tests/probe_allocs.rs` pins this).
//!
//! Bit-identity of the repaired DAGs additionally relies on tie-exact
//! weights — sums of weights must be exactly representable so that shortest-
//! path ties classify identically in the repaired and the from-scratch run.
//! Integral weight vectors (what every optimizer in this workspace emits)
//! satisfy this; the `walk` kind of `segrout_check::differential` (run by
//! `tests/incremental_differential.rs` and by the fuzzer) enforces
//! `f64::to_bits` equality across instances, thread counts and random
//! weight-change sequences.

use crate::cost::{fortz_phi, max_link_utilization};
use crate::demand::DemandList;
use crate::ecmp::{
    check_reachable, group_by_destination, inject, injects, propagate_destination,
    recompute_counter, segments, spread_seeded, Segment,
};
use crate::error::TeError;
use crate::network::Network;
use crate::waypoints::WaypointSetting;
use crate::weights::WeightSetting;
use segrout_graph::{
    edge_disabled, order_cmp, patch_dag, shortest_path_dag, DagRepair, EdgeId, NodeId,
    RepairOutcome, SpDag, EPS,
};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Counter handles for the incremental engine, resolved once per process
/// (probes are the hottest loop in the workspace — no registry lookups).
struct IncrCounters {
    /// Speculative weight probes answered.
    probes: Arc<segrout_obs::Counter>,
    /// Destination DAGs found dirty across all changes.
    dirty_dests: Arc<segrout_obs::Counter>,
    /// Destination DAGs skipped as provably clean across all changes.
    clean_dests: Arc<segrout_obs::Counter>,
    /// Bounded dynamic-Dijkstra repairs that stayed under the threshold.
    repairs: Arc<segrout_obs::Counter>,
    /// Changes whose load fold reused the committed totals of the columns
    /// they left untouched (every scored change and workload update).
    arena_reuses: Arc<segrout_obs::Counter>,
    /// Full refolds of every column: one per construction or rebuild.
    arena_rebuilds: Arc<segrout_obs::Counter>,
    /// Edge-disable (failure-scenario) probes answered.
    disable_probes: Arc<segrout_obs::Counter>,
}

fn counters() -> &'static IncrCounters {
    static HANDLES: OnceLock<IncrCounters> = OnceLock::new();
    HANDLES.get_or_init(|| IncrCounters {
        probes: segrout_obs::counter("incr.probes"),
        dirty_dests: segrout_obs::counter("incr.dirty_dests"),
        clean_dests: segrout_obs::counter("incr.clean_dests"),
        repairs: segrout_obs::counter("incr.repairs"),
        arena_reuses: segrout_obs::counter("arena.reuses"),
        arena_rebuilds: segrout_obs::counter("arena.rebuilds"),
        disable_probes: segrout_obs::counter("incr.disable_probes"),
    })
}

/// Flat per-destination load storage, edge-major: column `e` holds edge
/// `e`'s partial under each of the `|D|` destinations, ascending, so a
/// column's fold walks one contiguous run.
struct LoadArena {
    dests: usize,
    cols: Vec<f64>,
}

impl LoadArena {
    /// The slab index of edge `e`'s partial under destination `i`.
    #[inline]
    fn at(&self, e: EdgeId, i: usize) -> usize {
        e.index() * self.dests + i
    }

    /// Takes `loads` from the committed totals to the totals under a
    /// change: each column that has changed `partials` is re-summed in
    /// ascending destination order with the new values substituted
    /// ([`Columns`]); every other total stays.
    fn refold(&self, partials: &[(EdgeId, u32, f64)], columns: &mut Columns, loads: &mut [f64]) {
        counters().arena_reuses.inc();
        columns.begin(loads.len());
        for &(e, i, x) in partials {
            columns.write(self, e, i as usize, x);
        }
        columns.fold_into(self.dests, loads);
    }
}

/// How many load columns one fold sums side by side.
const LANES: usize = 8;

/// The ascending sums `0.0 + p_0 + p_1 + …` of up to [`LANES`] load
/// columns, given interleaved (`lanes[i * LANES + c]` is column `c`'s
/// partial under destination `i`): the router's fold over destinations,
/// one column per edge. Each lane is its own chain, added in its own
/// order; the lanes only run side by side, which lets them vectorize and
/// overlap without reassociating any sum.
fn fold_lanes(lanes: &[f64]) -> [f64; LANES] {
    let mut acc = [0.0; LANES];
    for row in lanes.chunks_exact(LANES) {
        for (sum, &x) in acc.iter_mut().zip(row) {
            *sum += x;
        }
    }
    acc
}

/// The load columns one change touches, gathered for its fold. A column is
/// copied in the first time the change writes one of its partials,
/// interleaved [`LANES`] to a block as [`fold_lanes`] reads them; every new
/// partial is then written over its copy. A per-edge stamp finds a
/// column's copy, so the partials need no sorting.
#[derive(Default)]
struct Columns {
    epoch: u32,
    slot_at: Vec<u32>,
    slot: Vec<u32>,
    /// The gathered columns' edges, by slot.
    edges: Vec<EdgeId>,
    /// Block `b` holds slots `b * LANES..`: `lanes[b * d * LANES + i *
    /// LANES + c]` is slot `b * LANES + c`'s partial under destination `i`.
    lanes: Vec<f64>,
}

impl Columns {
    fn begin(&mut self, edge_count: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slot_at.fill(0);
            self.epoch = 1;
        }
        if self.slot_at.len() < edge_count {
            self.slot_at.resize(edge_count, 0);
            self.slot.resize(edge_count, 0);
        }
        self.edges.clear();
        self.lanes.clear();
    }

    /// The slot of column `e`, gathering the column on first use.
    fn slot(&mut self, arena: &LoadArena, e: EdgeId) -> usize {
        let d = arena.dests;
        if self.slot_at[e.index()] != self.epoch {
            let s = self.edges.len();
            self.slot_at[e.index()] = self.epoch;
            self.slot[e.index()] = s as u32;
            self.edges.push(e);
            if s.is_multiple_of(LANES) {
                self.lanes.resize(self.lanes.len() + d * LANES, 0.0);
            }
            let block = &mut self.lanes[(s / LANES) * d * LANES..];
            let column = &arena.cols[e.index() * d..(e.index() + 1) * d];
            for (slot, &x) in block[s % LANES..].iter_mut().step_by(LANES).zip(column) {
                *slot = x;
            }
        }
        self.slot[e.index()] as usize
    }

    /// Substitutes `x` for edge `e`'s partial under destination `i`.
    fn write(&mut self, arena: &LoadArena, e: EdgeId, i: usize, x: f64) {
        let s = self.slot(arena, e);
        self.lanes[((s / LANES) * arena.dests + i) * LANES + s % LANES] = x;
    }

    /// Writes the fold of every gathered column into `loads`.
    fn fold_into(&self, d: usize, loads: &mut [f64]) {
        let blocks = self.lanes.chunks(d.max(1) * LANES);
        for (block, edges) in blocks.zip(self.edges.chunks(LANES)) {
            for (e, sum) in edges.iter().zip(fold_lanes(block)) {
                loads[e.index()] = sum;
            }
        }
    }
}

/// A probe's sparse answer against the committed state: the repaired
/// destinations' moved nodes and the changed node flows and load partials.
/// Scored in per-thread scratch and copied into the [`Probe`] at its exact
/// size.
#[derive(Clone, Debug, Default)]
struct Diff {
    /// Per repaired destination: its index and the end of its run in
    /// `moved`.
    dags: Vec<(usize, usize)>,
    /// Moved nodes with their new distances, destination after destination.
    moved: Vec<(NodeId, f64)>,
    /// Changed node flows: `(flow-slab index, new flow)`.
    flows: Vec<(usize, f64)>,
    /// Changed load partials: `(edge, destination index, new partial)`.
    partials: Vec<(EdgeId, u32, f64)>,
}

impl Diff {
    fn clear(&mut self) {
        self.dags.clear();
        self.moved.clear();
        self.flows.clear();
        self.partials.clear();
    }
}

/// Per-thread scratch of the sparse re-spread, stamped per destination: a
/// node's slot counts only under the current stamp, so no O(n) clear runs.
#[derive(Default)]
struct Spread {
    epoch: u32,
    /// Nodes put on the worklist (popped or not).
    queued_at: Vec<u32>,
    /// Re-spread nodes: their new flow and the share each of their next
    /// hops receives (0 when they do not split).
    done_at: Vec<u32>,
    flow: Vec<f64>,
    share: Vec<f64>,
    /// The worklist, keyed by repaired order: a non-negative distance's bit
    /// pattern orders like its value, so the max-heap pops the largest
    /// distance first and, on ties, the lowest node id — [`order_cmp`]
    /// order.
    heap: BinaryHeap<(u64, Reverse<u32>)>,
    /// One node's in-edges on the repaired DAG: `(tail key, edge, share)`.
    tails: Vec<((f64, NodeId), EdgeId, f64)>,
    /// The full re-spread: the repaired order, the moved nodes still
    /// reaching the target by key, the node flows and the repaired edge
    /// set.
    order: Vec<NodeId>,
    back: Vec<(f64, NodeId)>,
    node_flow: Vec<f64>,
    edge_on: Vec<bool>,
    /// One node's out-edges that are on the old or the repaired DAG, with
    /// both flags.
    outs: Vec<(EdgeId, NodeId, bool, bool)>,
}

impl Spread {
    fn begin(&mut self, n: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.queued_at.fill(0);
            self.done_at.fill(0);
            self.epoch = 1;
        }
        if self.queued_at.len() < n {
            self.queued_at.resize(n, 0);
            self.done_at.resize(n, 0);
            self.flow.resize(n, 0.0);
            self.share.resize(n, 0.0);
        }
        self.heap.clear();
    }

    #[inline]
    fn push(&mut self, (d, v): (f64, NodeId)) {
        let slot = &mut self.queued_at[v.index()];
        if *slot != self.epoch {
            *slot = self.epoch;
            self.heap.push((d.to_bits(), Reverse(v.0)));
        }
    }

    /// `v`'s new flow and share, if `v` was re-spread.
    #[inline]
    fn settled(&self, v: NodeId) -> Option<(f64, f64)> {
        let i = v.index();
        (self.done_at[i] == self.epoch).then(|| (self.flow[i], self.share[i]))
    }

    #[inline]
    fn settle(&mut self, v: NodeId, flow: f64, share: f64) {
        self.done_at[v.index()] = self.epoch;
        self.flow[v.index()] = flow;
        self.share[v.index()] = share;
    }
}

/// What a node with `flow` and `next_hops` next hops sends over each of
/// them: the propagation's `flow / next_hops`, or nothing at or below `EPS`
/// (the target has no next hops).
fn share(flow: f64, next_hops: usize) -> f64 {
    if flow > EPS && next_hops > 0 {
        flow / next_hops as f64
    } else {
        0.0
    }
}

/// The new weights and mask a change is scored under, and the edges whose
/// weight or mask bit it sets.
struct Changed<'a> {
    weights: &'a [f64],
    mask: &'a [bool],
    edges: &'a [EdgeId],
}

/// Per-worker scratch reused across changes: the patched weight vector of
/// a weight change, the patched mask of a link-state change, the repair
/// and re-spread scratch, the probe's diff under construction, and the
/// dense seed or partial row of a workload update. Probes run on pool
/// workers, so a thread-local gives each worker its buffers once for the
/// whole search instead of once per candidate.
#[derive(Default)]
struct Scratch {
    weights: Vec<f64>,
    mask: Vec<bool>,
    repair: DagRepair,
    spread: Spread,
    columns: Columns,
    diff: Diff,
    row: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Widens a disabled-edge mask (empty: nothing disabled) to one flag per
/// edge and sets the flags of `edges` to `down`.
fn set_flags(mask: &mut Vec<bool>, edge_count: usize, edges: &[EdgeId], down: bool) {
    mask.resize(edge_count, false);
    for e in edges {
        mask[e.index()] = down;
    }
}

/// Whether two rows hold the same bits.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One segment of the workload: its endpoints, and its `(destination
/// index, position)` slot in the evaluator's injection lists, or `None`
/// while it injects nothing (an amount at or below `EPS`).
#[derive(Clone, Copy, Debug)]
struct SegmentSlot {
    src: NodeId,
    dst: NodeId,
    slot: Option<(u32, u32)>,
}

/// The [`SegmentSlot`] of each of `segments` in the injection lists that
/// `group_by_destination` builds from them, whose destinations are `dests`,
/// in a network of `n` nodes.
fn slot_table(segments: &[Segment], dests: &[NodeId], n: usize) -> Vec<SegmentSlot> {
    // Per node: its destination index and the length of its list so far.
    let mut lists = vec![(u32::MAX, 0u32); n];
    for (i, t) in dests.iter().enumerate() {
        lists[t.index()].0 = i as u32;
    }
    let mut slot = |seg: &Segment| {
        let (i, len) = &mut lists[seg.dst.index()];
        *len += 1;
        (*i, *len - 1)
    };
    segments
        .iter()
        .map(|seg| SegmentSlot {
            src: seg.src,
            dst: seg.dst,
            slot: injects(seg).then(|| slot(seg)),
        })
        .collect()
}

/// One edge change the evaluator can score and commit.
#[derive(Clone, Debug)]
enum Change {
    /// Edge `e`'s weight becomes `w`.
    Weight(EdgeId, f64),
    /// The listed links go down (fail).
    Down(Vec<EdgeId>),
    /// A downed link comes back up.
    Up(EdgeId),
}

impl Change {
    /// The edges whose weight or mask bit the change sets.
    fn edges(&self) -> &[EdgeId] {
        match self {
            Change::Weight(e, _) | Change::Up(e) => std::slice::from_ref(e),
            Change::Down(dead) => dead,
        }
    }
}

/// The answer to one speculative change: the full objective state it would
/// produce, plus the sparse diff needed to
/// [`IncrementalEvaluator::commit`] it in place.
#[derive(Clone, Debug)]
pub struct Probe {
    /// The probed change; `commit` applies it to the weights or the mask.
    change: Change,
    /// Total per-link loads under the change (bit-identical to a
    /// from-scratch evaluation; failed links carry exactly `0.0`).
    pub loads: Vec<f64>,
    /// Fortz–Thorup congestion cost Φ of `loads`.
    pub phi: f64,
    /// Maximum link utilization of `loads`.
    pub mlu: f64,
    /// Number of destinations whose DAG had to be repaired or rebuilt.
    pub dirty_count: usize,
    /// The repaired DAGs, node flows and partials, as a diff.
    diff: Diff,
    /// Base-state generation this probe was computed against.
    generation: u64,
}

/// Incremental evaluation state for one `(network, demands, waypoints)`
/// workload under an evolving weight vector.
///
/// See the [module docs](self) for the algorithm. Construction performs one
/// full from-scratch evaluation (counted in `ecmp.recomputes` like any
/// other); afterwards [`probe`](Self::probe) answers single-edge what-ifs by
/// repairing only the affected destinations.
///
/// ```
/// use segrout_core::{DemandList, IncrementalEvaluator, Network, NodeId, EdgeId,
///                    Router, WaypointSetting, WeightSetting};
///
/// let mut b = Network::builder(4);
/// b.link(NodeId(0), NodeId(1), 1.0);
/// b.link(NodeId(1), NodeId(3), 1.0);
/// b.link(NodeId(0), NodeId(2), 1.0);
/// b.link(NodeId(2), NodeId(3), 1.0);
/// let net = b.build()?;
/// let mut demands = DemandList::new();
/// demands.push(NodeId(0), NodeId(3), 2.0);
///
/// let weights = WeightSetting::unit(&net);
/// let wp = WaypointSetting::none(1);
/// let mut eval = IncrementalEvaluator::new(&net, &weights, &demands, &wp)?;
/// assert_eq!(eval.loads(), &[1.0, 1.0, 1.0, 1.0]);
///
/// // What if edge 2 becomes longer? All flow shifts onto the upper path.
/// let probe = eval.probe(EdgeId(2), 5.0)?;
/// assert_eq!(probe.loads, vec![2.0, 2.0, 0.0, 0.0]);
///
/// // Accept the change in place; the state now matches a fresh evaluation.
/// eval.commit(probe);
/// let mut w2 = WeightSetting::unit(&net);
/// w2.set(EdgeId(2), 5.0);
/// let fresh = Router::new(&net, &w2).evaluate(&demands, &wp)?;
/// assert_eq!(eval.mlu().to_bits(), fresh.mlu.to_bits());
/// # Ok::<(), segrout_core::TeError>(())
/// ```
pub struct IncrementalEvaluator<'n> {
    net: &'n Network,
    weights: Vec<f64>,
    /// Base disabled-edge mask (failed links), empty for the intact
    /// topology. Every DAG, repair and probe honors it; weight probes on a
    /// disabled edge are provable no-ops.
    disabled: Vec<bool>,
    /// Distinct destinations, ascending (the summation order).
    dests: Vec<NodeId>,
    /// Per destination, its injections `(source, amount)`: the segments
    /// towards it that inject, in segment order, as `group_by_destination`
    /// lists them.
    injections: Vec<Vec<(NodeId, f64)>>,
    /// The workload's segments in demand order, with their slots in
    /// `injections`: demand `k`'s are `segments[runs[k]..runs[k + 1]]`.
    segments: Vec<SegmentSlot>,
    runs: Vec<u32>,
    /// Flat `n × dests` slab of pre-folded injection seeds: row `i` is
    /// `node_flow` after seeding destination `i`'s injections. Injections
    /// and reachability are weight-independent (validated once at build), so
    /// the re-spread reads a node's seed instead of re-folding injections.
    seeds: Vec<f64>,
    /// Flat `n × dests` slab of node flows: row `i` is what propagating
    /// destination `i` leaves in `node_flow` (seed plus inflow per node).
    flows: Vec<f64>,
    /// Current SP-DAG per destination.
    dags: Vec<SpDag>,
    /// Per-destination link-load partials, edge-major; `loads` is the fold
    /// of every column.
    arena: LoadArena,
    /// Effective link capacities. Initialized from the network; capacity
    /// events ([`set_capacity`](Self::set_capacity)) override entries here so
    /// a long-running evaluator can track capacity changes without rebuilding
    /// the (borrowed, immutable) [`Network`]. Capacities never influence
    /// routing — only the Φ/MLU readouts — so an override is exact.
    caps: Vec<f64>,
    loads: Vec<f64>,
    phi: f64,
    mlu: f64,
    /// Repair-frontier threshold above which a dirty destination falls back
    /// to a full Dijkstra.
    frontier_cap: usize,
    /// Bumped on every commit; probes from older generations are rejected.
    generation: u64,
}

impl<'n> IncrementalEvaluator<'n> {
    /// Builds the evaluator for a demand list under a waypoint setting —
    /// the same segment decomposition as [`crate::Router::evaluate`].
    pub fn new(
        net: &'n Network,
        weights: &WeightSetting,
        demands: &DemandList,
        waypoints: &WaypointSetting,
    ) -> Result<Self, TeError> {
        Self::new_with_failures(net, weights, demands, waypoints, &[])
    }

    /// Builds the evaluator with a set of failed (disabled) links baked into
    /// the base state: every DAG is built, repaired and probed as if the
    /// failed edges were deleted from the topology. Returns
    /// [`TeError::Unroutable`] when the failures cut some demand off its
    /// destination — the caller classifies that scenario as disconnected.
    /// No failed links is the intact topology, with an empty mask.
    pub fn new_with_failures(
        net: &'n Network,
        weights: &WeightSetting,
        demands: &DemandList,
        waypoints: &WaypointSetting,
        failed: &[EdgeId],
    ) -> Result<Self, TeError> {
        let (segments, runs) = segments(net, demands, waypoints)?;
        let mut disabled = Vec::new();
        if !failed.is_empty() {
            set_flags(&mut disabled, net.edge_count(), failed, true);
        }
        Self::for_segments(net, weights, &segments, runs, disabled)
    }

    /// Builds the evaluator for an explicit segment list, `runs` its
    /// demands' runs, under a base disabled-edge mask (empty = intact
    /// topology).
    fn for_segments(
        net: &'n Network,
        weights: &WeightSetting,
        segments: &[Segment],
        runs: Vec<u32>,
        disabled: Vec<bool>,
    ) -> Result<Self, TeError> {
        let weights = weights.as_slice().to_vec();
        let (dests, injections): (Vec<NodeId>, Vec<_>) =
            group_by_destination(segments).into_iter().unzip();
        let n = net.node_count();
        let m = net.edge_count();
        let d = dests.len();

        // Full build: one Dijkstra + one propagation per destination, fanned
        // out on the pool (pure per-destination work, summed on the caller).
        let recomputes = recompute_counter();
        let built = segrout_par::par_map(d, |i| {
            recomputes.inc();
            let dag = shortest_path_dag(net.graph(), &weights, dests[i], &disabled);
            let mut partial = vec![0.0; m];
            let mut node_flow = vec![0.0; n];
            propagate_destination(net, &dag, &injections[i], &mut partial, &mut node_flow)?;
            Ok::<_, TeError>((dag, partial, node_flow))
        });

        let mut seeds = vec![0.0; d * n];
        let mut flows = vec![0.0; d * n];
        let mut dags = Vec::with_capacity(d);
        let mut arena = LoadArena {
            dests: d,
            cols: vec![0.0; m * d],
        };
        let mut loads = vec![0.0; m];
        for (i, b) in built.into_iter().enumerate() {
            let (dag, partial, node_flow) = b?;
            // The same fold the router's injection loop performs, cached.
            inject(&injections[i], &mut seeds[i * n..(i + 1) * n]);
            flows[i * n..(i + 1) * n].copy_from_slice(&node_flow);
            // Every column's ascending fold, advanced one destination at a
            // time as the router sums its per-destination vectors.
            for (e, (total, &x)) in loads.iter_mut().zip(&partial).enumerate() {
                *total += x;
                arena.cols[e * d + i] = x;
            }
            dags.push(dag);
        }
        counters().arena_rebuilds.inc();
        let caps = net.capacities().to_vec();
        let phi = fortz_phi(&loads, &caps);
        let mlu = max_link_utilization(&loads, &caps);
        let segments = slot_table(segments, &dests, n);
        Ok(Self {
            net,
            weights,
            disabled,
            dests,
            injections,
            segments,
            runs,
            seeds,
            flows,
            dags,
            arena,
            caps,
            loads,
            phi,
            mlu,
            frontier_cap: (n / 2).max(8),
            generation: 0,
        })
    }

    /// Overrides the repair-frontier fallback threshold (number of affected
    /// nodes above which a dirty destination is rebuilt from scratch).
    #[cfg(test)]
    pub(crate) fn with_frontier_cap(mut self, cap: usize) -> Self {
        self.frontier_cap = cap.max(1);
        self
    }

    /// The network being evaluated.
    #[inline]
    pub fn network(&self) -> &Network {
        self.net
    }

    /// The current (committed) weight vector.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The base disabled-edge mask (empty for the intact topology).
    #[inline]
    pub fn disabled(&self) -> &[bool] {
        &self.disabled
    }

    /// The effective link capacities (network capacities plus any
    /// [`set_capacity`](Self::set_capacity) overrides).
    #[inline]
    pub fn capacities(&self) -> &[f64] {
        &self.caps
    }

    /// Current total per-link loads.
    #[inline]
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Current Fortz–Thorup congestion cost Φ.
    #[inline]
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Current maximum link utilization.
    #[inline]
    pub fn mlu(&self) -> f64 {
        self.mlu
    }

    /// Number of distinct destinations in the workload (the per-probe
    /// denominator of the dirty-destination ratio).
    #[inline]
    pub fn destination_count(&self) -> usize {
        self.dests.len()
    }

    /// [`TeError::OutOfRange`] unless `e` is an edge of the network.
    fn check_edge(&self, e: EdgeId) -> Result<(), TeError> {
        let edge_count = self.net.edge_count();
        if e.index() < edge_count {
            return Ok(());
        }
        Err(TeError::OutOfRange {
            what: "edge",
            index: e.index(),
            count: edge_count,
        })
    }

    /// Answers "what are loads/Φ/MLU if edge `e`'s weight becomes `new_w`?"
    /// without mutating the evaluator. Read-only: speculative probes for a
    /// whole candidate neighbourhood can run concurrently against one shared
    /// base state.
    ///
    /// # Errors
    /// [`TeError::OutOfRange`] when `e` is not an edge of the network.
    ///
    /// # Panics
    /// Panics if `new_w` is not a positive finite real.
    pub fn probe(&self, e: EdgeId, new_w: f64) -> Result<Probe, TeError> {
        self.check_edge(e)?;
        assert!(
            new_w.is_finite() && new_w > 0.0,
            "weight must be positive finite"
        );
        counters().probes.inc();
        self.score(Change::Weight(e, new_w))
    }

    /// Answers "what are loads/Φ/MLU if the links in `dead` fail?" without
    /// mutating the evaluator — the failure-scenario counterpart of
    /// [`probe`](Self::probe), through the same repair loop. Read-only, so a
    /// whole [`FailureSet`] sweep can fan scenarios over the `segrout-par`
    /// pool against one shared base state.
    ///
    /// The failed edges are masked out exactly as if deleted: destinations
    /// whose DAG does not use any dead edge are provably clean and skipped;
    /// a DAG with dead edges on it is repaired by one bounded repair (a
    /// weight increase to ∞ on all of them), and the result is
    /// bit-identical to a from-scratch evaluation on the edge-deleted
    /// topology. An edge listed twice counts once. A scenario that cuts some
    /// demand off its destination returns [`TeError::Unroutable`] naming
    /// the lowest severed source of the lowest severed destination — the
    /// caller classifies it as disconnected.
    ///
    /// Edges already disabled in the base mask are ignored; an empty `dead`
    /// set reproduces the committed state. Committing the probe takes the
    /// links down in place, like [`set_link_state`](Self::set_link_state).
    ///
    /// # Errors
    /// [`TeError::OutOfRange`] when some dead edge is not an edge of
    /// the network, and [`TeError::Unroutable`] on a disconnect.
    ///
    /// [`FailureSet`]: crate::failure::FailureSet
    pub fn probe_disable(&self, dead: &[EdgeId]) -> Result<Probe, TeError> {
        for &e in dead {
            self.check_edge(e)?;
        }
        counters().disable_probes.inc();
        self.score(Change::Down(dead.to_vec()))
    }

    /// Fills `mask` with the base mask, one flag per edge, and sets the
    /// flags of `edges` to `down`.
    fn mask_with<'s>(&self, mask: &'s mut Vec<bool>, edges: &[EdgeId], down: bool) -> &'s [bool] {
        mask.clear();
        mask.extend_from_slice(&self.disabled);
        set_flags(mask, self.net.edge_count(), edges, down);
        mask
    }

    /// The one change path: scores `change` against the committed state
    /// without mutating it. One [`DagRepair::repair`] per destination
    /// decides whether the change can touch its DAG and diffs the dirty
    /// ones under the changed weights and mask; they are re-spread where
    /// their flow can change, and the touched columns are re-summed.
    fn score(&self, change: Change) -> Result<Probe, TeError> {
        let c = counters();
        let g = self.net.graph();
        let n = self.net.node_count();
        let recomputes = recompute_counter();
        SCRATCH.with(|s| {
            let Scratch {
                weights,
                mask,
                repair,
                spread,
                columns,
                diff,
                ..
            } = &mut *s.borrow_mut();
            // A weight change patches a copy of the weights and borrows the
            // base mask; a link-state change patches a copy of the mask and
            // borrows the base weights.
            let (weights, mask): (&[f64], &[bool]) = match &change {
                Change::Weight(e, w) => {
                    weights.clear();
                    weights.extend_from_slice(&self.weights);
                    weights[e.index()] = *w;
                    (weights, &self.disabled)
                }
                Change::Down(dead) => (&self.weights, self.mask_with(mask, dead, true)),
                Change::Up(e) => (&self.weights, self.mask_with(mask, &[*e], false)),
            };
            // The weight the change moves from: a link coming up is a
            // decrease from ∞, and links going down read none.
            let old_w = match change {
                Change::Weight(e, _) => self.weights[e.index()],
                Change::Down(_) | Change::Up(_) => f64::INFINITY,
            };
            let (edges, cap) = (change.edges(), self.frontier_cap);

            diff.clear();
            let mut dirty_count = 0;
            for (i, dag) in self.dags.iter().enumerate() {
                // A bounded repair moves few nodes and is re-spread where
                // flow can change; a full Dijkstra may move most of them
                // and is re-spread in full.
                let bounded = match repair.repair(g, weights, dag, edges, old_w, cap, mask) {
                    RepairOutcome::Unchanged => continue,
                    RepairOutcome::Repaired => {
                        c.repairs.inc();
                        true
                    }
                    RepairOutcome::Rebuilt => {
                        recomputes.inc();
                        false
                    }
                };
                dirty_count += 1;
                // Only a failure can cut a seeded source off, which the
                // spread would drop silently; a lighter edge or a link
                // coming back only adds paths. A node cut off has moved to
                // ∞, so the moved nodes are the only candidates.
                if let Change::Down(_) = change {
                    let seed_row = &self.seeds[i * n..(i + 1) * n];
                    let cut = repair
                        .moved()
                        .iter()
                        .filter(|&&(v, d)| d == f64::INFINITY && seed_row[v.index()] > 0.0);
                    if let Some(&(src, _)) = cut.min_by_key(|&&(v, _)| v) {
                        return Err(TeError::Unroutable {
                            src,
                            dst: self.dests[i],
                        });
                    }
                }
                diff.moved.extend_from_slice(repair.moved());
                diff.dags.push((i, diff.moved.len()));
                let changed = Changed {
                    weights,
                    mask,
                    edges,
                };
                if bounded {
                    self.respread(i, dag, repair, &changed, spread, diff);
                } else {
                    self.respread_all(i, dag, repair, &changed, spread, diff);
                }
            }
            c.dirty_dests.add(dirty_count as u64);
            c.clean_dests.add((self.dests.len() - dirty_count) as u64);

            let mut loads = self.loads.clone();
            self.arena.refold(&diff.partials, columns, &mut loads);
            let phi = fortz_phi(&loads, &self.caps);
            let mlu = max_link_utilization(&loads, &self.caps);
            Ok(Probe {
                change,
                dirty_count,
                loads,
                phi,
                mlu,
                diff: diff.clone(),
                generation: self.generation,
            })
        })
    }

    /// Re-spreads destination `i`'s flow over the DAG that `repair` diffs
    /// against `prev`, visiting only the nodes whose flow can change, and
    /// appends the changed node flows and partials to `out`.
    ///
    /// A node's inflow is its seed plus the shares of its in-edges, added
    /// in the order of the full propagation ([`crate::ecmp`]'s
    /// `spread_seeded`): tails in DAG order, each tail's next hops by
    /// ascending edge id. A node contributes a share to a next hop only if
    /// its flow exceeds `EPS`. So a node's flow can change only if one of
    /// its contributing tails changed share, position or next hops, or an
    /// in-edge from a tail with flow flipped; and its partials only if its
    /// flow or next hops changed. The worklist starts with the moved nodes
    /// that carry flow and both ends of every flipped edge whose tail
    /// carries flow (a flip lies on a changed edge or next to a moved
    /// node), and is processed in the repaired order (decreasing new
    /// distance, then ascending id; cut-off nodes first). A processed node
    /// re-accumulates its inflow, sorted by (tail key, edge id), and passes
    /// the change to its repaired next hops — which come later in that
    /// order — only if it carries flow before or after and its flow, next
    /// hops or position changed. Every other node keeps its inflow
    /// sequence, hence its flow, its shares and its partials, bit for bit.
    /// A partial is `0.0 + share`, which is `share`, so old partials are
    /// recomputed from the cached flows rather than read from the arena.
    fn respread(
        &self,
        i: usize,
        prev: &SpDag,
        repair: &DagRepair,
        changed: &Changed<'_>,
        sp: &mut Spread,
        out: &mut Diff,
    ) {
        let g = self.net.graph();
        let n = self.net.node_count();
        let seeds = &self.seeds[i * n..(i + 1) * n];
        let flows = &self.flows[i * n..(i + 1) * n];
        let key = |v: NodeId| (repair.dist(prev, v), v);
        let moved = |v: NodeId| key(v).0.to_bits() != prev.dist[v.index()].to_bits();
        let on = |e: EdgeId, a: NodeId, b: NodeId| {
            repair.on_dag(changed.weights, changed.mask, prev, e, (a, b))
        };
        let carries = |v: NodeId| flows[v.index()] > EPS;
        sp.begin(n);
        for &e in changed.edges {
            let (a, b) = g.endpoints(e);
            if carries(a) && on(e, a, b) != prev.edge_on_dag[e.index()] {
                sp.push(key(a));
                sp.push(key(b));
            }
        }
        for &(x, _) in repair.moved() {
            if carries(x) {
                // A next hop lost over an edge that left the DAG may come
                // earlier in the repaired order; one kept or gained comes
                // later and is reached from `x`.
                sp.push(key(x));
                for &e in g.out_edges(x) {
                    let h = g.dst(e);
                    if prev.edge_on_dag[e.index()] && !on(e, x, h) {
                        sp.push(key(h));
                    }
                }
            }
            // A tail that moved and carries flow is seeded above.
            for &e in g.in_edges(x) {
                let u = g.src(e);
                if carries(u) && !moved(u) && on(e, u, x) != prev.edge_on_dag[e.index()] {
                    sp.push(key(u));
                    sp.push(key(x));
                }
            }
        }
        while let Some((dv, Reverse(v))) = sp.heap.pop() {
            let (dv, v) = (f64::from_bits(dv), NodeId(v));
            sp.tails.clear();
            for &e in g.in_edges(v) {
                let u = g.src(e);
                let settled = sp.settled(u);
                let f = settled.map_or(flows[u.index()], |(f, _)| f);
                if f > EPS && on(e, u, v) {
                    let s = settled.map_or_else(|| share(f, prev.split_degree(u)), |(_, s)| s);
                    sp.tails.push((key(u), e, s));
                }
            }
            sp.tails
                .sort_unstable_by(|a, b| order_cmp(a.0, b.0).then(a.1.cmp(&b.1)));
            let mut f = seeds[v.index()];
            for &(_, _, s) in &sp.tails {
                f += s;
            }
            let old = flows[v.index()];

            sp.outs.clear();
            let mut deg = 0;
            for &e in g.out_edges(v) {
                let h = g.dst(e);
                let (was, now) = (prev.edge_on_dag[e.index()], on(e, v, h));
                if was || now {
                    sp.outs.push((e, h, was, now));
                    deg += usize::from(now);
                }
            }
            let new_share = share(f, deg);
            sp.settle(v, f, new_share);
            let flow_changed = f.to_bits() != old.to_bits();
            if flow_changed {
                out.flows.push((i * n + v.index(), f));
            }
            let row_flipped = sp.outs.iter().any(|&(_, _, was, now)| was != now);
            if !(flow_changed || row_flipped || dv.to_bits() != prev.dist[v.index()].to_bits())
                || (f <= EPS && old <= EPS)
            {
                continue;
            }
            let old_share = share(old, prev.split_degree(v));
            for k in 0..sp.outs.len() {
                let (e, h, was, now) = sp.outs[k];
                let x = if now { new_share } else { 0.0 };
                let y = if was { old_share } else { 0.0 };
                if x.to_bits() != y.to_bits() {
                    out.partials.push((e, i as u32, x));
                }
                if now {
                    sp.push(key(h));
                }
            }
        }
    }

    /// Re-spreads destination `i`'s flow over the whole DAG that `repair`
    /// diffs against `prev`, for a diff from a full Dijkstra, which may
    /// move most nodes: the propagation itself, over the repaired order and
    /// next hops read through [`DagRepair::on_dag`], then a comparison of
    /// every node's flow and partials with the cached ones. The operation
    /// sequence is the full propagation's (`spread_seeded`), so the flows
    /// and partials are bit-equal to it.
    fn respread_all(
        &self,
        i: usize,
        prev: &SpDag,
        repair: &DagRepair,
        changed: &Changed<'_>,
        sp: &mut Spread,
        out: &mut Diff,
    ) {
        let g = self.net.graph();
        let n = self.net.node_count();
        let t = prev.target;
        let seeds = &self.seeds[i * n..(i + 1) * n];
        let flows = &self.flows[i * n..(i + 1) * n];
        // The repaired edge set, each edge tested once.
        sp.edge_on.clear();
        sp.edge_on.extend(
            g.edges()
                .map(|(e, a, b)| repair.on_dag(changed.weights, changed.mask, prev, e, (a, b))),
        );
        let on = |e: EdgeId| sp.edge_on[e.index()];
        // The repaired order: the unmoved nodes keep their relative order,
        // and the moved ones still reaching the target merge in by key.
        sp.order.clear();
        sp.back.clear();
        let moved = repair.moved().iter().filter(|&&(_, d)| d.is_finite());
        sp.back.extend(moved.map(|&(x, d)| (d, x)));
        sp.back.sort_unstable_by(|&a, &b| order_cmp(a, b));
        let mut back = sp.back.iter().peekable();
        for &v in &prev.order {
            let key = (repair.dist(prev, v), v);
            if key.0.to_bits() != prev.dist[v.index()].to_bits() {
                continue;
            }
            while let Some(&(_, x)) = back.next_if(|&&k| order_cmp(k, key).is_lt()) {
                sp.order.push(x);
            }
            sp.order.push(v);
        }
        sp.order.extend(back.map(|&(_, x)| x));

        sp.node_flow.clear();
        sp.node_flow.extend_from_slice(seeds);
        for &v in &sp.order {
            let f = sp.node_flow[v.index()];
            if f <= EPS || v == t {
                continue;
            }
            let outs = g.out_edges(v).iter().filter(|&&e| on(e));
            let share = f / outs.clone().count() as f64;
            for &e in outs {
                sp.node_flow[g.dst(e).index()] += share;
            }
        }
        for v in g.nodes() {
            let (f, old) = (sp.node_flow[v.index()], flows[v.index()]);
            if f.to_bits() != old.to_bits() {
                out.flows.push((i * n + v.index(), f));
            }
            if f <= EPS && old <= EPS {
                continue;
            }
            let deg = g.out_edges(v).iter().filter(|&&e| on(e)).count();
            let (new_share, old_share) = (share(f, deg), share(old, prev.split_degree(v)));
            for &e in g.out_edges(v) {
                let x = if on(e) { new_share } else { 0.0 };
                let y = if prev.edge_on_dag[e.index()] {
                    old_share
                } else {
                    0.0
                };
                if x.to_bits() != y.to_bits() {
                    out.partials.push((e, i as u32, x));
                }
            }
        }
    }

    /// Writes a diff's partials and node flows into the committed slabs.
    fn apply_entries(&mut self, partials: &[(EdgeId, u32, f64)], flows: &[(usize, f64)]) {
        for &(e, i, x) in partials {
            let k = self.arena.at(e, i as usize);
            self.arena.cols[k] = x;
        }
        for &(k, f) in flows {
            self.flows[k] = f;
        }
    }

    /// Applies a probe in place — a weight probe's weight becomes the base
    /// weight, a failure probe's dead links join the base mask — patching
    /// the changed DAGs from the probe's diffs ([`patch_dag`]), writing its
    /// changed partials and node flows, and moving the cached loads/Φ/MLU
    /// to the probe's values.
    ///
    /// # Panics
    /// Panics if the probe was computed against an older committed state
    /// (its answer would no longer be valid).
    pub fn commit(&mut self, probe: Probe) {
        assert_eq!(
            probe.generation, self.generation,
            "probe is stale: it was computed against a previous base state"
        );
        let g = self.net.graph();
        let m = self.net.edge_count();
        match &probe.change {
            Change::Weight(e, w) => self.weights[e.index()] = *w,
            Change::Down(dead) => set_flags(&mut self.disabled, m, dead, true),
            Change::Up(e) => set_flags(&mut self.disabled, m, &[*e], false),
        }
        let diff = probe.diff;
        let mut from = 0;
        for &(dest, end) in &diff.dags {
            let moved = &diff.moved[from..end];
            let (w, mask, prev) = (&self.weights, &self.disabled, &self.dags[dest]);
            self.dags[dest] = patch_dag(g, w, mask, prev, moved, probe.change.edges());
            from = end;
        }
        self.apply_entries(&diff.partials, &diff.flows);
        self.loads = probe.loads;
        self.phi = probe.phi;
        self.mlu = probe.mlu;
        self.generation += 1;
    }

    /// Overrides the capacity of link `e` in place — the event-application
    /// path for capacity changes. Capacities never influence routing, so only
    /// the cached Φ/MLU are recomputed (from the unchanged loads, with the
    /// exact operation sequence a fresh build on the re-capacitated network
    /// would use — the result is bit-identical to that rebuild). Returns
    /// whether anything changed; outstanding probes are invalidated when it
    /// did.
    ///
    /// # Errors
    /// [`TeError::OutOfRange`] when `e` is not an edge of the network
    /// and [`TeError::InvalidCapacity`] when `cap` is not positive finite —
    /// the evaluator is left untouched.
    pub fn set_capacity(&mut self, e: EdgeId, cap: f64) -> Result<bool, TeError> {
        self.check_edge(e)?;
        if !cap.is_finite() || cap <= 0.0 {
            return Err(TeError::InvalidCapacity {
                edge: e.index(),
                value: cap,
            });
        }
        if self.caps[e.index()].to_bits() == cap.to_bits() {
            return Ok(false);
        }
        self.caps[e.index()] = cap;
        self.phi = fortz_phi(&self.loads, &self.caps);
        self.mlu = max_link_utilization(&self.loads, &self.caps);
        self.generation += 1;
        Ok(true)
    }

    /// Replaces the demand workload in place — the event-application path for
    /// matrix replacement.
    ///
    /// When the new workload routes to the same destination set, only the
    /// destinations whose injection seeds actually changed are re-seeded
    /// (re-propagated over their unchanged DAGs — weights did not move),
    /// which refills their node flows, and only the columns whose partials
    /// changed are re-summed. When the destination set differs, the
    /// evaluator rebuilds in place with the full construction path. Either
    /// way the resulting state is bit-identical to a fresh evaluator built
    /// on the new workload. Returns whether the loads, Φ or MLU could have
    /// changed.
    ///
    /// # Errors
    /// [`TeError::Unroutable`] when some new segment cannot reach its
    /// destination, [`TeError::InvalidWaypoints`] on a row-count mismatch,
    /// and [`TeError::OutOfRange`] on a node id outside the network
    /// — the evaluator is left untouched in each case.
    pub fn set_workload(
        &mut self,
        demands: &DemandList,
        waypoints: &WaypointSetting,
    ) -> Result<bool, TeError> {
        let (segments, runs) = segments(self.net, demands, waypoints)?;
        self.set_segments(&segments, runs)
    }

    /// Sets the size of demand `index` in place — the event-application
    /// path for one demand's update, in time proportional to its
    /// destinations, not to the workload.
    ///
    /// Each of the demand's segments (every hop of a waypointed demand) has
    /// its amount rewritten in its destination's injection list; only those
    /// destinations' seed rows are refolded, from their lists in list
    /// order, and re-seeded over their unchanged DAGs — the step
    /// [`set_workload`](Self::set_workload) re-seeds with. A size that
    /// crosses `EPS` changes which segments inject at all, and perhaps the
    /// destination set, so it takes `set_workload`'s path on the updated
    /// workload. Either way the state is bit-identical to a fresh evaluator
    /// built on it. Returns whether the loads, Φ or MLU could have changed.
    ///
    /// # Errors
    /// [`TeError::OutOfRange`] when `index` is not a demand of the
    /// workload, [`TeError::InvalidDemand`] when `size` is not positive
    /// finite, and [`TeError::Unroutable`] when a demand at or below `EPS`
    /// (which injects nothing) rises above it from a source that a failed
    /// link has cut off — the evaluator is left untouched in each case.
    pub fn set_demand(&mut self, index: usize, size: f64) -> Result<bool, TeError> {
        let demands = self.runs.len() - 1;
        if index >= demands {
            return Err(TeError::OutOfRange {
                what: "demand",
                index,
                count: demands,
            });
        }
        if !(size.is_finite() && size > 0.0) {
            return Err(TeError::InvalidDemand { index, value: size });
        }
        let run = self.runs[index] as usize..self.runs[index + 1] as usize;
        // A demand's segments all carry its size, so they inject together.
        let Some(first) = self.segments[run.clone()].first() else {
            return Ok(false);
        };
        let injected = first.slot.is_some();
        if injected != (size > EPS) {
            let segments = self.segments_with(run, size);
            return self.set_segments(&segments, self.runs.clone());
        }
        if !injected {
            return Ok(false);
        }
        // Only amounts move, so every source still reaches its destination.
        let mut touched = Vec::new();
        for seg in &self.segments[run] {
            let (i, p) = seg.slot.expect("a demand's segments inject together");
            self.injections[i as usize][p as usize].1 = size;
            if !touched.contains(&(i as usize)) {
                touched.push(i as usize);
            }
        }
        touched.sort_unstable();
        let n = self.net.node_count();
        SCRATCH.with(|s| {
            let row = &mut s.borrow_mut().row;
            touched.retain(|&i| {
                row.clear();
                row.resize(n, 0.0);
                inject(&self.injections[i], row);
                let seeds = &mut self.seeds[i * n..(i + 1) * n];
                let moved = !same_bits(row, seeds);
                if moved {
                    seeds.copy_from_slice(row);
                }
                moved
            });
        });
        if touched.is_empty() {
            return Ok(false);
        }
        self.reseed(&touched);
        Ok(true)
    }

    /// The workload's segments, with the amounts of those in `run` set to
    /// `size`. An injecting segment's amount is in its list; one that
    /// injects nothing is at or below `EPS`, where its value routes nothing,
    /// and reads `0.0`.
    fn segments_with(&self, run: Range<usize>, size: f64) -> Vec<Segment> {
        let amount = |j: usize, slot: Option<(u32, u32)>| match slot {
            _ if run.contains(&j) => size,
            Some((i, p)) => self.injections[i as usize][p as usize].1,
            None => 0.0,
        };
        let segment = |(j, seg): (usize, &SegmentSlot)| Segment {
            src: seg.src,
            dst: seg.dst,
            amount: amount(j, seg.slot),
        };
        self.segments.iter().enumerate().map(segment).collect()
    }

    /// Moves the evaluator to a new segment list, `runs` its demands' runs:
    /// [`set_workload`](Self::set_workload)'s path.
    fn set_segments(&mut self, segments: &[Segment], runs: Vec<u32>) -> Result<bool, TeError> {
        let (dests, injections): (Vec<NodeId>, Vec<_>) =
            group_by_destination(segments).into_iter().unzip();
        if dests != self.dests {
            // Destination set changed: full in-place rebuild (one Dijkstra +
            // one propagation per destination, like construction).
            return self.rebuild_for_segments(segments, runs).map(|()| true);
        }
        // Same destinations: the DAGs are all still valid. Re-fold the seed
        // rows (the same injection fold construction performs) and keep the
        // ones that actually moved.
        let n = self.net.node_count();
        let (mut dirty, mut rows) = (Vec::new(), Vec::new());
        for (i, inj) in injections.iter().enumerate() {
            let at = rows.len();
            rows.resize(at + n, 0.0);
            inject(inj, &mut rows[at..]);
            if same_bits(&rows[at..], &self.seeds[i * n..(i + 1) * n]) {
                rows.truncate(at);
            } else {
                dirty.push(i);
            }
        }
        // A new source may be unreachable, and an error must leave the
        // evaluator untouched: check before writing anything, in the order
        // a fresh build propagates.
        for &i in &dirty {
            check_reachable(&self.dags[i], &injections[i])?;
        }
        for (k, &i) in dirty.iter().enumerate() {
            self.seeds[i * n..(i + 1) * n].copy_from_slice(&rows[k * n..(k + 1) * n]);
        }
        self.segments = slot_table(segments, &self.dests, n);
        self.injections = injections;
        self.runs = runs;
        if dirty.is_empty() {
            return Ok(false);
        }
        self.reseed(&dirty);
        Ok(true)
    }

    /// The one re-seed step of [`set_workload`](Self::set_workload) and
    /// [`set_demand`](Self::set_demand): the destinations `touched`
    /// (ascending), whose rows in `seeds` are already rewritten, are
    /// propagated over their unchanged DAGs into scratch and diffed against
    /// their committed node flows and partials; only the columns with a
    /// changed partial are re-summed, and then the diff is written.
    fn reseed(&mut self, touched: &[usize]) {
        let c = counters();
        c.dirty_dests.add(touched.len() as u64);
        c.clean_dests.add((self.dests.len() - touched.len()) as u64);
        let (n, m) = (self.net.node_count(), self.net.edge_count());
        SCRATCH.with(|s| {
            let Scratch {
                spread,
                columns,
                diff,
                row,
                ..
            } = &mut *s.borrow_mut();
            let node_flow = &mut spread.node_flow;
            diff.clear();
            for &i in touched {
                node_flow.clear();
                node_flow.extend_from_slice(&self.seeds[i * n..(i + 1) * n]);
                row.clear();
                row.resize(m, 0.0);
                spread_seeded(self.net, &self.dags[i], row, node_flow);
                for (e, &x) in row.iter().enumerate() {
                    let e = EdgeId(e as u32);
                    if x.to_bits() != self.arena.cols[self.arena.at(e, i)].to_bits() {
                        diff.partials.push((e, i as u32, x));
                    }
                }
                let flows = &self.flows[i * n..(i + 1) * n];
                for (v, (&f, old)) in node_flow.iter().zip(flows).enumerate() {
                    if f.to_bits() != old.to_bits() {
                        diff.flows.push((i * n + v, f));
                    }
                }
            }
            self.arena.refold(&diff.partials, columns, &mut self.loads);
            self.apply_entries(&diff.partials, &diff.flows);
        });
        self.phi = fortz_phi(&self.loads, &self.caps);
        self.mlu = max_link_utilization(&self.loads, &self.caps);
        self.generation += 1;
    }

    /// Full in-place rebuild for a new segment list (destination set
    /// changed): runs the construction path and splices the result in,
    /// preserving the committed weights, the disabled mask, any capacity
    /// overrides, the repair threshold and the generation ordering.
    fn rebuild_for_segments(
        &mut self,
        segments: &[Segment],
        runs: Vec<u32>,
    ) -> Result<(), TeError> {
        let w = WeightSetting::new(self.net, self.weights.clone())
            .expect("committed weights are positive finite");
        let fresh = Self::for_segments(self.net, &w, segments, runs, self.disabled.clone())?;
        *self = Self {
            caps: std::mem::take(&mut self.caps),
            frontier_cap: self.frontier_cap,
            generation: self.generation + 1,
            ..fresh
        };
        // Φ/MLU from the overridden capacities, not the network's nominal
        // ones the fresh build used.
        self.phi = fortz_phi(&self.loads, &self.caps);
        self.mlu = max_link_utilization(&self.loads, &self.caps);
        Ok(())
    }

    /// Takes link `e` down (`up = false`) or back up (`up = true`) in place —
    /// the event-application path for link-state changes. Returns whether the
    /// state changed (a repeated event is a no-op).
    ///
    /// Both directions run the probes' change path and [`commit`](Self::commit)
    /// its answer: only the destinations whose DAG is actually affected are
    /// repaired (down as a weight increase to ∞, up as a decrease from ∞),
    /// and the committed state is bit-identical to a fresh evaluator built
    /// with the new mask. Neither direction counts as a probe.
    ///
    /// # Errors
    /// [`TeError::OutOfRange`] when `e` is not an edge of the network,
    /// and [`TeError::Unroutable`] when taking the link down severs a demand
    /// from its destination — the evaluator is left untouched.
    pub fn set_link_state(&mut self, e: EdgeId, up: bool) -> Result<bool, TeError> {
        self.check_edge(e)?;
        if up != edge_disabled(&self.disabled, e) {
            return Ok(false);
        }
        let change = if up {
            Change::Up(e)
        } else {
            Change::Down(vec![e])
        };
        let probe = self.score(change)?;
        self.commit(probe);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Router;

    /// Diamond with an extra direct edge — gives probes both clean and dirty
    /// destinations to chew on.
    fn net() -> Network {
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), 2.0); // e0
        b.link(NodeId(1), NodeId(3), 2.0); // e1
        b.link(NodeId(0), NodeId(2), 1.0); // e2
        b.link(NodeId(2), NodeId(3), 1.0); // e3
        b.link(NodeId(0), NodeId(3), 1.0); // e4
        b.build().unwrap()
    }

    fn demands() -> DemandList {
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 2.0);
        d.push(NodeId(1), NodeId(3), 1.0);
        d.push(NodeId(0), NodeId(2), 0.5);
        d
    }

    fn fresh_bits(net: &Network, w: &WeightSetting, d: &DemandList) -> (Vec<u64>, u64, u64) {
        let r = Router::new(net, w)
            .evaluate(d, &WaypointSetting::none(d.len()))
            .unwrap();
        let phi = fortz_phi(&r.loads, net.capacities());
        (
            r.loads.iter().map(|x| x.to_bits()).collect(),
            phi.to_bits(),
            r.mlu.to_bits(),
        )
    }

    fn eval_bits(e: &IncrementalEvaluator<'_>) -> (Vec<u64>, u64, u64) {
        (
            e.loads().iter().map(|x| x.to_bits()).collect(),
            e.phi().to_bits(),
            e.mlu().to_bits(),
        )
    }

    #[test]
    fn construction_matches_router() {
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        assert_eq!(eval_bits(&eval), fresh_bits(&net, &w, &d));
        assert_eq!(eval.destination_count(), 2); // dests {2, 3}
    }

    #[test]
    fn probe_and_commit_track_scratch_evaluation() {
        let net = net();
        let d = demands();
        let mut w = WeightSetting::unit(&net);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        // A sequence of single-edge changes, each probed then committed.
        for (e, nw) in [
            (EdgeId(4), 3.0),
            (EdgeId(0), 1.0),
            (EdgeId(3), 4.0),
            (EdgeId(4), 2.0),
            (EdgeId(2), 5.0),
        ] {
            let probe = eval.probe(e, nw).unwrap();
            w.set(e, nw);
            let fresh = fresh_bits(&net, &w, &d);
            assert_eq!(
                (
                    probe.loads.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    probe.phi.to_bits(),
                    probe.mlu.to_bits()
                ),
                fresh,
                "probe {e:?}->{nw} diverged from scratch"
            );
            eval.commit(probe);
            assert_eq!(eval_bits(&eval), fresh, "committed state diverged");
        }
    }

    #[test]
    fn clean_probe_touches_nothing() {
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        // e1 (1->3) is on DAGs; e0 -> increasing e0 while 0 has the direct
        // edge e4 keeps... use an edge with no effect: increase e2's weight
        // partner: probing the same weight is trivially clean.
        let probe = eval.probe(EdgeId(0), 1.0).unwrap();
        assert_eq!(probe.dirty_count, 0);
        assert_eq!(
            probe.loads.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            eval.loads().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_probe_is_rejected() {
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        let p1 = eval.probe(EdgeId(0), 3.0).unwrap();
        let p2 = eval.probe(EdgeId(1), 3.0).unwrap();
        eval.commit(p1);
        eval.commit(p2); // computed against the pre-p1 state
    }

    #[test]
    fn unroutable_workload_errors_at_construction() {
        let mut b = Network::builder(3);
        b.link(NodeId(0), NodeId(1), 1.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(2), 1.0);
        let w = WeightSetting::unit(&net);
        let err = IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(1))
            .err()
            .expect("must be unroutable");
        assert_eq!(
            err,
            TeError::Unroutable {
                src: NodeId(0),
                dst: NodeId(2)
            }
        );
    }

    #[test]
    fn waypointed_workloads_are_supported() {
        let net = net();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 2.0);
        let mut wp = WaypointSetting::none(1);
        wp.set(0, vec![NodeId(2)]);
        let w = WeightSetting::unit(&net);
        let eval = IncrementalEvaluator::new(&net, &w, &d, &wp).unwrap();
        let fresh = Router::new(&net, &w).evaluate(&d, &wp).unwrap();
        assert_eq!(
            eval.loads().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            fresh.loads.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    /// The diamond net with the direct edge (e4) deleted — the topology an
    /// e4 failure must route on.
    fn net_without_e4() -> Network {
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), 2.0); // e0
        b.link(NodeId(1), NodeId(3), 2.0); // e1
        b.link(NodeId(0), NodeId(2), 1.0); // e2
        b.link(NodeId(2), NodeId(3), 1.0); // e3
        b.build().unwrap()
    }

    #[test]
    fn disable_probe_matches_scratch_on_deleted_topology() {
        let net = net();
        let net2 = net_without_e4();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let w2 = WeightSetting::unit(&net2);
        let eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        let probe = eval.probe_disable(&[EdgeId(4)]).unwrap();
        let fresh = fresh_bits(&net2, &w2, &d);
        // e4 is the last edge, so ids 0..4 coincide between the topologies.
        assert_eq!(
            probe.loads[..4]
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            fresh.0,
            "disable probe diverged from edge-deleted scratch"
        );
        assert_eq!(probe.loads[4], 0.0, "failed link must carry no flow");
        assert_eq!(probe.mlu.to_bits(), fresh.2);
        assert!(probe.dirty_count >= 1);
    }

    #[test]
    fn disable_probe_classifies_disconnection() {
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        // e1 (1->3) is node 1's only route to 3.
        let err = eval.probe_disable(&[EdgeId(1)]).unwrap_err();
        assert_eq!(
            err,
            TeError::Unroutable {
                src: NodeId(1),
                dst: NodeId(3)
            }
        );
        // The evaluator is untouched: a fresh intact probe still answers.
        let intact = eval.probe_disable(&[]).unwrap();
        assert_eq!(
            intact.loads.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            eval.loads().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(intact.dirty_count, 0);
    }

    #[test]
    fn masked_base_evaluator_matches_deleted_topology() {
        let net = net();
        let net2 = net_without_e4();
        let d = demands();
        let mut w = WeightSetting::unit(&net);
        let mut w2 = WeightSetting::unit(&net2);
        let mut eval = IncrementalEvaluator::new_with_failures(
            &net,
            &w,
            &d,
            &WaypointSetting::none(d.len()),
            &[EdgeId(4)],
        )
        .unwrap();
        assert_eq!(eval.disabled(), &[false, false, false, false, true]);
        let f0 = fresh_bits(&net2, &w2, &d);
        assert_eq!(eval.phi().to_bits(), f0.1);
        assert_eq!(eval.mlu().to_bits(), f0.2);
        // Weight probes repair under the base mask and stay bit-identical to
        // scratch on the deleted topology.
        for (e, nw) in [(EdgeId(0), 5.0), (EdgeId(3), 4.0), (EdgeId(0), 1.0)] {
            let probe = eval.probe(e, nw).unwrap();
            w.set(e, nw);
            w2.set(e, nw);
            let fresh = fresh_bits(&net2, &w2, &d);
            assert_eq!(
                probe.loads[..4]
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                fresh.0,
                "masked-base probe {e:?}->{nw} diverged"
            );
            assert_eq!(probe.mlu.to_bits(), fresh.2);
            eval.commit(probe);
        }
        // Probing the failed edge itself is a provable no-op.
        let noop = eval.probe(EdgeId(4), 9.0).unwrap();
        assert_eq!(noop.dirty_count, 0);
        assert_eq!(noop.mlu.to_bits(), eval.mlu().to_bits());
    }

    #[test]
    fn masked_construction_errors_when_disconnected() {
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let err = IncrementalEvaluator::new_with_failures(
            &net,
            &w,
            &d,
            &WaypointSetting::none(d.len()),
            &[EdgeId(1)],
        )
        .err()
        .expect("1 -> 3 has no alternative");
        assert_eq!(
            err,
            TeError::Unroutable {
                src: NodeId(1),
                dst: NodeId(3)
            }
        );
    }

    #[test]
    fn double_failure_on_one_dag_rebuilds_correctly() {
        // Destination 3's DAG uses e1, e3 and e4 under unit weights; killing
        // e1 + e4 is one bounded repair over both, which forces everything
        // over 0->2->3 and cuts node 1 — unless node 1 has no demand, so use
        // a 0->3 demand only.
        let net = net();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 2.0);
        let w = WeightSetting::unit(&net);
        let eval = IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(1)).unwrap();
        let probe = eval.probe_disable(&[EdgeId(1), EdgeId(4)]).unwrap();
        assert_eq!(probe.loads[2], 2.0);
        assert_eq!(probe.loads[3], 2.0);
        assert_eq!(probe.loads[0], 0.0);
        assert_eq!(probe.loads[1], 0.0);
        assert_eq!(probe.loads[4], 0.0);
    }

    #[test]
    fn a_dead_edge_listed_twice_fails_once() {
        // e4 is node 0's only next hop towards 3, so a second drop of its
        // support would underflow: listed twice, it is the same failure.
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let wp = WaypointSetting::none(d.len());
        let mut once = IncrementalEvaluator::new(&net, &w, &d, &wp).unwrap();
        let mut twice = IncrementalEvaluator::new(&net, &w, &d, &wp).unwrap();
        let a = once.probe_disable(&[EdgeId(4)]).unwrap();
        let b = twice.probe_disable(&[EdgeId(4), EdgeId(4)]).unwrap();
        let answer = |p: &Probe| {
            let loads: Vec<u64> = p.loads.iter().map(|x| x.to_bits()).collect();
            (loads, p.phi.to_bits(), p.mlu.to_bits(), p.dirty_count)
        };
        assert_eq!(answer(&a), answer(&b));
        assert_eq!(a.dirty_count, 1);
        once.commit(a);
        twice.commit(b);
        assert_eq!(eval_bits(&once), eval_bits(&twice));
        assert!(twice.set_link_state(EdgeId(4), true).unwrap());
        assert_eq!(eval_bits(&twice), fresh_bits(&net, &w, &d));
    }

    /// The diamond net with a different capacity on e0.
    fn net_with_cap(e0_cap: f64) -> Network {
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), e0_cap); // e0
        b.link(NodeId(1), NodeId(3), 2.0); // e1
        b.link(NodeId(0), NodeId(2), 1.0); // e2
        b.link(NodeId(2), NodeId(3), 1.0); // e3
        b.link(NodeId(0), NodeId(3), 1.0); // e4
        b.build().unwrap()
    }

    #[test]
    fn set_capacity_matches_recapacitated_rebuild() {
        let d = demands();
        let net = net_with_cap(2.0);
        let w = WeightSetting::unit(&net);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        assert!(eval.set_capacity(EdgeId(0), 0.5).unwrap());
        let net2 = net_with_cap(0.5);
        let w2 = WeightSetting::unit(&net2);
        assert_eq!(eval_bits(&eval), fresh_bits(&net2, &w2, &d));
        assert_eq!(eval.capacities()[0], 0.5);
        // Same value again is a no-op; an invalid value errors untouched.
        assert!(!eval.set_capacity(EdgeId(0), 0.5).unwrap());
        let before = eval_bits(&eval);
        assert!(eval.set_capacity(EdgeId(0), -1.0).is_err());
        assert_eq!(eval_bits(&eval), before);
        // Probes answer against the overridden capacities.
        let probe = eval.probe(EdgeId(2), 5.0).unwrap();
        let mut w3 = WeightSetting::unit(&net2);
        w3.set(EdgeId(2), 5.0);
        let fresh = fresh_bits(&net2, &w3, &d);
        assert_eq!(probe.mlu.to_bits(), fresh.2);
        assert_eq!(probe.phi.to_bits(), fresh.1);
    }

    #[test]
    fn set_workload_in_place_matches_fresh_build() {
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        // Scale one demand: same destinations, one dirty seed row.
        let mut d2 = DemandList::new();
        d2.push(NodeId(0), NodeId(3), 3.5);
        d2.push(NodeId(1), NodeId(3), 1.0);
        d2.push(NodeId(0), NodeId(2), 0.5);
        assert!(eval
            .set_workload(&d2, &WaypointSetting::none(d2.len()))
            .unwrap());
        assert_eq!(eval_bits(&eval), fresh_bits(&net, &w, &d2));
        // Identical workload again: a provable no-op.
        assert!(!eval
            .set_workload(&d2, &WaypointSetting::none(d2.len()))
            .unwrap());
        // Probe/commit still track scratch after the in-place swap.
        let probe = eval.probe(EdgeId(4), 5.0).unwrap();
        let mut w2 = WeightSetting::unit(&net);
        w2.set(EdgeId(4), 5.0);
        assert_eq!(probe.mlu.to_bits(), fresh_bits(&net, &w2, &d2).2);
        eval.commit(probe);
        assert_eq!(eval_bits(&eval), fresh_bits(&net, &w2, &d2));
    }

    #[test]
    fn set_workload_new_destinations_rebuilds_in_place() {
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        // Destination set changes from {2, 3} to {1, 3}.
        let mut d2 = DemandList::new();
        d2.push(NodeId(0), NodeId(1), 1.5);
        d2.push(NodeId(0), NodeId(3), 2.0);
        assert!(eval
            .set_workload(&d2, &WaypointSetting::none(d2.len()))
            .unwrap());
        assert_eq!(eval.destination_count(), 2);
        assert_eq!(eval_bits(&eval), fresh_bits(&net, &w, &d2));
    }

    #[test]
    fn set_workload_unroutable_leaves_state_untouched() {
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        let before = eval_bits(&eval);
        // Node 3 has no out-edges: 3 -> 2 is unroutable. Same destination
        // set, so this exercises the in-place (seed-diff) path's validation.
        let mut bad = DemandList::new();
        bad.push(NodeId(0), NodeId(3), 2.0);
        bad.push(NodeId(3), NodeId(2), 1.0);
        let err = eval
            .set_workload(&bad, &WaypointSetting::none(bad.len()))
            .unwrap_err();
        assert_eq!(
            err,
            TeError::Unroutable {
                src: NodeId(3),
                dst: NodeId(2)
            }
        );
        assert_eq!(eval_bits(&eval), before);
        // The rebuild path validates too: new destination set, unroutable.
        let mut bad2 = DemandList::new();
        bad2.push(NodeId(3), NodeId(1), 1.0);
        assert!(eval.set_workload(&bad2, &WaypointSetting::none(1)).is_err());
        assert_eq!(eval_bits(&eval), before);
    }

    /// Everything a workload update can touch, as bits: the totals, Φ and
    /// MLU, the destinations, the injection lists and every segment's
    /// slot, the seed and node-flow slabs and the partials.
    type WorkloadBits = (Bits, Vec<u32>, Vec<Vec<(u32, u64)>>, Vec<u64>, Vec<u64>);

    fn workload_bits(e: &IncrementalEvaluator<'_>) -> WorkloadBits {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let lists = e.injections.iter();
        let lists = lists.map(|inj| inj.iter().map(|&(s, a)| (s.0, a.to_bits())).collect());
        let slots = e.segments.iter().map(|seg| match seg.slot {
            Some((i, p)) => u64::from(i) << 32 | u64::from(p),
            None => u64::MAX,
        });
        let mut slabs = bits(&e.seeds);
        slabs.extend(bits(&e.flows));
        slabs.extend(bits(&e.arena.cols));
        (
            bits_of(&e.loads, &e.caps),
            e.dests.iter().map(|t| t.0).collect(),
            lists.collect(),
            slots.collect(),
            slabs,
        )
    }

    /// `set_demand(k, size)` on `eval`, then the state against a fresh
    /// build on `d` with demand `k` at `size`, which `d` takes on.
    fn set_and_compare(
        eval: &mut IncrementalEvaluator<'_>,
        d: &mut DemandList,
        wp: &WaypointSetting,
        (k, size): (usize, f64),
    ) {
        eval.set_demand(k, size).unwrap();
        d.set_size(k, size).unwrap();
        let w = WeightSetting::new(eval.net, eval.weights.clone()).unwrap();
        let dead: Vec<EdgeId> = (0..eval.disabled.len() as u32)
            .map(EdgeId)
            .filter(|&e| edge_disabled(&eval.disabled, e))
            .collect();
        let fresh = IncrementalEvaluator::new_with_failures(eval.net, &w, d, wp, &dead).unwrap();
        assert_eq!(
            workload_bits(eval),
            workload_bits(&fresh),
            "demand {k} at {size}"
        );
    }

    #[test]
    fn set_demand_tracks_fresh_builds_through_eps_and_back() {
        let net = net();
        let w = WeightSetting::unit(&net);
        // Demand 0 plain, then waypointed over node 1: one event rewrites
        // the injections of destinations 1 and 3.
        let mut via = WaypointSetting::none(3);
        via.set(0, vec![NodeId(1)]);
        for wp in [WaypointSetting::none(3), via] {
            let mut d = demands();
            let mut eval = IncrementalEvaluator::new(&net, &w, &d, &wp).unwrap();
            for step in [
                (0, 3.5),
                (0, 1e-10),
                (0, 5e-10),
                (0, 2.0),
                (1, 0.25),
                (2, 7.0),
            ] {
                set_and_compare(&mut eval, &mut d, &wp, step);
            }
            assert_eq!(eval.destination_count(), 2 + wp.max_used());
            // Probe and commit still track scratch after the updates.
            let probe = eval.probe(EdgeId(4), 5.0).unwrap();
            let mut w2 = WeightSetting::unit(&net);
            w2.set(EdgeId(4), 5.0);
            let fresh = Router::new(&net, &w2).evaluate(&d, &wp).unwrap();
            assert_eq!(probe.mlu.to_bits(), fresh.mlu.to_bits());
            eval.commit(probe);
        }
    }

    #[test]
    fn the_last_demand_of_a_destination_below_eps_drops_the_destination() {
        let net = net();
        let w = WeightSetting::unit(&net);
        let wp = WaypointSetting::none(3);
        let mut d = demands();
        let mut eval = IncrementalEvaluator::new(&net, &w, &d, &wp).unwrap();
        // Demand 2 is destination 2's only one.
        set_and_compare(&mut eval, &mut d, &wp, (2, 1e-12));
        assert_eq!(eval.destination_count(), 1);
        set_and_compare(&mut eval, &mut d, &wp, (1, 3.0));
        set_and_compare(&mut eval, &mut d, &wp, (2, 0.5));
        assert_eq!(eval.destination_count(), 2);
    }

    #[test]
    fn a_cut_off_demand_below_eps_cannot_rise() {
        let net = net();
        let w = WeightSetting::unit(&net);
        // e1 (1 -> 3) is node 1's only way to 3. Its demand injects nothing,
        // so the link can fail; bringing the demand back must then fail,
        // whether destination 3 has other demands (re-seed) or none
        // (rebuild).
        for d in [
            demand_list(&[(0, 3, 2.0), (1, 3, 1e-10), (0, 2, 0.5)]),
            demand_list(&[(1, 3, 1e-10), (0, 2, 0.5)]),
        ] {
            let wp = WaypointSetting::none(d.len());
            let mut eval = IncrementalEvaluator::new(&net, &w, &d, &wp).unwrap();
            assert!(eval.set_link_state(EdgeId(1), false).unwrap());
            let k = d.len() - 2;
            let before = workload_bits(&eval);
            let pending = eval.probe(EdgeId(2), 3.0).unwrap();
            let want = TeError::Unroutable {
                src: NodeId(1),
                dst: NodeId(3),
            };
            assert_eq!(eval.set_demand(k, 1.0).unwrap_err(), want);
            // Invalid requests are refused before anything moves too.
            let count = d.len();
            assert_eq!(
                eval.set_demand(count, 1.0).unwrap_err(),
                TeError::OutOfRange {
                    what: "demand",
                    index: count,
                    count,
                }
            );
            for bad in [0.0, -1.0, f64::INFINITY] {
                let err = TeError::InvalidDemand {
                    index: 0,
                    value: bad,
                };
                assert_eq!(eval.set_demand(0, bad).unwrap_err(), err);
            }
            assert!(eval.set_demand(0, f64::NAN).is_err());
            assert_eq!(workload_bits(&eval), before);
            // Nor did the generation move: the earlier probe commits.
            eval.commit(pending);
        }
    }

    #[test]
    fn set_link_state_down_matches_deleted_topology() {
        let net = net();
        let net2 = net_without_e4();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let w2 = WeightSetting::unit(&net2);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        let original = eval_bits(&eval);
        assert!(eval.set_link_state(EdgeId(4), false).unwrap());
        let fresh = fresh_bits(&net2, &w2, &d);
        assert_eq!(
            eval.loads()[..4]
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            fresh.0
        );
        assert_eq!(eval.loads()[4], 0.0, "downed link must carry no flow");
        assert_eq!(eval.mlu().to_bits(), fresh.2);
        // Repeated down is a no-op; bringing it back restores every bit.
        assert!(!eval.set_link_state(EdgeId(4), false).unwrap());
        assert!(eval.set_link_state(EdgeId(4), true).unwrap());
        assert!(!eval.set_link_state(EdgeId(4), true).unwrap());
        assert_eq!(eval_bits(&eval), original);
        assert_eq!(
            eval_bits(&eval),
            fresh_bits(&net, &w, &d),
            "down + up must round-trip to the intact state"
        );
    }

    #[test]
    fn disconnecting_link_down_leaves_state_untouched() {
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        let before = eval_bits(&eval);
        // e1 (1->3) is node 1's only route to 3.
        let err = eval.set_link_state(EdgeId(1), false).unwrap_err();
        assert_eq!(
            err,
            TeError::Unroutable {
                src: NodeId(1),
                dst: NodeId(3)
            }
        );
        assert_eq!(eval_bits(&eval), before);
        assert!(eval.disabled().is_empty() || !eval.disabled()[1]);
    }

    #[test]
    fn event_sequence_matches_fresh_masked_build() {
        // Interleave all three event kinds and pin the state to a fresh
        // evaluator built on the mutated inputs after every step.
        let net = net_with_cap(2.0);
        let d = demands();
        let w = WeightSetting::unit(&net);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        eval.set_link_state(EdgeId(4), false).unwrap();
        let mut d2 = DemandList::new();
        d2.push(NodeId(0), NodeId(3), 1.25);
        d2.push(NodeId(1), NodeId(3), 1.0);
        d2.push(NodeId(0), NodeId(2), 0.5);
        eval.set_workload(&d2, &WaypointSetting::none(d2.len()))
            .unwrap();
        eval.set_capacity(EdgeId(3), 4.0).unwrap();
        let net2 = {
            let mut b = Network::builder(4);
            b.link(NodeId(0), NodeId(1), 2.0);
            b.link(NodeId(1), NodeId(3), 2.0);
            b.link(NodeId(0), NodeId(2), 1.0);
            b.link(NodeId(2), NodeId(3), 4.0);
            b.link(NodeId(0), NodeId(3), 1.0);
            b.build().unwrap()
        };
        let fresh = IncrementalEvaluator::new_with_failures(
            &net2,
            &WeightSetting::unit(&net2),
            &d2,
            &WaypointSetting::none(d2.len()),
            &[EdgeId(4)],
        )
        .unwrap();
        assert_eq!(eval_bits(&eval), eval_bits(&fresh));
    }

    #[test]
    fn out_of_range_edge_ids_error_and_leave_state_untouched() {
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let state = |e: &IncrementalEvaluator<'_>| {
            let flags = e.disabled().to_vec();
            (eval_bits(e), bits(e.weights()), bits(e.capacities()), flags)
        };
        let before = state(&eval);
        let pending = eval.probe(EdgeId(4), 3.0).unwrap();
        let bad = EdgeId(5);
        let want = TeError::OutOfRange {
            what: "edge",
            index: 5,
            count: 5,
        };
        assert_eq!(eval.probe(bad, 2.0).unwrap_err(), want);
        assert_eq!(eval.probe_disable(&[EdgeId(0), bad]).unwrap_err(), want);
        assert_eq!(eval.set_capacity(bad, 2.0).unwrap_err(), want);
        assert_eq!(eval.set_link_state(bad, false).unwrap_err(), want);
        assert_eq!(eval.set_link_state(bad, true).unwrap_err(), want);
        assert_eq!(state(&eval), before);
        // The generation did not move either: the earlier probe commits.
        eval.commit(pending);
    }

    #[test]
    fn tiny_frontier_cap_still_bit_identical() {
        let net = net();
        let d = demands();
        let mut w = WeightSetting::unit(&net);
        let mut eval = IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len()))
            .unwrap()
            .with_frontier_cap(1);
        for (e, nw) in [(EdgeId(4), 5.0), (EdgeId(1), 1.0), (EdgeId(2), 3.0)] {
            let probe = eval.probe(e, nw).unwrap();
            w.set(e, nw);
            assert_eq!(
                (probe.phi.to_bits(), probe.mlu.to_bits()),
                {
                    let f = fresh_bits(&net, &w, &d);
                    (f.1, f.2)
                },
                "fallback path diverged"
            );
            eval.commit(probe);
        }
    }

    /// Loads, Φ and MLU bits.
    type Bits = (Vec<u64>, u64, u64);

    fn bits_of(loads: &[f64], caps: &[f64]) -> Bits {
        (
            loads.iter().map(|x| x.to_bits()).collect(),
            fortz_phi(loads, caps).to_bits(),
            max_link_utilization(loads, caps).to_bits(),
        )
    }

    /// The from-scratch oracle: `Router` on a copy of `net` with the `dead`
    /// edges deleted, its loads mapped back by edge id (dead edges carry
    /// exactly `0.0`).
    fn oracle(net: &Network, w: &[f64], d: &DemandList, dead: &[EdgeId]) -> Bits {
        let mut b = Network::builder(net.node_count());
        let (mut kept, mut ids) = (Vec::new(), Vec::new());
        for (e, u, v) in net.graph().edges() {
            if !dead.contains(&e) {
                b.link(u, v, net.capacity(e));
                kept.push(w[e.index()]);
                ids.push(e);
            }
        }
        let copy = b.build().unwrap();
        let r = Router::new(&copy, &WeightSetting::new(&copy, kept).unwrap())
            .evaluate(d, &WaypointSetting::none(d.len()))
            .expect("oracle routes");
        let mut loads = vec![0.0; net.edge_count()];
        for (k, e) in ids.into_iter().enumerate() {
            loads[e.index()] = r.loads[k];
        }
        bits_of(&loads, net.capacities())
    }

    /// One step of [`walk`].
    enum Step {
        /// Probe and commit a new weight.
        W(u32, f64),
        /// Probe and commit a failure of the listed edges.
        Down(&'static [u32]),
        /// Bring a failed edge back up.
        Up(u32),
    }

    /// Runs `steps` from weights `w`, checking every probe and every
    /// committed state against the oracle bit for bit.
    fn walk(net: &Network, w: &[f64], d: &DemandList, steps: &[Step], cap: Option<usize>) {
        let mut w = w.to_vec();
        let ws = WeightSetting::new(net, w.clone()).unwrap();
        let mut eval = IncrementalEvaluator::new(net, &ws, d, &WaypointSetting::none(d.len()))
            .expect("routable");
        if let Some(cap) = cap {
            eval = eval.with_frontier_cap(cap);
        }
        let mut dead: Vec<EdgeId> = Vec::new();
        assert_eq!(eval_bits(&eval), oracle(net, &w, d, &dead), "construction");
        for (k, step) in steps.iter().enumerate() {
            match *step {
                Step::W(e, nw) => {
                    let p = eval.probe(EdgeId(e), nw).unwrap();
                    w[e as usize] = nw;
                    let want = oracle(net, &w, d, &dead);
                    assert_eq!(bits_of(&p.loads, net.capacities()), want, "step {k}: probe");
                    assert_eq!((p.phi.to_bits(), p.mlu.to_bits()), (want.1, want.2));
                    eval.commit(p);
                }
                Step::Down(es) => {
                    let es: Vec<EdgeId> = es.iter().map(|&e| EdgeId(e)).collect();
                    let p = eval.probe_disable(&es).unwrap();
                    dead.extend(es);
                    let want = oracle(net, &w, d, &dead);
                    assert_eq!(bits_of(&p.loads, net.capacities()), want, "step {k}: probe");
                    assert_eq!((p.phi.to_bits(), p.mlu.to_bits()), (want.1, want.2));
                    eval.commit(p);
                }
                Step::Up(e) => {
                    assert!(eval.set_link_state(EdgeId(e), true).unwrap());
                    dead.retain(|&x| x != EdgeId(e));
                }
            }
            assert_eq!(
                eval_bits(&eval),
                oracle(net, &w, d, &dead),
                "step {k}: committed"
            );
        }
    }

    fn build(nodes: usize, links: &[(u32, u32)]) -> Network {
        let mut b = Network::builder(nodes);
        for &(u, v) in links {
            b.link(NodeId(u), NodeId(v), 1.0);
        }
        b.build().unwrap()
    }

    fn demand_list(pairs: &[(u32, u32, f64)]) -> DemandList {
        let mut d = DemandList::new();
        for &(s, t, x) in pairs {
            d.push(NodeId(s), NodeId(t), x);
        }
        d
    }

    #[test]
    fn respread_handles_parallel_equal_weight_edges() {
        // e0 and e1 are parallel 0 -> 1: node 1 takes two shares from the
        // same tail, added in edge-id order.
        let net = build(4, &[(0, 1), (0, 1), (1, 3), (0, 2), (2, 3), (2, 1)]);
        let d = demand_list(&[(0, 3, 3.0), (2, 3, 1.0), (0, 1, 0.7)]);
        let steps = [
            Step::W(3, 3.0),
            Step::W(1, 2.0),
            Step::W(1, 1.0),
            Step::W(0, 5.0),
            Step::Down(&[1]),
            Step::Up(1),
            Step::W(5, 2.0),
            Step::W(0, 1.0),
        ];
        walk(&net, &[1.0; 6], &d, &steps, None);
    }

    #[test]
    fn respread_handles_flow_at_or_below_eps() {
        // 1.5e-9 splits at node 0 into two 7.5e-10 halves, at or below EPS:
        // nodes 1 and 2 carry flow that goes no further until a probe
        // sends it all one way.
        let net = build(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let d = demand_list(&[(0, 3, 1.5e-9), (1, 3, 1.0)]);
        let steps = [
            Step::W(2, 3.0),
            Step::W(2, 1.0),
            Step::W(0, 2.0),
            Step::Down(&[2]),
            Step::Up(2),
        ];
        walk(&net, &[1.0; 4], &d, &steps, None);
    }

    #[test]
    fn respread_orders_moved_ties_by_node_id() {
        // Nodes 1 and 2 feed node 3. Node 2 starts farther from 4, so
        // node 3 sums 0.3 + 0.2 + 0.1 = 0.6; lowering e1 ties node 2 with
        // node 1, the lower id goes first and the sum is 0.3 + 0.1 + 0.2,
        // one ulp above 0.6. Raising it again restores the first order.
        let net = build(5, &[(1, 3), (2, 3), (3, 4), (0, 1), (0, 2)]);
        let d = demand_list(&[(1, 4, 0.1), (2, 4, 0.2), (3, 4, 0.3)]);
        let w = [1.0, 2.0, 1.0, 1.0, 1.0];
        walk(
            &net,
            &w,
            &d,
            &[Step::W(1, 1.0), Step::W(1, 3.0), Step::W(0, 2.0)],
            None,
        );
    }

    #[test]
    fn respread_handles_moved_nodes_without_flow() {
        // Node 4 sends nothing; moving it changes no flow, but its edges
        // flip on and off the DAG.
        let net = build(5, &[(0, 1), (1, 3), (0, 2), (2, 3), (4, 1), (4, 2)]);
        let d = demand_list(&[(0, 3, 2.0)]);
        let steps = [
            Step::W(4, 3.0),
            Step::W(5, 5.0),
            Step::W(4, 1.0),
            Step::W(1, 4.0),
        ];
        walk(&net, &[1.0; 6], &d, &steps, None);
    }

    #[test]
    fn failure_cuts_off_a_node_without_demand() {
        // Node 2 has no demand of its own but carries half of 0 -> 3; once
        // 2 -> 3 fails it cannot reach 3, which is no error, and 0 sends
        // everything over node 1.
        let net = build(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let d = demand_list(&[(0, 3, 2.0), (1, 3, 0.5)]);
        walk(&net, &[1.0; 4], &d, &[Step::Down(&[3]), Step::Up(3)], None);
    }

    #[test]
    fn two_dead_edges_on_one_dag_rebuild_exactly() {
        // e1 and e4 both lie on destination 3's DAG: the probe repairs it
        // with one bounded increase over both dead edges.
        let net = net();
        let d = demand_list(&[(0, 3, 2.0), (2, 3, 0.25)]);
        walk(
            &net,
            &[1.0; 5],
            &d,
            &[Step::Down(&[1, 4]), Step::Up(4), Step::Up(1)],
            None,
        );
    }

    #[test]
    fn frontier_fallback_stays_bit_identical() {
        // A cap of one affected node sends every repair that moves more
        // than one node to the full-Dijkstra diff and the full re-spread.
        let net = build(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 5),
                (0, 3),
                (3, 4),
                (4, 5),
                (1, 4),
                (0, 5),
            ],
        );
        let d = demand_list(&[(0, 5, 3.0), (1, 5, 1.0), (3, 5, 0.5), (0, 2, 0.25)]);
        let steps = [
            Step::W(7, 9.0),
            Step::W(2, 4.0),
            Step::W(2, 1.0),
            Step::Down(&[2]),
            Step::Up(2),
            Step::Down(&[6, 7]),
            Step::W(0, 3.0),
        ];
        walk(&net, &[1.0; 8], &d, &steps, Some(1));
        walk(&net, &[1.0; 8], &d, &steps, None);
    }

    #[test]
    fn unroutable_names_the_lowest_cut_source_of_the_lowest_destination() {
        // 3 -> 4 is the only way into 4, so failing it cuts sources 2 and
        // 1 of destination 4. The repair finds 2 first (its edge into 3 has
        // the lower id) and the demand list names 2 first; the error still
        // names source 1. Destination 5 also loses source 0 (5 is reached
        // only over 4), but 5 comes after 4.
        let net = build(6, &[(2, 3), (1, 3), (0, 3), (3, 4), (4, 5)]);
        let d = demand_list(&[(2, 4, 1.0), (1, 4, 1.0), (0, 5, 1.0)]);
        let w = WeightSetting::unit(&net);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        let before = eval_bits(&eval);
        let pending = eval.probe(EdgeId(0), 2.0).unwrap();
        let want = TeError::Unroutable {
            src: NodeId(1),
            dst: NodeId(4),
        };
        assert_eq!(eval.probe_disable(&[EdgeId(3)]).unwrap_err(), want);
        assert_eq!(eval.set_link_state(EdgeId(3), false).unwrap_err(), want);
        assert_eq!(eval_bits(&eval), before);
        eval.commit(pending);
    }
}
