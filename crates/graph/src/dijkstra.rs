//! Single-target shortest paths and the induced shortest-path DAG.
//!
//! ECMP routing is destination-driven: a router forwards a packet destined to
//! `t` over *all* outgoing links that lie on some shortest path to `t`
//! (paper §1.1). The natural primitive is therefore a Dijkstra run *towards* a
//! target over the reversed adjacency, yielding `dist(v, t)` for every `v`,
//! plus the subgraph of links `(u, v)` with `dist(u) = w(u,v) + dist(v)` —
//! the *shortest-path DAG* to `t`.
//!
//! Two queue engines back [`single_target_distances`], chosen by the
//! weights alone:
//!
//! * a **monotone bucket queue** (Dial's algorithm) for the integer weight
//!   domain `[1, w_max]` every optimizer in this workspace emits — O(1)
//!   pushes into a ring of `w_max + 1` buckets instead of heap sifts;
//! * the classic `BinaryHeap` for every other weight vector. It is also
//!   exposed as [`single_target_distances_heap`], the differential
//!   **oracle** the bucket queue is pinned against (see the `dag` kinds of
//!   `segrout_check::differential`, run by `tests/hotloop_differential.rs`).
//!
//! Integral weights make every finite distance an exact integer far below
//! 2^53, so both engines compute bit-identical `f64` distance vectors and —
//! through the shared `dag_from_dist` builder — bit-identical DAGs. The
//! dynamic repairs patch the previous DAG instead of rebuilding it, with the
//! same tight-edge predicate and order key, so their DAGs are bit-identical
//! to a from-scratch build as well.
//!
//! Every entry point takes a **disabled-edge mask** (`disabled: &[bool]`):
//! either one flag per edge, or the empty slice for the intact topology,
//! which runs loops compiled without the mask test. A disabled edge is
//! skipped during relaxation and excluded from the tight-edge scan, which
//! is *exactly* the arithmetic of deleting the edge and re-running from
//! scratch — the remaining edges relax in the same order with the same
//! `f64` operations, so masked results are bit-identical to the
//! edge-deleted graph. This is how link failures are modelled: weights
//! stay finite (the bucket queue keeps its `[1, MAX_DIAL_WEIGHT]` domain)
//! and a failure is a mask bit, not a weight perturbation. Nodes cut off by
//! a failure end at [`INFINITY`], a classified outcome rather than an error.
//! The one repair entry point, [`DagRepair::repair`], still treats a mask
//! bit like a weight: links going down are an increase to ∞ on every dead
//! edge at once, and a link coming back up is a decrease from ∞.

use crate::digraph::{Digraph, EdgeId, NodeId};
use crate::{approx_eq, EPS};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Distance value for unreachable nodes.
pub const INFINITY: f64 = f64::INFINITY;

/// Largest integral weight the bucket queue accepts. Beyond this the ring
/// of `w_max + 1` buckets stops paying for itself and the heap engine takes
/// over. Fortz–Thorup weight search stays in `[1, ~20]`; this cap leaves two
/// orders of magnitude of headroom.
pub const MAX_DIAL_WEIGHT: u32 = 4096;

/// The `dijkstra.*` counter handles, resolved once: Dijkstra runs are
/// frequent and short, so they must not pay a registry lookup each time.
/// Order: (relaxations, runs, bucket_ops).
fn counters() -> &'static (
    std::sync::Arc<segrout_obs::Counter>,
    std::sync::Arc<segrout_obs::Counter>,
    std::sync::Arc<segrout_obs::Counter>,
) {
    static HANDLES: std::sync::OnceLock<(
        std::sync::Arc<segrout_obs::Counter>,
        std::sync::Arc<segrout_obs::Counter>,
        std::sync::Arc<segrout_obs::Counter>,
    )> = std::sync::OnceLock::new();
    HANDLES.get_or_init(|| {
        (
            segrout_obs::counter("dijkstra.relaxations"),
            segrout_obs::counter("dijkstra.runs"),
            segrout_obs::counter("dijkstra.bucket_ops"),
        )
    })
}

/// Min-heap entry: (distance, node), ordered by smallest distance first.
#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest distance.
        // Distances are never NaN (weights are validated positive finite).
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

/// `true` iff the mask marks edge `e` disabled. An empty mask (the common
/// intact-topology case) disables nothing and costs one length check.
#[inline]
pub fn edge_disabled(disabled: &[bool], e: EdgeId) -> bool {
    !disabled.is_empty() && disabled[e.index()]
}

/// A disabled-edge mask is either empty (nothing disabled) or one flag per
/// edge — any other length is a construction bug upstream.
fn check_mask(g: &Digraph, disabled: &[bool]) {
    assert!(
        disabled.is_empty() || disabled.len() == g.edge_count(),
        "disabled mask length {} must be empty or match edge count {}",
        disabled.len(),
        g.edge_count()
    );
}

/// Checks whether `weights` lies in the bucket-queue domain: every weight an
/// exact integer in `[1, MAX_DIAL_WEIGHT]`, with all shortest-path sums
/// (< `n` hops each) guaranteed to fit `u32`. Returns the maximum weight.
fn dial_weight_domain(n: usize, weights: &[f64]) -> Option<u32> {
    let mut wmax = 0u32;
    for &w in weights {
        if !(1.0..=MAX_DIAL_WEIGHT as f64).contains(&w) || w.fract() != 0.0 {
            return None;
        }
        wmax = wmax.max(w as u32);
    }
    if (n as u64) * (wmax as u64) >= u32::MAX as u64 {
        return None;
    }
    Some(wmax)
}

/// Reusable bucket-queue scratch. The ring buckets drain empty on every run
/// (each push is matched by a pop before termination), so only `dist_int`
/// and the integerized weights need re-filling per run — the bucket `Vec`s
/// keep their capacity across the millions of runs a weight search performs.
struct DialScratch {
    dist_int: Vec<u32>,
    wi: Vec<u32>,
    ring: Vec<Vec<u32>>,
}

thread_local! {
    static DIAL: RefCell<DialScratch> = const {
        RefCell::new(DialScratch {
            dist_int: Vec::new(),
            wi: Vec::new(),
            ring: Vec::new(),
        })
    };
}

/// Dial's algorithm: monotone Dijkstra over a ring of `wmax + 1` buckets.
/// Requires `dial_weight_domain` to have accepted `weights`. The `MASKED`
/// instantiation skips disabled edges during relaxation (monomorphized so
/// the intact-topology loop carries no mask branch).
fn dial_run<const MASKED: bool>(
    g: &Digraph,
    weights: &[f64],
    wmax: u32,
    target: NodeId,
    disabled: &[bool],
    out: &mut Vec<f64>,
) {
    let n = g.node_count();
    let ring_len = wmax as usize + 1;
    DIAL.with(|s| {
        let mut s = s.borrow_mut();
        let DialScratch { dist_int, wi, ring } = &mut *s;
        dist_int.clear();
        dist_int.resize(n, u32::MAX);
        wi.clear();
        wi.extend(weights.iter().map(|&w| w as u32));
        if ring.len() < ring_len {
            ring.resize_with(ring_len, Vec::new);
        }

        dist_int[target.index()] = 0;
        ring[0].push(target.0);
        let mut pending = 1usize;
        let mut cur: u64 = 0;
        let mut relaxations: u64 = 0;
        let mut bucket_ops: u64 = 1;
        while pending > 0 {
            let b = (cur % ring_len as u64) as usize;
            while let Some(vi) = ring[b].pop() {
                pending -= 1;
                if dist_int[vi as usize] as u64 != cur {
                    continue; // stale entry superseded by a later decrease
                }
                // Settled: monotonicity means no future relaxation can
                // produce a key < cur, and strict-improvement pushes mean at
                // most one live entry per (node, key) pair.
                for &e in g.in_edges(NodeId(vi)) {
                    if MASKED && disabled[e.index()] {
                        continue;
                    }
                    let u = g.src(e);
                    relaxations += 1;
                    let nd = cur as u32 + wi[e.index()];
                    if nd < dist_int[u.index()] {
                        dist_int[u.index()] = nd;
                        // nd ∈ [cur+1, cur+wmax] never aliases bucket b.
                        ring[nd as usize % ring_len].push(u.0);
                        pending += 1;
                        bucket_ops += 1;
                    }
                }
            }
            cur += 1;
        }

        let (relax_counter, runs_counter, bucket_counter) = counters();
        relax_counter.add(relaxations);
        runs_counter.inc();
        bucket_counter.add(bucket_ops);

        out.clear();
        out.extend(
            dist_int
                .iter()
                .map(|&d| if d == u32::MAX { INFINITY } else { d as f64 }),
        );
    })
}

/// Reusable `BinaryHeap` scratch, per thread like [`DialScratch`]: the heap
/// drains empty on every run, so only the settled flags need re-filling,
/// and a full-Dijkstra fallback under non-integral weights allocates
/// nothing once the scratch has grown.
struct HeapScratch {
    done: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
}

thread_local! {
    static HEAP: RefCell<HeapScratch> = const {
        RefCell::new(HeapScratch {
            done: Vec::new(),
            heap: BinaryHeap::new(),
        })
    };
}

/// The `BinaryHeap` engine, shared by both public entry points. As with
/// [`dial_run`], the `MASKED` instantiation skips disabled edges.
fn heap_run<const MASKED: bool>(
    g: &Digraph,
    weights: &[f64],
    target: NodeId,
    disabled: &[bool],
    dist: &mut Vec<f64>,
) {
    let n = g.node_count();
    dist.clear();
    dist.resize(n, INFINITY);
    HEAP.with(|s| {
        let mut s = s.borrow_mut();
        let HeapScratch { done, heap } = &mut *s;
        done.clear();
        done.resize(n, false);
        dist[target.index()] = 0.0;
        heap.push(HeapEntry {
            dist: 0.0,
            node: target,
        });

        // Relaxations are tallied locally and flushed with one atomic add
        // per run, so the inner loop stays free of shared-memory traffic.
        let mut relaxations: u64 = 0;
        while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
            if done[v.index()] {
                continue;
            }
            done[v.index()] = true;
            // Relax incoming edges: a path u -> v -> ... -> target.
            for &e in g.in_edges(v) {
                if MASKED && disabled[e.index()] {
                    continue;
                }
                let u = g.src(e);
                let nd = d + weights[e.index()];
                relaxations += 1;
                if nd + EPS < dist[u.index()] {
                    dist[u.index()] = nd;
                    heap.push(HeapEntry { dist: nd, node: u });
                }
            }
        }
        let (relax_counter, runs_counter, _) = counters();
        relax_counter.add(relaxations);
        runs_counter.inc();
    })
}

fn check_weights(g: &Digraph, weights: &[f64]) {
    assert_eq!(
        weights.len(),
        g.edge_count(),
        "weight vector length must match edge count"
    );
    debug_assert!(
        weights.iter().all(|w| w.is_finite() && *w > 0.0),
        "link weights must be positive finite reals"
    );
}

/// Computes `dist(v, target)` for every node `v`, i.e. the cost of the
/// cheapest directed path from `v` to `target` under `weights`, skipping the
/// edges `disabled` marks.
///
/// `disabled` is empty (the intact topology) or holds one flag per edge; a
/// disabled edge is skipped exactly as if deleted (bit-identical distances —
/// see module docs). Weights of disabled edges must still be valid (they are
/// never read into a path sum but keep the bucket-queue weight domain
/// decidable). Unreachable nodes get [`INFINITY`]. Dispatches to the
/// bucket-queue engine when the weights are integral in
/// `[1, MAX_DIAL_WEIGHT]` (bit-identical result — see module docs), to the
/// `BinaryHeap` engine otherwise.
///
/// # Panics
/// Panics if `weights.len() != g.edge_count()`, if the mask is neither empty
/// nor one flag per edge, or if any weight is not a strictly positive finite
/// number (the paper's weight settings map every link to a positive real).
pub fn single_target_distances(
    g: &Digraph,
    weights: &[f64],
    target: NodeId,
    disabled: &[bool],
) -> Vec<f64> {
    let mut dist = Vec::new();
    distances_into(g, weights, target, disabled, &mut dist);
    dist
}

/// [`single_target_distances`] into a caller-owned buffer, so a repair's
/// full-Dijkstra fallback reuses one slab instead of allocating per run.
fn distances_into(
    g: &Digraph,
    weights: &[f64],
    target: NodeId,
    disabled: &[bool],
    dist: &mut Vec<f64>,
) {
    check_weights(g, weights);
    check_mask(g, disabled);
    match dial_weight_domain(g.node_count(), weights) {
        Some(wmax) if disabled.is_empty() => {
            dial_run::<false>(g, weights, wmax, target, disabled, dist)
        }
        Some(wmax) => dial_run::<true>(g, weights, wmax, target, disabled, dist),
        None => heap_engine(g, weights, target, disabled, dist),
    }
}

/// The `BinaryHeap` engine, exposed as the differential oracle for the
/// bucket queue. Same contract as [`single_target_distances`].
pub fn single_target_distances_heap(
    g: &Digraph,
    weights: &[f64],
    target: NodeId,
    disabled: &[bool],
) -> Vec<f64> {
    check_weights(g, weights);
    check_mask(g, disabled);
    let mut dist = Vec::new();
    heap_engine(g, weights, target, disabled, &mut dist);
    dist
}

/// Picks the `BinaryHeap` instantiation for the mask.
fn heap_engine(
    g: &Digraph,
    weights: &[f64],
    target: NodeId,
    disabled: &[bool],
    dist: &mut Vec<f64>,
) {
    if disabled.is_empty() {
        heap_run::<false>(g, weights, target, disabled, dist)
    } else {
        heap_run::<true>(g, weights, target, disabled, dist)
    }
}

/// The shortest-path DAG towards a fixed target node, stored in flat
/// CSR-style arenas (an offset slab plus an edge-id slab) instead of
/// per-node `Vec`s — one contiguous allocation the evaluator hot loop can
/// walk without pointer chasing.
///
/// Produced by [`shortest_path_dag`]; consumed by the ECMP flow engine and by
/// the waypoint optimizer, which both propagate flow along `order`.
#[derive(Clone, Debug)]
pub struct SpDag {
    /// The destination all distances refer to.
    pub target: NodeId,
    /// `dist[v]` = cost of the cheapest `v -> target` path ([`INFINITY`] if
    /// none exists).
    pub dist: Vec<f64>,
    /// `edge_on_dag[e]` is `true` iff edge `e = (u, v)` satisfies
    /// `dist(u) = w(e) + dist(v)`, i.e. lies on some shortest path to the
    /// target.
    pub edge_on_dag: Vec<bool>,
    /// CSR row offsets into `dag_edges`, length `n + 1`: node `v`'s ECMP
    /// next-hop edges are `dag_edges[dag_start[v] .. dag_start[v + 1]]`.
    pub dag_start: Vec<u32>,
    /// Flat slab of on-DAG edges grouped by tail node, ascending edge id
    /// within each group.
    pub dag_edges: Vec<EdgeId>,
    /// Nodes with a finite distance, sorted by *decreasing* distance. Since
    /// weights are strictly positive this is a topological order of the DAG:
    /// every DAG edge goes from an earlier to a later element.
    pub order: Vec<NodeId>,
}

impl SpDag {
    /// The ECMP next-hop edge set of `v` towards the target.
    #[inline]
    pub fn dag_out(&self, v: NodeId) -> &[EdgeId] {
        let lo = self.dag_start[v.index()] as usize;
        let hi = self.dag_start[v.index() + 1] as usize;
        &self.dag_edges[lo..hi]
    }

    /// ECMP split degree of `v` towards the target (number of shortest-path
    /// next hops).
    #[inline]
    pub fn split_degree(&self, v: NodeId) -> usize {
        (self.dag_start[v.index() + 1] - self.dag_start[v.index()]) as usize
    }

    /// `true` if a shortest path from `v` to the target exists.
    #[inline]
    pub fn reaches_target(&self, v: NodeId) -> bool {
        self.dist[v.index()].is_finite()
    }
}

/// Exclusive prefix sum of per-row counts into `u32` CSR offsets (length
/// `counts.len() + 1`).
///
/// Guards the flat-arena representation: the running total must fit `u32`,
/// so a graph whose edge count would overflow the offset type is rejected
/// loudly instead of silently wrapping slab indices.
pub fn csr_offsets(counts: &[u32]) -> Vec<u32> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut total: u64 = 0;
    offsets.push(0u32);
    for &c in counts {
        total += c as u64;
        assert!(
            total <= u32::MAX as u64,
            "CSR arena overflow: {total} edges exceed the u32 offset range"
        );
        offsets.push(total as u32);
    }
    offsets
}

/// Builds the shortest-path DAG towards `target` under `weights`, with the
/// edges `disabled` marks excluded (empty mask: the intact topology).
///
/// Edge membership uses the scaled tolerance of [`approx_eq`], so weight
/// settings produced from exact integer arithmetic (all optimizers in this
/// workspace emit integral weights) classify ties exactly. Disabled edges
/// are excluded both from the distance computation and from the tight-edge
/// scan (a disabled edge can be numerically tight — e.g. one of two parallel
/// equal-weight links — but never carries flow), so the DAG is bit-identical
/// to building it on a copy of the graph with the masked edges deleted.
pub fn shortest_path_dag(g: &Digraph, weights: &[f64], target: NodeId, disabled: &[bool]) -> SpDag {
    let dist = single_target_distances(g, weights, target, disabled);
    dag_from_dist(g, weights, target, dist, disabled)
}

/// Per-thread scratch for [`dag_from_dist`] and [`patch_dag`]: the
/// tight-edge list, the per-node counters and the patch's row and order
/// edits are pure build intermediates, so they live in reusable slabs
/// instead of being reallocated on every commit.
struct DagScratch {
    /// `(tail, edge)` pairs of tight edges, in ascending edge-id order.
    tight: Vec<(u32, EdgeId)>,
    /// Out-degree counts, then reused as the CSR fill cursor.
    counts: Vec<u32>,
    /// Tails of the edges whose on-DAG flag the patch flips.
    dirty_rows: Vec<u32>,
    /// Positions in the old order of the nodes the patch moves out.
    removed: Vec<usize>,
    /// Moved nodes still reaching the target, with their insert positions.
    inserted: Vec<(usize, NodeId)>,
}

thread_local! {
    static DAG_SCRATCH: RefCell<DagScratch> = const {
        RefCell::new(DagScratch {
            tight: Vec::new(),
            counts: Vec::new(),
            dirty_rows: Vec::new(),
            removed: Vec::new(),
            inserted: Vec::new(),
        })
    };
}

/// The tight-edge predicate: `e = (u, v)` lies on the DAG iff it is enabled,
/// both ends reach the target and `dist(u) = w(e) + dist(v)` within the
/// scaled tolerance of [`approx_eq`]. The full scan, the patch and the
/// repair's per-edge query all decide membership through this one function.
#[inline]
fn is_tight(weights: &[f64], disabled: &[bool], e: EdgeId, du: f64, dv: f64) -> bool {
    !edge_disabled(disabled, e)
        && du.is_finite()
        && dv.is_finite()
        && approx_eq(du, weights[e.index()] + dv)
}

/// Compares `(distance, node)` order keys: decreasing distance, then
/// ascending node id. A strict total order over non-negative distances
/// (∞ first), where `total_cmp` agrees bit-for-bit with the IEEE
/// `partial_cmp`, so [`SpDag::order`] is the unique permutation of the
/// reachable nodes sorted by it. Flow propagation visits nodes in this
/// order, so it also fixes the order in which a node's inflow is summed.
#[inline]
pub fn order_cmp((da, a): (f64, NodeId), (db, b): (f64, NodeId)) -> Ordering {
    db.total_cmp(&da).then_with(|| a.0.cmp(&b.0))
}

/// Materializes the DAG structure (`edge_on_dag`, the CSR slabs, `order`)
/// from an already-correct distance vector: the from-scratch build.
///
/// One pass over `g.edges()` in ascending edge-id order collects the tight
/// edges; counting and CSR placement then walk that (much shorter) list in
/// the same order, so each CSR row lists its tail's tight out-edges by
/// ascending edge id. The order is a full sort under [`order_cmp`].
/// Repairs do not come through here: [`patch_dag`] derives the same
/// `SpDag` from the previous one and a repair's diff.
fn dag_from_dist(
    g: &Digraph,
    weights: &[f64],
    target: NodeId,
    dist: Vec<f64>,
    disabled: &[bool],
) -> SpDag {
    let n = g.node_count();
    let mut edge_on_dag = vec![false; g.edge_count()];

    DAG_SCRATCH.with(|s| {
        let DagScratch { tight, counts, .. } = &mut *s.borrow_mut();
        tight.clear();
        counts.clear();
        counts.resize(n, 0);
        for (e, u, v) in g.edges() {
            if is_tight(weights, disabled, e, dist[u.index()], dist[v.index()]) {
                edge_on_dag[e.index()] = true;
                tight.push((u.0, e));
                counts[u.index()] += 1;
            }
        }

        let dag_start = csr_offsets(counts);
        // Reuse `counts` as the fill cursor (the counts are consumed).
        counts.copy_from_slice(&dag_start[..n]);
        let mut dag_edges = vec![EdgeId(0); *dag_start.last().unwrap() as usize];
        for &(u, e) in tight.iter() {
            dag_edges[counts[u as usize] as usize] = e;
            counts[u as usize] += 1;
        }

        let mut order: Vec<NodeId> = g.nodes().filter(|v| dist[v.index()].is_finite()).collect();
        order.sort_unstable_by(|&a, &b| order_cmp((dist[a.index()], a), (dist[b.index()], b)));

        SpDag {
            target,
            dist,
            edge_on_dag,
            dag_start,
            dag_edges,
            order,
        }
    })
}

/// The apply half of a repair: derives the repaired DAG from `prev` and a
/// repair's moved nodes ([`DagRepair::moved`]) instead of rebuilding it.
/// The result is byte-identical to [`shortest_path_dag`] under the new
/// weights and mask, at a cost proportional to the repair plus the copies
/// of `prev`'s slabs.
///
/// Preconditions, which every [`DagRepair`] diff meets: `prev` is the DAG
/// of `prev.dist` under the old weights and mask; `moved` lists each node
/// whose distance changed once, with its new distance; and the new
/// `weights` and mask `disabled` differ from the old ones only at the
/// `changed` edges, or at edges off `prev` that the new mask disables.
///
/// * **Edge set.** The tight predicate (`is_tight`) of an edge reads its
///   weight, its mask bit and the distances of its two ends. Only the
///   `changed` edges and the edges incident to a moved node can see
///   different inputs, so only they are re-tested; every other edge keeps
///   its flag. (A newly masked edge off `prev` was not tight and stays not
///   tight.) [`DagRepair::on_dag`] answers the same question for one edge
///   without building anything.
/// * **CSR rows.** A row lists its tail's on-DAG out-edges by ascending
///   edge id. Rows whose tail has no flipped edge are copied from `prev`;
///   the others are re-read from `g.out_edges`, which is in ascending edge
///   id order, the order the full scan emits.
/// * **Order.** Nodes that did not move keep their keys, so `prev.order`
///   without the moved nodes is still sorted under [`order_cmp`]. Merging
///   the moved nodes that still reach the target, sorted by the same key,
///   yields the unique sorted permutation the full sort produces. Binary
///   search on the old keys finds where each moved node was and where its
///   new key falls among the nodes that stayed, so the unmoved runs are
///   copied in blocks.
pub fn patch_dag(
    g: &Digraph,
    weights: &[f64],
    disabled: &[bool],
    prev: &SpDag,
    moved: &[(NodeId, f64)],
    changed: &[EdgeId],
) -> SpDag {
    let n = g.node_count();
    let mut dist = prev.dist.clone();
    for &(x, d) in moved {
        dist[x.index()] = d;
    }
    let mut edge_on_dag = prev.edge_on_dag.clone();

    DAG_SCRATCH.with(|s| {
        let DagScratch {
            dirty_rows,
            removed,
            inserted,
            ..
        } = &mut *s.borrow_mut();
        dirty_rows.clear();

        // Re-test an edge; on a flip, note its tail's row. An edge reached
        // twice is a no-op the second time.
        let mut retest = |e: EdgeId| {
            let (a, b) = g.endpoints(e);
            let tight = is_tight(weights, disabled, e, dist[a.index()], dist[b.index()]);
            if tight != edge_on_dag[e.index()] {
                edge_on_dag[e.index()] = tight;
                dirty_rows.push(a.0);
            }
        };
        for &e in changed {
            retest(e);
        }
        for &(x, _) in moved {
            for &e in g.out_edges(x).iter().chain(g.in_edges(x)) {
                retest(e);
            }
        }

        // Each flip adds at most one edge to the slab.
        let mut dag_edges = Vec::with_capacity(prev.dag_edges.len() + dirty_rows.len());
        let mut dag_start: Vec<u32> = Vec::with_capacity(n + 1);
        dirty_rows.sort_unstable();
        dirty_rows.dedup();
        // Clean rows `lo..hi` move as one block: their edges are copied in
        // one slice and their offsets shifted by the same amount. Offsets
        // stay within u32: at most `m` edges, and `add_edge` bounds `m`.
        let copy_clean = |dag_start: &mut Vec<u32>, dag_edges: &mut Vec<EdgeId>, lo, hi| {
            let (from, to) = (prev.dag_start[lo], prev.dag_start[hi]);
            let shift = (dag_edges.len() as u32).wrapping_sub(from);
            let starts = prev.dag_start[lo..hi].iter();
            dag_start.extend(starts.map(|&s| s.wrapping_add(shift)));
            dag_edges.extend_from_slice(&prev.dag_edges[from as usize..to as usize]);
        };
        let mut next = 0usize;
        for &t in dirty_rows.iter() {
            let t = t as usize;
            copy_clean(&mut dag_start, &mut dag_edges, next, t);
            dag_start.push(dag_edges.len() as u32);
            let row = g.out_edges(NodeId(t as u32)).iter();
            dag_edges.extend(row.filter(|e| edge_on_dag[e.index()]));
            next = t + 1;
        }
        copy_clean(&mut dag_start, &mut dag_edges, next, n);
        dag_start.push(dag_edges.len() as u32);

        // Moved nodes leave `prev.order` and, if they still reach the
        // target, go back in before the first old key above their new key
        // (only nodes that stayed count: the moved ones are skipped anyway).
        let old_key = |v: NodeId| (prev.dist[v.index()], v);
        let new_key = |v: NodeId| (dist[v.index()], v);
        let rank = |k| {
            let below = |&y: &NodeId| order_cmp(old_key(y), k) == Ordering::Less;
            prev.order.partition_point(below)
        };
        removed.clear();
        inserted.clear();
        for &(x, new) in moved {
            if prev.dist[x.index()].is_finite() {
                removed.push(rank(old_key(x)));
            }
            if new.is_finite() {
                inserted.push((rank(new_key(x)), x));
            }
        }
        removed.sort_unstable();
        inserted.sort_unstable_by(|&(_, a), &(_, b)| order_cmp(new_key(a), new_key(b)));
        let mut order = Vec::with_capacity(prev.order.len() - removed.len() + inserted.len());
        let mut gone = removed.iter().copied().peekable();
        let mut next = 0usize;
        let end = (prev.order.len(), None);
        for (p, x) in inserted.iter().map(|&(p, x)| (p, Some(x))).chain([end]) {
            while let Some(q) = gone.next_if(|&q| q < p) {
                order.extend_from_slice(&prev.order[next..q]);
                next = q + 1;
            }
            order.extend_from_slice(&prev.order[next..p]);
            next = p;
            order.extend(x);
        }

        SpDag {
            target: prev.target,
            dist,
            edge_on_dag,
            dag_start,
            dag_edges,
            order,
        }
    })
}

/// Cheap dirty test: can changing edge `e` from `old_w` to `new_w` alter
/// `dag`'s shortest-path structure at all?
///
/// * Weight **increase**: only if `e` currently lies on the DAG — paths that
///   avoid `e` are untouched, and no path gets *shorter* when a weight grows.
/// * Weight **decrease**: only if the cheapened edge now matches or beats the
///   current distance at its tail, `new_w + dist(v) ≲ dist(u)` — otherwise
///   every shortest path keeps ignoring `e`.
///
/// A `false` answer is exact (the DAG provably cannot change); `true` means
/// "possibly dirty" and callers run the repair.
fn edge_change_affects_dag(dag: &SpDag, e: EdgeId, u: NodeId, v: NodeId, new_w: f64) -> bool {
    let dv = dag.dist[v.index()];
    if !dv.is_finite() {
        // `e` can never be on a shortest path towards this target.
        return false;
    }
    if dag.edge_on_dag[e.index()] {
        // Any change of an on-DAG edge weight moves dist(u) or drops a tie.
        return true;
    }
    // Off-DAG edge: only a decrease that reaches the current distance at `u`
    // can pull `e` (and possibly cheaper paths through it) onto the DAG.
    let cand = new_w + dv;
    let du = dag.dist[u.index()];
    cand + EPS < du || approx_eq(cand, du)
}

/// How [`DagRepair::repair`] absorbed a change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairOutcome {
    /// The change cannot alter the DAG, which stays `prev`. The scratch was
    /// not touched and holds no diff of this change.
    Unchanged,
    /// A bounded dynamic-Dijkstra update produced the diff.
    Repaired,
    /// The affected set exceeded the frontier cap; a full Dijkstra produced
    /// the diff.
    Rebuilt,
}

/// The one repair of a shortest-path DAG after an edge change, and its
/// reusable scratch: [`repair`](Self::repair) decides whether a change can
/// touch a DAG and, if it can, leaves the repaired distances as an overlay
/// on the previous DAG's and the nodes that moved, and answers whether an
/// edge is on the repaired DAG ([`on_dag`](Self::on_dag)). [`patch_dag`]
/// turns such a diff into the repaired [`SpDag`]; the incremental evaluator
/// reads the diff directly and builds DAGs only for the changes it commits.
///
/// Every per-node and per-edge slot carries the stamp of the repair that
/// wrote it and counts as unset under any other stamp, so a repair starts
/// with no O(n) clear, no copy of the previous distances and, once the
/// slabs have grown to the graph, no allocation. Support counts are read
/// lazily from the previous DAG's CSR offsets.
#[derive(Default)]
pub struct DagRepair {
    /// Stamp of the current repair (0 is never current).
    epoch: u32,
    /// Distance overlay: `dist[v]` is `v`'s repaired distance where
    /// `dist_at[v]` is current, the previous DAG's elsewhere.
    dist_at: Vec<u32>,
    dist: Vec<f64>,
    /// Affected (increase) or improved (decrease) mark.
    mark_at: Vec<u32>,
    /// Settled mark of the increase repair's restricted Dijkstra.
    done_at: Vec<u32>,
    /// Remaining DAG out-edges still justifying a node's old distance.
    support_at: Vec<u32>,
    support: Vec<u32>,
    /// Changed mark per edge: the edges whose weight or mask bit differs
    /// from the previous DAG's state.
    changed_at: Vec<u32>,
    /// Marked nodes in discovery order (the increase repair's BFS queue).
    touched: Vec<NodeId>,
    /// Nodes whose distance changed bits, with the new distance.
    moved: Vec<(NodeId, f64)>,
    heap: BinaryHeap<HeapEntry>,
    /// Distance slab of the full-Dijkstra fallback.
    full: Vec<f64>,
}

impl DagRepair {
    /// Starts a new diff: bumps the stamp (clearing every slot only when it
    /// wraps) and grows the slabs to the graph.
    fn begin(&mut self, n: usize, m: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for stamps in [
                &mut self.dist_at,
                &mut self.mark_at,
                &mut self.done_at,
                &mut self.support_at,
                &mut self.changed_at,
            ] {
                stamps.fill(0);
            }
            self.epoch = 1;
        }
        if self.dist_at.len() < n {
            self.dist_at.resize(n, 0);
            self.dist.resize(n, 0.0);
            self.mark_at.resize(n, 0);
            self.done_at.resize(n, 0);
            self.support_at.resize(n, 0);
            self.support.resize(n, 0);
        }
        if self.changed_at.len() < m {
            self.changed_at.resize(m, 0);
        }
        self.touched.clear();
        self.moved.clear();
        self.heap.clear();
    }

    /// Starts a new diff for a change of the `changed` edges.
    fn begin_change(&mut self, g: &Digraph, changed: &[EdgeId]) {
        self.begin(g.node_count(), g.edge_count());
        for e in changed {
            self.changed_at[e.index()] = self.epoch;
        }
    }

    /// `v`'s distance after the last repair against `prev`.
    #[inline]
    pub fn dist(&self, prev: &SpDag, v: NodeId) -> f64 {
        if self.dist_at[v.index()] == self.epoch {
            self.dist[v.index()]
        } else {
            prev.dist[v.index()]
        }
    }

    #[inline]
    fn set_dist(&mut self, v: NodeId, d: f64) {
        self.dist_at[v.index()] = self.epoch;
        self.dist[v.index()] = d;
    }

    /// Whether edge `e = (a, b)` is on the DAG after the last repair
    /// against `prev`, under the new `weights` and mask `disabled` the
    /// repair ran with. An edge that did not change and touches no node
    /// the repair wrote sees its old inputs and keeps `prev`'s flag; any
    /// other edge is re-tested against the repaired distances, as
    /// [`patch_dag`] does. The caller passes `e`'s endpoints, which it
    /// holds wherever it walks adjacency lists.
    #[inline]
    pub fn on_dag(
        &self,
        weights: &[f64],
        disabled: &[bool],
        prev: &SpDag,
        e: EdgeId,
        (a, b): (NodeId, NodeId),
    ) -> bool {
        let written = |v: NodeId| self.dist_at[v.index()] == self.epoch;
        if !written(a) && !written(b) && self.changed_at[e.index()] != self.epoch {
            return prev.edge_on_dag[e.index()];
        }
        is_tight(weights, disabled, e, self.dist(prev, a), self.dist(prev, b))
    }

    /// The nodes whose distance the last repair changed, each once with its
    /// new distance ([`INFINITY`]: cut off from the target).
    #[inline]
    pub fn moved(&self) -> &[(NodeId, f64)] {
        &self.moved
    }

    #[inline]
    fn marked(&self, v: NodeId) -> bool {
        self.mark_at[v.index()] == self.epoch
    }

    #[inline]
    fn mark(&mut self, v: NodeId) {
        self.mark_at[v.index()] = self.epoch;
        self.touched.push(v);
    }

    /// Takes one justifying out-edge from `v`'s support and returns what is
    /// left; an unset slot starts at `v`'s out-degree on `prev`.
    #[inline]
    fn drop_support(&mut self, prev: &SpDag, v: NodeId) -> u32 {
        let i = v.index();
        if self.support_at[i] != self.epoch {
            self.support_at[i] = self.epoch;
            self.support[i] = prev.split_degree(v) as u32;
        }
        self.support[i] -= 1;
        self.support[i]
    }

    /// Decides how the DAG `prev` absorbs a change of the `changed` edges
    /// and, unless the change provably cannot alter it, diffs `prev`
    /// against the DAG after the change. `weights` and `disabled` are the
    /// **new** weight vector and mask; `prev` was built under the old ones,
    /// which differ from them only at the `changed` edges. A link-state
    /// change is a weight change at its limit:
    ///
    /// * **One edge that `disabled` leaves up** is a weight change from
    ///   `old_w` to `weights[e]`; a link coming back up is a decrease from
    ///   ∞ (`old_w = f64::INFINITY`). An unchanged weight, or a change
    ///   `edge_change_affects_dag` rules out, is
    ///   [`Unchanged`](RepairOutcome::Unchanged).
    /// * **Otherwise every changed edge is masked**: links going down, each
    ///   a weight increase to ∞, and `old_w` is not read. The list may name
    ///   an edge twice, or edges off `prev`. If no dead edge is on `prev`,
    ///   the change is `Unchanged`, since removal never adds a tight edge;
    ///   otherwise one increase repair runs over every dead edge at once.
    ///   Nodes whose every path used a dead edge end at [`INFINITY`] and
    ///   leave `order`, a classified outcome, not an error.
    ///
    /// The decision reads only `prev`, so a change that cannot touch the
    /// DAG costs a few flag reads and leaves the scratch as it was. The
    /// repair follows Ramalingam–Reps: identify the affected node set,
    /// re-run Dijkstra restricted to it (a `BinaryHeap`: repair frontiers
    /// are small, where a heap beats a distance-spanning bucket ring), and
    /// keep the nodes whose distance changed bits as
    /// [`moved`](Self::moved). The distance work is proportional to the set
    /// of nodes whose distance changes; above `frontier_cap` of them the
    /// bounded repair is abandoned for a full Dijkstra under the new mask
    /// ([`Rebuilt`](RepairOutcome::Rebuilt)). No edge is re-tested here:
    /// the edge set is derived where it is read ([`on_dag`](Self::on_dag),
    /// [`patch_dag`]).
    ///
    /// With tie-exact weights (e.g. the integral vectors every optimizer in
    /// this workspace emits) the DAG [`patch_dag`] derives from the diff is
    /// **bit-identical** to [`shortest_path_dag`] on the new weights and
    /// mask: both compute the exact distance minima, the patch decides
    /// edge membership with the same predicate on the same inputs as the
    /// full scan, and the order is the unique permutation under the same
    /// key.
    #[allow(clippy::too_many_arguments)] // the change, both states and the cap, flat
    pub fn repair(
        &mut self,
        g: &Digraph,
        weights: &[f64],
        prev: &SpDag,
        changed: &[EdgeId],
        old_w: f64,
        frontier_cap: usize,
        disabled: &[bool],
    ) -> RepairOutcome {
        check_mask(g, disabled);
        match *changed {
            [e] if !edge_disabled(disabled, e) => {
                let (u, v) = g.endpoints(e);
                let new_w = weights[e.index()];
                if new_w == old_w || !edge_change_affects_dag(prev, e, u, v, new_w) {
                    return RepairOutcome::Unchanged;
                }
                if new_w < old_w {
                    return self.decrease(g, weights, prev, e, frontier_cap, disabled);
                }
            }
            _ => {
                debug_assert!(
                    changed.iter().all(|&e| edge_disabled(disabled, e)),
                    "a change of several edges takes links down: the mask disables each"
                );
                if !changed.iter().any(|e| prev.edge_on_dag[e.index()]) {
                    return RepairOutcome::Unchanged;
                }
            }
        }
        self.increase(g, weights, prev, changed, frontier_cap, disabled)
    }

    /// The full-Dijkstra diff: a fresh stamp drops whatever an abandoned
    /// bounded repair wrote, and every node whose distance changed bits
    /// moves.
    fn full_diff(
        &mut self,
        g: &Digraph,
        weights: &[f64],
        prev: &SpDag,
        changed: &[EdgeId],
        disabled: &[bool],
    ) -> RepairOutcome {
        self.begin_change(g, changed);
        let mut full = std::mem::take(&mut self.full);
        distances_into(g, weights, prev.target, disabled, &mut full);
        for (i, (&d, &old)) in full.iter().zip(&prev.dist).enumerate() {
            if d.to_bits() != old.to_bits() {
                self.set_dist(NodeId(i as u32), d);
                self.moved.push((NodeId(i as u32), d));
            }
        }
        self.full = full;
        RepairOutcome::Rebuilt
    }

    /// Closes a bounded repair: the touched nodes whose distance changed
    /// bits move.
    fn finish(&mut self, prev: &SpDag) -> RepairOutcome {
        for k in 0..self.touched.len() {
            let x = self.touched[k];
            let d = self.dist(prev, x);
            if d.to_bits() != prev.dist[x.index()].to_bits() {
                self.moved.push((x, d));
            }
        }
        RepairOutcome::Repaired
    }

    /// Weight increase on the `changed` edges: one on-DAG edge whose weight
    /// grew, or the dead edges of a failure, at least one on the DAG.
    ///
    /// Phase 1 finds the affected set `A` — nodes *all* of whose shortest
    /// paths used a changed edge — by support counting over the old DAG:
    /// each changed edge on `prev` takes its support from its tail, and a
    /// node joins `A` when every one of its DAG out-edges is changed or
    /// leads into `A`. If every tail keeps support, no node moves and only
    /// the changed edges leave the DAG. Phase 2 re-runs Dijkstra restricted
    /// to `A`, seeded with the best detour through unaffected neighbours.
    /// Nodes outside `A` keep a shortest path over unchanged edges, hence
    /// their exact old distances.
    fn increase(
        &mut self,
        g: &Digraph,
        weights: &[f64],
        prev: &SpDag,
        changed: &[EdgeId],
        frontier_cap: usize,
        disabled: &[bool],
    ) -> RepairOutcome {
        self.begin(g.node_count(), g.edge_count());
        // Each changed edge is stamped once, so an edge the list repeats
        // drops its tail's support once.
        for &e in changed {
            if self.changed_at[e.index()] == self.epoch {
                continue;
            }
            self.changed_at[e.index()] = self.epoch;
            let u = g.src(e);
            if prev.edge_on_dag[e.index()] && self.drop_support(prev, u) == 0 {
                self.mark(u);
            }
        }
        let mut head = 0;
        while head < self.touched.len() {
            let x = self.touched[head];
            head += 1;
            if head > frontier_cap {
                return self.full_diff(g, weights, prev, changed, disabled);
            }
            for &ein in g.in_edges(x) {
                // A changed edge gave its support up above; dropping it
                // again would count it twice.
                if !prev.edge_on_dag[ein.index()] || self.changed_at[ein.index()] == self.epoch {
                    continue;
                }
                let p = g.src(ein);
                if !self.marked(p) && self.drop_support(prev, p) == 0 {
                    self.mark(p);
                }
            }
        }

        // Phase 2: Dijkstra restricted to the affected set. Seeds are the
        // best candidates through *unaffected* out-neighbours (including a
        // changed edge that stays up, at its new weight); edges between
        // affected nodes relax as their heads settle, exactly like the full
        // algorithm.
        for k in 0..self.touched.len() {
            let a = self.touched[k];
            self.set_dist(a, INFINITY);
        }
        for k in 0..self.touched.len() {
            let a = self.touched[k];
            let mut best = INFINITY;
            for &eo in g.out_edges(a) {
                if edge_disabled(disabled, eo) {
                    continue;
                }
                let h = g.dst(eo);
                let dh = self.dist(prev, h);
                if self.marked(h) || !dh.is_finite() {
                    continue;
                }
                let cand = weights[eo.index()] + dh;
                if cand + EPS < best {
                    best = cand;
                }
            }
            if best.is_finite() {
                self.set_dist(a, best);
                self.heap.push(HeapEntry {
                    dist: best,
                    node: a,
                });
            }
        }
        while let Some(HeapEntry { dist: d, node: x }) = self.heap.pop() {
            let done = self.done_at[x.index()] == self.epoch;
            if done || !self.marked(x) || d > self.dist(prev, x) {
                continue; // settled, unaffected, or a stale entry
            }
            self.done_at[x.index()] = self.epoch;
            for &ein in g.in_edges(x) {
                if edge_disabled(disabled, ein) {
                    continue;
                }
                let p = g.src(ein);
                if !self.marked(p) || self.done_at[p.index()] == self.epoch {
                    continue;
                }
                let nd = d + weights[ein.index()];
                if nd + EPS < self.dist(prev, p) {
                    self.set_dist(p, nd);
                    self.heap.push(HeapEntry { dist: nd, node: p });
                }
            }
        }
        self.finish(prev)
    }

    /// Weight decrease on `e = (u, v)` that reaches the current distance at
    /// `u`, including a link coming back up (a decrease from ∞, where
    /// `dist(u)` may itself be ∞).
    ///
    /// If the cheaper edge exactly ties `dist(u)` the distances are
    /// unchanged and only `e` joins the DAG. Otherwise the improvement
    /// propagates backwards from `u` with a Dijkstra-like frontier over
    /// strictly improving nodes — the classical decrease-only dynamic SSSP,
    /// whose work is bounded by the set of nodes that actually get closer.
    fn decrease(
        &mut self,
        g: &Digraph,
        weights: &[f64],
        prev: &SpDag,
        e: EdgeId,
        frontier_cap: usize,
        disabled: &[bool],
    ) -> RepairOutcome {
        self.begin_change(g, &[e]);
        let (u, v) = g.endpoints(e);
        let cand = weights[e.index()] + prev.dist[v.index()];
        if cand + EPS >= prev.dist[u.index()] {
            return self.finish(prev);
        }
        self.set_dist(u, cand);
        self.mark(u);
        self.heap.push(HeapEntry {
            dist: cand,
            node: u,
        });
        while let Some(HeapEntry { dist: d, node: x }) = self.heap.pop() {
            if d > self.dist(prev, x) {
                continue; // superseded by a better improvement
            }
            for &ein in g.in_edges(x) {
                if edge_disabled(disabled, ein) {
                    continue;
                }
                let p = g.src(ein);
                let nd = d + weights[ein.index()];
                if nd + EPS < self.dist(prev, p) {
                    self.set_dist(p, nd);
                    if !self.marked(p) {
                        self.mark(p);
                        if self.touched.len() > frontier_cap {
                            return self.full_diff(g, weights, prev, &[e], disabled);
                        }
                    }
                    self.heap.push(HeapEntry { dist: nd, node: p });
                }
            }
        }
        self.finish(prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The diamond with asymmetric weights:
    /// 0 -> 1 (1), 1 -> 3 (1), 0 -> 2 (1), 2 -> 3 (2), 0 -> 3 (2)
    fn weighted_diamond() -> (Digraph, Vec<f64>) {
        let mut g = Digraph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        g.add_edge(NodeId(0), NodeId(3));
        (g, vec![1.0, 1.0, 1.0, 2.0, 2.0])
    }

    #[test]
    fn distances_to_target() {
        let (g, w) = weighted_diamond();
        let d = single_target_distances(&g, &w, NodeId(3), &[]);
        assert_eq!(d[3], 0.0);
        assert_eq!(d[1], 1.0);
        assert_eq!(d[2], 2.0);
        assert_eq!(d[0], 2.0); // via 1 or the direct edge
    }

    #[test]
    fn unreachable_nodes_are_infinite() {
        let mut g = Digraph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        // node 2 cannot reach node 1
        let d = single_target_distances(&g, &[1.0], NodeId(1), &[]);
        assert!(d[2].is_infinite());
        assert_eq!(d[0], 1.0);
    }

    #[test]
    fn dag_contains_exactly_tight_edges() {
        let (g, w) = weighted_diamond();
        let dag = shortest_path_dag(&g, &w, NodeId(3), &[]);
        // shortest paths from 0: 0-1-3 (cost 2) and 0-3 (cost 2); 0-2-3 costs 3.
        assert!(dag.edge_on_dag[0]); // 0->1
        assert!(dag.edge_on_dag[1]); // 1->3
        assert!(!dag.edge_on_dag[2]); // 0->2 (not tight for node 0)
        assert!(dag.edge_on_dag[3]); // 2->3 is node 2's own shortest path
        assert!(dag.edge_on_dag[4]); // 0->3 direct
        assert_eq!(dag.split_degree(NodeId(0)), 2);
        assert_eq!(dag.split_degree(NodeId(1)), 1);
        assert_eq!(dag.dag_out(NodeId(0)), &[EdgeId(0), EdgeId(4)]);
    }

    #[test]
    fn order_is_topological() {
        let (g, w) = weighted_diamond();
        let dag = shortest_path_dag(&g, &w, NodeId(3), &[]);
        let pos: Vec<usize> = {
            let mut p = vec![usize::MAX; g.node_count()];
            for (i, v) in dag.order.iter().enumerate() {
                p[v.index()] = i;
            }
            p
        };
        for (e, u, v) in g.edges() {
            if dag.edge_on_dag[e.index()] {
                assert!(pos[u.index()] < pos[v.index()], "edge {e:?} violates order");
            }
        }
        assert_eq!(*dag.order.last().unwrap(), NodeId(3));
    }

    #[test]
    fn parallel_shortest_edges_both_on_dag() {
        let mut g = Digraph::new(2);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        let dag = shortest_path_dag(&g, &[1.0, 1.0], NodeId(1), &[]);
        assert_eq!(dag.split_degree(NodeId(0)), 2);
    }

    #[test]
    fn tie_detection_with_integer_weights() {
        // Two equal-cost two-hop paths.
        let mut g = Digraph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        let dag = shortest_path_dag(&g, &[5.0, 7.0, 4.0, 8.0], NodeId(3), &[]);
        assert_eq!(dag.dist[0], 12.0);
        assert_eq!(dag.split_degree(NodeId(0)), 2);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn wrong_weight_length_panics() {
        let (g, _) = weighted_diamond();
        single_target_distances(&g, &[1.0], NodeId(0), &[]);
    }

    #[test]
    fn reaches_target_reports_reachability() {
        let mut g = Digraph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        let dag = shortest_path_dag(&g, &[1.0], NodeId(1), &[]);
        assert!(dag.reaches_target(NodeId(0)));
        assert!(!dag.reaches_target(NodeId(2)));
    }

    /// Deterministic xorshift generator shared by the randomized tests.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Ring-plus-chords random graph: always connected along the ring.
    fn random_graph(state: &mut u64, n: usize) -> Digraph {
        let mut g = Digraph::new(n);
        for i in 0..n {
            g.add_edge(NodeId(i as u32), NodeId(((i + 1) % n) as u32));
        }
        for _ in 0..n {
            let a = (xorshift(state) % n as u64) as u32;
            let b = (xorshift(state) % n as u64) as u32;
            if a != b {
                g.add_edge(NodeId(a), NodeId(b));
            }
        }
        g
    }

    #[test]
    fn bucket_and_heap_distances_bit_identical() {
        let mut state = 0x1234_5678_9abc_def0u64;
        for _ in 0..40 {
            let n = 5 + (xorshift(&mut state) % 12) as usize;
            let g = random_graph(&mut state, n);
            let w: Vec<f64> = (0..g.edge_count())
                .map(|_| (1 + xorshift(&mut state) % 20) as f64)
                .collect();
            assert!(dial_weight_domain(n, &w).is_some());
            for t in 0..n {
                let target = NodeId(t as u32);
                let dial = single_target_distances(&g, &w, target, &[]);
                let heap = single_target_distances_heap(&g, &w, target, &[]);
                let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&dial), bits(&heap), "target {target:?}");
            }
        }
    }

    #[test]
    fn dial_domain_rejects_out_of_range_weights() {
        assert_eq!(dial_weight_domain(10, &[1.0, 20.0]), Some(20));
        assert!(dial_weight_domain(10, &[1.5]).is_none()); // fractional
        assert!(dial_weight_domain(10, &[0.5]).is_none()); // below 1
        assert!(dial_weight_domain(10, &[MAX_DIAL_WEIGHT as f64 + 1.0]).is_none());
        // n * wmax must fit u32: a billion-node graph with wmax 4096 cannot.
        assert!(dial_weight_domain(1 << 30, &[MAX_DIAL_WEIGHT as f64]).is_none());
    }

    #[test]
    fn non_integral_weights_fall_back_to_heap() {
        let (g, _) = weighted_diamond();
        let w = vec![1.5, 1.5, 1.0, 2.5, 4.5];
        let d = single_target_distances(&g, &w, NodeId(3), &[]);
        let h = single_target_distances_heap(&g, &w, NodeId(3), &[]);
        assert_eq!(d, h);
        assert_eq!(d[0], 3.0); // 0->1->3 at 1.5 + 1.5
    }

    #[test]
    fn csr_offsets_prefix_sums() {
        assert_eq!(csr_offsets(&[2, 0, 3]), vec![0, 2, 2, 5]);
        assert_eq!(csr_offsets(&[]), vec![0]);
    }

    #[test]
    #[should_panic(expected = "CSR arena overflow")]
    fn csr_offsets_reject_u32_overflow() {
        // Two rows whose total (2^32) exceeds the u32 offset range. The
        // counts themselves fit u32; only the running sum overflows.
        csr_offsets(&[u32::MAX, 1]);
    }

    /// Bitwise structural equality of two DAGs (dist via `to_bits`).
    fn assert_same_dag(a: &SpDag, b: &SpDag, ctx: &str) {
        let bits = |d: &SpDag| d.dist.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{ctx}: dist diverged");
        assert_eq!(a.edge_on_dag, b.edge_on_dag, "{ctx}: edge set diverged");
        assert_eq!(a.dag_start, b.dag_start, "{ctx}: CSR offsets diverged");
        assert_eq!(a.dag_edges, b.dag_edges, "{ctx}: CSR edge slab diverged");
        assert_eq!(a.order, b.order, "{ctx}: order diverged");
    }

    /// A change of the `changed` edges applied the way the incremental
    /// evaluator scores and commits it: [`DagRepair::repair`], then
    /// [`patch_dag`] of its diff, or `prev` itself when unchanged.
    fn repaired(
        g: &Digraph,
        w: &[f64],
        prev: &SpDag,
        (changed, old_w): (&[EdgeId], f64),
        cap: usize,
        disabled: &[bool],
    ) -> (RepairOutcome, SpDag) {
        let mut r = DagRepair::default();
        let outcome = r.repair(g, w, prev, changed, old_w, cap, disabled);
        let dag = match outcome {
            RepairOutcome::Unchanged => prev.clone(),
            _ => patch_dag(g, w, disabled, prev, r.moved(), changed),
        };
        (outcome, dag)
    }

    /// Applies one weight change both incrementally and from scratch and
    /// checks the results match bit-for-bit.
    fn check_update(g: &Digraph, w_old: &[f64], e: EdgeId, new_w: f64, target: NodeId, cap: usize) {
        let prev = shortest_path_dag(g, w_old, target, &[]);
        let mut w_new = w_old.to_vec();
        w_new[e.index()] = new_w;
        let scratch = shortest_path_dag(g, &w_new, target, &[]);
        let ctx = format!("e={e:?} {}->{} target={target:?}", w_old[e.index()], new_w);
        let change = (&[e][..], w_old[e.index()]);
        check_diff(g, &w_new, &prev, change, cap, &[], &scratch, &ctx);
        let (_, got) = repaired(g, &w_new, &prev, change, cap, &[]);
        assert_same_dag(&got, &scratch, &ctx);
    }

    /// The diff half alone, against the from-scratch DAG `want`: every
    /// node the diff lists as moved changed distance (to exactly the new
    /// one), every other node kept it bit for bit, and the per-edge query
    /// answers the new edge set without a DAG being built.
    #[allow(clippy::too_many_arguments)]
    fn check_diff(
        g: &Digraph,
        w: &[f64],
        prev: &SpDag,
        (changed, old_w): (&[EdgeId], f64),
        cap: usize,
        disabled: &[bool],
        want: &SpDag,
        ctx: &str,
    ) {
        let mut r = DagRepair::default();
        if r.repair(g, w, prev, changed, old_w, cap, disabled) == RepairOutcome::Unchanged {
            return;
        }
        let mut moved = vec![false; g.node_count()];
        for &(x, d) in r.moved() {
            assert!(!moved[x.index()], "{ctx}: {x:?} listed twice");
            moved[x.index()] = true;
            assert_eq!(d.to_bits(), want.dist[x.index()].to_bits(), "{ctx}: {x:?}");
            assert_ne!(d.to_bits(), prev.dist[x.index()].to_bits(), "{ctx}: {x:?}");
        }
        for v in g.nodes() {
            assert_eq!(
                r.dist(prev, v).to_bits(),
                want.dist[v.index()].to_bits(),
                "{ctx}"
            );
            if !moved[v.index()] {
                assert_eq!(
                    prev.dist[v.index()].to_bits(),
                    want.dist[v.index()].to_bits()
                );
            }
        }
        for e in g.edge_ids() {
            let on = r.on_dag(w, disabled, prev, e, g.endpoints(e));
            assert_eq!(on, want.edge_on_dag[e.index()], "{ctx}: on_dag({e:?})");
        }
    }

    #[test]
    fn increase_on_dag_edge_matches_scratch() {
        let (g, w) = weighted_diamond();
        // 1->3 is on the DAG towards 3; pushing it to 5 reroutes node 0.
        check_update(&g, &w, EdgeId(1), 5.0, NodeId(3), usize::MAX);
    }

    #[test]
    fn decrease_pulls_edge_onto_dag() {
        let (g, w) = weighted_diamond();
        // 2->3 at weight 2 is off node 0's shortest paths; dropping it to 1
        // creates a new tie through node 2.
        check_update(&g, &w, EdgeId(3), 1.0, NodeId(3), usize::MAX);
        // Dropping further makes the path through 2 strictly shortest.
        check_update(&g, &w, EdgeId(2), 0.5, NodeId(3), usize::MAX);
    }

    #[test]
    fn off_dag_increase_is_clean() {
        let (g, w) = weighted_diamond();
        // 0->2 is not on the DAG towards 3; making it longer changes nothing.
        let prev = shortest_path_dag(&g, &w, NodeId(3), &[]);
        let mut w_new = w.clone();
        w_new[2] = 9.0;
        let mut r = DagRepair::default();
        let outcome = r.repair(&g, &w_new, &prev, &[EdgeId(2)], w[2], usize::MAX, &[]);
        assert_eq!(outcome, RepairOutcome::Unchanged);
    }

    #[test]
    fn tiny_frontier_cap_falls_back_to_rebuild() {
        // Chain 0 -> 1 -> 2 -> 3: increasing the last hop moves every node,
        // so the affected set (3 nodes) exceeds a cap of 1.
        let mut g = Digraph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        let w = vec![1.0, 1.0, 1.0];
        let prev = shortest_path_dag(&g, &w, NodeId(3), &[]);
        let mut w_new = w.clone();
        w_new[2] = 5.0;
        let (outcome, dag) = repaired(&g, &w_new, &prev, (&[EdgeId(2)], w[2]), 1, &[]);
        assert_eq!(outcome, RepairOutcome::Rebuilt);
        let scratch = shortest_path_dag(&g, &w_new, NodeId(3), &[]);
        assert_same_dag(&dag, &scratch, "fallback rebuild");
    }

    /// A copy of `g` with the masked edges actually deleted, plus the map
    /// from old edge ids to the ids in the copy (`None` for deleted edges).
    fn delete_masked(g: &Digraph, disabled: &[bool]) -> (Digraph, Vec<Option<EdgeId>>) {
        let mut h = Digraph::new(g.node_count());
        let mut map = vec![None; g.edge_count()];
        for (e, u, v) in g.edges() {
            if !disabled[e.index()] {
                map[e.index()] = Some(h.add_edge(u, v));
            }
        }
        (h, map)
    }

    /// Masked DAG on `g` vs scratch DAG on the edge-deleted copy: dist,
    /// order and CSR offsets compare directly (node ids are stable), edge
    /// structures compare through the id map.
    fn assert_masked_matches_deleted(
        g: &Digraph,
        w: &[f64],
        disabled: &[bool],
        target: NodeId,
        ctx: &str,
    ) {
        let (h, map) = delete_masked(g, disabled);
        let wh: Vec<f64> = (0..g.edge_count())
            .filter(|&i| map[i].is_some())
            .map(|i| w[i])
            .collect();
        let masked = shortest_path_dag(g, w, target, disabled);
        let deleted = shortest_path_dag(&h, &wh, target, &[]);
        let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&masked.dist), bits(&deleted.dist), "{ctx}: dist");
        assert_eq!(masked.order, deleted.order, "{ctx}: order");
        assert_eq!(masked.dag_start, deleted.dag_start, "{ctx}: CSR offsets");
        let mapped: Vec<EdgeId> = masked
            .dag_edges
            .iter()
            .map(|&e| map[e.index()].expect("disabled edge on masked DAG"))
            .collect();
        assert_eq!(mapped, deleted.dag_edges, "{ctx}: CSR edge slab");
        for (e, on) in masked.edge_on_dag.iter().enumerate() {
            match map[e] {
                Some(ne) => assert_eq!(*on, deleted.edge_on_dag[ne.index()], "{ctx}: edge {e}"),
                None => assert!(!on, "{ctx}: disabled edge {e} flagged on-DAG"),
            }
        }
        // Both engines agree under the mask, bit for bit.
        let heap = single_target_distances_heap(g, w, target, disabled);
        assert_eq!(bits(&masked.dist), bits(&heap), "{ctx}: dial vs heap");
    }

    #[test]
    fn masked_matches_deleted_graph_randomized() {
        let mut state = 0x5eed_f00d_dead_beefu64;
        for _ in 0..25 {
            let n = 5 + (xorshift(&mut state) % 10) as usize;
            let g = random_graph(&mut state, n);
            let m = g.edge_count();
            let w: Vec<f64> = (0..m)
                .map(|_| (1 + xorshift(&mut state) % 10) as f64)
                .collect();
            // Single and double failures, including disconnecting ones.
            let mut disabled = vec![false; m];
            disabled[(xorshift(&mut state) % m as u64) as usize] = true;
            let target = NodeId((xorshift(&mut state) % n as u64) as u32);
            assert_masked_matches_deleted(&g, &w, &disabled, target, "single");
            disabled[(xorshift(&mut state) % m as u64) as usize] = true;
            assert_masked_matches_deleted(&g, &w, &disabled, target, "double");
        }
    }

    #[test]
    fn masked_disconnection_is_infinity_not_error() {
        // Chain 0 -> 1 -> 2: disabling the middle edge cuts 0 and 1 off.
        let mut g = Digraph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        let w = vec![1.0, 1.0];
        let dag = shortest_path_dag(&g, &w, NodeId(2), &[false, true]);
        assert!(!dag.reaches_target(NodeId(0)));
        assert!(!dag.reaches_target(NodeId(1)));
        assert!(dag.reaches_target(NodeId(2)));
        assert_eq!(dag.order, vec![NodeId(2)]);
    }

    /// Takes one edge down and back up through [`DagRepair::repair`] (an
    /// increase to ∞, then a decrease from ∞) and checks each repaired DAG
    /// against a from-scratch build under the same mask, bit for bit.
    fn check_disable(g: &Digraph, w: &[f64], e: EdgeId, target: NodeId, cap: usize) {
        let intact = shortest_path_dag(g, w, target, &[]);
        let mut disabled = vec![false; g.edge_count()];
        disabled[e.index()] = true;
        let scratch = shortest_path_dag(g, w, target, &disabled);
        let ctx = format!("e={e:?} target={target:?}");
        // Down does not read the old weight; up is a decrease from ∞.
        let change = (&[e][..], INFINITY);
        check_diff(g, w, &intact, change, cap, &disabled, &scratch, &ctx);
        let (_, down) = repaired(g, w, &intact, change, cap, &disabled);
        assert_same_dag(&down, &scratch, &format!("disable {ctx}"));
        let (_, up) = repaired(g, w, &down, change, cap, &[]);
        assert_same_dag(&up, &intact, &format!("re-enable {ctx}"));
    }

    #[test]
    fn disable_update_matches_scratch_randomized() {
        let mut state = 0x000f_aded_cafe_1234_u64;
        for _ in 0..25 {
            let n = 5 + (xorshift(&mut state) % 10) as usize;
            let g = random_graph(&mut state, n);
            let m = g.edge_count();
            let w: Vec<f64> = (0..m)
                .map(|_| (1 + xorshift(&mut state) % 10) as f64)
                .collect();
            let target = NodeId((xorshift(&mut state) % n as u64) as u32);
            for _ in 0..6 {
                let e = EdgeId((xorshift(&mut state) % m as u64) as u32);
                check_disable(&g, &w, e, target, usize::MAX);
                check_disable(&g, &w, e, target, 2); // bounded-cap fallback
            }
        }
    }

    #[test]
    fn multi_edge_failure_matches_scratch_randomized() {
        // One repair takes 1–3 edges down at once: a second edge is the
        // first listed again, another out-edge of its tail, or any edge,
        // on the DAG or off it. Each repair must match a from-scratch
        // masked build, unbounded and at a cap of 2 (the full fallback).
        let mut state = 0x0bad_5eed_2024_u64;
        let pick = |state: &mut u64, len: usize| (xorshift(state) % len as u64) as usize;
        for _ in 0..60 {
            let n = 5 + pick(&mut state, 10);
            let g = random_graph(&mut state, n);
            let m = g.edge_count();
            let w: Vec<f64> = (0..m).map(|_| (1 + pick(&mut state, 10)) as f64).collect();
            let target = NodeId(pick(&mut state, n) as u32);
            let intact = shortest_path_dag(&g, &w, target, &[]);
            let on_dag: Vec<usize> = (0..m).filter(|&i| intact.edge_on_dag[i]).collect();
            let first = EdgeId(on_dag[pick(&mut state, on_dag.len())] as u32);
            let mut dead = vec![first];
            for _ in 0..pick(&mut state, 3) {
                let outs = g.out_edges(g.src(first));
                dead.push(match pick(&mut state, 3) {
                    0 => first,
                    1 => outs[pick(&mut state, outs.len())],
                    _ => EdgeId(pick(&mut state, m) as u32),
                });
            }
            let mut disabled = vec![false; m];
            for e in &dead {
                disabled[e.index()] = true;
            }
            let scratch = shortest_path_dag(&g, &w, target, &disabled);
            for cap in [usize::MAX, 2] {
                let ctx = format!("dead={dead:?} target={target:?} cap={cap}");
                let change = (&dead[..], INFINITY);
                check_diff(&g, &w, &intact, change, cap, &disabled, &scratch, &ctx);
                let (_, got) = repaired(&g, &w, &intact, change, cap, &disabled);
                assert_same_dag(&got, &scratch, &ctx);
            }
        }
    }

    #[test]
    fn disable_disconnecting_edge_repairs_to_infinity() {
        // Chain 0 -> 1 -> 2 -> 3 plus a chord 1 -> 3: killing 2 -> 3 leaves
        // node 2 disconnected while 0 and 1 reroute over the chord.
        let mut g = Digraph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        g.add_edge(NodeId(1), NodeId(3));
        let w = vec![1.0, 1.0, 1.0, 5.0];
        check_disable(&g, &w, EdgeId(2), NodeId(3), usize::MAX);
        let prev = shortest_path_dag(&g, &w, NodeId(3), &[]);
        let disabled = vec![false, false, true, false];
        let down = (&[EdgeId(2)][..], INFINITY);
        let (outcome, dag) = repaired(&g, &w, &prev, down, usize::MAX, &disabled);
        assert_eq!(
            outcome,
            RepairOutcome::Repaired,
            "on-DAG edge must dirty the DAG"
        );
        assert!(!dag.reaches_target(NodeId(2)));
        assert_eq!(dag.dist[1], 5.0); // rerouted over the chord
    }

    #[test]
    fn masked_weight_update_matches_masked_scratch() {
        // A weight change under a base failure mask must repair to the same
        // DAG a masked scratch build produces.
        let mut state = 0xabcd_ef01_2345u64;
        for _ in 0..20 {
            let n = 6 + (xorshift(&mut state) % 6) as usize;
            let g = random_graph(&mut state, n);
            let m = g.edge_count();
            let mut w: Vec<f64> = (0..m)
                .map(|_| (1 + xorshift(&mut state) % 10) as f64)
                .collect();
            let mut disabled = vec![false; m];
            disabled[(xorshift(&mut state) % m as u64) as usize] = true;
            let target = NodeId((xorshift(&mut state) % n as u64) as u32);
            for _ in 0..5 {
                let e = EdgeId((xorshift(&mut state) % m as u64) as u32);
                let new_w = (1 + xorshift(&mut state) % 10) as f64;
                let prev = shortest_path_dag(&g, &w, target, &disabled);
                let old_w = w[e.index()];
                w[e.index()] = new_w;
                let scratch = shortest_path_dag(&g, &w, target, &disabled);
                let (_, got) = repaired(&g, &w, &prev, (&[e], old_w), usize::MAX, &disabled);
                assert_same_dag(&got, &scratch, &format!("masked update e={e:?}"));
            }
        }
    }

    #[test]
    fn randomized_single_edge_changes_match_scratch() {
        // Deterministic xorshift; integral weights in [1, 10] so tie
        // classification is exact — the regime every optimizer works in.
        let mut state = 0x9e3779b97f4a7c15u64;
        for trial in 0..30 {
            let n = 6 + (xorshift(&mut state) % 5) as usize;
            let g = random_graph(&mut state, n);
            let m = g.edge_count();
            let mut w: Vec<f64> = (0..m)
                .map(|_| (1 + xorshift(&mut state) % 10) as f64)
                .collect();
            let target = NodeId((xorshift(&mut state) % n as u64) as u32);
            for _ in 0..8 {
                let e = EdgeId((xorshift(&mut state) % m as u64) as u32);
                let new_w = (1 + xorshift(&mut state) % 10) as f64;
                check_update(&g, &w, e, new_w, target, usize::MAX);
                // Also exercise the bounded-cap path on every other step.
                check_update(&g, &w, e, new_w, target, 2);
                w[e.index()] = new_w;
                let _ = trial;
            }
        }
    }
}
