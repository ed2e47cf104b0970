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
//!   **oracle** the bucket queue is pinned against (see the differential
//!   harness's `dag` walks in `tests/hotloop_differential.rs`).
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
) -> Vec<f64> {
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

        dist_int
            .iter()
            .map(|&d| if d == u32::MAX { INFINITY } else { d as f64 })
            .collect()
    })
}

/// The `BinaryHeap` engine, shared by both public entry points. As with
/// [`dial_run`], the `MASKED` instantiation skips disabled edges.
fn heap_run<const MASKED: bool>(
    g: &Digraph,
    weights: &[f64],
    target: NodeId,
    disabled: &[bool],
) -> Vec<f64> {
    let n = g.node_count();
    let mut dist = vec![INFINITY; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(n);
    dist[target.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: target,
    });

    // Relaxations are tallied locally and flushed with one atomic add per
    // run, so the inner loop stays free of shared-memory traffic.
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
    dist
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
    check_weights(g, weights);
    check_mask(g, disabled);
    match dial_weight_domain(g.node_count(), weights) {
        Some(wmax) if disabled.is_empty() => dial_run::<false>(g, weights, wmax, target, disabled),
        Some(wmax) => dial_run::<true>(g, weights, wmax, target, disabled),
        None => heap_engine(g, weights, target, disabled),
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
    heap_engine(g, weights, target, disabled)
}

/// Picks the `BinaryHeap` instantiation for the mask.
fn heap_engine(g: &Digraph, weights: &[f64], target: NodeId, disabled: &[bool]) -> Vec<f64> {
    if disabled.is_empty() {
        heap_run::<false>(g, weights, target, disabled)
    } else {
        heap_run::<true>(g, weights, target, disabled)
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
/// instead of being reallocated on every probe repair.
struct DagScratch {
    /// `(tail, edge)` pairs of tight edges, in ascending edge-id order.
    tight: Vec<(u32, EdgeId)>,
    /// Out-degree counts, then reused as the CSR fill cursor.
    counts: Vec<u32>,
    /// Tails of the edges whose on-DAG flag the patch flipped.
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
/// scaled tolerance of [`approx_eq`]. The full scan and the repair patch
/// both decide membership through this one function.
#[inline]
fn is_tight(
    weights: &[f64],
    dist: &[f64],
    disabled: &[bool],
    e: EdgeId,
    u: NodeId,
    v: NodeId,
) -> bool {
    if edge_disabled(disabled, e) {
        return false;
    }
    let du = dist[u.index()];
    let dv = dist[v.index()];
    du.is_finite() && dv.is_finite() && approx_eq(du, weights[e.index()] + dv)
}

/// Compares `(distance, node)` order keys: decreasing distance, then
/// ascending node id. A strict total order over finite non-negative
/// distances, where `total_cmp` agrees bit-for-bit with the IEEE
/// `partial_cmp`, so `order` is the unique permutation of the reachable
/// nodes sorted by it.
#[inline]
fn order_cmp((da, a): (f64, NodeId), (db, b): (f64, NodeId)) -> Ordering {
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
/// `SpDag` from the previous one.
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
            if is_tight(weights, &dist, disabled, e, u, v) {
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

/// Derives a repaired DAG from `prev` instead of rebuilding it: the result
/// is byte-identical to [`dag_from_dist`] on the same `dist`, at a cost
/// proportional to the repair rather than to the graph.
///
/// Preconditions, which every repair in this module meets: `prev` is the
/// DAG of `prev.dist` under the old weights and mask; `dist` differs from
/// `prev.dist` only at nodes listed in `moved`; and the new weights and
/// mask differ from the old ones only at edge `changed`, or at edges off
/// `prev` that the new mask disables.
///
/// * **Edge set.** The tight predicate ([`is_tight`]) of an edge reads its
///   weight, its mask bit and the distances of its two ends. Only
///   `changed` and the edges incident to a moved node can see different
///   inputs, so only they are re-tested; every other edge keeps its flag.
///   (A newly masked edge off `prev` was not tight and stays not tight.)
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
fn patch_dag(
    g: &Digraph,
    weights: &[f64],
    prev: &SpDag,
    dist: Vec<f64>,
    changed: EdgeId,
    moved: &[NodeId],
    disabled: &[bool],
) -> SpDag {
    let n = g.node_count();
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
            let tight = is_tight(weights, &dist, disabled, e, a, b);
            if tight != edge_on_dag[e.index()] {
                edge_on_dag[e.index()] = tight;
                dirty_rows.push(a.0);
            }
        };
        retest(changed);
        for &x in moved {
            for &e in g.out_edges(x) {
                retest(e);
            }
            for &e in g.in_edges(x) {
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

        // A listed node whose distance came back bit-equal keeps its place.
        // The others leave `prev.order` and, if they still reach the target,
        // go back in before the first old key above their new key (only
        // nodes that stayed count: the moved ones are skipped anyway).
        let old_key = |v: NodeId| (prev.dist[v.index()], v);
        let new_key = |v: NodeId| (dist[v.index()], v);
        let rank = |k| {
            let below = |&y: &NodeId| order_cmp(old_key(y), k) == Ordering::Less;
            prev.order.partition_point(below)
        };
        removed.clear();
        inserted.clear();
        for &x in moved {
            let (old, new) = (prev.dist[x.index()], dist[x.index()]);
            if old.to_bits() == new.to_bits() {
                continue;
            }
            if old.is_finite() {
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

/// Result of [`update_shortest_path_dag`]: how a single-edge weight change
/// was absorbed for one destination.
#[derive(Clone, Debug)]
pub enum SpDagUpdate {
    /// The change cannot alter this destination's DAG (clean destination).
    Unchanged,
    /// The DAG was repaired by a bounded dynamic-Dijkstra update touching
    /// the given number of nodes.
    Repaired(SpDag, usize),
    /// The repair frontier exceeded the threshold (or the change was too
    /// structural); a full per-destination Dijkstra rebuilt the DAG.
    Rebuilt(SpDag),
}

impl SpDagUpdate {
    /// The updated DAG, if the destination was dirty.
    pub fn into_dag(self) -> Option<SpDag> {
        match self {
            SpDagUpdate::Unchanged => None,
            SpDagUpdate::Repaired(d, _) | SpDagUpdate::Rebuilt(d) => Some(d),
        }
    }
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
pub fn edge_change_affects_dag(dag: &SpDag, e: EdgeId, u: NodeId, v: NodeId, new_w: f64) -> bool {
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

/// Repairs `prev` (the shortest-path DAG towards `prev.target` under the
/// *old* weights) after edge `e`'s weight changed from `old_w` to
/// `weights[e]`, where `weights` is the **new** full weight vector.
///
/// `prev` must have been built under the same mask `disabled` (empty: the
/// intact topology), and the repair keeps honoring it: skipped relaxations,
/// masked tight-edge tests, masked fallback rebuild. A weight change on a
/// disabled edge is a provable no-op and returns [`SpDagUpdate::Unchanged`].
///
/// The repair follows Ramalingam–Reps: identify the affected node set (nodes
/// whose distance to the target changes), re-run Dijkstra restricted to that
/// set seeded from its unaffected fringe, then **patch** `prev` into the new
/// DAG: re-test only `e` and the edges incident to the moved nodes, copy the
/// CSR rows of tails with no flipped edge, and merge the moved nodes into the
/// old topological order. The distance work and the DAG work are both
/// proportional to the damage, not to the graph. When the affected set
/// exceeds `frontier_cap` nodes the bounded repair is abandoned and a full
/// per-destination Dijkstra runs instead ([`SpDagUpdate::Rebuilt`]).
///
/// The restricted re-runs keep the `BinaryHeap`: repair frontiers are capped
/// at a few dozen nodes, where a heap beats allocating a distance-spanning
/// bucket ring. (Full rebuilds go through [`shortest_path_dag`] and get the
/// bucket queue.)
///
/// With tie-exact weights (e.g. the integral vectors every optimizer in this
/// workspace emits) the repaired DAG is **bit-identical** to
/// [`shortest_path_dag`] on the new weights: both paths compute the exact
/// distance minima, the patch decides edge membership with the same
/// predicate on the same inputs as the full scan, and the order is the
/// unique permutation under the same key (see `patch_dag`).
pub fn update_shortest_path_dag(
    g: &Digraph,
    weights: &[f64],
    prev: &SpDag,
    e: EdgeId,
    old_w: f64,
    frontier_cap: usize,
    disabled: &[bool],
) -> SpDagUpdate {
    check_mask(g, disabled);
    if edge_disabled(disabled, e) {
        // A failed link's weight is never read; the DAG cannot change.
        return SpDagUpdate::Unchanged;
    }
    let (u, v) = g.endpoints(e);
    let new_w = weights[e.index()];
    if new_w == old_w || !edge_change_affects_dag(prev, e, u, v, new_w) {
        return SpDagUpdate::Unchanged;
    }
    if new_w > old_w {
        repair_increase(g, weights, prev, e, frontier_cap, disabled)
    } else {
        repair_decrease(g, weights, prev, e, u, v, frontier_cap, disabled)
    }
}

/// Repairs `prev` (built with edge `e` still enabled) after `e` is disabled.
///
/// Removing an edge can only lengthen paths, so this is the weight-increase
/// repair pushed to its limit: if `e` is off the DAG the structure provably
/// cannot change ([`SpDagUpdate::Unchanged`]); if the tail keeps its old
/// distance through another tight edge the DAG only loses `e` (distances
/// and topological order carry over verbatim); otherwise the affected set
/// re-runs restricted Dijkstra under the mask and the DAG is patched as in
/// [`update_shortest_path_dag`]. Nodes whose every path to the target used
/// `e` end at [`INFINITY`] and leave `order` — a disconnection is a
/// classified outcome, not an error.
///
/// `disabled` is the **new** mask and must have `disabled[e]` set; `prev`
/// must have been built under the mask *without* `e`. With tie-exact
/// weights the result is bit-identical to
/// [`shortest_path_dag`] under the new mask.
pub fn disable_edge_update(
    g: &Digraph,
    weights: &[f64],
    prev: &SpDag,
    e: EdgeId,
    frontier_cap: usize,
    disabled: &[bool],
) -> SpDagUpdate {
    check_mask(g, disabled);
    assert!(
        edge_disabled(disabled, e),
        "mask must cover the newly disabled edge {e:?}"
    );
    if !prev.edge_on_dag[e.index()] {
        // Off-DAG removal: no path gets shorter, no tight edge appears.
        return SpDagUpdate::Unchanged;
    }
    repair_increase(g, weights, prev, e, frontier_cap, disabled)
}

/// Weight increase on an on-DAG edge `e = (u, v)`.
///
/// Phase 1 finds the affected set `A` — nodes *all* of whose shortest paths
/// used `e` — by support counting over the old DAG: `u` loses `e`'s support;
/// a node joins `A` when every one of its DAG out-edges leads into `A`.
/// Phase 2 re-runs Dijkstra restricted to `A`, seeded with the best detour
/// through unaffected neighbours. Nodes outside `A` keep their exact old
/// distances, so `patch_dag` re-tests only `e` and the edges around `A`.
/// Work is proportional to the damage, not the graph. Also serves edge
/// disabling, where `e` is masked out rather than made heavier.
fn repair_increase(
    g: &Digraph,
    weights: &[f64],
    prev: &SpDag,
    e: EdgeId,
    frontier_cap: usize,
    disabled: &[bool],
) -> SpDagUpdate {
    let n = g.node_count();
    let u = g.src(e);
    // Remaining old-distance support per node: DAG out-edges still justified.
    // Read straight off the CSR offsets — row width = out-degree on the DAG.
    let mut support: Vec<usize> = prev
        .dag_start
        .windows(2)
        .map(|w| (w[1] - w[0]) as usize)
        .collect();
    let mut affected = vec![false; n];
    let mut queue = std::collections::VecDeque::new();

    // `e` no longer provides u's old distance (its weight strictly grew).
    support[u.index()] -= 1;
    if support[u.index()] == 0 {
        affected[u.index()] = true;
        queue.push_back(u);
    } else {
        // u keeps its distance through another tight edge; the DAG only
        // loses edge `e`. No node moves, so the patch re-tests `e` alone
        // and the topological order carries over verbatim.
        let repaired = patch_dag(g, weights, prev, prev.dist.clone(), e, &[], disabled);
        return SpDagUpdate::Repaired(repaired, 0);
    }

    let mut affected_nodes: Vec<NodeId> = Vec::new();
    while let Some(x) = queue.pop_front() {
        affected_nodes.push(x);
        if affected_nodes.len() > frontier_cap {
            return SpDagUpdate::Rebuilt(shortest_path_dag(g, weights, prev.target, disabled));
        }
        for &ein in g.in_edges(x) {
            if !prev.edge_on_dag[ein.index()] {
                continue;
            }
            let p = g.src(ein);
            if affected[p.index()] {
                continue;
            }
            support[p.index()] -= 1;
            if support[p.index()] == 0 {
                affected[p.index()] = true;
                queue.push_back(p);
            }
        }
    }

    // Phase 2: Dijkstra restricted to the affected set. Seeds are the best
    // candidates through *unaffected* out-neighbours (including `e` itself
    // at its new weight); edges between affected nodes relax as their heads
    // settle, exactly like the full algorithm.
    let mut dist = prev.dist.clone();
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(affected_nodes.len());
    for &a in &affected_nodes {
        dist[a.index()] = INFINITY;
    }
    for &a in &affected_nodes {
        let mut best = INFINITY;
        for &eo in g.out_edges(a) {
            if edge_disabled(disabled, eo) {
                continue;
            }
            let h = g.dst(eo);
            if affected[h.index()] || !dist[h.index()].is_finite() {
                continue;
            }
            let cand = weights[eo.index()] + dist[h.index()];
            if cand + EPS < best {
                best = cand;
            }
        }
        if best.is_finite() {
            dist[a.index()] = best;
            heap.push(HeapEntry {
                dist: best,
                node: a,
            });
        }
    }
    while let Some(HeapEntry { dist: d, node: x }) = heap.pop() {
        if done[x.index()] || !affected[x.index()] {
            continue;
        }
        if d > dist[x.index()] {
            continue; // stale entry
        }
        done[x.index()] = true;
        for &ein in g.in_edges(x) {
            if edge_disabled(disabled, ein) {
                continue;
            }
            let p = g.src(ein);
            if !affected[p.index()] || done[p.index()] {
                continue;
            }
            let nd = d + weights[ein.index()];
            if nd + EPS < dist[p.index()] {
                dist[p.index()] = nd;
                heap.push(HeapEntry { dist: nd, node: p });
            }
        }
    }

    let touched = affected_nodes.len();
    SpDagUpdate::Repaired(
        patch_dag(g, weights, prev, dist, e, &affected_nodes, disabled),
        touched,
    )
}

/// Weight decrease on `e = (u, v)` that reaches the current distance at `u`.
///
/// If the cheaper edge exactly ties `dist(u)` the distances are unchanged and
/// the DAG only gains `e`. Otherwise the improvement propagates backwards
/// from `u` with a Dijkstra-like frontier over strictly improving nodes —
/// the classical decrease-only dynamic SSSP, whose work is bounded by the
/// set of nodes that actually get closer — and `patch_dag` re-tests only
/// `e` and the edges around those nodes.
#[allow(clippy::too_many_arguments)] // internal repair kernel: one flat argument list keeps the hot path alloc-free
fn repair_decrease(
    g: &Digraph,
    weights: &[f64],
    prev: &SpDag,
    e: EdgeId,
    u: NodeId,
    v: NodeId,
    frontier_cap: usize,
    disabled: &[bool],
) -> SpDagUpdate {
    let cand = weights[e.index()] + prev.dist[v.index()];
    let du = prev.dist[u.index()];
    if cand + EPS >= du {
        // New tie at u: distances hold (so the order carries over), edge e
        // joins the DAG.
        let repaired = patch_dag(g, weights, prev, prev.dist.clone(), e, &[], disabled);
        return SpDagUpdate::Repaired(repaired, 0);
    }

    let mut dist = prev.dist.clone();
    let mut improved = vec![false; g.node_count()];
    let mut improved_nodes = vec![u];
    let mut heap = BinaryHeap::new();
    dist[u.index()] = cand;
    improved[u.index()] = true;
    heap.push(HeapEntry {
        dist: cand,
        node: u,
    });
    while let Some(HeapEntry { dist: d, node: x }) = heap.pop() {
        if d > dist[x.index()] {
            continue; // superseded by a better improvement
        }
        for &ein in g.in_edges(x) {
            if edge_disabled(disabled, ein) {
                continue;
            }
            let p = g.src(ein);
            let nd = d + weights[ein.index()];
            if nd + EPS < dist[p.index()] {
                dist[p.index()] = nd;
                if !improved[p.index()] {
                    improved[p.index()] = true;
                    improved_nodes.push(p);
                    if improved_nodes.len() > frontier_cap {
                        return SpDagUpdate::Rebuilt(shortest_path_dag(
                            g,
                            weights,
                            prev.target,
                            disabled,
                        ));
                    }
                }
                heap.push(HeapEntry { dist: nd, node: p });
            }
        }
    }
    let touched = improved_nodes.len();
    SpDagUpdate::Repaired(
        patch_dag(g, weights, prev, dist, e, &improved_nodes, disabled),
        touched,
    )
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

    /// Applies one weight change both incrementally and from scratch and
    /// checks the results match bit-for-bit.
    fn check_update(g: &Digraph, w_old: &[f64], e: EdgeId, new_w: f64, target: NodeId, cap: usize) {
        let prev = shortest_path_dag(g, w_old, target, &[]);
        let mut w_new = w_old.to_vec();
        w_new[e.index()] = new_w;
        let scratch = shortest_path_dag(g, &w_new, target, &[]);
        let upd = update_shortest_path_dag(g, &w_new, &prev, e, w_old[e.index()], cap, &[]);
        let got = match upd {
            SpDagUpdate::Unchanged => prev,
            SpDagUpdate::Repaired(d, _) | SpDagUpdate::Rebuilt(d) => d,
        };
        assert_same_dag(
            &got,
            &scratch,
            &format!("e={e:?} {}->{} target={target:?}", w_old[e.index()], new_w),
        );
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
        assert!(matches!(
            update_shortest_path_dag(&g, &w_new, &prev, EdgeId(2), w[2], usize::MAX, &[]),
            SpDagUpdate::Unchanged
        ));
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
        let upd = update_shortest_path_dag(&g, &w_new, &prev, EdgeId(2), w[2], 1, &[]);
        assert!(matches!(upd, SpDagUpdate::Rebuilt(_)));
        let scratch = shortest_path_dag(&g, &w_new, NodeId(3), &[]);
        assert_same_dag(&upd.into_dag().unwrap(), &scratch, "fallback rebuild");
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

    /// Disables one edge both via [`disable_edge_update`] and from scratch
    /// under the mask and checks the repaired DAG matches bit-for-bit.
    fn check_disable(g: &Digraph, w: &[f64], e: EdgeId, target: NodeId, cap: usize) {
        let prev = shortest_path_dag(g, w, target, &[]);
        let mut disabled = vec![false; g.edge_count()];
        disabled[e.index()] = true;
        let scratch = shortest_path_dag(g, w, target, &disabled);
        let got = match disable_edge_update(g, w, &prev, e, cap, &disabled) {
            SpDagUpdate::Unchanged => prev,
            SpDagUpdate::Repaired(d, _) | SpDagUpdate::Rebuilt(d) => d,
        };
        assert_same_dag(
            &got,
            &scratch,
            &format!("disable e={e:?} target={target:?}"),
        );
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
        let upd = disable_edge_update(&g, &w, &prev, EdgeId(2), usize::MAX, &disabled);
        let dag = upd.into_dag().expect("on-DAG edge must dirty the DAG");
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
                let upd = update_shortest_path_dag(&g, &w, &prev, e, old_w, usize::MAX, &disabled);
                let got = match upd {
                    SpDagUpdate::Unchanged => prev,
                    SpDagUpdate::Repaired(d, _) | SpDagUpdate::Rebuilt(d) => d,
                };
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
