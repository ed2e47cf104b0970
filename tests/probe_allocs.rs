//! A rejected probe costs a fixed handful of allocations, however many
//! destinations it dirties and whichever Dijkstra engine its repairs fall
//! back to: the repair, the full-Dijkstra rebuild, the re-spread and the
//! fold run in per-thread scratch, and a probe keeps only its sparse
//! answer (the totals and the diff a commit would apply). This file is its own test
//! binary because it installs a counting global allocator.

use segrout::core::rng::StdRng;
use segrout::core::{
    DemandList, EdgeId, IncrementalEvaluator, Network, NodeId, WaypointSetting, WeightSetting,
};
use segrout::graph::shortest_path_dag;
use segrout::topo::{by_name, geo_backbone};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations each thread makes and forwards them to the
/// system allocator.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local without a destructor, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations the calling thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Integral weights in 1..=20, so every repair and full Dijkstra runs on
/// the bucket queue; or, with `integral` off, the same draws plus a
/// fractional part, as an inverse-capacity setting has, so every full
/// Dijkstra runs on the binary heap.
fn weights(net: &Network, seed: u64, integral: bool) -> WeightSetting {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = (0..net.edge_count())
        .map(|_| {
            let w = f64::from(rng.gen_range(1..=20u32));
            if integral {
                w
            } else {
                w + rng.gen::<f64>()
            }
        })
        .collect();
    WeightSetting::new(net, w).unwrap()
}

/// Two demands into every node, so every node is a destination.
fn demands(net: &Network) -> DemandList {
    let n = net.node_count() as u32;
    let mut d = DemandList::new();
    for t in 0..n {
        d.push(NodeId((t + 1) % n), NodeId(t), 1.0 + f64::from(t % 7));
        d.push(NodeId((t + n / 2) % n), NodeId(t), 0.5);
    }
    d
}

/// Allocations of the three probe kinds, each on the most loaded edges
/// whose probe dirties at least `min_dirty` destinations (and, for the
/// failures, stays routable): a tenfold weight probe, a single failure,
/// and a double failure whose two edges lie on one DAG for at least three
/// destinations, so those destinations take a full Dijkstra rebuild. Each
/// probe runs once to grow the scratch, then again under the count.
/// Returns `(allocations, dirty destinations)` of each.
fn probe_allocations(net: &Network, integral: bool, min_dirty: usize) -> [(usize, usize); 3] {
    let d = demands(net);
    let w = weights(net, 7, integral);
    let ev =
        IncrementalEvaluator::new(net, &w, &d, &WaypointSetting::none(d.len())).expect("routable");
    let mut by_load: Vec<EdgeId> = (0..net.edge_count() as u32).map(EdgeId).collect();
    by_load.sort_by(|a, b| ev.loads()[b.index()].total_cmp(&ev.loads()[a.index()]));
    let heavier = |e: EdgeId| 10.0 * ev.weights()[e.index()];
    let dirty = |p: Result<_, _>| p.map_or(0, |p: segrout::core::Probe| p.dirty_count);
    let pick = |dirtied: &dyn Fn(EdgeId) -> usize| {
        by_load
            .iter()
            .copied()
            .find(|&e| dirtied(e) >= min_dirty)
            .expect("some link dirties enough destinations")
    };
    let e = pick(&|e| dirty(ev.probe(e, heavier(e))));
    let f = pick(&|f| dirty(ev.probe_disable(&[f])));
    // The heaviest link paired with the first other link that shares at
    // least three destinations' DAGs with it.
    let g = net.graph();
    let dags: Vec<_> = (0..net.node_count() as u32)
        .map(|t| shortest_path_dag(g, w.as_slice(), NodeId(t), &[]))
        .collect();
    let shared = |a: EdgeId, b: EdgeId| {
        dags.iter()
            .filter(|dag| dag.edge_on_dag[a.index()] && dag.edge_on_dag[b.index()])
            .count()
    };
    let pair = by_load
        .iter()
        .flat_map(|&a| by_load.iter().map(move |&b| [a, b]))
        .find(|&[a, b]| a < b && shared(a, b) >= 3 && dirty(ev.probe_disable(&[a, b])) >= min_dirty)
        .expect("two links share enough DAGs");

    let _ = ev.probe(e, heavier(e));
    let (p, weight) = allocations(|| ev.probe(e, heavier(e)).unwrap());
    let weight_dirty = p.dirty_count;
    let _ = ev.probe_disable(&[f]);
    let (p, disable) = allocations(|| ev.probe_disable(&[f]).unwrap());
    let disable_dirty = p.dirty_count;
    let _ = ev.probe_disable(&pair);
    let (p, double) = allocations(|| ev.probe_disable(&pair).unwrap());
    [
        (weight, weight_dirty),
        (disable, disable_dirty),
        (double, p.dirty_count),
    ]
}

#[test]
fn a_probe_allocates_a_fixed_handful() {
    let g50 = by_name("Germany50").expect("embedded");
    let geo = geo_backbone(400, 800, 400);
    for integral in [true, false] {
        let small = probe_allocations(&g50, integral, 10);
        let large = probe_allocations(&geo, integral, 100);
        let kinds = ["weight probe", "failure probe", "double-failure probe"];
        for ((what, (n50, d50)), (n400, d400)) in kinds.iter().zip(small).zip(large) {
            let what = format!("{what} (integral weights: {integral})");
            assert!(d50 >= 10 && d400 >= 100, "{what} dirties {d50}, {d400}");
            assert!(n50 <= 8 && n400 <= 8, "{what}: {n50}, {n400} allocations");
            // The count does not grow with the damage: the geo400 probes
            // dirty ten times the destinations of the Germany50 ones.
            assert_eq!(n50, n400, "{what}");
        }
    }
}
