//! A rejected probe costs a fixed handful of allocations, however many
//! destinations it dirties: the repair, the re-spread and the fold run in
//! per-thread scratch, and a probe keeps only its sparse answer (the
//! totals and the diff a commit would apply). This file is its own test
//! binary because it installs a counting global allocator.

use segrout::core::rng::StdRng;
use segrout::core::{
    DemandList, EdgeId, IncrementalEvaluator, Network, NodeId, WaypointSetting, WeightSetting,
};
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
/// the bucket queue.
fn weights(net: &Network, seed: u64) -> WeightSetting {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = (0..net.edge_count())
        .map(|_| f64::from(rng.gen_range(1..=20u32)))
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

/// Counts the allocations of a tenfold weight probe and of a failure
/// probe, each on the most loaded edge whose probe dirties at least
/// `min_dirty` destinations (and, for the failure, stays routable). Each
/// probe runs once to grow the scratch, then again under the count.
/// Returns `(allocations, dirty destinations)` of each.
fn probe_allocations(net: &Network, min_dirty: usize) -> ((usize, usize), (usize, usize)) {
    let d = demands(net);
    let ev = IncrementalEvaluator::new(net, &weights(net, 7), &d, &WaypointSetting::none(d.len()))
        .expect("routable");
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

    let _ = ev.probe(e, heavier(e));
    let (p, weight) = allocations(|| ev.probe(e, heavier(e)).unwrap());
    let weight_dirty = p.dirty_count;
    let _ = ev.probe_disable(&[f]);
    let (p, disable) = allocations(|| ev.probe_disable(&[f]).unwrap());
    ((weight, weight_dirty), (disable, p.dirty_count))
}

#[test]
fn a_probe_allocates_a_fixed_handful() {
    let g50 = by_name("Germany50").expect("embedded");
    let geo = geo_backbone(400, 800, 400);
    let ((w50, d50), (x50, _)) = probe_allocations(&g50, 10);
    let ((w400, d400), (x400, x400_dirty)) = probe_allocations(&geo, 100);
    assert!(d50 >= 10 && d400 >= 100, "dirty: {d50}, {d400}");
    assert!(
        x400_dirty >= 100,
        "the failure dirties {x400_dirty} destinations"
    );
    for (what, n) in [
        ("Germany50 weight probe", w50),
        ("Germany50 failure probe", x50),
        ("geo400 weight probe", w400),
        ("geo400 failure probe", x400),
    ] {
        assert!(n <= 8, "{what}: {n} allocations");
    }
    // The count does not grow with the damage: the geo400 probes dirty ten
    // times the destinations of the Germany50 ones.
    assert_eq!(w50, w400, "weight probes");
    assert_eq!(x50, x400, "failure probes");
}
