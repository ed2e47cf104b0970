//! A rejected probe costs a fixed handful of allocations, however many
//! destinations it dirties and whichever Dijkstra engine its repairs fall
//! back to: the repair, the frontier-cap fallback to a full Dijkstra, the
//! re-spread and the fold run in per-thread scratch, and a probe keeps only
//! its sparse answer (the totals and the diff a commit would apply). A
//! failure of two links on one DAG is one bounded repair, not a full
//! Dijkstra. A demand update (`set_demand`) also costs a fixed handful,
//! however many demands the workload holds, and runs no Dijkstra. So does
//! a branch-and-bound node's warm LP solve, however many columns the
//! problem has: the problem's column form is built once, and the solve
//! borrows it. This file is its own test binary because it installs a
//! counting global allocator and reads the process-global counters.

use segrout::core::rng::StdRng;
use segrout::core::{
    DemandList, EdgeId, IncrementalEvaluator, Network, NodeId, Probe, WaypointSetting,
    WeightSetting,
};
use segrout::graph::shortest_path_dag;
use segrout::lp::{solve_lp_from, Cmp, LpStatus, Problem, Sense, VarId};
use segrout::topo::{by_name, geo_backbone};
use segrout::traffic::{gravity, mcf_synthetic, TrafficConfig};
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

/// Full Dijkstra runs so far: evaluator builds and repair fallbacks.
fn recomputes() -> u64 {
    segrout::obs::counter("ecmp.recomputes").get()
}

/// What one counted probe cost.
#[derive(Debug)]
struct Measured {
    allocs: usize,
    dirty: usize,
    /// Repairs that fell back to a full Dijkstra.
    recomputes: u64,
}

/// Runs `probe` once to grow the scratch, then again under the count.
fn measure(probe: impl Fn() -> Probe) -> Measured {
    let _ = probe();
    let before = recomputes();
    let (p, allocs) = allocations(&probe);
    Measured {
        allocs,
        dirty: p.dirty_count,
        recomputes: recomputes() - before,
    }
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

/// The four probe kinds, each on the most loaded edges whose probe
/// dirties at least `min_dirty` destinations (and, for the failures, stays
/// routable): a tenfold weight probe, a single failure, a double failure
/// whose two edges lie on one DAG for at least three destinations, and a
/// tenfold weight probe whose repair takes the frontier-cap fallback for
/// some destination. Each edge of the double failure fails alone without a
/// fallback, so only the destinations whose DAG holds both can take one.
/// Returns the four with the number of those destinations.
fn probe_allocations(net: &Network, integral: bool, min_dirty: usize) -> ([Measured; 4], usize) {
    let d = demands(net);
    let w = weights(net, 7, integral);
    let ev =
        IncrementalEvaluator::new(net, &w, &d, &WaypointSetting::none(d.len())).expect("routable");
    let mut by_load: Vec<EdgeId> = (0..net.edge_count() as u32).map(EdgeId).collect();
    by_load.sort_by(|a, b| ev.loads()[b.index()].total_cmp(&ev.loads()[a.index()]));
    let heavier = |e: EdgeId| 10.0 * ev.weights()[e.index()];
    let dirty = |p: Result<_, _>| p.map_or(0, |p: Probe| p.dirty_count);
    let pick = |dirtied: &dyn Fn(EdgeId) -> bool| {
        by_load
            .iter()
            .copied()
            .find(|&e| dirtied(e))
            .expect("some link dirties enough destinations")
    };
    let e = pick(&|e| dirty(ev.probe(e, heavier(e))) >= min_dirty);
    let f = pick(&|f| dirty(ev.probe_disable(&[f])) >= min_dirty);
    let full = pick(&|e| {
        let before = recomputes();
        dirty(ev.probe(e, heavier(e))) >= min_dirty && recomputes() > before
    });
    // The first pair of loaded links that share at least three
    // destinations' DAGs and each fail alone without a fallback.
    let g = net.graph();
    let dags: Vec<_> = (0..net.node_count() as u32)
        .map(|t| shortest_path_dag(g, w.as_slice(), NodeId(t), &[]))
        .collect();
    let shared = |a: EdgeId, b: EdgeId| {
        dags.iter()
            .filter(|dag| dag.edge_on_dag[a.index()] && dag.edge_on_dag[b.index()])
            .count()
    };
    let bounded_alone = |e: EdgeId| {
        let before = recomputes();
        ev.probe_disable(&[e]).is_ok() && recomputes() == before
    };
    let pair = by_load
        .iter()
        .flat_map(|&a| by_load.iter().map(move |&b| [a, b]))
        .find(|&[a, b]| {
            a < b
                && shared(a, b) >= 3
                && bounded_alone(a)
                && bounded_alone(b)
                && dirty(ev.probe_disable(&[a, b])) >= min_dirty
        })
        .expect("two links share enough DAGs");

    let kinds = [
        measure(|| ev.probe(e, heavier(e)).unwrap()),
        measure(|| ev.probe_disable(&[f]).unwrap()),
        measure(|| ev.probe_disable(&pair).unwrap()),
        measure(|| ev.probe(full, heavier(full)).unwrap()),
    ];
    (kinds, shared(pair[0], pair[1]))
}

#[test]
fn a_probe_allocates_a_fixed_handful() {
    let g50 = by_name("Germany50").expect("embedded");
    let geo = geo_backbone(400, 800, 400);
    for integral in [true, false] {
        let (small, shared50) = probe_allocations(&g50, integral, 10);
        let (large, shared400) = probe_allocations(&geo, integral, 100);
        let kinds = [
            "weight probe",
            "failure probe",
            "double-failure probe",
            "fallback probe",
        ];
        for ((what, s), l) in kinds.iter().zip(&small).zip(&large) {
            let what = format!("{what} (integral weights: {integral})");
            assert!(s.dirty >= 10 && l.dirty >= 100, "{what}: {s:?}, {l:?}");
            assert!(s.allocs <= 8 && l.allocs <= 8, "{what}: {s:?}, {l:?}");
            // The count does not grow with the damage: the geo400 probes
            // dirty ten times the destinations of the Germany50 ones.
            assert_eq!(s.allocs, l.allocs, "{what}");
        }
        for (net, kinds, shared) in [
            ("Germany50", &small, shared50),
            ("geo400", &large, shared400),
        ] {
            let [_, _, double, fallback] = kinds;
            // Both dead edges lie on `shared` DAGs, and each fails alone
            // without a fallback: a full Dijkstra can only come from a
            // repair over both that outgrows the frontier cap.
            let what = format!("{net} double failure (integral weights: {integral})");
            assert!(
                double.recomputes < shared as u64,
                "{what}: {double:?} on {shared} DAGs"
            );
            assert!(
                fallback.recomputes > 0,
                "{net} fallback probe: {fallback:?}"
            );
        }
    }
}

/// The allocations and full Dijkstra runs of one `set_demand` that doubles
/// the heaviest demand, measured after a warm-up that makes the same
/// update and undoes it, which restores the state bit for bit.
fn demand_update(net: &Network, demands: &DemandList) -> (usize, u64) {
    let w = weights(net, 7, true);
    let wp = WaypointSetting::none(demands.len());
    let mut ev = IncrementalEvaluator::new(net, &w, demands, &wp).expect("routable");
    let sizes = demands.as_slice().iter().map(|d| d.size);
    let (k, size) = sizes
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    assert!(ev.set_demand(k, 2.0 * size).unwrap());
    assert!(ev.set_demand(k, size).unwrap());
    let before = recomputes();
    let (changed, allocs) = allocations(|| ev.set_demand(k, 2.0 * size).unwrap());
    assert!(changed);
    (allocs, recomputes() - before)
}

#[test]
fn a_demand_update_allocates_a_fixed_handful() {
    let g50 = by_name("Germany50").expect("embedded");
    let geo = geo_backbone(400, 800, 400);
    let all_pairs = TrafficConfig {
        seed: 808,
        ..Default::default()
    };
    let sparse = TrafficConfig {
        pair_fraction: 0.02,
        flows_per_pair: Some(1),
        mcf_epsilon: 0.2,
        ..Default::default()
    };
    let g50_demands = gravity(&g50, &all_pairs).expect("routable");
    let geo_demands = mcf_synthetic(&geo, &sparse).expect("routable");
    assert_eq!(g50_demands.len(), 2450);
    assert!(geo_demands.len() > 3000, "{}", geo_demands.len());
    let small = demand_update(&g50, &g50_demands);
    let large = demand_update(&geo, &geo_demands);
    assert!(small.0 <= 8 && large.0 <= 8, "{small:?}, {large:?}");
    assert_eq!(
        small.0, large.0,
        "the count does not grow with the workload"
    );
    assert_eq!((small.1, large.1), (0, 0), "no DAG is rebuilt");
}

/// A WPO-style selection LP: minimize θ over 16 demands that each pick a
/// convex combination of 4 options, under 12 capacity rows `Σ load · y ≤
/// cap · θ`. With `copies > 1`, every option column gets `copies − 1`
/// duplicates with cost 1, which never price in ahead of the original, so
/// the simplex takes the same pivots with `copies` times the columns.
/// Variables: θ, then the originals, then the duplicates.
fn selection_lp(copies: usize) -> Problem {
    const DEMANDS: usize = 16;
    const OPTIONS: usize = 4;
    const LINKS: usize = 12;
    let mut rng = StdRng::seed_from_u64(11);
    let loads: Vec<Vec<f64>> = (0..DEMANDS * OPTIONS)
        .map(|_| {
            (0..LINKS)
                .map(|_| {
                    if rng.gen_range(0..3u32) == 0 {
                        1.0 + f64::from(rng.gen_range(0..9u32))
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    let mut p = Problem::new(Sense::Minimize);
    let theta = p.add_var(0.0, f64::INFINITY, 1.0);
    let columns: Vec<Vec<VarId>> = (0..copies)
        .map(|c| {
            let cost = if c == 0 { 0.0 } else { 1.0 };
            (0..DEMANDS * OPTIONS)
                .map(|_| p.add_var(0.0, 1.0, cost))
                .collect()
        })
        .collect();
    for i in 0..DEMANDS {
        let terms = columns
            .iter()
            .flat_map(|ys| &ys[i * OPTIONS..(i + 1) * OPTIONS])
            .map(|&y| (y, 1.0))
            .collect();
        p.add_constraint(terms, Cmp::Eq, 1.0);
    }
    for e in 0..LINKS {
        let mut terms: Vec<(VarId, f64)> = columns
            .iter()
            .flat_map(|ys| ys.iter().zip(&loads))
            .filter(|(_, l)| l[e] != 0.0)
            .map(|(&y, l)| (y, l[e]))
            .collect();
        terms.push((theta, -(6.0 + e as f64)));
        p.add_constraint(terms, Cmp::Le, 0.0);
    }
    p
}

/// The allocations and pivots of one warm node solve of
/// [`selection_lp`]: the root's most fractional option fixed to 0, solved
/// from the root's basis, measured after the same solve once as warm-up.
fn lp_node(copies: usize) -> (usize, usize) {
    let p = selection_lp(copies);
    let (root, basis) = solve_lp_from(&p, p.lower_bounds(), p.upper_bounds(), None, None);
    assert_eq!(root.status, LpStatus::Optimal);
    let basis = basis.expect("an optimal solve returns its basis");
    let j = (1..p.num_vars())
        .max_by(|&a, &b| {
            let frac = |j: usize| 0.5 - (root.values[j] - 0.5).abs();
            frac(a).total_cmp(&frac(b)).then(b.cmp(&a))
        })
        .unwrap();
    assert!(root.values[j] > 1e-6, "the root is fractional");
    let mut upper = p.upper_bounds().to_vec();
    upper[j] = 0.0;
    let node = || solve_lp_from(&p, p.lower_bounds(), &upper, None, Some(&basis));
    let _ = node();
    let ((r, _), allocs) = allocations(node);
    assert_eq!(r.status, LpStatus::Optimal);
    (allocs, r.iterations)
}

#[test]
fn a_warm_lp_node_allocates_a_fixed_handful() {
    let (small, small_pivots) = lp_node(1);
    let (large, large_pivots) = lp_node(10);
    assert!(small_pivots > 0, "the node pivots");
    assert_eq!(small_pivots, large_pivots, "the duplicates never enter");
    // The solve's dense vectors and scratch, the eta file's growth, the
    // result, the basis snapshot and the metric lookups.
    assert!(small <= 32, "{small} allocations");
    assert_eq!(small, large, "the count does not grow with the columns");
}
