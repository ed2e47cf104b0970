//! The pool's contract: thread count is a pure performance knob. HeurOSPF
//! weights, GreedyWPO waypoints, JOINT-Heur results and the ECMP
//! evaluator's loads are bit-identical at 1, 2, 4 and 8 threads. The
//! optimizer kinds live in the differential harness
//! (`tests/differential/mod.rs`); Germany50 is left out of the optimizer
//! runs, which take seconds there in a debug build.

mod differential;

use differential::{cases, joint, ospf, router, run_kind, small_cases, wpo, Grid};

#[test]
fn heur_ospf_is_thread_count_invariant() {
    run_kind("heur_ospf", Grid::Threads, small_cases(), ospf);
}

#[test]
fn greedy_wpo_is_thread_count_invariant() {
    run_kind("greedy_wpo", Grid::Threads, small_cases(), wpo);
}

#[test]
fn joint_heur_is_thread_count_invariant() {
    run_kind("joint_heur", Grid::Full, small_cases(), joint);
}

#[test]
fn parallel_evaluator_is_thread_count_invariant() {
    run_kind("router", Grid::Threads, cases(), router);
}
