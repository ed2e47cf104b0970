//! The pool's contract: thread count is a pure performance knob. HeurOSPF
//! weights, GreedyWPO waypoints, JOINT-Heur results and the ECMP
//! evaluator's loads are bit-identical at 1, 2, 4 and 8 threads. GreedyWPO's
//! waypoints must also equal a dense reference greedy's at 1 thread, on
//! as-is and split demands, one and three matrices, budgets 1 and 2. The
//! optimizer kinds live in the differential harness
//! (`tests/differential/mod.rs`); Germany50 is left out of the HeurOSPF and
//! JOINT-Heur runs, which take seconds there in a debug build, and runs
//! GreedyWPO on its split demands only.

mod differential;

use differential::{cases, joint, ospf, router, run_kind, small_cases, wpo, Grid};

#[test]
fn heur_ospf_is_thread_count_invariant() {
    run_kind("heur_ospf", Grid::Threads, small_cases(), ospf);
}

#[test]
fn greedy_wpo_is_thread_count_invariant() {
    run_kind("greedy_wpo", Grid::Full, cases(), wpo);
}

#[test]
fn joint_heur_is_thread_count_invariant() {
    run_kind("joint_heur", Grid::Full, small_cases(), joint);
}

#[test]
fn parallel_evaluator_is_thread_count_invariant() {
    run_kind("router", Grid::Threads, cases(), router);
}
