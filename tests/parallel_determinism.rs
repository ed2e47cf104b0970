//! The pool's contract: thread count is a pure performance knob. HeurOSPF
//! weights, GreedyWPO waypoints, JOINT-Heur results and the ECMP
//! evaluator's loads are bit-identical at 1, 2, 4 and 8 threads. GreedyWPO's
//! waypoints must also equal a dense reference greedy's at 1 thread, on
//! as-is and split demands, one and four matrices, budgets 1 and 2, and the
//! evaluator's routing of every case, as-is and waypointed, must pass the
//! paper's routing invariants at 1 thread. The kinds live in
//! `segrout::check::differential`, the case table in
//! `tests/differential/mod.rs`; Germany50 is left out of the HeurOSPF and
//! JOINT-Heur runs, which take seconds there in a debug build, and runs
//! GreedyWPO on its split demands at budget 1 only.

mod differential;

use differential::{cases, detoured, small_cases};
use segrout::check::differential::{invariants, joint, ospf, run_kind, wpo, Grid};

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
    run_kind("invariants", Grid::Full, cases(), invariants);
    run_kind(
        "waypointed invariants",
        Grid::Full,
        detoured(cases()),
        invariants,
    );
}
