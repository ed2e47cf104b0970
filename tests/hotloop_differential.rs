//! The hot path: the bucket-queue (Dial) Dijkstra engine and the SP-DAG
//! repairs match the heap oracle and from-scratch builds bit for bit, and
//! the whole evaluator stack on Germany50 matches the from-scratch oracle
//! at 1, 2, 4 and 8 threads. The `dag` and `walk` kinds live in
//! `segrout::check::differential`; the case table in
//! `tests/differential/mod.rs`.

mod differential;

use differential::{dag_networks, germany50};
use segrout::check::differential::{dag_engines, dag_repairs, run_kind, walk, Grid};

/// Dial vs the heap oracle on every target, intact and masked.
#[test]
fn distances_and_dags_bit_identical_across_engines() {
    dag_engines(&dag_networks());
}

/// Weight repair walks and link down/up walks at frontier caps 8 and `n`.
#[test]
fn update_paths_match_forced_heap_scratch() {
    dag_repairs(&dag_networks());
}

/// `walk` on Germany50's 40-demand matrix: `Router` and
/// `IncrementalEvaluator` together, every destination in play.
#[test]
fn evaluator_stack_identical_at_1_and_4_threads() {
    run_kind("walk", Grid::Full, vec![germany50()], walk);
}
