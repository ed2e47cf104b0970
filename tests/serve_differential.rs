//! The serving session: after every event of a scripted walk its state
//! matches the from-scratch oracle, its weight diff replays, error replies
//! change nothing and every local search is reproducible; and the whole
//! walk is bit-identical at 1, 2, 4 and 8 threads. The `serve` kind lives
//! in the differential harness (`tests/differential/mod.rs`).

mod differential;

use differential::{cases, run_kind, serve, Grid};

#[test]
fn post_event_state_matches_scratch_rebuild_on_all_cases() {
    run_kind("serve", Grid::Oracle, cases(), serve);
}

#[test]
fn event_walk_bit_identical_across_threads() {
    run_kind("serve", Grid::Threads, cases(), serve);
}
