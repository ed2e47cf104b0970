//! The serving session: after every event of a scripted walk its state
//! matches the from-scratch oracle, its weight diff replays, error replies
//! change nothing, every local search is reproducible and its tallies agree
//! with its responses; and the whole walk is bit-identical at 1, 2, 4 and
//! 8 threads, intact and waypointed. The `serve` kind lives in
//! `segrout::check::differential`; the case table in
//! `tests/differential/mod.rs`.

mod differential;

use differential::{cases, detoured};
use segrout::check::differential::{run_kind, serve, Grid};

#[test]
fn post_event_state_matches_scratch_rebuild_on_all_cases() {
    run_kind("serve", Grid::Oracle, cases(), serve);
}

#[test]
fn event_walk_bit_identical_across_threads() {
    run_kind("serve", Grid::Threads, cases(), serve);
}

/// `serve` with every demand waypointed through a detour node, so a demand
/// event rewrites the injections of two destinations at once.
#[test]
fn waypointed_event_walk_matches_scratch_rebuild() {
    run_kind("waypointed serve", Grid::Full, detoured(cases()), serve);
}
