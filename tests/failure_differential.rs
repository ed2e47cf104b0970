//! Failure scenarios: `probe_disable` matches `Router` on a copy of the
//! network with the failed edges deleted, bit for bit and with the same
//! disconnect classification, and the probes and `sweep_failures` reports
//! are identical at 1, 2, 4 and 8 threads. The `disable` and `sweep` kinds
//! live in the differential harness (`tests/differential/mod.rs`).

mod differential;

use differential::{cases, disable, run_kind, sweep, Grid};

#[test]
fn disable_probes_match_deleted_topology_rerouting() {
    run_kind("disable", Grid::Oracle, cases(), disable);
}

#[test]
fn probe_traces_identical_across_threads() {
    run_kind("disable", Grid::Threads, cases(), disable);
}

/// The sweep at scalings 0.8/1.0/1.2; its 1.0 rows equal the probes.
#[test]
fn sweep_reports_bit_stable_across_threads() {
    run_kind("sweep", Grid::Full, cases(), sweep);
}
