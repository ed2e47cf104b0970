//! Failure scenarios: `probe_disable` matches `Router` on a copy of the
//! network with the failed edges deleted, bit for bit and with the same
//! disconnect classification, and the probes and `sweep_failures` reports
//! are identical at 1, 2, 4 and 8 threads. The `disable` and `sweep` kinds
//! live in `segrout::check::differential`; the case table in
//! `tests/differential/mod.rs`.

mod differential;

use differential::cases;
use segrout::check::differential::{disable, run_kind, sweep, Grid};

/// Every case must keep some failure routable, or its checks are vacuous.
#[test]
fn disable_probes_match_deleted_topology_rerouting() {
    run_kind("disable", Grid::Oracle, cases(), |c, x| {
        let trace = disable(c, x);
        let (patterns, _intact) = trace.split_at(trace.len() - 1);
        assert!(
            patterns.iter().any(|row| !row.is_empty()),
            "every failure disconnected"
        );
        trace
    });
}

#[test]
fn probe_traces_identical_across_threads() {
    run_kind("disable", Grid::Threads, cases(), disable);
}

/// The sweep at scalings 0.8/1.0/1.2; every row equals a probe and the
/// oracle on the scaled demands.
#[test]
fn sweep_reports_bit_stable_across_threads() {
    run_kind("sweep", Grid::Full, cases(), sweep);
}
