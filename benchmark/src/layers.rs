//! Per-layer metrics of a traced run, and the counter snapshots most of
//! them are derived from. Their names, units and directions are declared in
//! `BENCHMARK.json`; which end-to-end metric each should move is in the
//! README.
//!
//! Counts are deltas of the program's own `segrout-obs` counters over the
//! traced phase, divided by the number of operations where the name says
//! `/op`, so they compare across commits that complete a different number of
//! operations in the same time. Times come from the benchmark's spans around
//! calls into a layer, or from the program's algorithm-level spans through
//! the call-tree profiler.

use segrout_obs::ProfileNode;
use std::collections::BTreeMap;

/// The per-layer values of one traced run. A metric the workload does not
/// reach is never set and reads 0.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets a metric; a non-finite value (a ratio over nothing) reads 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Names that were set but are missing from `declared`.
    pub fn undeclared<'a>(&'a self, declared: &[String]) -> Vec<&'a str> {
        self.0
            .keys()
            .copied()
            .filter(|n| !declared.iter().any(|d| d == n))
            .collect()
    }
}

/// The `segrout-obs` counters the per-layer metrics are derived from.
const COUNTERS: &[&str] = &[
    "dijkstra.runs",
    "dijkstra.relaxations",
    "dijkstra.bucket_ops",
    "incr.probes",
    "incr.dirty_dests",
    "incr.clean_dests",
    "incr.repairs",
    "arena.reuses",
    "arena.rebuilds",
    "ecmp.recomputes",
    "par.tasks",
    "par.batches",
    "heurospf.iterations",
    "greedywpo.candidates_evaluated",
    "reopt.evaluations",
    "milp.nodes",
    "milp.nodes_warm_started",
    "simplex.pivots",
    "simplex.refactorizations",
];

/// The pool's parked-wait histogram.
const WAIT_HISTOGRAM: &str = "par.steal_or_queue_wait";

/// Counter and wait-histogram values at one instant.
pub struct Snapshot {
    counters: Vec<u64>,
    wait_sum_ms: f64,
    wait_buckets: Vec<u64>,
}

fn wait_histogram() -> std::sync::Arc<segrout_obs::Histogram> {
    segrout_obs::histogram(WAIT_HISTOGRAM, segrout_obs::time_bounds_ms())
}

impl Snapshot {
    pub fn take() -> Self {
        let wait = wait_histogram();
        Self {
            counters: COUNTERS
                .iter()
                .map(|n| segrout_obs::counter(n).get())
                .collect(),
            wait_sum_ms: wait.sum(),
            wait_buckets: wait.bucket_counts(),
        }
    }

    /// What happened between `self` and `later`.
    pub fn delta(&self, later: &Snapshot) -> Delta {
        let counters = COUNTERS
            .iter()
            .zip(self.counters.iter().zip(&later.counters))
            .map(|(&n, (a, b))| (n, (b - a) as f64))
            .collect();
        let buckets: Vec<u64> = self
            .wait_buckets
            .iter()
            .zip(&later.wait_buckets)
            .map(|(a, b)| b - a)
            .collect();
        Delta {
            counters,
            wait_sum_ms: later.wait_sum_ms - self.wait_sum_ms,
            wait_p99_ms: bucket_quantile(segrout_obs::time_bounds_ms(), &buckets, 0.99),
        }
    }
}

/// Upper bound of the bucket holding the `q`-quantile of a bucketed sample
/// (the overflow bucket reports the last finite bound); 0 when empty.
fn bucket_quantile(bounds: &[f64], counts: &[u64], q: f64) -> f64 {
    let n: u64 = counts.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let target = (q * n as f64).ceil().max(1.0) as u64;
    let mut cum = 0;
    for (i, &c) in counts.iter().enumerate() {
        cum += c;
        if cum >= target {
            return bounds[i.min(bounds.len() - 1)];
        }
    }
    bounds[bounds.len() - 1]
}

/// Counter deltas over one traced phase.
pub struct Delta {
    counters: BTreeMap<&'static str, f64>,
    wait_sum_ms: f64,
    wait_p99_ms: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Delta {
    pub fn get(&self, name: &str) -> f64 {
        self.counters[name]
    }

    /// Fills every metric derived from counters alone, per operation.
    pub fn fill(&self, ops: usize, out: &mut Layers) {
        let per_op = |name: &str| ratio(self.get(name), ops as f64);
        out.set("graph.dijkstra_runs", per_op("dijkstra.runs"));
        out.set(
            "graph.relax_per_run",
            ratio(self.get("dijkstra.relaxations"), self.get("dijkstra.runs")),
        );
        out.set("graph.bucket_ops", per_op("dijkstra.bucket_ops"));
        out.set("core.probes", per_op("incr.probes"));
        out.set(
            "core.arena_reuse_ratio",
            ratio(self.get("arena.reuses"), self.get("incr.probes")),
        );
        let (dirty, clean) = (self.get("incr.dirty_dests"), self.get("incr.clean_dests"));
        out.set("core.dirty_ratio", ratio(dirty, dirty + clean));
        out.set("core.repair_ratio", ratio(self.get("incr.repairs"), dirty));
        out.set("core.arena_rebuilds", per_op("arena.rebuilds"));
        out.set("core.ecmp_recomputes", per_op("ecmp.recomputes"));
        out.set("par.batches", per_op("par.batches"));
        out.set(
            "par.tasks_per_batch",
            ratio(self.get("par.tasks"), self.get("par.batches")),
        );
        out.set("par.wait_ms.sum", ratio(self.wait_sum_ms, ops as f64));
        out.set("par.wait_ms.p99", self.wait_p99_ms);
        out.set("algos.heurospf_iterations", per_op("heurospf.iterations"));
        out.set(
            "algos.greedywpo_candidates",
            per_op("greedywpo.candidates_evaluated"),
        );
        let (nodes, pivots) = (self.get("milp.nodes"), self.get("simplex.pivots"));
        out.set("lp.nodes", per_op("milp.nodes"));
        out.set("lp.pivots", per_op("simplex.pivots"));
        out.set("lp.pivots_per_node", ratio(pivots, nodes));
        out.set("lp.refactorizations", per_op("simplex.refactorizations"));
        out.set(
            "lp.warm_ratio",
            ratio(self.get("milp.nodes_warm_started"), nodes),
        );
    }
}

/// Total and self time (ms) of every profiler node whose innermost frame is
/// `name`, summed over call paths.
pub fn profile_ms(nodes: &[ProfileNode], name: &str) -> (f64, f64) {
    nodes
        .iter()
        .filter(|n| n.path.rsplit(';').next() == Some(name))
        .fold((0.0, 0.0), |(t, s), n| (t + n.total_ms, s + n.self_ms))
}

/// Fills the metrics taken from the program's algorithm-level spans.
pub fn fill_profile(nodes: &[ProfileNode], ops: usize, delta: &Delta, out: &mut Layers) {
    let per_op = |ms: f64| ratio(ms, ops as f64);
    out.set("algos.heurospf_ms", per_op(profile_ms(nodes, "heurospf").0));
    out.set(
        "algos.greedywpo_ms",
        per_op(profile_ms(nodes, "greedywpo").0),
    );
    out.set(
        "par.batch_self_ms",
        per_op(profile_ms(nodes, "par.batch").1),
    );
    let simplex_ms = profile_ms(nodes, "simplex").0;
    out.set(
        "lp.us_per_pivot",
        ratio(simplex_ms * 1e3, delta.get("simplex.pivots")),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_quantile_reports_the_bucket_bound() {
        let bounds = [1.0, 2.0, 4.0];
        assert_eq!(bucket_quantile(&bounds, &[0, 0, 0, 0], 0.99), 0.0);
        assert_eq!(bucket_quantile(&bounds, &[98, 1, 1, 0], 0.99), 2.0);
        assert_eq!(bucket_quantile(&bounds, &[1, 0, 0, 5], 0.5), 4.0);
    }

    #[test]
    fn unset_and_non_finite_metrics_read_zero() {
        let mut l = Layers::default();
        assert_eq!(l.get("lp.nodes"), 0.0);
        l.set("lp.nodes", f64::NAN);
        assert_eq!(l.get("lp.nodes"), 0.0);
        l.set("lp.pivots", 3.0);
        assert_eq!(l.undeclared(&["lp.pivots".to_string()]), ["lp.nodes"]);
    }
}
