//! Seeded differential fuzzer with case shrinking.
//!
//! [`fuzz_campaign`] derives one [`Case`] per index from the campaign seed,
//! runs it ([`Case::run`]: the case's differential kinds, the MCF bound and
//! the MILP oracle) under a panic shield, which turns a failed check into
//! [`CaseOutcome::Panic`], and — when a case fails — **shrinks** it to
//! a minimal reproducer by greedily dropping serve events, demands, and
//! links, rounding weights, clearing waypoints and simplifying execution knobs,
//! re-running after every mutation and keeping only mutations that preserve
//! the failure. Shrunk reproducers are written to the corpus directory in
//! the [`Case`] text format so `tests/corpus_replay.rs` pins them forever.

use crate::case::{Case, CaseOutcome};
use segrout_algos::ServeEvent;
use segrout_core::rng::StdRng;
use segrout_graph::{EdgeId, NodeId, EPS};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Campaign seed; case `i` is derived deterministically from it.
    pub seed: u64,
    /// Number of cases to generate and run.
    pub cases: usize,
    /// Shrink failing cases to minimal reproducers.
    pub shrink: bool,
    /// Where to write shrunk reproducers (`None` keeps them in memory only).
    pub corpus_dir: Option<PathBuf>,
    /// Skip the MCF lower bound, an FPTAS run on every case.
    pub fast: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            cases: 100,
            shrink: true,
            corpus_dir: None,
            fast: false,
        }
    }
}

/// One failing case, after shrinking.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Index of the generated case within the campaign.
    pub index: usize,
    /// The (shrunk) failing case.
    pub case: Case,
    /// The failure the shrunk case still reproduces.
    pub outcome: CaseOutcome,
    /// Number of accepted shrinking mutations.
    pub shrink_steps: usize,
    /// Where the reproducer was written, when a corpus directory was given.
    pub corpus_path: Option<PathBuf>,
}

/// Campaign summary.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: usize,
    /// Total individual checks across all passing cases.
    pub checks: usize,
    /// Cases that were benignly unroutable/unsolvable (not failures).
    pub benign_errors: usize,
    /// Every failure found, shrunk when shrinking is enabled.
    pub failures: Vec<FuzzFailure>,
}

/// Runs a case under a panic shield, mapping unwinds (a differential kind's
/// failed check among them) to [`CaseOutcome::Panic`].
fn run_guarded(case: &Case, fast: bool) -> CaseOutcome {
    match panic::catch_unwind(AssertUnwindSafe(|| case.run(fast))) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            CaseOutcome::Panic(msg)
        }
    }
}

/// Derives case `index` of the campaign from the campaign seed. Public so a
/// reported failure index can be regenerated without re-running the whole
/// campaign.
pub fn generate_case(campaign_seed: u64, index: usize) -> Case {
    let mut rng = StdRng::seed_from_u64(
        campaign_seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1),
    );
    let net = random_topology(&mut rng);
    let g = net.graph();
    let nodes = g.node_count();
    let links: Vec<(u32, u32, f64)> = g
        .edges()
        .map(|(e, u, v)| (u.0, v.0, net.capacities()[e.index()]))
        .collect();

    let mean_cap = links.iter().map(|&(_, _, c)| c).sum::<f64>() / links.len() as f64;
    let n_demands = rng.gen_range(1..=6usize);
    let mut demands = Vec::with_capacity(n_demands);
    for _ in 0..n_demands {
        let s = rng.gen_range(0..nodes as u32);
        let mut t = rng.gen_range(0..nodes as u32);
        while t == s {
            t = rng.gen_range(0..nodes as u32);
        }
        let size = mean_cap * (0.05 + 0.6 * rng.gen::<f64>());
        demands.push((s, t, size));
    }

    // Weight modes: unit (maximal ECMP ties), random small integers, and
    // fractionally perturbed integers (tie-breaking stress).
    let weights: Vec<f64> = match rng.gen_range(0..4u32) {
        0 => vec![1.0; links.len()],
        1 | 2 => (0..links.len())
            .map(|_| f64::from(rng.gen_range(1..=8u32)))
            .collect(),
        _ => (0..links.len())
            .map(|_| f64::from(rng.gen_range(1..=6u32)) + 0.25 * rng.gen::<f64>())
            .collect(),
    };

    // Robust multi-matrix dimension: some cases carry 1–5 extra traffic
    // matrices over the same pairs, mirroring the two set generators of
    // `segrout-traffic` — diurnal (per-node sinusoidal activity with random
    // phases, so matrices differ in *shape*) and gravity perturbation
    // (independent multiplicative jitter per demand).
    let n_extra = match rng.gen_range(0..100u32) {
        0..=54 => 0,
        55..=84 => rng.gen_range(1..=2usize),
        _ => rng.gen_range(3..=5usize),
    };
    let mut extra_matrices: Vec<Vec<f64>> = Vec::with_capacity(n_extra);
    if n_extra > 0 {
        let diurnal = rng.gen::<bool>();
        let phases: Vec<f64> = (0..nodes).map(|_| rng.gen::<f64>()).collect();
        for j in 0..n_extra {
            let mut row = Vec::with_capacity(demands.len());
            for &(s, t, size) in &demands {
                let factor = if diurnal {
                    let act = |v: u32| {
                        let x = (j + 1) as f64 / (n_extra + 1) as f64 + phases[v as usize];
                        1.0 + 0.6 * (2.0 * std::f64::consts::PI * x).sin()
                    };
                    act(s) * act(t)
                } else {
                    0.4 + 1.2 * rng.gen::<f64>()
                };
                row.push(size * factor);
            }
            extra_matrices.push(row);
        }
    }

    let waypoints: Vec<Vec<u32>> = demands
        .iter()
        .map(|&(s, t, _)| {
            let k = match rng.gen_range(0..100u32) {
                0..=7 => 2,
                8..=34 => 1,
                _ => 0,
            };
            let mut row = Vec::with_capacity(k);
            for _ in 0..k {
                let w = rng.gen_range(0..nodes as u32);
                if w != s && w != t && !row.contains(&w) {
                    row.push(w);
                }
            }
            row
        })
        .collect();

    // Serve-event dimension: some cases carry a random event stream for the
    // online-reoptimization differential — demand churn, link flaps (downed
    // links preferentially brought back, but *disconnecting* downs and
    // out-of-range indices stay in: the daemon must answer them with error
    // replies, not die), capacity changes, matrix swaps and keep-alives.
    // An eighth of the demand scalings, and every scaling of a demand
    // already at or below `EPS`, set the demand to its factor times 2·`EPS`
    // instead: the slice's factors (below 0.44) take it below `EPS`, where
    // it injects nothing, and most others bring it back. After such a dive
    // the next in-range scaling revisits that demand. The generator tracks
    // the sizes its events set; a refused event leaves the session's size
    // elsewhere.
    let n_events = match rng.gen_range(0..100u32) {
        0..=44 => 0,
        45..=79 => rng.gen_range(1..=4usize),
        _ => rng.gen_range(5..=10usize),
    };
    let mut down: Vec<u32> = Vec::new();
    let mut sizes: Vec<f64> = demands.iter().map(|&(_, _, size)| size).collect();
    let mut below: Option<usize> = None;
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        events.push(match rng.gen_range(0..10u32) {
            0..=3 => {
                let index = if rng.gen_range(0..8u32) == 0 {
                    demands.len() + rng.gen_range(0..3u64) as usize
                } else {
                    let drawn = rng.gen_range(0..demands.len() as u64) as usize;
                    below.take().unwrap_or(drawn)
                };
                let u = rng.gen::<f64>();
                let mut factor = 0.25 + 1.5 * u;
                if let Some(size) = sizes.get_mut(index) {
                    if u < 1.0 / 8.0 || *size <= EPS {
                        factor *= 2.0 * EPS / *size;
                    }
                    *size *= factor;
                    if *size <= EPS {
                        below = Some(index);
                    }
                }
                ServeEvent::DemandScale { index, factor }
            }
            4 | 5 => {
                let e = rng.gen_range(0..links.len() as u64) as u32;
                if !down.contains(&e) {
                    down.push(e);
                }
                ServeEvent::LinkDown { edge: EdgeId(e) }
            }
            6 => match down.pop() {
                Some(e) => ServeEvent::LinkUp { edge: EdgeId(e) },
                None => ServeEvent::Noop,
            },
            7 => ServeEvent::Capacity {
                edge: EdgeId(rng.gen_range(0..links.len() as u64) as u32),
                capacity: mean_cap * (0.25 + 1.5 * rng.gen::<f64>()),
            },
            8 => {
                let matrix: Vec<(NodeId, NodeId, f64)> = demands
                    .iter()
                    .map(|&(s, t, size)| (NodeId(s), NodeId(t), size * (0.5 + rng.gen::<f64>())))
                    .collect();
                sizes = matrix.iter().map(|&(_, _, size)| size).collect();
                below = None;
                ServeEvent::DemandMatrix { demands: matrix }
            }
            _ => ServeEvent::Noop,
        });
    }

    let threads = if rng.gen::<bool>() { 4 } else { 1 };
    // Two draws that no longer choose anything, kept so every campaign seed
    // still generates the cases it always did.
    let _ = rng.gen::<bool>();
    let _ = rng.gen::<bool>();
    Case {
        nodes,
        links,
        demands,
        extra_matrices,
        events,
        weights,
        waypoints,
        threads,
        pipeline: nodes <= 10,
        seed: rng.next_u64(),
    }
}

/// Draws one of the synthetic topology families (occasionally the embedded
/// Abilene backbone, validation-only scale).
fn random_topology(rng: &mut StdRng) -> segrout_core::Network {
    match rng.gen_range(0..12u32) {
        0 | 1 => segrout_topo::ring(rng.gen_range(3..=7usize), 100.0),
        2 | 3 => segrout_topo::grid(rng.gen_range(2..=3usize), rng.gen_range(2..=3usize), 100.0),
        4..=6 => {
            let n = rng.gen_range(4..=9usize);
            let links = (n + rng.gen_range(0..=n)).min(n * (n - 1) / 2);
            segrout_topo::random_connected(n, links, rng.next_u64())
        }
        7 | 8 => segrout_topo::waxman(rng.gen_range(5..=10usize), 0.6, 0.4, rng.next_u64()),
        9 | 10 => {
            let n = rng.gen_range(5..=10usize);
            let links = (n + rng.gen_range(1..=n)).min(n * (n - 1) / 2);
            segrout_topo::geo_backbone(n, links, rng.next_u64())
        }
        _ => segrout_topo::abilene(),
    }
}

/// One greedy shrinking pass list: every candidate mutation of `case`, in
/// preference order (structural deletions first, simplifications last).
fn mutations(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    // Event drops first: a failing event walk usually shrinks to the one
    // event that trips the invariant. No index re-syncing is needed —
    // out-of-range indices are legal inputs that draw error replies.
    for j in 0..case.events.len() {
        let mut c = case.clone();
        c.events.remove(j);
        out.push(c);
    }
    for j in 0..case.extra_matrices.len() {
        let mut c = case.clone();
        c.extra_matrices.remove(j);
        out.push(c);
    }
    for i in 0..case.demands.len() {
        let mut c = case.clone();
        c.demands.remove(i);
        c.waypoints.remove(i);
        for row in &mut c.extra_matrices {
            row.remove(i);
        }
        out.push(c);
    }
    for e in 0..case.links.len() {
        let mut c = case.clone();
        c.links.remove(e);
        c.weights.remove(e);
        out.push(c);
    }
    for i in 0..case.waypoints.len() {
        if !case.waypoints[i].is_empty() {
            let mut c = case.clone();
            c.waypoints[i].clear();
            out.push(c);
        }
    }
    for e in 0..case.weights.len() {
        let w = case.weights[e];
        if w.fract() != 0.0 {
            let mut c = case.clone();
            c.weights[e] = w.round().max(1.0);
            out.push(c);
        } else if w > 1.0 {
            let mut c = case.clone();
            c.weights[e] = 1.0;
            out.push(c);
        }
    }
    if case.threads != 1 {
        let mut c = case.clone();
        c.threads = 1;
        out.push(c);
    }
    if case.pipeline {
        let mut c = case.clone();
        c.pipeline = false;
        out.push(c);
    }
    out
}

/// Greedily shrinks a failing case, re-running after every mutation and
/// keeping only mutations that still fail. Returns the shrunk case, its
/// outcome, and the number of accepted mutations.
fn shrink_case(
    case: &Case,
    outcome: CaseOutcome,
    fast: bool,
    step_counter: &segrout_obs::Counter,
) -> (Case, CaseOutcome, usize) {
    const MAX_RUNS: usize = 400;
    let mut best = case.clone();
    let mut best_outcome = outcome;
    let mut accepted = 0usize;
    let mut runs = 0usize;
    loop {
        let mut improved = false;
        for cand in mutations(&best) {
            if runs >= MAX_RUNS {
                return (best, best_outcome, accepted);
            }
            runs += 1;
            let o = run_guarded(&cand, fast);
            if o.is_failure() {
                best = cand;
                best_outcome = o;
                accepted += 1;
                step_counter.inc();
                improved = true;
                break; // restart the pass on the smaller case
            }
        }
        if !improved {
            return (best, best_outcome, accepted);
        }
    }
}

/// Runs a full campaign: generate, execute, shrink, persist.
///
/// Panics raised by cases are contained by a panic shield; the process-wide
/// panic hook is silenced for the duration of the campaign so expected
/// unwinds don't spam stderr, and restored afterwards.
pub fn fuzz_campaign(cfg: &FuzzConfig) -> FuzzReport {
    let _span = segrout_obs::span("check.fuzz");
    let cases_counter = segrout_obs::counter("check.cases");
    let violations_counter = segrout_obs::counter("check.violations");
    let shrink_counter = segrout_obs::counter("check.shrink_steps");

    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));

    let mut report = FuzzReport::default();
    for index in 0..cfg.cases {
        let case = generate_case(cfg.seed, index);
        let outcome = run_guarded(&case, cfg.fast);
        report.cases += 1;
        cases_counter.inc();
        match outcome {
            CaseOutcome::Pass { checks } => report.checks += checks,
            CaseOutcome::Error(_) => report.benign_errors += 1,
            failing => {
                violations_counter.inc();
                let (case, outcome, shrink_steps) = if cfg.shrink {
                    shrink_case(&case, failing, cfg.fast, &shrink_counter)
                } else {
                    (case, failing, 0)
                };
                let corpus_path = cfg.corpus_dir.as_ref().and_then(|dir| {
                    let path = dir.join(format!("fuzz-{}-{index}.case", cfg.seed));
                    std::fs::create_dir_all(dir).ok()?;
                    std::fs::write(&path, case.to_text()).ok()?;
                    Some(path)
                });
                report.failures.push(FuzzFailure {
                    index,
                    case,
                    outcome,
                    shrink_steps,
                    corpus_path,
                });
            }
        }
    }

    panic::set_hook(prev_hook);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed_and_index() {
        let a = generate_case(42, 3);
        let b = generate_case(42, 3);
        let c = generate_case(43, 3);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_cases_are_well_formed() {
        // Wide sweep: generation itself must never panic (topology
        // preconditions!) and every case must round-trip exactly.
        for seed in [7u64, 42, 1234] {
            for index in 0..300 {
                let case = generate_case(seed, index);
                assert!(
                    case.network().is_ok(),
                    "seed {seed} case {index} has a bad topology"
                );
                assert_eq!(case.weights.len(), case.links.len());
                assert_eq!(case.waypoints.len(), case.demands.len());
                for row in &case.extra_matrices {
                    assert_eq!(row.len(), case.demands.len());
                    assert!(row.iter().all(|&s| s.is_finite() && s > 0.0));
                }
                let text = case.to_text();
                assert_eq!(
                    Case::from_text(&text).unwrap(),
                    case,
                    "seed {seed} case {index}"
                );
            }
        }
    }

    #[test]
    fn campaign_covers_multi_matrix_cases() {
        // The robust dimension must actually be exercised: a decent fraction
        // of generated cases carry 2–6 matrices.
        let multi = (0..200)
            .filter(|&i| !generate_case(42, i).extra_matrices.is_empty())
            .count();
        assert!((40..180).contains(&multi), "{multi}/200 multi-matrix cases");
        let sizes: Vec<usize> = (0..200)
            .map(|i| generate_case(42, i).extra_matrices.len() + 1)
            .collect();
        assert!(sizes.iter().any(|&k| k >= 4), "no large sets generated");
        assert!(sizes.iter().all(|&k| k <= 6), "set larger than 6 matrices");
    }

    #[test]
    fn campaign_covers_event_streams() {
        // The serving dimension must actually be exercised: a decent
        // fraction of generated cases carry events, including flaps and
        // out-of-range (error-reply) scalings.
        let cases: Vec<Case> = (0..200).map(|i| generate_case(42, i)).collect();
        let with_events = cases.iter().filter(|c| !c.events.is_empty()).count();
        assert!(
            (50..180).contains(&with_events),
            "{with_events}/200 cases with events"
        );
        assert!(cases
            .iter()
            .flat_map(|c| &c.events)
            .any(|e| matches!(e, ServeEvent::LinkDown { .. })));
        assert!(cases.iter().any(|c| c
            .events
            .iter()
            .any(|e| matches!(e, ServeEvent::DemandScale { index, .. }
                if *index >= c.demands.len()))));
    }

    #[test]
    fn small_campaign_runs_clean() {
        let report = fuzz_campaign(&FuzzConfig {
            seed: 1,
            cases: 6,
            shrink: true,
            corpus_dir: None,
            // Keep the unit-test campaign cheap; the CI fuzz legs run the
            // MCF bound.
            fast: true,
        });
        assert_eq!(report.cases, 6);
        assert!(
            report.failures.is_empty(),
            "unexpected failures: {:?}",
            report.failures
        );
        assert!(report.checks > 0);
    }

    #[test]
    fn mutations_stay_well_formed_and_strictly_simpler() {
        let case = generate_case(11, 0);
        for m in mutations(&case) {
            assert_eq!(m.weights.len(), m.links.len());
            assert_eq!(m.waypoints.len(), m.demands.len());
            assert_ne!(m, case, "a mutation must change the case");
        }
        // Deletion mutations exist for every demand and every link.
        assert!(mutations(&case).len() >= case.demands.len() + case.links.len());
    }
}
