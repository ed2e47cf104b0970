//! Robust multi-matrix traffic engineering: demand *sets* and the
//! worst-case / quantile objectives over them.
//!
//! A [`DemandSet`] is an ordered collection of named traffic matrices
//! (each a [`DemandList`]). One weight/waypoint configuration is evaluated
//! against *every* matrix, and a [`RobustObjective`] folds the per-matrix
//! `(Φ, MLU)` values into one scalar per metric: the maximum
//! ([`RobustObjective::WorstCase`]) or an empirical upper quantile
//! ([`RobustObjective::Quantile`]).
//!
//! The robust optimizers treat a single-matrix set as *exactly* the classic
//! single-matrix problem: `RobustObjective::aggregate` of a one-element
//! slice returns that element bit-for-bit, so every `heur_ospf` /
//! `greedy_wpo` / `joint_milp` entry point can delegate to its robust
//! generalization without perturbing a single bit of its output. The
//! differential harness's `reductions` kind and the Joint MILP test, both
//! in `tests/robust_differential.rs`, enforce this reduction.
//!
//! Matrices that share the `(src, dst)` pair structure index-by-index are
//! *aligned* ([`DemandSet::is_aligned`]). Alignment is what lets one
//! waypoint setting apply to every matrix (waypoints are per demand
//! *index*), and is required by the waypoint-consuming optimizers; the
//! weight-only paths accept arbitrary sets.

use crate::demand::DemandList;
use crate::ecmp::{LoadReport, Router};
use crate::error::TeError;
use crate::network::Network;
use crate::waypoints::WaypointSetting;
use crate::weights::WeightSetting;
use segrout_graph::NodeId;

/// An ordered set of named traffic matrices evaluated against one
/// configuration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DemandSet {
    matrices: Vec<(String, DemandList)>,
}

impl DemandSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps one matrix — the single-matrix reduction every classic entry
    /// point uses.
    pub fn single(demands: DemandList) -> Self {
        Self {
            matrices: vec![("matrix".to_string(), demands)],
        }
    }

    /// Builds a set from explicit named matrices.
    pub fn from_named(matrices: Vec<(String, DemandList)>) -> Self {
        Self { matrices }
    }

    /// Builds a set from a sequence of matrices (e.g. the output of
    /// `drifting_series`), naming the steps `t0, t1, ...`.
    pub fn from_series(series: Vec<DemandList>) -> Self {
        Self {
            matrices: series
                .into_iter()
                .enumerate()
                .map(|(i, m)| (format!("t{i}"), m))
                .collect(),
        }
    }

    /// Appends a named matrix.
    pub fn push(&mut self, name: impl Into<String>, demands: DemandList) {
        self.matrices.push((name.into(), demands));
    }

    /// Number of matrices `K`.
    #[inline]
    pub fn len(&self) -> usize {
        self.matrices.len()
    }

    /// `true` when the set holds no matrices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.matrices.is_empty()
    }

    /// The `k`-th matrix.
    #[inline]
    pub fn matrix(&self, k: usize) -> &DemandList {
        &self.matrices[k].1
    }

    /// The `k`-th matrix's name.
    #[inline]
    pub fn name(&self, k: usize) -> &str {
        &self.matrices[k].0
    }

    /// Iterator over `(name, matrix)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &DemandList)> {
        self.matrices.iter().map(|(n, m)| (n.as_str(), m))
    }

    /// Iterator over the matrices only.
    pub fn matrices(&self) -> impl Iterator<Item = &DemandList> {
        self.matrices.iter().map(|(_, m)| m)
    }

    /// `true` when every matrix has the same length and the same
    /// `(src, dst)` pair at every index — the precondition for sharing one
    /// waypoint setting across the set. Empty sets are trivially aligned.
    pub fn is_aligned(&self) -> bool {
        let Some((_, first)) = self.matrices.first() else {
            return true;
        };
        self.matrices.iter().skip(1).all(|(_, m)| {
            m.len() == first.len()
                && m.iter()
                    .zip(first.iter())
                    .all(|(a, b)| a.src == b.src && a.dst == b.dst)
        })
    }

    /// Returns an error naming the first misaligned matrix, or `Ok` for
    /// aligned sets. The waypoint-consuming robust optimizers call this
    /// before touching a shared [`WaypointSetting`].
    pub fn require_aligned(&self) -> Result<(), TeError> {
        let Some((_, first)) = self.matrices.first() else {
            return Ok(());
        };
        for (k, (name, m)) in self.matrices.iter().enumerate().skip(1) {
            let aligned = m.len() == first.len()
                && m.iter()
                    .zip(first.iter())
                    .all(|(a, b)| a.src == b.src && a.dst == b.dst);
            if !aligned {
                return Err(TeError::InvalidWaypoints(format!(
                    "demand set is not aligned: matrix {k} ({name}) differs \
                     from matrix 0 in length or (src, dst) structure"
                )));
            }
        }
        Ok(())
    }

    /// Number of demands per matrix of an aligned set (0 when empty).
    pub fn pair_count(&self) -> usize {
        self.matrices.first().map_or(0, |(_, m)| m.len())
    }

    /// The `(src, dst)` pairs of an aligned set, taken from the first
    /// matrix.
    pub fn pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.matrices
            .first()
            .map(|(_, m)| m.iter().map(|d| (d.src, d.dst)).collect())
            .unwrap_or_default()
    }

    /// Per-index demand size summed across the matrices of an aligned set.
    pub fn total_sizes(&self) -> Vec<f64> {
        let mut totals = vec![0.0f64; self.pair_count()];
        for (_, m) in &self.matrices {
            for (i, d) in m.iter().enumerate() {
                totals[i] += d.size;
            }
        }
        totals
    }

    /// Demand indices sorted by descending total size across matrices (ties
    /// broken by index) — the GreedyWPO iteration order generalized to
    /// sets. For a single-matrix set this equals
    /// [`DemandList::indices_by_descending_size`] (summing one positive
    /// `f64` starting from `0.0` is exact).
    pub fn indices_by_descending_total_size(&self) -> Vec<usize> {
        let totals = self.total_sizes();
        let mut idx: Vec<usize> = (0..totals.len()).collect();
        idx.sort_by(|&a, &b| {
            totals[b]
                .partial_cmp(&totals[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        idx
    }
}

impl std::ops::Index<usize> for DemandSet {
    type Output = DemandList;
    fn index(&self, k: usize) -> &DemandList {
        &self.matrices[k].1
    }
}

impl FromIterator<(String, DemandList)> for DemandSet {
    fn from_iter<I: IntoIterator<Item = (String, DemandList)>>(iter: I) -> Self {
        Self {
            matrices: iter.into_iter().collect(),
        }
    }
}

/// How per-matrix metric values fold into one robust scalar.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RobustObjective {
    /// The maximum over matrices (protect against the worst matrix).
    WorstCase,
    /// The empirical `q`-quantile over matrices, `0 < q ≤ 1`.
    /// `Quantile(1.0)` is exactly [`RobustObjective::WorstCase`].
    Quantile(f64),
}

impl RobustObjective {
    /// The quantile this objective selects (`1.0` for worst case).
    pub fn quantile(&self) -> f64 {
        match *self {
            RobustObjective::WorstCase => 1.0,
            RobustObjective::Quantile(q) => q,
        }
    }

    /// `true` when the objective selects the maximum over matrices.
    pub fn is_worst_case(&self) -> bool {
        self.quantile() >= 1.0
    }

    /// Folds per-matrix values into the robust scalar: the value at rank
    /// `⌈q·K⌉` of the ascending order (so `Quantile(1.0)` and `WorstCase`
    /// pick the same maximal element, bit-for-bit). A one-element slice
    /// returns its element unchanged — the single-matrix reduction.
    ///
    /// # Panics
    /// Panics on an empty slice or a quantile outside `(0, 1]`.
    pub fn aggregate(&self, values: &[f64]) -> f64 {
        assert!(!values.is_empty(), "cannot aggregate over an empty set");
        let q = self.quantile();
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1], got {q}");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// Parses `worst` or `q<value>` (e.g. `q0.9`); used by the CLI.
    ///
    /// # Errors
    /// Returns a description of the expected syntax on malformed input.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s.eq_ignore_ascii_case("worst") || s.eq_ignore_ascii_case("worst-case") {
            return Ok(RobustObjective::WorstCase);
        }
        if let Some(q) = s.strip_prefix('q').and_then(|q| q.parse::<f64>().ok()) {
            if q > 0.0 && q <= 1.0 {
                return Ok(RobustObjective::Quantile(q));
            }
        }
        Err(format!(
            "invalid robust objective '{s}': expected 'worst' or 'q<value>' with value in (0, 1]"
        ))
    }
}

/// Per-matrix evaluation of one configuration against a [`DemandSet`].
#[derive(Clone, Debug)]
pub struct RobustReport {
    /// Per-matrix load reports, in set order.
    pub reports: Vec<LoadReport>,
    /// Per-matrix Fortz–Thorup Φ, in set order.
    pub phis: Vec<f64>,
    /// Per-matrix MLU, in set order.
    pub mlus: Vec<f64>,
}

impl RobustReport {
    /// The robust MLU under `objective`.
    pub fn aggregate_mlu(&self, objective: RobustObjective) -> f64 {
        objective.aggregate(&self.mlus)
    }

    /// The robust Φ under `objective`.
    pub fn aggregate_phi(&self, objective: RobustObjective) -> f64 {
        objective.aggregate(&self.phis)
    }

    /// The worst-case MLU (maximum over matrices).
    pub fn worst_mlu(&self) -> f64 {
        RobustObjective::WorstCase.aggregate(&self.mlus)
    }
}

/// Evaluates one `(weights, waypoints)` configuration against every matrix
/// of `set` from scratch (one [`Router`] evaluation per matrix) — the
/// ground-truth robust evaluation the optimizers and validators compare
/// against.
///
/// The waypoint setting applies to every matrix by demand index, so the set
/// must be aligned (or the waypoint setting empty of any assignment beyond
/// the matrices' lengths).
///
/// # Errors
/// Propagates routing errors from any matrix; rejects misaligned sets when
/// `waypoints` assigns any waypoint.
pub fn evaluate_robust(
    net: &Network,
    weights: &WeightSetting,
    set: &DemandSet,
    waypoints: &WaypointSetting,
) -> Result<RobustReport, TeError> {
    if waypoints.max_used() > 0 {
        set.require_aligned()?;
    }
    let router = Router::new(net, weights);
    let caps = net.capacities();
    let mut reports = Vec::with_capacity(set.len());
    let mut phis = Vec::with_capacity(set.len());
    let mut mlus = Vec::with_capacity(set.len());
    for (_, demands) in set.matrices.iter() {
        let report = router.evaluate(demands, waypoints)?;
        phis.push(crate::cost::fortz_phi(&report.loads, caps));
        mlus.push(report.mlu);
        reports.push(report);
    }
    Ok(RobustReport {
        reports,
        phis,
        mlus,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;

    fn diamond() -> Network {
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), 1.0);
        b.link(NodeId(0), NodeId(2), 1.0);
        b.link(NodeId(1), NodeId(3), 1.0);
        b.link(NodeId(2), NodeId(3), 1.0);
        b.build().unwrap()
    }

    fn matrix(size: f64) -> DemandList {
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), size);
        d
    }

    #[test]
    fn single_matrix_aggregate_is_identity() {
        for v in [0.5, 1.0, 1e-300, f64::INFINITY] {
            assert_eq!(
                RobustObjective::WorstCase.aggregate(&[v]).to_bits(),
                v.to_bits()
            );
            assert_eq!(
                RobustObjective::Quantile(0.5).aggregate(&[v]).to_bits(),
                v.to_bits()
            );
        }
    }

    #[test]
    fn quantile_one_equals_worst_case() {
        let xs = [0.3, 1.7, 0.9, 1.7, 0.1];
        assert_eq!(
            RobustObjective::Quantile(1.0).aggregate(&xs).to_bits(),
            RobustObjective::WorstCase.aggregate(&xs).to_bits()
        );
        assert_eq!(RobustObjective::WorstCase.aggregate(&xs), 1.7);
    }

    #[test]
    fn quantile_selects_ascending_rank() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(RobustObjective::Quantile(0.25).aggregate(&xs), 1.0);
        assert_eq!(RobustObjective::Quantile(0.5).aggregate(&xs), 2.0);
        assert_eq!(RobustObjective::Quantile(0.75).aggregate(&xs), 3.0);
        assert_eq!(RobustObjective::Quantile(1.0).aggregate(&xs), 4.0);
        // Ranks between grid points round up.
        assert_eq!(RobustObjective::Quantile(0.6).aggregate(&xs), 3.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_aggregate_panics() {
        RobustObjective::WorstCase.aggregate(&[]);
    }

    #[test]
    fn parse_round_trips() {
        assert_eq!(
            RobustObjective::parse("worst").unwrap(),
            RobustObjective::WorstCase
        );
        assert_eq!(
            RobustObjective::parse("q0.9").unwrap(),
            RobustObjective::Quantile(0.9)
        );
        assert!(RobustObjective::parse("q0").is_err());
        assert!(RobustObjective::parse("q1.5").is_err());
        assert!(RobustObjective::parse("median").is_err());
    }

    #[test]
    fn alignment_detection() {
        let mut set = DemandSet::single(matrix(1.0));
        set.push("peak", matrix(2.0));
        assert!(set.is_aligned());
        assert!(set.require_aligned().is_ok());

        let mut other = DemandList::new();
        other.push(NodeId(1), NodeId(3), 1.0);
        set.push("skewed", other);
        assert!(!set.is_aligned());
        assert!(set.require_aligned().is_err());
    }

    #[test]
    fn total_size_order_matches_single_matrix_order() {
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(1), 1.0);
        d.push(NodeId(0), NodeId(2), 3.0);
        d.push(NodeId(0), NodeId(3), 1.0);
        let set = DemandSet::single(d.clone());
        assert_eq!(
            set.indices_by_descending_total_size(),
            d.indices_by_descending_size()
        );
    }

    #[test]
    fn evaluate_robust_reports_per_matrix() {
        let net = diamond();
        let mut set = DemandSet::single(matrix(1.0));
        set.push("double", matrix(2.0));
        let weights = WeightSetting::unit(&net);
        let wp = WaypointSetting::none(1);
        let rep = evaluate_robust(&net, &weights, &set, &wp).unwrap();
        assert_eq!(rep.mlus.len(), 2);
        // ECMP splits the unit demand evenly over the two disjoint paths.
        assert!((rep.mlus[0] - 0.5).abs() < 1e-12);
        assert!((rep.mlus[1] - 1.0).abs() < 1e-12);
        assert!((rep.worst_mlu() - 1.0).abs() < 1e-12);
        assert_eq!(
            rep.aggregate_mlu(RobustObjective::Quantile(1.0)).to_bits(),
            rep.worst_mlu().to_bits()
        );
    }

    #[test]
    fn adding_a_matrix_never_decreases_worst_case() {
        let net = diamond();
        let weights = WeightSetting::unit(&net);
        let wp = WaypointSetting::none(1);
        let mut set = DemandSet::single(matrix(1.0));
        let mut prev = evaluate_robust(&net, &weights, &set, &wp)
            .unwrap()
            .worst_mlu();
        for (i, size) in [0.25, 3.0, 0.75].iter().enumerate() {
            set.push(format!("m{i}"), matrix(*size));
            let cur = evaluate_robust(&net, &weights, &set, &wp)
                .unwrap()
                .worst_mlu();
            assert!(cur >= prev, "worst-case MLU decreased: {cur} < {prev}");
            prev = cur;
        }
    }
}
