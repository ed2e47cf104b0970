//! Traffic demands: the multiset `D` of `(s, t, d)` tuples of paper §2.

use crate::error::TeError;
use segrout_graph::NodeId;

/// One traffic demand: `d` units of flow from `src` to `dst`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Demand {
    /// Source node `s`.
    pub src: NodeId,
    /// Target node `t`.
    pub dst: NodeId,
    /// Demand size `d` (required bandwidth), strictly positive.
    pub size: f64,
}

impl Demand {
    /// Convenience constructor.
    pub fn new(src: NodeId, dst: NodeId, size: f64) -> Self {
        Self { src, dst, size }
    }
}

/// An ordered multiset of demands.
///
/// Order matters only for reproducibility (optimizers iterate demands in a
/// documented order); the flow semantics treat `D` as a multiset.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DemandList {
    demands: Vec<Demand>,
}

impl DemandList {
    /// Creates an empty demand list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing vector of demands, validating sizes.
    pub fn from_vec(demands: Vec<Demand>) -> Result<Self, TeError> {
        for (i, d) in demands.iter().enumerate() {
            if !(d.size.is_finite() && d.size > 0.0) {
                return Err(TeError::InvalidDemand {
                    index: i,
                    value: d.size,
                });
            }
            if d.src == d.dst {
                return Err(TeError::InvalidDemand {
                    index: i,
                    value: d.size,
                });
            }
        }
        Ok(Self { demands })
    }

    /// Appends a demand.
    ///
    /// # Panics
    /// Panics on non-positive sizes or `src == dst`; use
    /// [`DemandList::from_vec`] for fallible construction.
    pub fn push(&mut self, src: NodeId, dst: NodeId, size: f64) {
        assert!(
            size.is_finite() && size > 0.0,
            "demand size must be positive"
        );
        assert!(src != dst, "demand endpoints must differ");
        self.demands.push(Demand::new(src, dst, size));
    }

    /// Sets the size of demand `index`.
    ///
    /// # Errors
    /// [`TeError::InvalidDemand`] when `size` is not positive finite, the
    /// check [`DemandList::from_vec`] makes; the list is left untouched.
    ///
    /// # Panics
    /// Panics when `index` is out of range.
    pub fn set_size(&mut self, index: usize, size: f64) -> Result<(), TeError> {
        if !(size.is_finite() && size > 0.0) {
            return Err(TeError::InvalidDemand { index, value: size });
        }
        self.demands[index].size = size;
        Ok(())
    }

    /// Number of demands `|D|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.demands.len()
    }

    /// `true` when no demands are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.demands.is_empty()
    }

    /// The demands as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Demand] {
        &self.demands
    }

    /// Iterator over the demands.
    pub fn iter(&self) -> impl Iterator<Item = &Demand> {
        self.demands.iter()
    }

    /// Total demand size `D = Σ d` (paper §2).
    pub fn total_size(&self) -> f64 {
        self.demands.iter().map(|d| d.size).sum()
    }

    /// If every demand shares the same `(s, t)` pair, returns it. The gap
    /// analysis (paper §3–5) applies to such *single source–target* lists.
    pub fn single_pair(&self) -> Option<(NodeId, NodeId)> {
        let first = self.demands.first()?;
        let pair = (first.src, first.dst);
        self.demands
            .iter()
            .all(|d| (d.src, d.dst) == pair)
            .then_some(pair)
    }

    /// The distinct destinations appearing in the list, in first-appearance
    /// order. The ECMP engine computes one shortest-path DAG per destination.
    pub fn destinations(&self) -> Vec<NodeId> {
        let mut seen = Vec::new();
        for d in &self.demands {
            if !seen.contains(&d.dst) {
                seen.push(d.dst);
            }
        }
        seen
    }

    /// Indices of demands sorted by descending size (ties broken by index),
    /// the iteration order of GreedyWPO (paper Algorithm 3).
    pub fn indices_by_descending_size(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.demands.len()).collect();
        idx.sort_by(|&a, &b| {
            self.demands[b]
                .size
                .partial_cmp(&self.demands[a].size)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        idx
    }
}

impl std::ops::Index<usize> for DemandList {
    type Output = Demand;
    fn index(&self, i: usize) -> &Demand {
        &self.demands[i]
    }
}

impl FromIterator<Demand> for DemandList {
    fn from_iter<I: IntoIterator<Item = Demand>>(iter: I) -> Self {
        Self {
            demands: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a DemandList {
    type Item = &'a Demand;
    type IntoIter = std::slice::Iter<'a, Demand>;
    fn into_iter(self) -> Self::IntoIter {
        self.demands.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_lengths() {
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(1), 1.0);
        d.push(NodeId(0), NodeId(1), 0.5);
        assert_eq!(d.len(), 2);
        assert!((d.total_size() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn single_pair_detection() {
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 1.0);
        d.push(NodeId(0), NodeId(3), 2.0);
        assert_eq!(d.single_pair(), Some((NodeId(0), NodeId(3))));
        d.push(NodeId(1), NodeId(3), 1.0);
        assert_eq!(d.single_pair(), None);
        assert_eq!(DemandList::new().single_pair(), None);
    }

    #[test]
    fn destinations_are_deduplicated() {
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 1.0);
        d.push(NodeId(1), NodeId(3), 1.0);
        d.push(NodeId(1), NodeId(2), 1.0);
        assert_eq!(d.destinations(), vec![NodeId(3), NodeId(2)]);
    }

    #[test]
    fn descending_order_is_stable() {
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(1), 1.0);
        d.push(NodeId(0), NodeId(2), 3.0);
        d.push(NodeId(0), NodeId(3), 1.0);
        assert_eq!(d.indices_by_descending_size(), vec![1, 0, 2]);
    }

    #[test]
    fn from_vec_validates() {
        assert!(DemandList::from_vec(vec![Demand::new(NodeId(0), NodeId(1), -1.0)]).is_err());
        assert!(DemandList::from_vec(vec![Demand::new(NodeId(0), NodeId(0), 1.0)]).is_err());
        assert!(DemandList::from_vec(vec![Demand::new(NodeId(0), NodeId(1), 1.0)]).is_ok());
    }

    #[test]
    fn set_size_validates_and_leaves_an_invalid_size_out() {
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(1), 1.0);
        d.push(NodeId(1), NodeId(2), 2.0);
        d.set_size(1, 0.5).unwrap();
        assert_eq!(d[1].size, 0.5);
        for bad in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            let err = d.set_size(1, bad).unwrap_err();
            assert!(
                matches!(err, TeError::InvalidDemand { index: 1, .. }),
                "{bad}"
            );
            assert_eq!(d[1].size, 0.5);
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn push_rejects_zero_size() {
        DemandList::new().push(NodeId(0), NodeId(1), 0.0);
    }

    #[test]
    fn harmonic_demands_total() {
        // The harmonic demand lists of TE-Instances 2-5: sizes 1, 1/2, ..., 1/m.
        let m = 100usize;
        let d: DemandList = (1..=m)
            .map(|j| Demand::new(NodeId(0), NodeId(1), 1.0 / j as f64))
            .collect();
        let h: f64 = (1..=m).map(|j| 1.0 / j as f64).sum();
        assert!((d.total_size() - h).abs() < 1e-12);
    }
}
