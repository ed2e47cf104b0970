//! Waypoint settings `π` for segment routing (paper §2).
//!
//! A waypoint setting assigns to each demand an *ordered* sequence of up to
//! `W` intermediate nodes. The flow of the demand is routed along shortest
//! paths segment by segment: `s → w₁ → w₂ → … → t`. `W = 0` (no waypoints
//! anywhere) degenerates Joint to pure link-weight optimization.

use crate::demand::{Demand, DemandList};
use crate::error::TeError;
use segrout_graph::NodeId;

/// Ordered waypoints per demand, parallel to a [`DemandList`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WaypointSetting {
    per_demand: Vec<Vec<NodeId>>,
}

impl WaypointSetting {
    /// The empty setting: no waypoints for any of `n_demands` demands.
    pub fn none(n_demands: usize) -> Self {
        Self {
            per_demand: vec![Vec::new(); n_demands],
        }
    }

    /// Wraps an explicit per-demand waypoint table, checking it against the
    /// demand list and the waypoint budget `max_waypoints` (the paper's `W`).
    pub fn new(
        demands: &DemandList,
        per_demand: Vec<Vec<NodeId>>,
        max_waypoints: usize,
    ) -> Result<Self, TeError> {
        if per_demand.len() != demands.len() {
            return Err(TeError::InvalidWaypoints(format!(
                "waypoint table has {} rows for {} demands",
                per_demand.len(),
                demands.len()
            )));
        }
        for (i, wps) in per_demand.iter().enumerate() {
            if wps.len() > max_waypoints {
                return Err(TeError::InvalidWaypoints(format!(
                    "demand {i} has {} waypoints, budget W = {max_waypoints}",
                    wps.len()
                )));
            }
        }
        Ok(Self { per_demand })
    }

    /// Number of demand rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.per_demand.len()
    }

    /// `true` if the table has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.per_demand.is_empty()
    }

    /// Waypoints of demand `i` (may be empty).
    #[inline]
    pub fn get(&self, i: usize) -> &[NodeId] {
        &self.per_demand[i]
    }

    /// Replaces the waypoints of demand `i`.
    pub fn set(&mut self, i: usize, waypoints: Vec<NodeId>) {
        self.per_demand[i] = waypoints;
    }

    /// The largest number of waypoints used by any demand.
    pub fn max_used(&self) -> usize {
        self.per_demand.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Expands a demand into its routing segments under this setting:
    /// `s → w₁, w₁ → w₂, …, w_k → t`, each carrying the full demand size.
    ///
    /// Degenerate hops (a waypoint equal to the previous endpoint, or a
    /// trailing waypoint equal to `t`) are skipped, matching the semantics
    /// that "reaching" an already-reached node is a no-op.
    pub fn segments_of(&self, i: usize, demand: &Demand) -> Vec<(NodeId, NodeId, f64)> {
        self.hops(i, demand).collect()
    }

    /// [`segments_of`](Self::segments_of) without collecting: the hops of
    /// demand `i`'s segments, in order.
    pub(crate) fn hops(
        &self,
        i: usize,
        demand: &Demand,
    ) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        let Demand { src, dst, size } = *demand;
        let mut cur = src;
        let ends = self.per_demand[i].iter().copied().chain([dst]);
        ends.filter_map(move |w| {
            let hop = (w != cur).then_some((cur, w, size));
            cur = w;
            hop
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demands() -> DemandList {
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 2.0);
        d.push(NodeId(1), NodeId(3), 1.0);
        d
    }

    #[test]
    fn none_has_empty_rows() {
        let w = WaypointSetting::none(2);
        assert_eq!(w.len(), 2);
        assert!(w.get(0).is_empty());
        assert_eq!(w.max_used(), 0);
    }

    #[test]
    fn segments_without_waypoints() {
        let d = demands();
        let w = WaypointSetting::none(2);
        assert_eq!(w.segments_of(0, &d[0]), vec![(NodeId(0), NodeId(3), 2.0)]);
    }

    #[test]
    fn segments_with_two_waypoints() {
        let d = demands();
        let mut w = WaypointSetting::none(2);
        w.set(0, vec![NodeId(1), NodeId(2)]);
        assert_eq!(
            w.segments_of(0, &d[0]),
            vec![
                (NodeId(0), NodeId(1), 2.0),
                (NodeId(1), NodeId(2), 2.0),
                (NodeId(2), NodeId(3), 2.0)
            ]
        );
    }

    #[test]
    fn degenerate_waypoints_are_skipped() {
        let d = demands();
        let mut w = WaypointSetting::none(2);
        // Waypoint equal to the source, duplicated waypoint, waypoint equal
        // to the destination: all no-ops.
        w.set(0, vec![NodeId(0), NodeId(2), NodeId(2), NodeId(3)]);
        assert_eq!(
            w.segments_of(0, &d[0]),
            vec![(NodeId(0), NodeId(2), 2.0), (NodeId(2), NodeId(3), 2.0)]
        );
    }

    #[test]
    fn budget_is_enforced() {
        let d = demands();
        let table = vec![vec![NodeId(1), NodeId(2)], vec![]];
        assert!(WaypointSetting::new(&d, table.clone(), 1).is_err());
        assert!(WaypointSetting::new(&d, table, 2).is_ok());
    }

    #[test]
    fn row_count_is_enforced() {
        let d = demands();
        assert!(WaypointSetting::new(&d, vec![vec![]], 1).is_err());
    }
}
