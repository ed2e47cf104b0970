//! Error type shared across the TE model and optimizers.

use segrout_graph::NodeId;
use std::fmt;

/// Errors raised by model construction and flow evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum TeError {
    /// A per-edge or per-node attribute vector has the wrong length.
    DimensionMismatch {
        /// What the vector describes ("weights", "capacities", ...).
        what: &'static str,
        /// Expected length (edge or node count).
        expected: usize,
        /// Actual length supplied.
        actual: usize,
    },
    /// A node id, edge id or demand index passed in by a caller names no
    /// node, edge or demand.
    OutOfRange {
        /// What the index names: `"node"`, `"edge"` or `"demand"`.
        what: &'static str,
        /// The index passed in.
        index: usize,
        /// How many there are: the valid indices are `0..count`.
        count: usize,
    },
    /// A link weight is invalid: non-positive, NaN or infinite, or — where
    /// an optimizer searches integer weights — not an integer in its range.
    InvalidWeight {
        /// Index of the offending edge.
        edge: usize,
        /// The invalid value.
        value: f64,
    },
    /// A link capacity is non-positive, NaN or infinite.
    InvalidCapacity {
        /// Index of the offending edge.
        edge: usize,
        /// The invalid value.
        value: f64,
    },
    /// A demand size is non-positive, NaN or infinite.
    InvalidDemand {
        /// Index of the offending demand.
        index: usize,
        /// The invalid value.
        value: f64,
    },
    /// No directed path exists for a routing segment, so the ECMP flow is
    /// undefined.
    Unroutable {
        /// Segment source.
        src: NodeId,
        /// Segment destination.
        dst: NodeId,
    },
    /// A waypoint setting refers to more demands than the demand list has,
    /// or exceeds the waypoint budget `W`.
    InvalidWaypoints(String),
    /// An LP/MILP solve aborted on a resource limit or numerical failure
    /// before reaching a verdict — distinct from [`TeError::Unroutable`]:
    /// the instance may well be feasible, the solver just could not decide.
    SolverLimit {
        /// Which solve gave up ("OPT LP", "Joint MILP", ...).
        what: &'static str,
        /// The solver status it stopped with ("iteration limit",
        /// "unbounded", ...).
        status: &'static str,
    },
}

impl fmt::Display for TeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TeError::DimensionMismatch {
                what,
                expected,
                actual,
            } => write!(f, "{what} vector has length {actual}, expected {expected}"),
            TeError::OutOfRange { what, index, count } => {
                write!(f, "{what} {index} out of range ({count} {what}s)")
            }
            TeError::InvalidWeight { edge, value } => {
                write!(
                    f,
                    "weight of edge {edge} must be positive and finite (and an integer in \
                     range where an optimizer requires one), got {value}"
                )
            }
            TeError::InvalidCapacity { edge, value } => {
                write!(
                    f,
                    "capacity of edge {edge} must be a positive finite real, got {value}"
                )
            }
            TeError::InvalidDemand { index, value } => {
                write!(
                    f,
                    "size of demand {index} must be a positive finite real, got {value}"
                )
            }
            TeError::Unroutable { src, dst } => {
                write!(
                    f,
                    "no directed path from {src:?} to {dst:?}; ECMP flow undefined"
                )
            }
            TeError::InvalidWaypoints(msg) => write!(f, "invalid waypoint setting: {msg}"),
            TeError::SolverLimit { what, status } => {
                write!(
                    f,
                    "{what} solve stopped without a verdict ({status}); \
                     raise the limits or reduce the instance"
                )
            }
        }
    }
}

impl std::error::Error for TeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TeError::Unroutable {
            src: NodeId(0),
            dst: NodeId(7),
        };
        let s = e.to_string();
        assert!(s.contains("n0") && s.contains("n7"));

        let e = TeError::DimensionMismatch {
            what: "weights",
            expected: 4,
            actual: 2,
        };
        assert!(e.to_string().contains("weights"));

        // An index out of range does not read like a vector length.
        let e = TeError::OutOfRange {
            what: "demand",
            index: 2458,
            count: 2450,
        };
        assert_eq!(e.to_string(), "demand 2458 out of range (2450 demands)");

        // A solver limit must never read like a disconnected demand pair.
        let e = TeError::SolverLimit {
            what: "Joint MILP",
            status: "iteration limit",
        };
        let s = e.to_string();
        assert!(s.contains("Joint MILP") && s.contains("iteration limit"));
        assert!(!s.contains("no directed path"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&TeError::InvalidWeight {
            edge: 0,
            value: -1.0,
        });
    }
}
