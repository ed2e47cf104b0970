//! Link weight settings `w: E → R+`, including the paper's *standard*
//! settings (Definition 3.2): unit weights and inverse-of-capacity weights.

use crate::error::TeError;
use crate::network::Network;
use segrout_graph::EdgeId;

/// A positive real weight per link.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightSetting {
    weights: Vec<f64>,
}

impl WeightSetting {
    /// Wraps a weight vector, validating positivity and length against the
    /// network.
    pub fn new(network: &Network, weights: Vec<f64>) -> Result<Self, TeError> {
        if weights.len() != network.edge_count() {
            return Err(TeError::DimensionMismatch {
                what: "weights",
                expected: network.edge_count(),
                actual: weights.len(),
            });
        }
        for (i, &w) in weights.iter().enumerate() {
            if !(w.is_finite() && w > 0.0) {
                return Err(TeError::InvalidWeight { edge: i, value: w });
            }
        }
        Ok(Self { weights })
    }

    /// The *unit* standard setting: weight 1 on every link.
    pub fn unit(network: &Network) -> Self {
        Self {
            weights: vec![1.0; network.edge_count()],
        }
    }

    /// The *inverse of capacities* standard setting (recommended by Cisco):
    /// `w(ℓ) = 1 / c(ℓ)`.
    pub fn inverse_capacity(network: &Network) -> Self {
        Self {
            weights: network.capacities().iter().map(|c| 1.0 / c).collect(),
        }
    }

    /// Weight of link `e`.
    #[inline]
    pub fn get(&self, e: EdgeId) -> f64 {
        self.weights[e.index()]
    }

    /// Overwrites the weight of link `e`.
    ///
    /// # Panics
    /// Panics if the new weight is not a positive finite real.
    pub fn set(&mut self, e: EdgeId, w: f64) {
        assert!(w.is_finite() && w > 0.0, "weight must be positive finite");
        self.weights[e.index()] = w;
    }

    /// The raw weight vector, indexed by edge id.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segrout_graph::NodeId;

    fn two_link_net() -> Network {
        let mut b = Network::builder(3);
        b.link(NodeId(0), NodeId(1), 4.0);
        b.link(NodeId(1), NodeId(2), 0.5);
        b.build().unwrap()
    }

    #[test]
    fn unit_weights() {
        let net = two_link_net();
        let w = WeightSetting::unit(&net);
        assert_eq!(w.as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn inverse_capacity_weights() {
        let net = two_link_net();
        let w = WeightSetting::inverse_capacity(&net);
        assert_eq!(w.get(EdgeId(0)), 0.25);
        assert_eq!(w.get(EdgeId(1)), 2.0);
    }

    #[test]
    fn validation_rejects_bad_weights() {
        let net = two_link_net();
        assert!(WeightSetting::new(&net, vec![1.0]).is_err());
        assert!(WeightSetting::new(&net, vec![1.0, 0.0]).is_err());
        assert!(WeightSetting::new(&net, vec![1.0, f64::INFINITY]).is_err());
        assert!(WeightSetting::new(&net, vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn set_and_get() {
        let net = two_link_net();
        let mut w = WeightSetting::unit(&net);
        w.set(EdgeId(1), 7.0);
        assert_eq!(w.get(EdgeId(1)), 7.0);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn set_rejects_negative() {
        let net = two_link_net();
        WeightSetting::unit(&net).set(EdgeId(0), -3.0);
    }
}
