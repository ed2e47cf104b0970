//! Pins branch-and-bound's outputs: the status, objective and dual bound
//! of the WPO selection MILP, the Joint MILP and LWO on fixed inputs, with
//! the waypoints or weights they choose. The LP differential suite checks
//! that every relaxation agrees with the tableau oracle to a tolerance,
//! which holds on any search tree; these digests catch a change to the
//! tree itself (a pivot, a branching tie, the node order or a warm start).
//!
//! Each pin is an FNV-1a 64 digest; a mismatch prints the whole outcome.

use segrout::core::{DemandList, Network, WaypointSetting, WeightSetting};
use segrout::instances::instance1;
use segrout::lp::{MilpOptions, MilpStatus};
use segrout::milp::{joint_milp, lwo_ilp, wpo_ilp, JointMilpOptions, WpoIlpOptions};
use segrout::topo::by_name;
use segrout::traffic::{mcf_synthetic, TrafficConfig};
use std::time::Duration;

/// FNV-1a 64, fed one little-endian word at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The status, then the objective and bound bits.
    fn outcome(&mut self, status: MilpStatus, objective: f64, bound: f64) -> &mut Self {
        let status = match status {
            MilpStatus::Optimal => 0,
            MilpStatus::Infeasible => 1,
            MilpStatus::LimitReached => 2,
            MilpStatus::Unbounded => 3,
        };
        self.word(status)
            .word(objective.to_bits())
            .word(bound.to_bits())
    }

    /// Per demand, the waypoint count, then the waypoints.
    fn waypoints(&mut self, w: &WaypointSetting) -> &mut Self {
        for i in 0..w.len() {
            self.word(w.get(i).len() as u64);
            for v in w.get(i) {
                self.word(u64::from(v.0));
            }
        }
        self
    }

    fn weights(&mut self, w: &WeightSetting) -> &mut Self {
        for x in w.as_slice() {
            self.word(x.to_bits());
        }
        self
    }
}

/// No time limit, so the tree does not depend on the host's speed.
fn limits(node_limit: usize) -> MilpOptions {
    MilpOptions {
        node_limit,
        time_limit: Duration::from_secs(24 * 3600),
        ..Default::default()
    }
}

/// An `exact-abilene` instance: MCF-synthetic demands on 20% of the pairs,
/// one flow each.
fn abilene_instance(seed: u64) -> (Network, DemandList) {
    let net = by_name("Abilene").expect("embedded topology");
    let cfg = TrafficConfig {
        seed,
        pair_fraction: 0.2,
        flows_per_pair: Some(1),
        ..Default::default()
    };
    let demands = mcf_synthetic(&net, &cfg).expect("connected");
    (net, demands)
}

#[test]
fn wpo_ilp_on_abilene_is_pinned() {
    let options = WpoIlpOptions {
        milp: limits(300),
        candidates: None,
    };
    let mut proven = 0;
    for (seed, want) in [
        (1001, 0x1dd3_e7b4_595e_4c04),
        (1002, 0x4b88_f10c_d5b3_ed94),
        (1003, 0xa7cd_37b9_b4ab_af51),
        (1004, 0x65dc_845b_5f69_5c1e),
        (1005, 0x5d38_5f09_42f9_bd4e),
        (1006, 0xc166_fd03_35ed_33ea),
        (1007, 0x6454_63fd_b51b_9951),
        (1008, 0x915d_e5c7_06ff_5f58),
    ] {
        let (net, demands) = abilene_instance(seed);
        let weights = WeightSetting::inverse_capacity(&net);
        let r = wpo_ilp(&net, &demands, &weights, &options).expect("routes");
        proven += usize::from(r.status == MilpStatus::Optimal);
        let got = Fnv::new()
            .outcome(r.status, r.mlu, r.bound)
            .waypoints(&r.waypoints)
            .0;
        assert_eq!(got, want, "seed {seed}: digest {got:#018x}, {r:?}");
    }
    assert!(proven > 0, "one pinned instance proves optimality");
}

#[test]
fn joint_milp_on_instance1_is_pinned() {
    for (m, want) in [(3, 0xd01d_86f4_cdf9_99ba), (4, 0xb9dd_e3ad_b6ec_016d)] {
        let inst = instance1(m);
        let r = joint_milp(&inst.network, &inst.demands, &JointMilpOptions::default())
            .expect("feasible");
        assert_eq!(r.status, MilpStatus::Optimal, "instance1({m})");
        let got = Fnv::new()
            .outcome(r.status, r.mlu, r.bound)
            .word(r.nodes as u64)
            .weights(&r.weights)
            .waypoints(&r.waypoints)
            .0;
        assert_eq!(got, want, "instance1({m}): digest {got:#018x}, {r:?}");
    }
}

#[test]
fn lwo_ilp_on_abilene_is_pinned() {
    let (net, demands) = abilene_instance(7);
    let options = JointMilpOptions {
        milp: limits(60),
        warm_start: Some((
            WeightSetting::unit(&net),
            WaypointSetting::none(demands.len()),
        )),
        ..Default::default()
    };
    let r = lwo_ilp(&net, &demands, &options).expect("warm start is feasible");
    let got = Fnv::new()
        .outcome(r.status, r.mlu, r.bound)
        .word(r.nodes as u64)
        .weights(&r.weights)
        .0;
    assert_eq!(got, 0xd500_2423_f646_0f6d, "LWO: digest {got:#018x}, {r:?}");
}
