//! Pins the Fortz–Thorup descent's outputs: the weights HeurOSPF and its
//! robust and failure-robust variants return on fixed inputs, and the
//! weights and evaluation counts of the budgeted re-solve that `segrout
//! serve` runs. The differential suites check that every probe matches a
//! from-scratch evaluation, which holds on any trajectory; these digests
//! catch a change to the trajectory itself (a candidate, the RNG stream,
//! the acceptance rule or the link order).
//!
//! Each pin is an FNV-1a 64 digest of the integer weights; a mismatch
//! prints the whole vector.

use segrout::algos::{
    heur_ospf, heur_ospf_failure_robust, heur_ospf_robust, reoptimize_weights,
    reoptimize_weights_on, HeurOspfConfig, Objective, ReoptimizeConfig,
};
use segrout::core::{
    DemandList, FailureSet, IncrementalEvaluator, Network, RobustObjective, WaypointSetting,
    WeightSetting,
};
use segrout::topo::by_name;
use segrout::traffic::{diurnal_set, drifting_series, mcf_synthetic, TrafficConfig};

/// FNV-1a 64 over the little-endian bytes of each integer weight.
fn fnv1a(weights: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in weights {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The integer weights of `w`, which the descent keeps integral.
fn integral(w: &WeightSetting) -> Vec<u32> {
    w.as_slice()
        .iter()
        .map(|&x| {
            assert_eq!(x, x.round(), "non-integral weight {x}");
            x as u32
        })
        .collect()
}

fn assert_pinned(what: &str, w: &WeightSetting, want: u64) {
    let w = integral(w);
    assert_eq!(
        fnv1a(&w),
        want,
        "{what}: digest {:#018x}, weights {w:?}",
        fnv1a(&w)
    );
}

fn topology(name: &str) -> Network {
    by_name(name).expect("embedded topology")
}

fn mcf(net: &Network) -> DemandList {
    let cfg = TrafficConfig {
        seed: 42,
        ..Default::default()
    };
    mcf_synthetic(net, &cfg).expect("connected")
}

fn search(objective: Objective) -> HeurOspfConfig {
    HeurOspfConfig {
        restarts: 1,
        max_passes: 3,
        objective,
        seed: 42,
        ..Default::default()
    }
}

#[test]
fn heur_ospf_weights_are_pinned() {
    for (name, objective, want) in [
        ("Abilene", Objective::MluThenPhi, 0xd90d_0390_dba8_7c1b),
        ("Abilene", Objective::PhiThenMlu, 0x97b6_edf3_77fa_fb45),
        ("Germany50", Objective::MluThenPhi, 0x8fcc_1a4c_0e68_60fa),
        ("Germany50", Objective::PhiThenMlu, 0xb316_d742_b25b_25f7),
    ] {
        let net = topology(name);
        let w = heur_ospf(&net, &mcf(&net), &search(objective));
        assert_pinned(&format!("{name} {objective:?}"), &w, want);
    }
}

#[test]
fn robust_weights_are_pinned() {
    let net = topology("Abilene");
    let set = diurnal_set(&net, &TrafficConfig::default(), 3, 0.6).expect("connected");
    let w = heur_ospf_robust(
        &net,
        &set,
        RobustObjective::Quantile(0.5),
        &search(Objective::MluThenPhi),
    );
    assert_pinned("Abilene diurnal:3 q0.5", &w, 0x50fc_037b_8dbf_121f);
}

#[test]
fn failure_robust_weights_are_pinned() {
    let net = topology("Abilene");
    let failures = FailureSet::enumerate(&net, false);
    let w = heur_ospf_failure_robust(
        &net,
        &mcf(&net),
        &failures,
        RobustObjective::WorstCase,
        &search(Objective::MluThenPhi),
    );
    assert_pinned("Abilene single-link failures", &w, 0x5b59_4df5_0cc7_e94a);
}

/// The budgeted re-solve from weights tuned for one matrix, on the next
/// matrix of a drifting series: the local tier's budget of 3, which binds
/// here, and the escalate tier's budget of every link (13 links change).
/// `reoptimize_weights` and the evaluator entry point must agree.
#[test]
fn budgeted_resolves_are_pinned() {
    let net = topology("Abilene");
    let cfg = TrafficConfig {
        seed: 77,
        ..Default::default()
    };
    let series = drifting_series(&net, &cfg, 2, 1.5).expect("connected");
    let ospf = search(Objective::MluThenPhi);
    let deployed = heur_ospf(&net, &series[0], &ospf);
    let drifted = &series[1];
    for (budget, want, want_evals) in [
        (3, 0xf866_7483_da3a_a40e, 32),
        (net.edge_count(), 0x82f0_4f7c_e787_bfec, 319),
    ] {
        let cfg = ReoptimizeConfig {
            max_weight_changes: budget,
            ospf: ospf.clone(),
            ..Default::default()
        };
        let mut ev = IncrementalEvaluator::new(
            &net,
            &deployed,
            drifted,
            &WaypointSetting::none(drifted.len()),
        )
        .expect("routable");
        let r = reoptimize_weights_on(&mut ev, &cfg).expect("integral start");
        assert!(r.weight_changes <= budget);
        assert_pinned(&format!("budget {budget}"), &r.weights, want);
        assert_eq!(r.evaluations, want_evals, "budget {budget}: evaluations");
        let plain = reoptimize_weights(&net, drifted, &deployed, &cfg).expect("routable");
        assert_eq!(plain.weights.as_slice(), r.weights.as_slice());
        assert_eq!(plain.mlu.to_bits(), r.mlu.to_bits());
    }
}
