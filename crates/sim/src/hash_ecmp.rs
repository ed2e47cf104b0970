//! The hash-based ECMP stream simulator (see crate docs).

use segrout_core::rng::StdRng;
use segrout_core::{max_link_utilization, Network, NodeId, Router, TeError, WeightSetting};
use segrout_graph::{shortest_path_dag, SpDag};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One simulated flow: `rate` units from `src` to `dst`, carried by
/// `streams` parallel TCP streams, optionally via waypoints.
#[derive(Clone, Debug)]
pub struct SimFlow {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Total offered rate of the flow.
    pub rate: f64,
    /// Number of parallel streams the rate is divided into (nuttcp-style).
    pub streams: usize,
    /// Segment-routing waypoints, visited in order.
    pub waypoints: Vec<NodeId>,
}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed for the per-run hash salt (each run re-hashes all streams, as
    /// re-established TCP connections draw new source ports).
    pub seed: u64,
    /// Relative amplitude of multiplicative load noise modelling control
    /// -plane chatter (the paper observed small deviations from NDP
    /// packets); 0 disables it.
    pub noise: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            noise: 0.015,
        }
    }
}

/// Result of one simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Measured per-link loads.
    pub loads: Vec<f64>,
    /// Measured maximum link utilization.
    pub mlu: f64,
}

/// A simulator bound to one network + weight setting.
pub struct HashEcmpSim<'n> {
    router: Router<'n>,
    net: &'n Network,
}

impl<'n> HashEcmpSim<'n> {
    /// Creates a simulator; shortest-path DAGs are shared with the exact
    /// ECMP engine, so simulated routes are always legal ECMP routes.
    pub fn new(net: &'n Network, weights: &WeightSetting) -> Self {
        Self {
            router: Router::new(net, weights),
            net,
        }
    }

    /// Runs one experiment with a set of failed links: the IGP reconverges
    /// (failed links are masked out of every shortest-path DAG, exactly as
    /// if deleted; segment routing follows the post-failure shortest paths
    /// between waypoints), then the streams are measured. A stream whose
    /// segment destination becomes unreachable is a hard error naming the
    /// severed `(src, dst)` segment.
    ///
    /// # Errors
    /// Fails when a failure disconnects a segment.
    pub fn run_with_failures(
        &self,
        flows: &[SimFlow],
        cfg: &SimConfig,
        failed: &[segrout_core::EdgeId],
    ) -> Result<SimReport, TeError> {
        if failed.is_empty() {
            return self.run(flows, cfg);
        }
        let mut disabled = vec![false; self.net.edge_count()];
        for e in failed {
            disabled[e.index()] = true;
        }
        self.run_masked(flows, cfg, &disabled)
    }

    /// Runs one experiment: all flows start, run to steady state, and the
    /// per-link loads are measured (run `runs` times with different seeds to
    /// reproduce the spread of paper Figure 7).
    ///
    /// # Errors
    /// Fails when a stream cannot reach (one of) its segment destinations.
    pub fn run(&self, flows: &[SimFlow], cfg: &SimConfig) -> Result<SimReport, TeError> {
        self.run_masked(flows, cfg, &[])
    }

    /// The shared run body: routes over the router's cached DAGs on the
    /// intact topology, or over masked DAGs (failed links excluded from the
    /// Dijkstra, not re-weighted) when `disabled` is non-empty. `cache`
    /// holds the per-destination masked DAGs for the run.
    fn run_masked(
        &self,
        flows: &[SimFlow],
        cfg: &SimConfig,
        disabled: &[bool],
    ) -> Result<SimReport, TeError> {
        let mut loads = vec![0.0; self.net.edge_count()];
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let salt: u64 = rng.gen();
        let mut cache: Vec<Option<Arc<SpDag>>> = vec![None; self.net.node_count()];

        for (fid, flow) in flows.iter().enumerate() {
            assert!(flow.streams >= 1, "flows need at least one stream");
            let per_stream = flow.rate / flow.streams as f64;
            for sid in 0..flow.streams {
                // Segment endpoints: src -> w1 -> ... -> dst.
                let mut cur = flow.src;
                for &seg_dst in flow.waypoints.iter().chain(std::iter::once(&flow.dst)) {
                    if seg_dst == cur {
                        continue;
                    }
                    let dag = self.dag_for(&mut cache, seg_dst, disabled);
                    self.route_stream(
                        &dag,
                        cur,
                        seg_dst,
                        per_stream,
                        hash3(salt, fid as u64, sid as u64),
                        &mut loads,
                    )?;
                    cur = seg_dst;
                }
            }
        }

        if cfg.noise > 0.0 {
            for l in loads.iter_mut() {
                // Mean-one multiplicative jitter.
                *l *= 1.0 + cfg.noise * (rng.gen::<f64>() * 2.0 - 1.0);
            }
        }
        let mlu = max_link_utilization(&loads, self.net.capacities());
        Ok(SimReport { loads, mlu })
    }

    /// Returns the routing DAG towards `dst`: the router's cached DAG on the
    /// intact topology, or a run-local masked DAG when links are disabled.
    fn dag_for(
        &self,
        cache: &mut [Option<Arc<SpDag>>],
        dst: NodeId,
        disabled: &[bool],
    ) -> Arc<SpDag> {
        if disabled.is_empty() {
            return self.router.dag(dst);
        }
        Arc::clone(cache[dst.index()].get_or_insert_with(|| {
            Arc::new(shortest_path_dag(
                self.net.graph(),
                self.router.weights(),
                dst,
                disabled,
            ))
        }))
    }

    /// Walks one stream from `src` to `dst` over `dag`, hashing at every hop
    /// over the ECMP next-hop set (the Linux `fib_multipath_hash_policy=1`
    /// L4 hash keys on the 5-tuple, constant along the path — modelled by
    /// the stream key — and is implementation-salted per router — modelled
    /// by hashing in the node id).
    fn route_stream(
        &self,
        dag: &SpDag,
        src: NodeId,
        dst: NodeId,
        rate: f64,
        stream_key: u64,
        loads: &mut [f64],
    ) -> Result<(), TeError> {
        if !dag.reaches_target(src) {
            return Err(TeError::Unroutable { src, dst });
        }
        let g = self.net.graph();
        let mut v = src;
        while v != dst {
            let nexts = dag.dag_out(v);
            debug_assert!(!nexts.is_empty());
            let pick = if nexts.len() == 1 {
                0
            } else {
                (hash3(stream_key, v.0 as u64, dst.0 as u64) % nexts.len() as u64) as usize
            };
            let e = nexts[pick];
            loads[e.index()] += rate;
            v = g.dst(e);
        }
        Ok(())
    }
}

/// Deterministic 3-input hash.
fn hash3(a: u64, b: u64, c: u64) -> u64 {
    let mut h = DefaultHasher::new();
    (a, b, c).hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use segrout_core::{DemandList, WaypointSetting};
    use segrout_instances::instance1;

    fn no_noise() -> SimConfig {
        SimConfig {
            seed: 1,
            noise: 0.0,
        }
    }

    #[test]
    fn single_path_is_exact() {
        let mut b = Network::builder(3);
        b.link(NodeId(0), NodeId(1), 10.0);
        b.link(NodeId(1), NodeId(2), 10.0);
        let net = b.build().unwrap();
        let w = WeightSetting::unit(&net);
        let sim = HashEcmpSim::new(&net, &w);
        let flows = vec![SimFlow {
            src: NodeId(0),
            dst: NodeId(2),
            rate: 5.0,
            streams: 8,
            waypoints: vec![],
        }];
        let r = sim.run(&flows, &no_noise()).unwrap();
        assert!((r.loads[0] - 5.0).abs() < 1e-9);
        assert!((r.mlu - 0.5).abs() < 1e-9);
    }

    #[test]
    fn hash_split_is_uneven_with_few_streams() {
        // Two equal-cost paths, 4 streams: the binomial split rarely lands
        // exactly 2/2 for every seed; with many seeds we must observe at
        // least one uneven split and never a load outside [0, rate].
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), 1.0);
        b.link(NodeId(1), NodeId(3), 1.0);
        b.link(NodeId(0), NodeId(2), 1.0);
        b.link(NodeId(2), NodeId(3), 1.0);
        let net = b.build().unwrap();
        let w = WeightSetting::unit(&net);
        let sim = HashEcmpSim::new(&net, &w);
        let flows = vec![SimFlow {
            src: NodeId(0),
            dst: NodeId(3),
            rate: 1.0,
            streams: 4,
            waypoints: vec![],
        }];
        let mut saw_uneven = false;
        for seed in 0..20 {
            let r = sim.run(&flows, &SimConfig { seed, noise: 0.0 }).unwrap();
            let (a, b_) = (r.loads[0], r.loads[2]);
            assert!((a + b_ - 1.0).abs() < 1e-9, "flow conserved");
            if (a - b_).abs() > 1e-9 {
                saw_uneven = true;
            }
        }
        assert!(saw_uneven, "hash splitting should be imperfect");
    }

    #[test]
    fn many_streams_approach_fluid_split() {
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), 1.0);
        b.link(NodeId(1), NodeId(3), 1.0);
        b.link(NodeId(0), NodeId(2), 1.0);
        b.link(NodeId(2), NodeId(3), 1.0);
        let net = b.build().unwrap();
        let w = WeightSetting::unit(&net);
        let sim = HashEcmpSim::new(&net, &w);
        let flows = vec![SimFlow {
            src: NodeId(0),
            dst: NodeId(3),
            rate: 1.0,
            streams: 20_000,
            waypoints: vec![],
        }];
        let r = sim.run(&flows, &no_noise()).unwrap();
        assert!((r.loads[0] - 0.5).abs() < 0.02, "law of large numbers");
    }

    #[test]
    fn waypoints_pin_streams_deterministically() {
        // Figure 7's joint configuration: each demand pinned through its own
        // waypoint gives MLU exactly 1 regardless of hashing.
        let inst = instance1(4);
        let sim = HashEcmpSim::new(&inst.network, &inst.joint_weights);
        let flows: Vec<SimFlow> = (0..4)
            .map(|i| SimFlow {
                src: inst.source,
                dst: inst.target,
                rate: 1.0,
                streams: 32,
                waypoints: inst.joint_waypoints.get(i).to_vec(),
            })
            .collect();
        let r = sim.run(&flows, &no_noise()).unwrap();
        assert!(
            (r.mlu - 1.0).abs() < 1e-9,
            "joint pinning is exact: {}",
            r.mlu
        );
    }

    #[test]
    fn weights_only_overloads_like_figure7() {
        // LWO-optimal weights on Instance 1: the fluid MLU is m/2 = 2; hash
        // splitting keeps it >= 2 (any imbalance only hurts the thin link or
        // leaves it at 2).
        let inst = instance1(4);
        let w = segrout_instances::instance1::lwo_optimal_weights(&inst);
        let sim = HashEcmpSim::new(&inst.network, &w);
        let flows: Vec<SimFlow> = (0..4)
            .map(|_| SimFlow {
                src: inst.source,
                dst: inst.target,
                rate: 1.0,
                streams: 32,
                waypoints: vec![],
            })
            .collect();
        for seed in 0..10 {
            let r = sim.run(&flows, &SimConfig { seed, noise: 0.0 }).unwrap();
            assert!(r.mlu >= 2.0 - 0.6, "seed {seed}: mlu = {}", r.mlu);
            assert!(r.mlu <= 4.0 + 1e-9);
        }
    }

    #[test]
    fn sim_agrees_with_fluid_engine_on_unsplit_routes() {
        // When every ECMP set is a singleton the simulator must match the
        // exact engine bit for bit.
        let inst = instance1(5);
        let router = Router::new(&inst.network, &inst.joint_weights);
        let mut demands = DemandList::new();
        for _ in 0..5 {
            demands.push(inst.source, inst.target, 1.0);
        }
        let mut wp = WaypointSetting::none(5);
        for i in 0..5 {
            wp.set(i, inst.joint_waypoints.get(i).to_vec());
        }
        let exact = router.evaluate(&demands, &wp).unwrap();
        let sim = HashEcmpSim::new(&inst.network, &inst.joint_weights);
        let flows: Vec<SimFlow> = (0..5)
            .map(|i| SimFlow {
                src: inst.source,
                dst: inst.target,
                rate: 1.0,
                streams: 32,
                waypoints: inst.joint_waypoints.get(i).to_vec(),
            })
            .collect();
        let simulated = sim.run(&flows, &no_noise()).unwrap();
        for e in 0..inst.network.edge_count() {
            assert!(
                (exact.loads[e] - simulated.loads[e]).abs() < 1e-9,
                "edge {e}: {} vs {}",
                exact.loads[e],
                simulated.loads[e]
            );
        }
    }

    #[test]
    fn noise_perturbs_but_preserves_scale() {
        let mut b = Network::builder(2);
        b.link(NodeId(0), NodeId(1), 1.0);
        let net = b.build().unwrap();
        let w = WeightSetting::unit(&net);
        let sim = HashEcmpSim::new(&net, &w);
        let flows = vec![SimFlow {
            src: NodeId(0),
            dst: NodeId(1),
            rate: 1.0,
            streams: 1,
            waypoints: vec![],
        }];
        let r = sim
            .run(
                &flows,
                &SimConfig {
                    seed: 3,
                    noise: 0.05,
                },
            )
            .unwrap();
        assert!(r.mlu > 0.9 && r.mlu < 1.1);
        assert!((r.mlu - 1.0).abs() > 1e-12, "noise should perturb");
    }
    #[test]
    fn failure_reroutes_around_dead_link() {
        // Diamond: fail the upper path's first link; everything reroutes
        // through the lower path.
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), 1.0); // e0 (will fail)
        b.link(NodeId(1), NodeId(3), 1.0);
        b.link(NodeId(0), NodeId(2), 1.0);
        b.link(NodeId(2), NodeId(3), 1.0);
        let net = b.build().unwrap();
        let w = WeightSetting::unit(&net);
        let sim = HashEcmpSim::new(&net, &w);
        let flows = vec![SimFlow {
            src: NodeId(0),
            dst: NodeId(3),
            rate: 1.0,
            streams: 16,
            waypoints: vec![],
        }];
        let r = sim
            .run_with_failures(&flows, &no_noise(), &[segrout_core::EdgeId(0)])
            .unwrap();
        assert_eq!(r.loads[0], 0.0);
        assert!((r.loads[2] - 1.0).abs() < 1e-9);
    }

    /// Figure 7's split-imperfection behaviour: on a two-way ECMP split the
    /// measured deviation from the fluid 50/50 shrinks as the stream count
    /// grows (binomial concentration), converging to the even split.
    #[test]
    fn split_imperfection_decays_with_stream_count() {
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), 1.0);
        b.link(NodeId(1), NodeId(3), 1.0);
        b.link(NodeId(0), NodeId(2), 1.0);
        b.link(NodeId(2), NodeId(3), 1.0);
        let net = b.build().unwrap();
        let w = WeightSetting::unit(&net);
        let sim = HashEcmpSim::new(&net, &w);

        let seeds: Vec<u64> = (0..8).collect();
        let mut mean_dev = Vec::new();
        for streams in [4usize, 16, 64, 256, 1024, 8192] {
            let flows = vec![SimFlow {
                src: NodeId(0),
                dst: NodeId(3),
                rate: 1.0,
                streams,
                waypoints: vec![],
            }];
            let dev: f64 = seeds
                .iter()
                .map(|&seed| {
                    let r = sim.run(&flows, &SimConfig { seed, noise: 0.0 }).unwrap();
                    (r.loads[0] - 0.5).abs()
                })
                .sum::<f64>()
                / seeds.len() as f64;
            mean_dev.push(dev);
        }
        // Convergence end-to-end: the coarsest split deviates visibly, the
        // finest is near-fluid, and the trend over a 2048x stream increase
        // is decisively downward (allowing small non-monotone steps).
        let first = mean_dev[0];
        let last = *mean_dev.last().unwrap();
        assert!(last < 0.02, "8192 streams still {last:.4} from even split");
        assert!(last < first / 4.0, "deviation did not decay: {mean_dev:?}");
        for w in mean_dev.windows(3) {
            assert!(
                w[2] < w[0].max(0.03),
                "no convergence trend in {mean_dev:?}"
            );
        }
    }

    #[test]
    fn failure_disconnecting_a_segment_errors() {
        let mut b = Network::builder(3);
        b.link(NodeId(0), NodeId(1), 1.0);
        b.link(NodeId(1), NodeId(2), 1.0);
        let net = b.build().unwrap();
        let w = WeightSetting::unit(&net);
        let sim = HashEcmpSim::new(&net, &w);
        let flows = vec![SimFlow {
            src: NodeId(0),
            dst: NodeId(2),
            rate: 1.0,
            streams: 4,
            waypoints: vec![],
        }];
        assert!(sim
            .run_with_failures(&flows, &no_noise(), &[segrout_core::EdgeId(1)])
            .is_err());
    }

    #[test]
    fn failure_run_matches_deleted_topology_bitwise() {
        // Masked routing must be indistinguishable from simulating on a
        // network rebuilt without the failed links: same hash picks, same
        // loads bit for bit (modulo the edge-id shift from deletion).
        let mut b = Network::builder(5);
        b.link(NodeId(0), NodeId(1), 1.0); // e0 (fails)
        b.link(NodeId(1), NodeId(4), 1.0); // e1
        b.link(NodeId(0), NodeId(2), 1.0); // e2
        b.link(NodeId(2), NodeId(4), 1.0); // e3
        b.link(NodeId(0), NodeId(3), 1.0); // e4
        b.link(NodeId(3), NodeId(4), 1.0); // e5 (fails)
        let net = b.build().unwrap();
        let w = WeightSetting::unit(&net);
        let sim = HashEcmpSim::new(&net, &w);
        let flows = vec![SimFlow {
            src: NodeId(0),
            dst: NodeId(4),
            rate: 3.0,
            streams: 16,
            waypoints: vec![],
        }];
        let masked = sim
            .run_with_failures(
                &flows,
                &no_noise(),
                &[segrout_core::EdgeId(0), segrout_core::EdgeId(5)],
            )
            .unwrap();

        let mut b2 = Network::builder(5);
        b2.link(NodeId(1), NodeId(4), 1.0);
        b2.link(NodeId(0), NodeId(2), 1.0);
        b2.link(NodeId(2), NodeId(4), 1.0);
        b2.link(NodeId(0), NodeId(3), 1.0);
        let net2 = b2.build().unwrap();
        let w2 = WeightSetting::unit(&net2);
        let sim2 = HashEcmpSim::new(&net2, &w2);
        let deleted = sim2.run(&flows, &no_noise()).unwrap();

        // Surviving edges e1..e4 of `net` map to e0..e3 of `net2`.
        for (old, new) in [(1usize, 0usize), (2, 1), (3, 2), (4, 3)] {
            assert_eq!(
                masked.loads[old].to_bits(),
                deleted.loads[new].to_bits(),
                "edge {old}: {} vs {}",
                masked.loads[old],
                deleted.loads[new]
            );
        }
        assert_eq!(masked.loads[0], 0.0, "failed link carries nothing");
        assert_eq!(masked.loads[5], 0.0, "failed link carries nothing");
        assert_eq!(masked.mlu.to_bits(), deleted.mlu.to_bits());
    }

    #[test]
    fn empty_failure_set_matches_plain_run() {
        let inst = instance1(4);
        let sim = HashEcmpSim::new(&inst.network, &inst.joint_weights);
        let flows = vec![SimFlow {
            src: inst.source,
            dst: inst.target,
            rate: 1.0,
            streams: 8,
            waypoints: vec![],
        }];
        let a = sim.run(&flows, &no_noise()).unwrap();
        let b = sim.run_with_failures(&flows, &no_noise(), &[]).unwrap();
        assert_eq!(a.loads, b.loads);
    }
}
