//! Online-serving benchmark (`BENCH_serve.json`): event-loop latency and
//! churn of the `segrout serve` engine on Germany50.
//!
//! Opens one [`ServeSession`] (a single live incremental evaluator — the
//! daemon never rebuilds its SP-DAGs) and replays a seeded synthetic trace
//! of ≥ 500 events: demand scalings, link flaps (down + later up),
//! capacity changes and keep-alives. Records per-event latency (p50/p99,
//! both from the raw sample and the `serve.latency_ms` histogram),
//! churn-per-event, and the tier mix (probe-only / local reopt /
//! escalation / error).
//!
//! Environment: `SEGROUT_FAST=1` shrinks to Abilene with 60 events and
//! writes `BENCH_serve_fast.json` instead.

use segrout_algos::{heur_ospf, HeurOspfConfig, ServeConfig, ServeEvent, ServeSession, ServeTier};
use segrout_bench::{banner, fast_mode, stat, write_record};
use segrout_core::rng::StdRng;
use segrout_core::{EdgeId, WaypointSetting};
use segrout_obs::json;
use segrout_topo::by_name;
use segrout_traffic::{gravity, TrafficConfig};

/// The seed of the gravity demands, which the run artifact records.
const TRAFFIC_SEED: u64 = 808;

fn main() {
    banner("BENCH serve — online reoptimization event-loop latency and churn");
    let fast = fast_mode();
    let (topo, n_events) = if fast {
        ("Abilene", 60)
    } else {
        ("Germany50", 500)
    };
    let net = by_name(topo).expect("embedded");
    let demands = gravity(
        &net,
        &TrafficConfig {
            seed: TRAFFIC_SEED,
            ..Default::default()
        },
    )
    .expect("connected");
    let n_demands = demands.len();

    // Initial configuration: a short weight search (the daemon's steady
    // state assumes a reasonable deployed setting, not a freshly tuned one).
    let ospf = HeurOspfConfig {
        seed: 0x5eed,
        restarts: 0,
        max_passes: 2,
        ..Default::default()
    };
    let weights = heur_ospf(&net, &demands, &ospf);

    // Bound the per-event search so reopt-tier latency reflects the online
    // budget, not an offline-quality descent.
    let mut cfg = ServeConfig::default();
    cfg.reopt.ospf = HeurOspfConfig {
        seed: 0x5eed,
        max_passes: 3,
        ..Default::default()
    };
    let slo_ms = cfg.slo_ms;
    let mut session = ServeSession::new(
        &net,
        &weights,
        demands,
        WaypointSetting::none(n_demands),
        cfg,
    )
    .expect("session opens");
    println!(
        "{topo}: {} nodes, {} links, {n_demands} demands; initial MLU {:.4}; {n_events} events\n",
        net.node_count(),
        net.edge_count(),
        session.evaluator().mlu()
    );

    // Seeded synthetic trace: mostly demand churn, plus link flaps (downed
    // links are brought back later), capacity degradations/restorations and
    // keep-alives. Disconnecting downs get an error reply and leave state
    // untouched — that is the serving contract, so they stay in the trace.
    let mut rng = StdRng::seed_from_u64(4242);
    let m = net.edge_count() as u32;
    let mut down: Vec<EdgeId> = Vec::new();
    let mut latencies = Vec::with_capacity(n_events);
    let mut churn_total = 0u64;
    let mut max_churn = 0usize;
    let t0 = std::time::Instant::now();
    for _ in 0..n_events {
        let roll = rng.gen_range(0u32..100);
        let event = if roll < 60 {
            ServeEvent::DemandScale {
                index: rng.gen_range(0..n_demands as u64) as usize,
                factor: 0.5 + 1.5 * rng.gen_f64(),
            }
        } else if roll < 75 {
            // Flap: prefer repairing when links are already down, so the
            // failure mask stays small and both directions get exercised.
            if !down.is_empty() && (down.len() >= 3 || rng.gen_range(0u32..2) == 0) {
                let e = down.swap_remove(rng.gen_range(0..down.len() as u64) as usize);
                ServeEvent::LinkUp { edge: e }
            } else {
                let e = EdgeId(rng.gen_range(0..m));
                if !down.contains(&e) {
                    down.push(e);
                }
                ServeEvent::LinkDown { edge: e }
            }
        } else if roll < 90 {
            let e = EdgeId(rng.gen_range(0..m));
            let nominal = net.capacity(e);
            ServeEvent::Capacity {
                edge: e,
                capacity: nominal * (0.5 + rng.gen_f64()),
            }
        } else {
            ServeEvent::Noop
        };
        let r = session.apply(&event);
        if r.tier == ServeTier::Error {
            // A disconnecting LinkDown was refused: the link is still up.
            if let ServeEvent::LinkDown { edge } = event {
                down.retain(|&e| e != edge);
            }
        }
        latencies.push(r.latency_ms);
        churn_total += r.churn as u64;
        max_churn = max_churn.max(r.churn);
    }
    let secs = t0.elapsed().as_secs_f64();

    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let q =
        |p: f64| sorted[((p * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1)];
    let (p50, p99) = (q(0.50), q(0.99));
    let s = stat(&latencies).expect("non-empty");
    let st = *session.stats();
    assert_eq!(st.events, n_events as u64);
    assert_eq!(
        st.probe_only + st.local_reopts + st.escalations + st.errors,
        st.events,
        "tier tallies must partition the event count"
    );

    println!(
        "{n_events} events in {secs:.2} s  ->  {:.0} events/s",
        n_events as f64 / secs
    );
    println!(
        "latency: p50 {p50:.3} ms  p99 {p99:.3} ms  mean {:.3} ms  max {:.3} ms",
        s.avg, s.max
    );
    println!(
        "tiers: {} probe-only, {} local reopt(s), {} escalation(s), {} error(s)",
        st.probe_only, st.local_reopts, st.escalations, st.errors
    );
    println!(
        "churn: {churn_total} weight change(s) total ({:.3}/event, max {max_churn}); \
         SLO ({slo_ms} ms): {} violation(s)",
        churn_total as f64 / n_events as f64,
        st.slo_violations
    );
    println!("final MLU: {:.4}", session.evaluator().mlu());

    let path = if fast {
        "BENCH_serve_fast.json"
    } else {
        "BENCH_serve.json"
    };
    write_record(
        path,
        TRAFFIC_SEED,
        &json!({
            "topology": topo,
            "demands": n_demands,
            "events": n_events,
            "seconds": secs,
            "events_per_second": n_events as f64 / secs,
            "latency_p50_ms": p50,
            "latency_p99_ms": p99,
            "latency_mean_ms": s.avg,
            "latency_max_ms": s.max,
            "probe_only": st.probe_only,
            "local_reopts": st.local_reopts,
            "escalations": st.escalations,
            "errors": st.errors,
            "churn_total": churn_total,
            "churn_per_event": churn_total as f64 / n_events as f64,
            "max_churn": max_churn,
            "slo_ms": slo_ms,
            "slo_violations": st.slo_violations,
            "final_mlu": session.evaluator().mlu(),
        }),
    );
}
