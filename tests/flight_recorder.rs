//! Flight-recorder contract tests: the convergence trace of a HeurOSPF
//! descent on Germany50 is monotone in the recorded best objective, and
//! enabling tracing/profiling never changes optimizer output — the trace
//! layer observes the search, it must not participate in it.

use segrout_algos::{heur_ospf, HeurOspfConfig};
use segrout_core::WeightSetting;
use segrout_topo::by_name;
use segrout_traffic::{mcf_synthetic, TrafficConfig};
use std::sync::{Mutex, MutexGuard};

/// The trace buffer and profiler are process-global; serialize every test
/// that toggles them.
fn recorder_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn quick_ospf(seed: u64) -> HeurOspfConfig {
    HeurOspfConfig {
        seed,
        restarts: 1,
        max_passes: 4,
        ..Default::default()
    }
}

fn weight_bits(w: &WeightSetting) -> Vec<u64> {
    w.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Traced HeurOSPF on Germany50: the recorded best-MLU curve is monotone
/// non-increasing, events are well-formed, and the final traced value
/// matches the returned weight setting's quality.
#[test]
fn germany50_trace_is_monotone_and_well_formed() {
    let _guard = recorder_lock();
    let net = by_name("Germany50").expect("embedded topology");
    let demands = mcf_synthetic(
        &net,
        &TrafficConfig {
            seed: 11,
            ..Default::default()
        },
    )
    .expect("connected");

    segrout_obs::reset_trace();
    segrout_obs::set_trace_enabled(true);
    let _w = heur_ospf(&net, &demands, &quick_ospf(3));
    segrout_obs::set_trace_enabled(false);
    let pts = segrout_obs::take_trace();

    assert!(pts.len() >= 3, "expected start + accepts + done");
    assert_eq!(pts.first().map(|p| p.event), Some("heurospf.start"));
    assert_eq!(pts.last().map(|p| p.event), Some("heurospf.done"));

    // Sequence numbers dense, timestamps and iteration counts ordered.
    for (i, p) in pts.iter().enumerate() {
        assert_eq!(p.seq, i as u64);
    }
    for w in pts.windows(2) {
        assert!(w[0].t_us <= w[1].t_us, "timestamps regressed");
        assert!(w[0].iter <= w[1].iter, "iteration counter regressed");
    }

    // The recorded incumbent is monotone non-increasing in (phi, mlu)
    // lexicographic order — every trace point is a strict improvement.
    for w in pts.windows(2) {
        let (p0, p1) = (&w[0], &w[1]);
        assert!(
            p1.phi < p0.phi + 1e-12 || (p1.phi <= p0.phi + 1e-12 && p1.mlu <= p0.mlu + 1e-12),
            "best objective regressed between {:?} and {:?}",
            p0,
            p1
        );
    }
    let done = pts.last().expect("non-empty");
    let best = pts.iter().map(|p| p.mlu).fold(f64::INFINITY, f64::min);
    assert!(
        (done.mlu - best).abs() < 1e-12,
        "final trace point must carry the best recorded MLU"
    );
}

/// Bit-identity: the optimizer returns the same weights whether the flight
/// recorder is off, tracing, or tracing + profiling.
#[test]
fn tracing_does_not_change_optimizer_output() {
    let _guard = recorder_lock();
    let net = by_name("Germany50").expect("embedded topology");
    let demands = mcf_synthetic(
        &net,
        &TrafficConfig {
            seed: 5,
            ..Default::default()
        },
    )
    .expect("connected");
    // One descent is enough for the identity check (restart coverage for
    // the trace layer lives in the monotonicity test above).
    let cfg = HeurOspfConfig {
        restarts: 0,
        ..quick_ospf(7)
    };

    segrout_obs::set_trace_enabled(false);
    segrout_obs::set_profiling(false);
    let plain = heur_ospf(&net, &demands, &cfg);

    segrout_obs::reset_trace();
    segrout_obs::set_trace_enabled(true);
    let traced = heur_ospf(&net, &demands, &cfg);
    assert!(segrout_obs::trace_len() > 0, "tracing produced no points");

    segrout_obs::reset_profile();
    segrout_obs::set_profiling(true);
    let profiled = heur_ospf(&net, &demands, &cfg);

    segrout_obs::set_trace_enabled(false);
    segrout_obs::set_profiling(false);
    segrout_obs::reset_trace();
    segrout_obs::reset_profile();

    assert_eq!(
        weight_bits(&plain),
        weight_bits(&traced),
        "tracing changed the optimizer result"
    );
    assert_eq!(
        weight_bits(&plain),
        weight_bits(&profiled),
        "profiling changed the optimizer result"
    );
}

/// A robust `optimize` records what ran in its run artifact: the demand
/// set as given and the objective, and no `traffic`, whose single matrix
/// the set replaced.
#[test]
fn robust_run_artifact_records_the_demand_set_and_objective() {
    let dir = std::env::temp_dir().join("segrout-flight-recorder");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rs.json");
    let args = [
        "optimize",
        "--demand-set",
        "diurnal:2",
        "--algorithm",
        "unit",
        "--robust",
        "q0.5",
        "--run-out",
        path.to_str().unwrap(),
    ];
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_segrout"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let art = segrout::obs::Json::parse(&std::fs::read_to_string(&path).unwrap())
        .expect("run artifact parses");
    assert_eq!(art["command"], "optimize");
    assert_eq!(art["algorithm"], "unit");
    assert_eq!(art["demand_set"], "diurnal:2");
    assert_eq!(art["robust"], "q0.5");
    assert!(
        art.get("traffic").is_none(),
        "the unused --traffic default is recorded: {}",
        art.render()
    );
}
