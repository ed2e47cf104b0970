//! The five workloads. Each builds its inputs from the workload seed, times
//! the program's set-up and its operations from outside through public
//! calls, and then checks every output it can against a from-scratch oracle.

mod exact;
mod offline;
mod scale;
mod serve;
mod sweep;

use crate::host::HostSpeed;
use crate::layers::{fill_profile, Layers, Snapshot};
use crate::spans::Spans;
use segrout_core::rng::{SliceRandom, StdRng};
use segrout_core::{EdgeId, Network};
use std::time::Instant;

/// How one run is to be made.
pub struct Ctx {
    /// The workload seed; every input is derived from it.
    pub seed: u64,
    /// Summed operation time a run measures, in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Small inputs on the same code paths.
    pub smoke: bool,
    /// `segrout-par` worker threads (never above the host's cores).
    pub threads: usize,
    /// Where a traced run writes its spans and profile.
    pub trace_dir: std::path::PathBuf,
}

impl Ctx {
    /// Seconds of untraced measurement: all of them, or half in a traced
    /// run, whose other half replays the same operations traced.
    pub fn budget(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// An input seed for stream `k` of purpose `tag`, derived from the
    /// workload seed (SplitMix64 finalizer, so nearby seeds decorrelate).
    pub fn derive(&self, tag: u64, k: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(tag.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(k.wrapping_mul(0x94D0_49BB_1331_11EB));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Operations checked, and a message per operation that failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(msg());
        }
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Run {
    /// Set-up repetitions, seconds each, at the reference speed.
    pub setup_s: Vec<f64>,
    /// Latency of every measured operation, milliseconds, at the reference
    /// speed ([`HostSpeed`]).
    pub op_ms: Vec<f64>,
    /// The same latencies as the clock read them.
    pub raw_op_ms: Vec<f64>,
    /// Every host-speed factor sampled (reference speed / host speed).
    pub host_factors: Vec<f64>,
    /// Work units completed by the measured operations.
    pub work: f64,
    /// Peak resident set while the program was measured, MB.
    pub peak_rss_mb: f64,
    /// Peak resident set before measuring began, i.e. of input generation.
    pub inputs_peak_rss_mb: f64,
    /// Time spent generating inputs (not a metric).
    pub inputs_s: f64,
    pub checks: Checks,
    /// Workload-specific counts printed and recorded beside the metrics.
    pub details: Vec<(&'static str, f64)>,
    /// Outputs of the program that depend only on the seed (MLU, churn,
    /// node counts): any change between two commits at one seed is a
    /// change in behaviour, which `compare` reports.
    pub deterministic: Vec<(&'static str, f64)>,
    /// Per-layer metrics and spans (traced runs only).
    pub tracing: Option<Tracing>,
}

impl Run {
    /// Takes over what [`measure`] timed.
    pub fn record(&mut self, timed: Timed) {
        self.op_ms = timed.op_ms;
        self.raw_op_ms = timed.raw_op_ms;
        self.host_factors = timed.host_factors;
        self.setup_s = timed.setup_s;
        self.peak_rss_mb = timed.peak_rss_mb;
        self.inputs_peak_rss_mb = timed.inputs_peak_rss_mb;
    }
}

/// A named workload.
pub struct Workload {
    pub name: &'static str,
    pub run: fn(&Ctx) -> Result<Run, String>,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "offline-g50",
        run: offline::run,
    },
    Workload {
        name: "serve-g50",
        run: serve::run,
    },
    Workload {
        name: "sweep-g50",
        run: sweep::run,
    },
    Workload {
        name: "scale-geo400",
        run: scale::run,
    },
    Workload {
        name: "exact-abilene",
        run: exact::run,
    },
];

/// Every edge of a network once per round, in a seeded order reshuffled
/// each round. Drawing the edges an operation touches this way rather than
/// independently leaves each edge equally likely at every draw, but makes
/// runs of equal length touch every edge about equally often; edges differ
/// widely in what touching them costs.
pub struct EdgeRounds {
    order: Vec<EdgeId>,
    next: usize,
}

impl EdgeRounds {
    pub fn new(net: &Network) -> Self {
        let order: Vec<EdgeId> = (0..net.edge_count() as u32).map(EdgeId).collect();
        let next = order.len();
        Self { order, next }
    }

    pub fn next(&mut self, rng: &mut StdRng) -> EdgeId {
        if self.next == self.order.len() {
            self.order.shuffle(rng);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// `VmHWM` (peak resident set) of process `pid` (`"self"` for this one), MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading the peak resident set: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in the process status".into())
}

/// Lowers this process's peak resident set to its current resident set
/// (Linux 4.0 and later), so a later [`peak_rss_mb`] covers only what ran
/// after this call.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set: {e}"))
}

/// What [`measure`] timed.
pub struct Timed {
    /// Latency of every operation, milliseconds at the reference speed.
    pub op_ms: Vec<f64>,
    /// The same latencies as the clock read them.
    pub raw_op_ms: Vec<f64>,
    /// Every host-speed factor sampled.
    pub host_factors: Vec<f64>,
    /// Every set-up repetition, seconds at the reference speed.
    pub setup_s: Vec<f64>,
    /// This process's peak resident set over the set-ups and operations.
    pub peak_rss_mb: f64,
    /// This process's peak resident set before them.
    pub inputs_peak_rss_mb: f64,
}

/// Runs `op(i)` for `i = 0, 1, ...` until the operations' summed time, as
/// the clock reads it, reaches `budget_s` and at least `min_ops` ran. `op`
/// returns the time it measured for itself, in milliseconds (input
/// generation it does around the timed call is excluded); every time
/// recorded is scaled to the reference speed by a [`HostSpeed`].
///
/// `setup` runs `setup_reps` times, each timed whole: before the first
/// operation, then whenever the summed operation time passes another equal
/// share of the budget, the last after the final operation. Other tenants
/// of a shared host slow it for seconds at a time; spread over the run, the
/// set-up median samples the same stretch of time as the operation median
/// rather than the first few milliseconds.
///
/// The peak resident set is reset before the first set-up and read after
/// the last operation, so it excludes input generation before the call and
/// the checks after it.
pub fn measure(
    budget_s: f64,
    min_ops: usize,
    setup_reps: usize,
    mut setup: impl FnMut() -> Result<(), String>,
    mut op: impl FnMut(usize) -> Result<f64, String>,
) -> Result<Timed, String> {
    assert!(setup_reps > 0);
    let inputs_peak_rss_mb = peak_rss_mb("self")?;
    reset_peak_rss()?;
    let budget_ms = budget_s * 1e3;
    let mut speed = HostSpeed::new();
    let (mut op_ms, mut raw_op_ms) = (Vec::new(), Vec::new());
    let mut setup_s = Vec::with_capacity(setup_reps);
    let mut set_up = |speed: &mut HostSpeed, setup_s: &mut Vec<f64>| -> Result<(), String> {
        let (ms, _) = speed.time(|| {
            let t = Instant::now();
            setup()?;
            Ok::<_, String>(ms_since(t))
        })?;
        setup_s.push(ms / 1e3);
        Ok(())
    };
    let mut total_ms = 0.0;
    // Repetition j is due once j / (setup_reps - 1) of the budget has passed.
    let due = |j: usize, total_ms: f64| j as f64 * budget_ms <= total_ms * (setup_reps - 1) as f64;
    while op_ms.len() < min_ops || total_ms < budget_ms {
        while setup_s.len() < setup_reps && due(setup_s.len(), total_ms) {
            set_up(&mut speed, &mut setup_s)?;
        }
        let (ms, raw) = speed.time(|| op(op_ms.len()))?;
        total_ms += raw;
        op_ms.push(ms);
        raw_op_ms.push(raw);
    }
    while setup_s.len() < setup_reps {
        set_up(&mut speed, &mut setup_s)?;
    }
    Ok(Timed {
        op_ms,
        raw_op_ms,
        host_factors: speed.factors().to_vec(),
        setup_s,
        peak_rss_mb: peak_rss_mb("self")?,
        inputs_peak_rss_mb,
    })
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A traced replay: its per-layer metrics and the benchmark's spans, both
/// of which the workload may extend before the run ends.
pub struct Tracing {
    pub layers: Layers,
    pub spans: Spans,
}

/// Replays the untraced run's operations `k = 0..untraced_ms.len()` with
/// the program's profiler and flight recorder on. `op(k, spans)` runs
/// operation `k`, recording its spans, and returns its time in ms, timed as
/// the untraced run timed it (and scaled like it to the reference speed).
/// Fills every metric derived from the program's counters and profile, and
/// `trace_overhead_frac`: the median over operations of traced / untraced
/// time, minus one.
pub fn trace_ops(
    ctx: &Ctx,
    untraced_ms: &[f64],
    mut op: impl FnMut(usize, &mut Spans) -> Result<f64, String>,
) -> Result<Tracing, String> {
    let n = untraced_ms.len();
    let mut spans = Spans::new(true);
    let mut speed = HostSpeed::new();
    let before = Snapshot::take();
    segrout_obs::reset_profile();
    segrout_obs::reset_trace();
    segrout_obs::set_profiling(true);
    segrout_obs::set_trace_enabled(true);
    let traced: Vec<f64> = (0..n)
        .map(|k| Ok(speed.time(|| op(k, &mut spans))?.0))
        .collect::<Result<_, String>>()?;
    segrout_obs::set_profiling(false);
    segrout_obs::set_trace_enabled(false);
    let delta = before.delta(&Snapshot::take());
    let written = std::fs::create_dir_all(&ctx.trace_dir)
        .and_then(|()| segrout_obs::write_collapsed_stacks(&ctx.trace_dir.join("profile.folded")));
    if let Err(e) = written {
        eprintln!("warning: could not write the profile: {e}");
    }

    let mut layers = Layers::default();
    delta.fill(n, &mut layers);
    fill_profile(&segrout_obs::profile_nodes(), n, &delta, &mut layers);
    let ratios: Vec<f64> = untraced_ms
        .iter()
        .zip(&traced)
        .map(|(u, t)| t / u)
        .collect();
    if !ratios.is_empty() {
        layers.set("trace_overhead_frac", crate::stats::median(&ratios) - 1.0);
    }
    Ok(Tracing { layers, spans })
}
