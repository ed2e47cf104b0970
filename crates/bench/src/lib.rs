//! # segrout-bench
//!
//! The experiment harness regenerating every table and figure of the paper.
//! Each binary prints the corresponding rows and writes a JSON record under
//! `results/` (used to assemble EXPERIMENTS.md):
//!
//! | target | reproduces |
//! |---|---|
//! | `table1` | Table 1 — TE gap growth on Instances 1/2/3/5 |
//! | `fig3` | Figure 3 — effective-capacity worked examples |
//! | `fig4` | Figure 4 — heuristics on the ten largest topologies |
//! | `fig5` | Figure 5 — MILP vs heuristics on Abilene |
//! | `fig6` | Figure 6 — real-like (gravity) demands |
//! | `fig7` | Figure 7 — hash-ECMP (Nanonet) experiment |
//! | `ablation_joint` | §8 open questions — JOINT-Heur design knobs |
//! | `dynamic_reopt` | re-optimization under traffic drift |
//! | `failure_robustness` | single-link failure robustness of the optimizers |
//! | `bench_failsweep` | failure-sweep scenario throughput on Germany50 (`BENCH_failsweep.json`) |
//! | `bench_robust` | price of robustness over demand sets (`BENCH_robust.json`) |
//! | `bench_serve` | serve-daemon event latency (`BENCH_serve.json`) |
//! | `bench_simplex` | branch-and-bound node throughput per LP engine (`BENCH_simplex.json`) |
//!
//! Run e.g. `cargo run -p segrout-bench --release --bin fig4`. Binaries
//! accept `SEGROUT_SEEDS=<k>` to change the number of demand sets
//! (default 3; the paper uses 10) and `SEGROUT_FAST=1` for smoke-test runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use segrout_obs::Json;
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

/// Flight-recorder output paths requested via CLI flags (written by
/// [`finish_obs`]).
static TRACE_OUT: OnceLock<String> = OnceLock::new();
static PROFILE_OUT: OnceLock<String> = OnceLock::new();

/// Summary statistics of a sample.
#[derive(Clone, Copy, Debug)]
pub struct Stat {
    /// Minimum.
    pub min: f64,
    /// Mean.
    pub avg: f64,
    /// Maximum.
    pub max: f64,
    /// Median.
    pub median: f64,
}

impl From<Stat> for Json {
    fn from(s: Stat) -> Json {
        Json::obj([
            ("min", Json::from(s.min)),
            ("avg", Json::from(s.avg)),
            ("max", Json::from(s.max)),
            ("median", Json::from(s.median)),
        ])
    }
}

/// Computes summary statistics; `None` for an empty sample (an experiment
/// where every run was filtered out — e.g. all failure scenarios
/// disconnecting — must degrade to "no data", not crash at the summary
/// line).
///
/// # Panics
/// Panics when the sample contains a non-finite value: a NaN would
/// previously sort arbitrarily (`partial_cmp` falling back to `Equal`) and
/// silently poison min/median/max, so it is surfaced here instead.
pub fn stat(xs: &[f64]) -> Option<Stat> {
    if xs.is_empty() {
        return None;
    }
    for &x in xs {
        assert!(x.is_finite(), "sample contains a non-finite value: {x}");
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = if sorted.len() % 2 == 1 {
        sorted[sorted.len() / 2]
    } else {
        0.5 * (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2])
    };
    Some(Stat {
        min: sorted[0],
        avg: xs.iter().sum::<f64>() / xs.len() as f64,
        max: *sorted.last().expect("non-empty"),
        median,
    })
}

/// Number of demand-set seeds per experiment (`SEGROUT_SEEDS`, default 3).
pub fn seeds() -> u64 {
    std::env::var("SEGROUT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

/// Fast mode for smoke tests (`SEGROUT_FAST=1`).
pub fn fast_mode() -> bool {
    std::env::var("SEGROUT_FAST").is_ok_and(|v| v == "1")
}

/// Writes a JSON record for an experiment under `results/`, stamping host
/// provenance (core count, thread setting, git rev) into the record and
/// writing a sibling `<name>.run.json` run artifact — so a record
/// measured on one core is self-describing and two bench runs can be
/// diffed with `segrout report`.
pub fn write_json(name: &str, value: &Json) {
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_err() {
        eprintln!("warning: cannot create results/; skipping JSON export");
        return;
    }
    // Fast (smoke-test) runs must not clobber full-run records.
    let suffix = if fast_mode() { "_fast" } else { "" };
    let path = dir.join(format!("{name}{suffix}.json"));
    let record = segrout_obs::attach_provenance(value.clone());
    if let Err(e) = fs::write(&path, record.render()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        println!("[results written to {}]", path.display());
    }
    let artifact = dir.join(format!("{name}{suffix}.run.json"));
    if let Err(e) = segrout_obs::write_run_artifact(&artifact, name, Some(seeds()), &[]) {
        eprintln!("warning: cannot write {}: {e}", artifact.display());
    }
    // Each binary's final act: also emit the run's metric registry to any
    // `--metrics-out` JSONL sink so benchmark telemetry matches
    // `segrout optimize`.
    finish_obs();
}

/// Writes a standalone benchmark record (e.g. `BENCH_serve.json` in the
/// working directory), stamping host provenance (core count, thread
/// setting, git rev) into the record and writing a sibling `<stem>.run.json`
/// run artifact so two runs can be diffed with `segrout report`.
pub fn write_record(path: &str, value: &Json) {
    let record = segrout_obs::attach_provenance(value.clone());
    if let Err(e) = fs::write(path, record.render()) {
        eprintln!("warning: cannot write {path}: {e}");
    } else {
        println!("[results written to {path}]");
    }
    let stem = path.strip_suffix(".json").unwrap_or(path);
    let artifact = format!("{stem}.run.json");
    if let Err(e) = segrout_obs::write_run_artifact(Path::new(&artifact), stem, Some(seeds()), &[])
    {
        eprintln!("warning: cannot write {artifact}: {e}");
    }
}

/// Applies the shared observability CLI flags (`--log-level <level>`,
/// `--metrics-out <file.jsonl>`, `--threads <N>`) from this process's
/// arguments, so every figure binary emits telemetry artifacts comparable
/// to `segrout optimize`. Unknown arguments are ignored (the binaries are
/// otherwise configured by environment variables).
pub fn init_obs_from_args() {
    // Pin the telemetry epoch now so run-artifact wall times cover the
    // whole run (`elapsed_us` starts its clock at the first call).
    let _ = segrout_obs::elapsed_us();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i + 1 < args.len() {
        match args[i].as_str() {
            "--log-level" => match args[i + 1].parse() {
                Ok(level) => segrout_obs::set_level(level),
                Err(e) => eprintln!("warning: {e}"),
            },
            "--metrics-out" => {
                if let Err(e) = segrout_obs::init_jsonl(Path::new(&args[i + 1])) {
                    eprintln!("warning: cannot open {}: {e}", args[i + 1]);
                }
            }
            "--threads" => match args[i + 1].parse::<usize>() {
                Ok(n) if n > 0 => segrout_par::set_threads(n),
                _ => eprintln!("warning: --threads expects a positive integer"),
            },
            "--trace-out" => {
                segrout_obs::set_trace_enabled(true);
                let _ = TRACE_OUT.set(args[i + 1].clone());
            }
            "--profile-out" => {
                segrout_obs::set_profiling(true);
                let _ = PROFILE_OUT.set(args[i + 1].clone());
            }
            _ => {
                i += 1;
                continue;
            }
        }
        i += 2;
    }
    // Record the effective thread count (flag, SEGROUT_THREADS, or the
    // hardware default) in the summary table and JSONL telemetry.
    segrout_obs::gauge("par.threads").set(segrout_par::threads() as f64);
}

/// Dumps the metric registry to any JSONL sink, writes any requested
/// flight-recorder outputs, and flushes all sinks. Figure binaries call
/// this once before exiting.
pub fn finish_obs() {
    if let Some(path) = TRACE_OUT.get() {
        match segrout_obs::write_trace_jsonl(Path::new(path)) {
            Ok(n) => eprintln!("trace: {n} points written to {path}"),
            Err(e) => eprintln!("warning: cannot write {path}: {e}"),
        }
    }
    if let Some(path) = PROFILE_OUT.get() {
        if let Err(e) = segrout_obs::write_collapsed_stacks(Path::new(path)) {
            eprintln!("warning: cannot write {path}: {e}");
        } else {
            eprintln!("profile: collapsed stacks written to {path}");
        }
    }
    segrout_obs::dump_metrics();
}

/// Times `f` over `samples` runs (after one warm-up) and prints min /
/// median / mean wall-time in milliseconds — the plain offline replacement
/// for the former criterion harness.
pub fn time_it<R>(name: &str, samples: usize, mut f: impl FnMut() -> R) {
    let _ = std::hint::black_box(f());
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples.max(1) {
        let t0 = std::time::Instant::now();
        let _ = std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let s = stat(&times).expect("at least one timing sample");
    println!(
        "{name:<44} min {:>10.3} ms   median {:>10.3} ms   avg {:>10.3} ms",
        s.min, s.median, s.avg
    );
}

/// Prints a header line for an experiment binary and applies the shared
/// observability flags (every figure binary calls this first).
pub fn banner(title: &str) {
    init_obs_from_args();
    println!("{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_basics() {
        let s = stat(&[1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.avg - 2.0).abs() < 1e-12);
        assert_eq!(s.median, 2.0);
    }

    #[test]
    fn median_of_even_sample() {
        let s = stat(&[4.0, 1.0, 2.0, 3.0]).unwrap();
        assert!((s.median - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_is_none() {
        assert!(stat(&[]).is_none());
    }

    #[test]
    fn negative_zero_sorts_cleanly() {
        let s = stat(&[0.0, -0.0, -1.0]).unwrap();
        assert_eq!(s.min, -1.0);
        assert_eq!(s.median, -0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_sample_panics() {
        stat(&[1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn infinite_sample_panics() {
        stat(&[1.0, f64::INFINITY]);
    }
}
