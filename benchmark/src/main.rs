//! The segrout benchmark: one command runs one workload for one seed,
//! prints every end-to-end metric (or, traced, every per-layer metric) with
//! its unit, checks the program's outputs, and ends with one JSON line.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds S] [--trace 0|1]
//!           [--threads T] [--out runs.jsonl] [--trace-dir DIR] [--smoke]
//! benchmark compare --base a.jsonl --head b.jsonl
//! ```
//!
//! See `README.md` beside this crate for the workloads and metrics.

mod compare;
mod host;
mod layers;
mod spans;
mod spec;
mod stats;
mod workloads;

use segrout_obs::Json;
use spec::Metric;
use std::io::Write;
use std::process::ExitCode;
use workloads::{Ctx, Run, WORKLOADS};

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> [--seconds S] [--trace 0|1]
            [--threads T] [--out runs.jsonl] [--trace-dir DIR] [--smoke]
  benchmark compare --base a.jsonl --head b.jsonl
workloads: offline-g50 serve-g50 sweep-g50 scale-geo400 exact-abilene";

/// Command-line flags: `--name value` pairs and bare switches.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let name = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{}'", args[i]))?;
            if switches.contains(&name) {
                out.push((name.to_string(), None));
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                out.push((name.to_string(), Some(value.clone())));
                i += 2;
            }
        }
        Ok(Self(out))
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !known.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("--{name}: bad value '{v}'")))
            .transpose()
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..])
    } else {
        run_main(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One benchmark run. `Ok(false)` when a check failed.
fn run_main(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["smoke"])?;
    flags.check_known(&[
        "workload",
        "seed",
        "seconds",
        "trace",
        "threads",
        "out",
        "trace-dir",
        "smoke",
    ])?;
    let name = flags.value("workload").ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed: u64 = flags.parsed("seed")?.ok_or("--seed is required")?;
    let seconds: f64 = flags.parsed("seconds")?.unwrap_or(20.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match flags.value("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got '{other}'")),
    };
    let cpus = host_cpus();
    // One worker by default: on a small shared host, timings of pool batches
    // spread across two workers varied twofold between identical runs, while
    // one worker repeated within a few percent.
    let threads = flags.parsed::<usize>("threads")?.unwrap_or(1);
    if threads == 0 || threads > cpus {
        return Err(format!(
            "--threads must be between 1 and the host's {cpus} core(s)"
        ));
    }
    if threads == 1 {
        if let Err(e) = host::pin_to_current_cpu() {
            eprintln!("warning: running unpinned: {e}");
        }
    }
    segrout_par::set_threads(threads);
    let smoke = flags.has("smoke");
    let ctx = Ctx {
        seed,
        // Smoke runs check the code paths, not the speed: a short budget.
        seconds: if smoke { seconds.min(0.5) } else { seconds },
        trace,
        smoke,
        threads,
        trace_dir: flags.value("trace-dir").map_or_else(
            || format!(".bench_out/{name}-seed{seed}").into(),
            Into::into,
        ),
    };

    let spec = spec::builtin()?;
    let started = std::time::Instant::now();
    let mut run = (workload.run)(&ctx)?;
    let wall_s = started.elapsed().as_secs_f64();
    if run.checks.attempted == 0 || run.op_ms.is_empty() {
        return Err("the workload measured no operations".into());
    }
    run.details
        .push(("raw_op_p50_ms", stats::median(&run.raw_op_ms)));
    run.details
        .push(("host_speed", stats::median(&run.host_factors)));

    let declared = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let values: Vec<f64> = if trace {
        let tracing = run
            .tracing
            .as_ref()
            .ok_or("a traced run produced no per-layer metrics")?;
        let names: Vec<String> = declared.iter().map(|m| m.name.clone()).collect();
        let undeclared = tracing.layers.undeclared(&names);
        if !undeclared.is_empty() {
            return Err(format!(
                "per-layer metrics missing from BENCHMARK.json: {}",
                undeclared.join(", ")
            ));
        }
        if let Err(e) = tracing.spans.write(&ctx.trace_dir) {
            eprintln!("warning: could not write the spans: {e}");
        }
        declared
            .iter()
            .map(|m| tracing.layers.get(&m.name))
            .collect()
    } else {
        declared
            .iter()
            .map(|m| end_to_end(&run, m))
            .collect::<Result<_, _>>()?
    };

    let failed = run.checks.failures.len() as u64;
    let correct = failed == 0;
    let tail_pct = stats::tail(&run.op_ms).1;
    println!(
        "workload {name}  seed {seed}  threads {threads}/{cpus}  ops {} (tail = p{tail_pct:.2})  inputs {:.2} s, {:.1} MB  wall {wall_s:.2} s{}",
        run.op_ms.len(),
        run.inputs_s,
        run.inputs_peak_rss_mb,
        if smoke { "  (smoke)" } else { "" },
    );
    for (m, value) in declared.iter().zip(&values) {
        println!(
            "  {:<30} {value:>14.6} {:<8} {} is better",
            m.name, m.unit, m.better
        );
    }
    for (detail, value) in run.deterministic.iter().chain(&run.details) {
        println!("  ({detail:<28} {value:>14.6})");
    }
    for f in run.checks.failures.iter().take(10) {
        eprintln!("check failed: {f}");
    }
    println!(
        "checks: {} operation(s) attempted, {failed} failed",
        run.checks.attempted
    );
    let metrics = |with_unit: bool| {
        Json::obj(declared.iter().zip(&values).map(|(m, &v)| {
            let value = if with_unit {
                Json::obj([
                    ("value", Json::from(v)),
                    ("unit", Json::from(m.unit.as_str())),
                ])
            } else {
                Json::from(v)
            };
            (m.name.as_str(), value)
        }))
    };

    if let Some(path) = flags.value("out") {
        let record = Json::obj([
            ("workload", Json::from(name)),
            ("seed", Json::from(seed)),
            ("trace", Json::from(trace)),
            ("smoke", Json::from(smoke)),
            ("seconds", Json::from(seconds)),
            ("threads", Json::from(threads)),
            ("host_cpus", Json::from(cpus)),
            ("correct", Json::from(correct)),
            ("attempted", Json::from(run.checks.attempted)),
            ("failed", Json::from(failed)),
            ("ops", Json::from(run.op_ms.len())),
            ("tail_percentile", Json::from(tail_pct)),
            ("inputs_s", Json::from(run.inputs_s)),
            ("inputs_peak_rss_mb", Json::from(run.inputs_peak_rss_mb)),
            ("wall_s", Json::from(wall_s)),
            ("metrics", metrics(false)),
            (
                "details",
                Json::obj(run.details.iter().map(|&(d, v)| (d, Json::from(v)))),
            ),
            (
                "deterministic",
                Json::obj(run.deterministic.iter().map(|&(d, v)| (d, Json::from(v)))),
            ),
        ]);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("--out {path}: {e}"))?;
        writeln!(file, "{}", record.render()).map_err(|e| format!("--out {path}: {e}"))?;
    }

    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(run.checks.attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics(true)),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

/// The value of end-to-end metric `m` in an untraced run.
fn end_to_end(run: &Run, m: &Metric) -> Result<f64, String> {
    if run.setup_s.is_empty() {
        return Err("the workload measured no set-up".into());
    }
    Ok(match m.name.as_str() {
        "setup_s" => stats::median(&run.setup_s),
        "op_p50_ms" => stats::median(&run.op_ms),
        "op_tail_ms" => stats::tail(&run.op_ms).0,
        "work_per_s" => run.work / (run.op_ms.iter().sum::<f64>() / 1e3),
        "peak_rss_mb" => run.peak_rss_mb,
        other => {
            return Err(format!(
                "BENCHMARK.json declares '{other}', which no workload measures"
            ))
        }
    })
}
