//! The `segrout` command-line tool: optimize embedded or parsed topologies,
//! inspect the paper's worst-case instances, and evaluate weight settings.
//!
//! ```text
//! segrout topo list
//! segrout topo show Abilene
//! segrout optimize --topology Abilene --traffic mcf --seed 3 --algorithm joint
//! segrout gaps --instance 1 --m 16
//! segrout parse --sndlib network.xml
//! ```

use segrout::algos::{
    greedy_wpo_robust, heur_ospf_failure_robust, heur_ospf_robust, joint_heur_robust, serve_stream,
    GreedyWpoConfig, HeurOspfConfig, JointHeurConfig, ServeConfig, ServeSession,
};
use segrout::core::{
    evaluate_robust, sweep_failures, DemandList, DemandSet, FailureSet, Network, RobustObjective,
    Router, TeError, UtilizationReport, WaypointSetting, WeightSetting,
};
use segrout::instances::{instance1, instance2, instance3, instance4, instance5, PaperInstance};
use segrout::obs::Json;
use segrout::topo::{by_name, parse_graphml, parse_sndlib_xml, TOPOLOGY_NAMES};
use segrout::traffic::{
    diurnal_set, drifting_set, gravity, gravity_perturbation_set, mcf_synthetic, TrafficConfig,
};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

/// Prints to stdout like `print!`, through the CLI's one stdout writer.
macro_rules! out {
    ($($arg:tt)*) => {
        std::io::Write::write_fmt(&mut Stdout::lock(), format_args!($($arg)*))
            .unwrap_or_else(|e| stdout_failed(e))
    };
}

/// Prints a line to stdout like `println!`, through the CLI's one stdout
/// writer.
macro_rules! outln {
    () => {
        out!("\n")
    };
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

/// The CLI's one stdout writer, over a lock on stdout. A reader that went
/// away (a closed pipe, as in `segrout topo list | head -1`) ends the
/// process quietly with exit 0, since no one is left to read the rest; any
/// other write error ends it with an error and exit 1. `print!` would
/// panic on either.
struct Stdout(std::io::StdoutLock<'static>);

impl Stdout {
    fn lock() -> Self {
        Self(std::io::stdout().lock())
    }
}

impl std::io::Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self.0.write(buf) {
            Err(e) if e.kind() != std::io::ErrorKind::Interrupted => stdout_failed(e),
            r => r,
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush().or_else(|e| stdout_failed(e))
    }
}

/// Ends the process after a failed write to stdout: quietly on a closed
/// pipe, with an error otherwise.
fn stdout_failed(e: std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("error: writing to stdout: {e}");
    std::process::exit(1)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, args)) = args.split_first() else {
        usage();
        return ExitCode::FAILURE;
    };
    // Only a malformed command line earns the usage banner; a bad value or
    // a failed run prints just its error.
    let flags = match Flags::parse(cmd, args) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = init_observability(&flags) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if cmd == "report" {
        // Comparison verdicts get their own exit code (2 = regression).
        return match cmd_report(&flags) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(2),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match cmd.as_str() {
        "topo" => cmd_topo(&flags),
        "optimize" => cmd_optimize(&flags),
        "serve" => cmd_serve(&flags),
        "sweep" => cmd_sweep(&flags),
        "gaps" => cmd_gaps(&flags),
        "parse" => cmd_parse(&flags),
        "fuzz" => cmd_fuzz(&flags),
        "catalog" => cmd_catalog(&flags),
        // `Flags::parse` has rejected every other command.
        _ => {
            usage();
            Ok(Run::default())
        }
    };
    // Flight-recorder artifacts (trace, collapsed-stack profile, run.json)
    // are written for successful runs only — a failed command has nothing
    // worth archiving and its artifact would shadow the previous good one.
    let result = result.and_then(|run| finish_flight_recorder(cmd, &flags, &run));
    // Final telemetry: metric records go to the JSONL sink (the stderr
    // pretty-printer ignores records), then everything is flushed.
    segrout::obs::dump_metrics();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "segrout — traffic engineering with joint link weight and segment optimization

USAGE:
  segrout topo list
  segrout topo show <name>
  segrout optimize --topology <name> [--traffic mcf|gravity] [--seed N]
                   [--algorithm unit|invcap|heurospf|greedywpo|joint] [--pairs F] [--top K]
                   [--restarts N] [--passes N]
                   [--demand-set diurnal[:K]|perturb[:K]|drift[:K]] [--robust worst|q<value>]
                   robust multi-matrix mode: optimize one configuration
                   against a set of K traffic matrices (default 4) under the
                   worst-case or quantile objective (default worst)
                   [--save <config-file>] [--load <config-file>]
  segrout serve --topology <name> [--traffic mcf|gravity] [--seed N] [--pairs F]
                [--algorithm unit|invcap|heurospf|greedywpo|joint] [--load <config-file>]
                [--restarts N] [--passes N] [--budget K] [--slo-ms MS]
                [--reopt-ratio R] [--escalate-ratio R]
                [--events <file.jsonl> | --listen <addr:port>]
                online reoptimization daemon: optimize an initial configuration,
                then read JSONL events (stdin by default) — demand scaling,
                matrix replacement, link up/down, capacity changes — and answer
                each with a tiered policy (probe / budgeted local search /
                full-budget escalation), emitting one JSON response per event
                on stdout with the minimal-churn weight diff; --budget caps
                weight changes per local reopt (default 3), --slo-ms sets the
                per-event latency SLO (default 50, 0 disables); an
                {{\"event\":\"shutdown\"}} line stops the daemon
  segrout sweep --topology <name> [--traffic mcf|gravity] [--seed N] [--pairs F]
                [--algorithm unit|invcap|heurospf|greedywpo|joint|failrobust]
                [--doubles] [--scalings 0.8,1.0,1.2] [--robust worst|q<value>]
                [--restarts N] [--passes N] [--sweep-out <file.json>]
                enumerate all single-link (with --doubles also double-link)
                failure scenarios x demand scalings, evaluate each via the
                edge-disable probe engine, and print the MLU distribution
                plus the worst-case certificate; 'failrobust' optimizes the
                weights for the worst surviving scenario before sweeping
  segrout gaps --instance 1|2|3|4|5 [--m N]
  segrout parse (--sndlib <file> | --graphml <file>)
  segrout fuzz [--seed N] [--cases N] [--no-shrink] [--corpus <dir>] [--fast]
               differential fuzzing of the whole optimizer stack; failing
               cases are shrunk to minimal reproducers (default seed 42,
               500 cases; --fast skips the MCF lower-bound check)
  segrout report <old> <new> [--mlu-tol F] [--time-tol F] [--count-tol F]
               compare two run.json artifacts (or JSONL trace/metric files)
               and print a regression verdict table; exit 2 on regression
               (default tolerances: 0.01 / 0.25 / 0.10 relative)
  segrout catalog [--check <file.jsonl>]
               print the metric catalog; with --check, fail when the JSONL
               telemetry contains a metric the catalog does not document

OBSERVABILITY (any command):
  --log-level error|warn|info|debug|trace   stderr event verbosity (default warn)
  --metrics-out <file.jsonl>                write events + final metrics as JSON lines
  --trace-out <file.jsonl>                  record the optimizer convergence trace
                                            (one point per accepted move / B&B
                                            milestone) and write it as JSON lines
  --profile-out <file.txt>                  aggregate spans into a call-tree profile;
                                            write collapsed stacks (flamegraph input)
                                            and print the profile table
  --run-out <file.json>                     write a self-describing run artifact
                                            (provenance + metrics + trace); optimize
                                            defaults to run.json, 'none' disables
  --threads <N>                             worker threads for the parallel optimizer
                                            paths (default: SEGROUT_THREADS, else all
                                            cores; results are identical at any N)"
    );
}

/// Applies the global `--log-level`, `--metrics-out` and `--threads` flags.
fn init_observability(flags: &Flags) -> Result<(), String> {
    // Pin the telemetry epoch now: `elapsed_us` starts its clock at the
    // first observability call, and with the recorder off that could
    // otherwise be as late as artifact-write time (wall_ms ~ 0).
    let _ = segrout::obs::elapsed_us();
    let level = flags.get("log-level", |_| true, "error, warn, info, debug or trace")?;
    let threads = flags.get("threads", |&n: &usize| n > 0, "a positive integer")?;
    if let Some(level) = level {
        segrout::obs::set_level(level);
    }
    if let Some(path) = flags.value("metrics-out") {
        segrout::obs::init_jsonl(std::path::Path::new(path))
            .map_err(|e| format!("--metrics-out {path}: {e}"))?;
    }
    if let Some(n) = threads {
        segrout::par::set_threads(n);
    }
    // Flight recorder: requesting an output file turns the recorder on; the
    // files themselves are written by `finish_flight_recorder`.
    if flags.has("trace-out") {
        segrout::obs::set_trace_enabled(true);
    }
    if flags.has("profile-out") {
        segrout::obs::set_profiling(true);
    }
    // Record the effective thread count in the run-summary table and in the
    // JSONL telemetry, whichever knob set it.
    segrout::obs::gauge("par.threads").set(segrout::par::threads() as f64);
    Ok(())
}

/// Flags that take no value: present means on. Every other flag is
/// followed by its value.
const BOOLEAN_FLAGS: [&str; 3] = ["doubles", "fast", "no-shrink"];

/// Flag pairs that each pick the same input: a command line gives at most
/// one flag of each pair.
const EXCLUSIVE_FLAGS: [(&str, &str); 2] = [("events", "listen"), ("sndlib", "graphml")];

/// The flags command `cmd` accepts, space-separated: its own and the
/// global ones. `None` for an unknown command.
fn command_flags(cmd: &str) -> Option<String> {
    let traffic = "topology traffic seed pairs algorithm restarts passes";
    let own = match cmd {
        "optimize" => format!("{traffic} top demand-set robust save load"),
        "serve" => format!("{traffic} load budget slo-ms reopt-ratio escalate-ratio events listen"),
        "sweep" => format!("{traffic} doubles scalings robust sweep-out"),
        "gaps" => "instance m".into(),
        "parse" => "sndlib graphml".into(),
        "fuzz" => "seed cases no-shrink corpus fast".into(),
        "report" => "mlu-tol time-tol count-tol".into(),
        "catalog" => "check".into(),
        "topo" | "help" | "--help" | "-h" => String::new(),
        _ => return None,
    };
    Some(format!(
        "{own} log-level metrics-out trace-out profile-out run-out threads"
    ))
}

/// One command's arguments: flag values by name (a [`BOOLEAN_FLAGS`] flag
/// stores `"true"`) and the positional arguments in order.
struct Flags {
    values: HashMap<String, String>,
    positionals: Vec<String>,
}

impl Flags {
    /// Scans the arguments after command `cmd`. Every malformed command
    /// line is an error here, before any work: an unknown command, a flag
    /// not in [`command_flags`], a flag that needs a value but ends the
    /// line or is followed by another `--flag`, a flag given twice, both
    /// flags of an [`EXCLUSIVE_FLAGS`] pair, and a positional argument to
    /// any command but `topo` and `report`.
    fn parse(cmd: &str, args: &[String]) -> Result<Self, String> {
        let accepted = command_flags(cmd).ok_or_else(|| format!("unknown command '{cmd}'"))?;
        let mut flags = Flags {
            values: HashMap::new(),
            positionals: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if !matches!(cmd, "topo" | "report") {
                    return Err(format!("unexpected argument '{arg}' for '{cmd}'"));
                }
                flags.positionals.push(arg.clone());
                continue;
            };
            if !accepted.split_whitespace().any(|f| f == name) {
                return Err(format!("unknown flag --{name} for '{cmd}'"));
            }
            let value = if BOOLEAN_FLAGS.contains(&name) {
                "true"
            } else {
                args.next()
                    .map(String::as_str)
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("--{name} needs a value"))?
            };
            if flags.values.insert(name.into(), value.into()).is_some() {
                return Err(format!("--{name} given more than once"));
            }
        }
        for (a, b) in EXCLUSIVE_FLAGS {
            if flags.has(a) && flags.has(b) {
                return Err(format!("--{a} and --{b} cannot be used together"));
            }
        }
        Ok(flags)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The value of `--name` as a `T`, `None` when the flag is absent. A
    /// value that does not parse or fails `ok` is an error naming the flag,
    /// the value and what was `expected`.
    fn get<T: FromStr>(
        &self,
        name: &str,
        ok: impl Fn(&T) -> bool,
        expected: &str,
    ) -> Result<Option<T>, String> {
        let Some(v) = self.value(name) else {
            return Ok(None);
        };
        match v.parse() {
            Ok(x) if ok(&x) => Ok(Some(x)),
            _ => Err(format!("--{name} {v}: expected {expected}")),
        }
    }
}

/// What a command ran, for its run artifact: the effective seed and the
/// resolved names.
#[derive(Default)]
struct Run {
    seed: Option<u64>,
    fields: Vec<(&'static str, Json)>,
}

/// Writes the requested flight-recorder outputs: the convergence trace, the
/// collapsed-stack profile (plus its table on stdout), and the run artifact.
fn finish_flight_recorder(cmd: &str, flags: &Flags, run: &Run) -> Result<(), String> {
    if let Some(path) = flags.value("trace-out") {
        let n = segrout::obs::write_trace_jsonl(Path::new(path))
            .map_err(|e| format!("--trace-out {path}: {e}"))?;
        eprintln!("trace: {n} points written to {path}");
    }
    if let Some(path) = flags.value("profile-out") {
        segrout::obs::write_collapsed_stacks(Path::new(path))
            .map_err(|e| format!("--profile-out {path}: {e}"))?;
        outln!("\ncall-tree profile:\n{}", segrout::obs::profile_table());
        eprintln!("profile: collapsed stacks written to {path}");
    }
    // Every optimize run leaves a run.json behind unless told not to; other
    // commands write an artifact only on request.
    let run_out = flags
        .value("run-out")
        .or((cmd == "optimize").then_some("run.json"));
    if let Some(path) = run_out.filter(|&p| p != "none") {
        segrout::obs::write_run_artifact(Path::new(path), cmd, run.seed, &run.fields)
            .map_err(|e| format!("--run-out {path}: {e}"))?;
        eprintln!("run artifact written to {path}");
    }
    Ok(())
}

/// `segrout report <old> <new>`: compares two run artifacts or JSONL
/// telemetry files. Returns whether any statistic regressed.
fn cmd_report(flags: &Flags) -> Result<bool, String> {
    let [old_path, new_path] = flags.positionals.as_slice() else {
        return Err(format!(
            "report needs exactly two files (run.json artifacts or JSONL traces), got {}",
            flags.positionals.len()
        ));
    };
    let mut t = segrout::obs::Thresholds::default();
    for (key, slot) in [
        ("mlu-tol", &mut t.mlu_tol as &mut f64),
        ("time-tol", &mut t.time_tol),
        ("count-tol", &mut t.count_tol),
    ] {
        let ok = |x: &f64| x.is_finite() && *x >= 0.0;
        if let Some(v) = flags.get(key, ok, "a non-negative number")? {
            *slot = v;
        }
    }
    let old = segrout::obs::load_run_stats(Path::new(old_path))?;
    let new = segrout::obs::load_run_stats(Path::new(new_path))?;
    let rows = segrout::obs::compare(&old, &new, t);
    out!("{}", segrout::obs::render_table(&old, &new, &rows));
    let regressed = segrout::obs::any_regressed(&rows);
    if regressed {
        eprintln!("verdict: REGRESSED");
    } else {
        outln!("verdict: OK");
    }
    Ok(regressed)
}

/// Every metric the workspace registers, with kind and meaning. `segrout
/// catalog --check` fails when telemetry contains an undocumented name —
/// the drift check that keeps this table honest.
const METRIC_CATALOG: &[(&str, &str, &str)] = &[
    (
        "arena.rebuilds",
        "counter",
        "full load-arena refolds of every column: evaluator construction",
    ),
    (
        "arena.reuses",
        "counter",
        "changes whose load fold reused the committed totals of untouched columns",
    ),
    ("check.cases", "counter", "fuzz cases executed"),
    (
        "check.shrink_steps",
        "counter",
        "shrinking steps on failing fuzz cases",
    ),
    (
        "check.violations",
        "counter",
        "fuzz cases that failed a check, counted before shrinking",
    ),
    (
        "dijkstra.bucket_ops",
        "counter",
        "bucket-queue pushes in Dial-engine SP computations",
    ),
    (
        "dijkstra.relaxations",
        "counter",
        "edge relaxations across all SP computations",
    ),
    (
        "dijkstra.runs",
        "counter",
        "single-source shortest-path computations",
    ),
    ("ecmp.recomputes", "counter", "full ECMP load evaluations"),
    (
        "greedywpo.candidates_evaluated",
        "counter",
        "waypoint candidates probed",
    ),
    (
        "greedywpo.final_mlu",
        "gauge",
        "MLU after the waypoint stage",
    ),
    (
        "greedywpo.waypoints_set",
        "counter",
        "waypoints accepted by GreedyWPO",
    ),
    (
        "heurospf.best_mlu",
        "gauge",
        "best MLU found by the weight search",
    ),
    (
        "heurospf.iterations",
        "counter",
        "candidate weight evaluations",
    ),
    (
        "heurospf.mlu_trajectory",
        "series",
        "incumbent MLU at every accepted move",
    ),
    (
        "incr.clean_dests",
        "counter",
        "destinations skipped by the incremental engine",
    ),
    (
        "incr.dirty_dests",
        "counter",
        "destinations repaired by the incremental engine",
    ),
    (
        "incr.disable_probes",
        "counter",
        "incremental edge-disable (failure-scenario) probes",
    ),
    ("incr.probes", "counter", "incremental single-edge probes"),
    (
        "incr.repairs",
        "counter",
        "bounded SP-DAG repairs by probes and link events",
    ),
    (
        "joint.final_mlu",
        "gauge",
        "MLU of the returned joint configuration",
    ),
    (
        "joint.stage1_mlu",
        "gauge",
        "MLU after the weight stage of JOINT-Heur",
    ),
    (
        "joint.stage2_mlu",
        "gauge",
        "MLU after the waypoint stage of JOINT-Heur",
    ),
    ("lwoapx.runs", "counter", "LWO-APX invocations"),
    ("mcf.augmentations", "counter", "MCF augmenting paths"),
    ("mcf.phases", "counter", "MCF scaling phases"),
    ("milp.nodes", "counter", "branch-and-bound nodes explored"),
    (
        "milp.nodes_warm_started",
        "counter",
        "B&B nodes solved from a parent basis",
    ),
    ("par.batches", "counter", "parallel batch dispatches"),
    (
        "par.steal_or_queue_wait",
        "histogram",
        "worker wait time per batch (ms)",
    ),
    ("par.tasks", "counter", "parallel tasks executed"),
    ("par.threads", "gauge", "effective worker-pool width"),
    (
        "reopt.evaluations",
        "counter",
        "candidate evaluations during re-optimization",
    ),
    (
        "robust.matrices",
        "gauge",
        "traffic matrices in the robust demand set",
    ),
    (
        "robust.matrix_evals",
        "counter",
        "per-matrix probe evaluations in the robust searches",
    ),
    (
        "robust.matrix_mlu",
        "series",
        "per-matrix MLU of the final robust configuration",
    ),
    (
        "robust.objective_mlu",
        "gauge",
        "robust-objective (worst-case/quantile) MLU of the final configuration",
    ),
    (
        "robust.worst_mlu",
        "gauge",
        "worst-case MLU of the final configuration over the demand set",
    ),
    (
        "run.mlu",
        "gauge",
        "final MLU of the evaluated configuration",
    ),
    (
        "serve.errors",
        "counter",
        "serve events rejected with an error reply",
    ),
    (
        "serve.escalations",
        "counter",
        "serve events escalated to the full-budget re-solve",
    ),
    (
        "serve.events",
        "counter",
        "events consumed by the serving loop",
    ),
    (
        "serve.latency_ms",
        "histogram",
        "per-event serving latency (ms)",
    ),
    (
        "serve.local_reopts",
        "counter",
        "serve events answered by the budgeted local search",
    ),
    (
        "serve.mlu",
        "gauge",
        "post-event MLU of the serving session",
    ),
    (
        "serve.probe_only",
        "counter",
        "serve events answered by the probe tier alone",
    ),
    (
        "serve.slo_violations",
        "counter",
        "serve events answered slower than the --slo-ms budget",
    ),
    (
        "serve.weight_churn",
        "counter",
        "link-weight changes deployed across all serve events",
    ),
    ("simplex.pivots", "counter", "simplex pivot operations"),
    (
        "sweep.disconnects",
        "counter",
        "failure scenarios classified as disconnecting",
    ),
    (
        "sweep.scenarios",
        "counter",
        "failure scenarios evaluated by the sweep engine",
    ),
    (
        "sweep.worst_mlu",
        "gauge",
        "worst-case MLU over all evaluated failure scenarios",
    ),
    (
        "simplex.refactorizations",
        "counter",
        "basis refactorizations",
    ),
    ("simplex.solves", "counter", "LP solves"),
    (
        "simplex.warm_starts",
        "counter",
        "LP solves warm-started from a basis",
    ),
];

/// Span names whose `time.<name>` histograms telemetry may contain.
const SPAN_CATALOG: &[&str] = &[
    "check.fuzz",
    "greedywpo",
    "heurospf",
    "joint_heur",
    "lwo_apx",
    "mcf",
    "heurospf_fail",
    "optimize",
    "par.batch",
    "reopt.joint",
    "reopt.weights",
    "serve.event",
    "simplex",
    "sweep",
];

fn cmd_catalog(flags: &Flags) -> Result<Run, String> {
    if let Some(path) = flags.value("check") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let mut unknown: Vec<String> = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec = segrout::obs::Json::parse(line)
                .map_err(|e| format!("{path}:{}: not valid JSON ({e})", i + 1))?;
            // Only metric records carry a name; events and trace points are
            // schema-checked elsewhere.
            let is_metric = matches!(
                rec["type"].as_str(),
                Some("counter" | "gauge" | "histogram" | "series")
            );
            let Some(name) = rec["name"].as_str().filter(|_| is_metric) else {
                continue;
            };
            let documented = METRIC_CATALOG.iter().any(|(n, _, _)| *n == name)
                || name
                    .strip_prefix("time.")
                    .is_some_and(|span| SPAN_CATALOG.contains(&span));
            if !documented && !unknown.iter().any(|u| u == name) {
                unknown.push(name.to_string());
            }
        }
        if !unknown.is_empty() {
            return Err(format!(
                "metrics-catalog drift: {} undocumented metric(s): {}",
                unknown.len(),
                unknown.join(", ")
            ));
        }
        outln!("catalog check passed: every metric in {path} is documented");
        return Ok(Run::default());
    }
    outln!("{:<34} {:<10} description", "metric", "kind");
    for (name, kind, desc) in METRIC_CATALOG {
        outln!("{name:<34} {kind:<10} {desc}");
    }
    for span in SPAN_CATALOG {
        outln!("time.{span:<29} histogram  wall-time of the '{span}' span (ms)");
    }
    Ok(Run::default())
}

fn cmd_topo(flags: &Flags) -> Result<Run, String> {
    let args = &flags.positionals;
    match args.first().map(String::as_str) {
        Some("list") => {
            for name in TOPOLOGY_NAMES {
                let net = by_name(name).ok_or("embedded topology missing")?;
                outln!(
                    "{name:<14} {:>3} nodes, {:>3} directed links",
                    net.node_count(),
                    net.edge_count()
                );
            }
            Ok(Run::default())
        }
        Some("show") => {
            let name = args.get(1).ok_or("topo show needs a name")?;
            let net = by_name(name).ok_or_else(|| format!("unknown topology '{name}'"))?;
            outln!("{name}:");
            out!("{}", segrout::topo::topology_stats(&net));
            for (e, u, v) in net.graph().edges() {
                outln!(
                    "  {} -> {}  {:.0} Mbit/s",
                    net.node_name(u),
                    net.node_name(v),
                    net.capacity(e)
                );
            }
            Ok(Run::default())
        }
        _ => Err("topo subcommands: list, show <name>".into()),
    }
}

/// What optimize, sweep and serve share, read from the flags before any
/// work starts: the network, the traffic model and its settings, the
/// algorithm, and the weight-search settings.
struct Setup {
    topology: String,
    net: Network,
    traffic: String,
    cfg: TrafficConfig,
    algorithm: String,
    ospf: HeurOspfConfig,
}

impl Setup {
    /// `algorithms` are the `--algorithm` names the command accepts, its
    /// default first.
    fn new(flags: &Flags, algorithms: &[&str]) -> Result<Self, String> {
        let seed = flags.get("seed", |_| true, "a non-negative integer")?;
        let pairs = flags.get(
            "pairs",
            |p: &f64| *p > 0.0 && *p <= 1.0,
            "a fraction in (0, 1]",
        )?;
        let cfg = TrafficConfig {
            seed: seed.unwrap_or(1),
            pair_fraction: pairs.unwrap_or(0.2),
            ..Default::default()
        };
        let mut ospf = HeurOspfConfig {
            seed: cfg.seed,
            ..Default::default()
        };
        if let Some(r) = flags.get("restarts", |_| true, "a non-negative integer")? {
            ospf.restarts = r;
        }
        if let Some(p) = flags.get("passes", |&n: &usize| n > 0, "a positive integer")? {
            ospf.max_passes = p;
        }
        let traffic = flags.value("traffic").unwrap_or("mcf");
        if !matches!(traffic, "mcf" | "gravity") {
            return Err(format!("--traffic {traffic}: expected mcf or gravity"));
        }
        let algorithm = flags.value("algorithm").unwrap_or(algorithms[0]);
        if !algorithms.contains(&algorithm) {
            let expected = algorithms.join(", ");
            return Err(format!("--algorithm {algorithm}: expected {expected}"));
        }
        let topology = flags.value("topology").unwrap_or("Abilene");
        let net = by_name(topology).ok_or_else(|| format!("unknown topology '{topology}'"))?;
        Ok(Self {
            topology: topology.into(),
            net,
            traffic: traffic.into(),
            cfg,
            algorithm: algorithm.into(),
            ospf,
        })
    }

    /// The single traffic matrix of `--traffic`.
    fn demands(&self) -> Result<DemandList, String> {
        match self.traffic.as_str() {
            "gravity" => gravity(&self.net, &self.cfg),
            _ => mcf_synthetic(&self.net, &self.cfg),
        }
        .map_err(|e| e.to_string())
    }

    /// The configuration to evaluate: the `--load`ed one, or what the
    /// algorithm finds for `set` under `robust`. A single matrix is a set
    /// of one under [`RobustObjective::WorstCase`], which is what
    /// `heur_ospf`, `greedy_wpo` and `joint_heur` run.
    fn configuration(
        &self,
        flags: &Flags,
        set: &DemandSet,
        robust: RobustObjective,
    ) -> Result<(WeightSetting, WaypointSetting), String> {
        let net = &self.net;
        if let Some(path) = flags.value("load") {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            return segrout::core::read_config(net, set.matrix(0), &text)
                .map_err(|e| e.to_string());
        }
        let _span = segrout::obs::span("optimize");
        let none = WaypointSetting::none(set.pair_count());
        Ok(match self.algorithm.as_str() {
            "unit" => (WeightSetting::unit(net), none),
            "invcap" => (WeightSetting::inverse_capacity(net), none),
            "heurospf" => (heur_ospf_robust(net, set, robust, &self.ospf), none),
            "greedywpo" => {
                let w = WeightSetting::inverse_capacity(net);
                let wp = greedy_wpo_robust(net, set, &w, robust, &GreedyWpoConfig::default())
                    .map_err(|e| e.to_string())?;
                (w, wp)
            }
            "joint" => {
                let cfg = JointHeurConfig {
                    ospf: self.ospf.clone(),
                    ..Default::default()
                };
                let r = joint_heur_robust(net, set, robust, &cfg).map_err(|e| e.to_string())?;
                (r.weights, r.waypoints)
            }
            other => return Err(format!("unknown algorithm '{other}'")),
        })
    }

    /// The run-artifact record: the seed and the resolved names.
    fn run(&self) -> Run {
        Run {
            seed: Some(self.cfg.seed),
            fields: vec![
                ("topology", Json::from(self.topology.as_str())),
                ("algorithm", Json::from(self.algorithm.as_str())),
                ("traffic", Json::from(self.traffic.as_str())),
            ],
        }
    }
}

/// `segrout optimize`: optimizes one configuration and reports it. With
/// `--demand-set <kind>[:K]` (robust multi-matrix mode) the configuration
/// is optimized for the `--robust` objective over a set of matrices from
/// one of the `segrout-traffic` set generators, and the report is per
/// matrix; without it the single `--traffic` matrix is a set of one and
/// `--robust` is ignored.
fn cmd_optimize(flags: &Flags) -> Result<Run, String> {
    // Pre-register the core metric catalog so every run reports the same
    // names (zero-valued when a stage did not execute).
    for name in [
        "simplex.pivots",
        "simplex.solves",
        "simplex.refactorizations",
        "simplex.warm_starts",
        "milp.nodes",
        "milp.nodes_warm_started",
        "heurospf.iterations",
        "greedywpo.candidates_evaluated",
        "greedywpo.waypoints_set",
        "ecmp.recomputes",
        "incr.probes",
        "incr.dirty_dests",
        "incr.clean_dests",
        "incr.repairs",
        "arena.reuses",
        "arena.rebuilds",
        "dijkstra.relaxations",
        "dijkstra.runs",
        "dijkstra.bucket_ops",
        "mcf.phases",
        "par.tasks",
        "par.batches",
    ] {
        segrout::obs::counter(name);
    }
    segrout::obs::series("heurospf.mlu_trajectory");

    let setup = Setup::new(flags, &["joint", "unit", "invcap", "heurospf", "greedywpo"])?;
    let top = flags
        .get("top", |_| true, "a non-negative integer")?
        .unwrap_or(5);
    let (net, topo_name) = (&setup.net, &setup.topology);
    let (set, robust) = if let Some(spec) = flags.value("demand-set") {
        segrout::obs::counter("robust.matrix_evals");
        let (kind, count) = match spec.split_once(':') {
            Some((k, c)) => (
                k,
                c.parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--demand-set {spec}: matrix count must be >= 1"))?,
            ),
            None => (spec, 4),
        };
        let robust = flags
            .value("robust")
            .map(RobustObjective::parse)
            .transpose()?
            .unwrap_or(RobustObjective::WorstCase);
        let set = match kind {
            "diurnal" => diurnal_set(net, &setup.cfg, count, 0.6),
            "perturb" => gravity_perturbation_set(net, &setup.cfg, count, 0.4),
            "drift" => drifting_set(net, &setup.cfg, count, 0.3),
            other => {
                return Err(format!(
                    "unknown demand-set kind '{other}' (expected diurnal, perturb or drift)"
                ))
            }
        }
        .map_err(|e| e.to_string())?;
        segrout::obs::gauge("robust.matrices").set(set.len() as f64);
        outln!(
            "{topo_name}: {} nodes, {} links; {} '{kind}' matrices x {} pairs \
             (objective: {robust:?})",
            net.node_count(),
            net.edge_count(),
            set.len(),
            set.pair_count()
        );
        (set, Some(robust))
    } else {
        let demands = setup.demands()?;
        outln!(
            "{topo_name}: {} nodes, {} links; {} demands totalling {:.1}",
            net.node_count(),
            net.edge_count(),
            demands.len(),
            demands.total_size()
        );
        (DemandSet::single(demands), None)
    };

    let objective = robust.unwrap_or(RobustObjective::WorstCase);
    let (weights, waypoints) = setup.configuration(flags, &set, objective)?;
    if let Some(path) = flags.value("save") {
        let text = segrout::core::write_config(net, &weights, &waypoints);
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        outln!("configuration saved to {path}");
    }
    let rep = evaluate_robust(net, &weights, &set, &waypoints).map_err(|e| e.to_string())?;
    outln!("algorithm: {}", setup.algorithm);
    let mlu = if robust.is_some() {
        outln!("\nper-matrix evaluation:");
        let mlu_series = segrout::obs::series("robust.matrix_mlu");
        for (k, (name, _)) in set.iter().enumerate() {
            outln!(
                "  {name:<8} MLU {:>8.4}   Phi {:>12.4}",
                rep.mlus[k],
                rep.phis[k]
            );
            mlu_series.push(rep.mlus[k]);
            segrout::obs::trace_point("robust.matrix", k as u64, rep.phis[k], rep.mlus[k]);
        }
        let objective_mlu = rep.aggregate_mlu(objective);
        outln!("objective MLU: {objective_mlu:.4}");
        outln!("worst-case MLU: {:.4}", rep.worst_mlu());
        segrout::obs::gauge("robust.worst_mlu").set(rep.worst_mlu());
        segrout::obs::gauge("robust.objective_mlu").set(objective_mlu);
        objective_mlu
    } else {
        outln!("MLU: {:.4}", rep.mlus[0]);
        rep.mlus[0]
    };
    let with_wp = (0..set.pair_count())
        .filter(|&i| !waypoints.get(i).is_empty())
        .count();
    if with_wp > 0 {
        outln!("waypointed demands: {with_wp}/{}", set.pair_count());
    }
    if robust.is_none() {
        let util = UtilizationReport::new(net, &rep.reports[0].loads);
        outln!("\nhottest links:\n{}", util.format_top(net, top));
    }
    segrout::obs::gauge("run.mlu").set(mlu);
    outln!("\nrun summary:\n{}", segrout::obs::summary_table());
    let mut run = setup.run();
    if let (Some(spec), Some(robust)) = (flags.value("demand-set"), robust) {
        // The set replaced the single `--traffic` matrix, which never ran.
        run.fields.retain(|&(name, _)| name != "traffic");
        run.fields.push(("demand_set", Json::from(spec)));
        run.fields.push(("robust", Json::from(robust_name(robust))));
    }
    Ok(run)
}

/// The `--robust` spelling of an objective: `worst` or `q<value>`.
fn robust_name(robust: RobustObjective) -> String {
    match robust {
        RobustObjective::WorstCase => "worst".into(),
        RobustObjective::Quantile(q) => format!("q{q}"),
    }
}

/// `segrout sweep`: enumerates link-failure scenarios, evaluates each one
/// through the edge-disable probe engine, and prints the MLU distribution
/// plus the worst-case certificate. `--sweep-out` writes the full
/// per-scenario record as a schema'd JSON artifact.
fn cmd_sweep(flags: &Flags) -> Result<Run, String> {
    // Pre-register the sweep metric catalog so every run reports the same
    // names (zero-valued when nothing fired).
    for name in [
        "sweep.scenarios",
        "sweep.disconnects",
        "incr.disable_probes",
        "incr.probes",
        "ecmp.recomputes",
        "dijkstra.runs",
    ] {
        segrout::obs::counter(name);
    }
    let algorithms = [
        "heurospf",
        "unit",
        "invcap",
        "greedywpo",
        "joint",
        "failrobust",
    ];
    let setup = Setup::new(flags, &algorithms)?;
    let doubles = flags.has("doubles");
    let scalings: Vec<f64> = match flags.value("scalings") {
        Some(spec) => spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite() && *x > 0.0)
                    .ok_or_else(|| format!("--scalings: '{s}' is not a positive number"))
            })
            .collect::<Result<_, _>>()?,
        None => vec![1.0],
    };
    let robust = flags
        .value("robust")
        .map(RobustObjective::parse)
        .transpose()?
        .unwrap_or(RobustObjective::WorstCase);
    let (net, topo_name, algorithm) = (&setup.net, &setup.topology, &setup.algorithm);
    let single = DemandSet::single(setup.demands()?);
    let demands = single.matrix(0);
    let set = FailureSet::enumerate(net, doubles);
    outln!(
        "{topo_name}: {} nodes, {} directed links ({} undirected); {} demands totalling {:.1}",
        net.node_count(),
        net.edge_count(),
        set.link_count(),
        demands.len(),
        demands.total_size()
    );
    outln!(
        "failure set: {} patterns ({}) x {} scaling(s) = {} scenarios",
        set.len(),
        if doubles {
            "singles + doubles"
        } else {
            "singles"
        },
        scalings.len(),
        set.len() * scalings.len()
    );

    let (weights, waypoints) = if algorithm == "failrobust" {
        let _span = segrout::obs::span("optimize");
        let w = heur_ospf_failure_robust(net, demands, &set, robust, &setup.ospf);
        (w, WaypointSetting::none(demands.len()))
    } else {
        setup.configuration(flags, &single, RobustObjective::WorstCase)?
    };
    outln!("algorithm: {algorithm}");

    let rep = {
        let _span = segrout::obs::span("sweep");
        let spec = flags.value("scalings").unwrap_or("1.0");
        sweep_failures(net, &weights, demands, &waypoints, &set, &scalings).map_err(
            |e| match e {
                // The generated demands are valid, so only a scaling can break one.
                TeError::InvalidDemand { .. } => format!("--scalings {spec}: {e}"),
                e => e.to_string(),
            },
        )?
    };
    for (i, &s) in rep.scalings.iter().enumerate() {
        outln!("intact MLU @ x{s:<5.2} = {:.4}", rep.base_mlu[i]);
    }
    outln!(
        "\n{} scenarios: {} evaluated, {} disconnecting",
        rep.scenarios,
        rep.evaluated,
        rep.disconnects
    );
    let dist = rep.mlu_distribution();
    if !dist.is_empty() {
        let q = |p: f64| RobustObjective::Quantile(p).aggregate(&dist);
        outln!(
            "failure MLU distribution: min {:.4}  p50 {:.4}  p90 {:.4}  p99 {:.4}  max {:.4}",
            dist[0],
            q(0.5),
            q(0.9),
            q(0.99),
            dist[dist.len() - 1]
        );
        outln!(
            "objective ({robust:?}) MLU: {:.4}",
            rep.aggregate_mlu(robust).expect("non-empty distribution")
        );
    }
    if let Some(w) = &rep.worst {
        let (u, v) = net.graph().endpoints(w.bottleneck);
        outln!(
            "\nworst case: fail {{{}}} @ x{:.2} -> MLU {:.4}",
            set.pattern_label(net, w.pattern),
            w.scale,
            w.mlu
        );
        outln!(
            "  bottleneck {} -> {}: load {:.1} / capacity {:.1}",
            net.node_name(u),
            net.node_name(v),
            w.bottleneck_load,
            net.capacity(w.bottleneck)
        );
        segrout::obs::gauge("run.mlu").set(w.mlu);
    }
    if let Some(path) = flags.value("sweep-out") {
        let artifact = sweep_artifact(net, topo_name, algorithm, &set, &rep);
        std::fs::write(path, artifact.render()).map_err(|e| format!("{path}: {e}"))?;
        outln!("\nsweep artifact written to {path}");
    }
    outln!("\nrun summary:\n{}", segrout::obs::summary_table());
    Ok(setup.run())
}

/// Renders a [`segrout::core::SweepReport`] as the schema'd sweep artifact
/// (`segrout.sweep/1`): sweep-level aggregates plus one row per scenario.
fn sweep_artifact(
    net: &Network,
    topology: &str,
    algorithm: &str,
    set: &FailureSet,
    rep: &segrout::core::SweepReport,
) -> segrout::obs::Json {
    use segrout::core::ScenarioOutcome;
    use segrout::obs::Json;
    let rows: Vec<Json> = rep
        .results
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("pattern", Json::from(set.pattern_label(net, r.pattern))),
                ("scaling", Json::from(rep.scalings[r.scaling])),
            ];
            match r.outcome {
                ScenarioOutcome::Evaluated {
                    mlu,
                    phi,
                    dirty_dests,
                } => {
                    fields.push(("outcome", Json::from("evaluated")));
                    fields.push(("mlu", Json::from(mlu)));
                    fields.push(("phi", Json::from(phi)));
                    fields.push(("dirty_dests", Json::from(dirty_dests as f64)));
                }
                ScenarioOutcome::Disconnected { src, dst } => {
                    fields.push(("outcome", Json::from("disconnected")));
                    fields.push(("severed_src", Json::from(net.node_name(src))));
                    fields.push(("severed_dst", Json::from(net.node_name(dst))));
                }
            }
            Json::obj(fields)
        })
        .collect();
    let worst = rep.worst.as_ref().map_or(Json::Null, |w| {
        let (u, v) = net.graph().endpoints(w.bottleneck);
        Json::obj([
            ("pattern", Json::from(set.pattern_label(net, w.pattern))),
            ("scaling", Json::from(w.scale)),
            ("mlu", Json::from(w.mlu)),
            (
                "bottleneck",
                Json::from(format!("{} -> {}", net.node_name(u), net.node_name(v))),
            ),
            ("bottleneck_load", Json::from(w.bottleneck_load)),
            (
                "bottleneck_capacity",
                Json::from(net.capacity(w.bottleneck)),
            ),
        ])
    });
    segrout::obs::attach_provenance(Json::obj([
        ("schema", Json::from("segrout.sweep/1")),
        ("topology", Json::from(topology)),
        ("algorithm", Json::from(algorithm)),
        ("links", Json::from(rep.link_count as f64)),
        ("patterns", Json::from(rep.patterns as f64)),
        (
            "scalings",
            Json::arr(rep.scalings.iter().map(|&s| Json::from(s))),
        ),
        ("scenarios", Json::from(rep.scenarios as f64)),
        ("evaluated", Json::from(rep.evaluated as f64)),
        ("disconnects", Json::from(rep.disconnects as f64)),
        (
            "base_mlu",
            Json::arr(rep.base_mlu.iter().map(|&m| Json::from(m))),
        ),
        ("worst", worst),
        ("results", Json::arr(rows)),
    ]))
}

/// `segrout serve`: the online reoptimization daemon. Optimizes an initial
/// configuration, opens a [`ServeSession`] (one live incremental evaluator,
/// never rebuilt), and answers a JSONL event stream — stdin by default,
/// `--events <file>` for replay, `--listen <addr>` for TCP. stdout carries
/// exactly one JSON response per input line (the protocol of
/// `segrout::algos::serve`); all human output goes to stderr, so replaying
/// the same event log twice produces byte-identical response streams.
fn cmd_serve(flags: &Flags) -> Result<Run, String> {
    // Pre-register the serving metric catalog so every run reports the same
    // names (zero-valued when a tier never fired).
    for name in [
        "serve.events",
        "serve.errors",
        "serve.probe_only",
        "serve.local_reopts",
        "serve.escalations",
        "serve.slo_violations",
        "serve.weight_churn",
        "reopt.evaluations",
        "incr.probes",
        "incr.dirty_dests",
        "incr.clean_dests",
        "incr.repairs",
        "incr.disable_probes",
        "arena.reuses",
        "arena.rebuilds",
        "ecmp.recomputes",
        "dijkstra.runs",
    ] {
        segrout::obs::counter(name);
    }
    let latency = segrout::obs::histogram("serve.latency_ms", segrout::obs::latency_bounds_ms());
    segrout::obs::gauge("serve.mlu");

    let setup = Setup::new(flags, &["heurospf", "unit", "invcap", "greedywpo", "joint"])?;
    let mut scfg = ServeConfig::default();
    scfg.reopt.ospf = setup.ospf.clone();
    if let Some(b) = flags.get("budget", |&n: &usize| n > 0, "a positive integer")? {
        scfg.reopt.max_weight_changes = b;
    }
    if let Some(s) = flags.get("slo-ms", |x: &f64| x.is_finite(), "a number (0 disables)")? {
        scfg.slo_ms = s;
    }
    for (key, slot) in [
        ("reopt-ratio", &mut scfg.reopt_ratio as &mut f64),
        ("escalate-ratio", &mut scfg.escalate_ratio),
    ] {
        let ok = |x: &f64| x.is_finite() && *x >= 1.0;
        if let Some(v) = flags.get(key, ok, "a number >= 1")? {
            *slot = v;
        }
    }

    let net = &setup.net;
    let single = DemandSet::single(setup.demands()?);
    let (weights, waypoints) = setup.configuration(flags, &single, RobustObjective::WorstCase)?;
    let demands = single.matrix(0).clone();
    let n_demands = demands.len();
    let mut session = ServeSession::new(net, &weights, demands, waypoints, scfg)
        .map_err(|e| format!("cannot open serving session: {e}"))?;
    eprintln!(
        "serve: {} ({} nodes, {} links), {n_demands} demands; \
         initial {} MLU {:.4}; budget {} weight change(s)/reopt, SLO {} ms",
        setup.topology,
        net.node_count(),
        net.edge_count(),
        setup.algorithm,
        session.evaluator().mlu(),
        session.config().reopt.max_weight_changes,
        session.config().slo_ms,
    );

    if let Some(addr) = flags.value("listen") {
        serve_tcp(addr, &mut session)?;
    } else if let Some(path) = flags.value("events") {
        let file = std::fs::File::open(path).map_err(|e| format!("--events {path}: {e}"))?;
        serve_stream(
            &mut session,
            std::io::BufReader::new(file),
            &mut Stdout::lock(),
        )?;
    } else {
        let stdin = std::io::stdin().lock();
        serve_stream(&mut session, stdin, &mut Stdout::lock())?;
    }

    let st = *session.stats();
    eprintln!(
        "serve: {} event(s): {} probe-only, {} local reopt(s), {} escalation(s), {} error(s)",
        st.events, st.probe_only, st.local_reopts, st.escalations, st.errors
    );
    eprintln!(
        "serve: total churn {} weight change(s); latency p50 {:.3} ms, p99 {:.3} ms; \
         {} SLO violation(s)",
        st.weight_churn,
        latency.quantile(0.5),
        latency.quantile(0.99),
        st.slo_violations
    );
    segrout::obs::gauge("run.mlu").set(session.evaluator().mlu());
    eprintln!("\nrun summary:\n{}", segrout::obs::summary_table());
    Ok(setup.run())
}

/// Accepts TCP connections one at a time, serving each until it closes;
/// session state persists across connections. A shutdown event terminates
/// the daemon. A failed accept or an I/O error on one connection (peer
/// reset, broken pipe) is logged to stderr and ends only that connection:
/// the events it already applied stay applied, and the daemon keeps
/// accepting.
fn serve_tcp(addr: &str, session: &mut ServeSession<'_>) -> Result<(), String> {
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("--listen {addr}: {e}"))?;
    match listener.local_addr() {
        Ok(a) => eprintln!("serve: listening on {a}"),
        Err(_) => eprintln!("serve: listening on {addr}"),
    }
    for conn in listener.incoming() {
        let served = conn.map_err(|e| format!("accept: {e}")).and_then(|stream| {
            let reader = stream.try_clone().map_err(|e| format!("socket: {e}"))?;
            let mut writer = stream;
            serve_stream(session, std::io::BufReader::new(reader), &mut writer)
        });
        match served {
            Ok(true) => return Ok(()),
            Ok(false) => {}
            Err(e) => eprintln!("serve: connection dropped: {e}"),
        }
    }
    Ok(())
}

fn cmd_gaps(flags: &Flags) -> Result<Run, String> {
    let which: u32 = flags
        .get("instance", |_| true, "1, 2, 3, 4 or 5")?
        .ok_or("gaps needs --instance")?;
    let m = flags
        .get("m", |_| true, "a non-negative integer")?
        .unwrap_or(8);
    let (build, min_m): (fn(usize) -> PaperInstance, usize) = match which {
        1 => (instance1, 2),
        2 => (instance2, 1),
        3 => (instance3, 2),
        4 => (instance4, 2),
        5 => (instance5, 2),
        other => return Err(format!("no TE-Instance {other}")),
    };
    if m < min_m {
        return Err(format!("--m {m}: TE-Instance {which} needs m >= {min_m}"));
    }
    let inst = build(m);
    let router = Router::new(&inst.network, &inst.joint_weights);
    let joint = router
        .evaluate(&inst.demands, &inst.joint_waypoints)
        .map_err(|e| e.to_string())?
        .mlu;
    outln!(
        "TE-Instance {which} (m = {m}): {} nodes, {} links, {} demands (D = {:.3})",
        inst.network.node_count(),
        inst.network.edge_count(),
        inst.demands.len(),
        inst.demands.total_size()
    );
    outln!("Joint (constructive lemma setting): MLU = {joint:.4}");
    // A quick LWO reference point via the unit setting and LWO-APX.
    let unit = Router::new(&inst.network, &WeightSetting::unit(&inst.network))
        .mlu(&inst.demands)
        .map_err(|e| e.to_string())?;
    outln!("unit weights (no waypoints):        MLU = {unit:.4}");
    let apx = segrout::algos::lwo_apx(&inst.network, inst.source, inst.target)
        .map_err(|e| e.to_string())?;
    outln!(
        "LWO-APX: |f*| = {:.4}, ES-flow = {:.4} (ratio {:.3})",
        apx.max_flow_value,
        apx.es_flow_value,
        apx.achieved_ratio()
    );
    Ok(Run::default())
}

fn cmd_fuzz(flags: &Flags) -> Result<Run, String> {
    // The fuzzer's own metric catalog, pre-registered so every campaign
    // reports the same names.
    for name in ["check.cases", "check.violations", "check.shrink_steps"] {
        segrout::obs::counter(name);
    }
    let seed = flags
        .get("seed", |_| true, "a non-negative integer")?
        .unwrap_or(42);
    let cases = flags
        .get("cases", |_| true, "a non-negative integer")?
        .unwrap_or(500);
    let cfg = segrout::check::FuzzConfig {
        seed,
        cases,
        shrink: !flags.has("no-shrink"),
        corpus_dir: flags.value("corpus").map(std::path::PathBuf::from),
        fast: flags.has("fast"),
    };

    outln!("fuzzing: {cases} cases from seed {seed} ...");
    let start = std::time::Instant::now();
    let report = segrout::check::fuzz_campaign(&cfg);
    let secs = start.elapsed().as_secs_f64();
    outln!(
        "{} cases in {secs:.1}s ({:.1} cases/s): {} checks, {} benign errors, {} failures",
        report.cases,
        report.cases as f64 / secs.max(1e-9),
        report.checks,
        report.benign_errors,
        report.failures.len()
    );
    for f in &report.failures {
        outln!(
            "\ncase {} (shrunk in {} steps): {}",
            f.index,
            f.shrink_steps,
            f.outcome
        );
        match &f.corpus_path {
            Some(p) => outln!("reproducer written to {}", p.display()),
            None => outln!("reproducer:\n{}", f.case.to_text()),
        }
    }
    outln!("\nrun summary:\n{}", segrout::obs::summary_table());
    if report.failures.is_empty() {
        Ok(Run {
            seed: Some(seed),
            fields: Vec::new(),
        })
    } else {
        Err(format!("{} failing case(s)", report.failures.len()))
    }
}

fn cmd_parse(flags: &Flags) -> Result<Run, String> {
    let (net, demands) = if let Some(path) = flags.value("sndlib") {
        let xml = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let (n, d) = parse_sndlib_xml(&xml).map_err(|e| e.to_string())?;
        (n, d)
    } else if let Some(path) = flags.value("graphml") {
        let xml = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        (
            parse_graphml(&xml, 1000.0).map_err(|e| e.to_string())?,
            None,
        )
    } else {
        return Err("parse needs --sndlib <file> or --graphml <file>".into());
    };
    outln!(
        "parsed: {} nodes, {} directed links",
        net.node_count(),
        net.edge_count()
    );
    if let Some(d) = demands {
        outln!(
            "demand matrix: {} entries totalling {:.1}",
            d.len(),
            d.total_size()
        );
    }
    Ok(Run::default())
}
