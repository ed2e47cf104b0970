//! `segrout-obs` — zero-dependency observability for the segrout workspace.
//!
//! Three pieces, no external crates:
//!
//! * **Structured events** ([`event!`], [`Level`], [`set_level`]) — leveled,
//!   typed-field log records broadcast to a pluggable sink stack (stderr
//!   pretty-printer by default; [`init_jsonl`] adds a JSON-lines file).
//! * **Spans** ([`span()`]) — RAII wall-time timers that feed `time.<name>`
//!   histograms and indent nested log output.
//! * **Metrics** ([`counter`], [`gauge`], [`histogram`], [`series`]) — a
//!   global registry of atomic counters, gauges, fixed-bucket histograms
//!   and sample series, dumped as JSON-lines records and as a human
//!   summary table at the end of a run.
//!
//! Plus the flight-recorder layer built on those three:
//!
//! * **Convergence traces** ([`trace_point`], [`set_trace_enabled`]) — the
//!   quality-vs-time curve of every anytime optimizer, recorded at accepted
//!   moves and B&B milestones, exported as JSONL.
//! * **Call-tree profiler** ([`set_profiling`], [`profile_table`],
//!   [`collapsed_stacks`]) — spans aggregate into a hierarchical profile
//!   with per-path self/total time and a flamegraph-ready folded export.
//! * **Run artifacts** ([`write_run_artifact`]) — a self-describing
//!   `run.json` per invocation (provenance + metrics + trace), and
//!   [`report`] to diff two of them into a regression verdict table.
//!
//! Everything is safe to call from library code: with the default `warn`
//! level and no JSONL sink, an instrumented hot loop pays one relaxed
//! atomic load per guarded event, one relaxed load per trace point, and one
//! atomic add per flushed counter batch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod log;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod run;
pub mod span;
pub mod trace;

pub use json::{Json, JsonError};
pub use log::{
    add_sink, elapsed_us, enabled, flush, level, set_level, set_sinks, Event, JsonlSink, Level,
    Sink, StderrSink,
};
pub use metrics::{
    latency_bounds_ms, registry, time_bounds_ms, Counter, Gauge, Histogram, Metric, Registry,
    Series,
};
pub use profile::{
    collapsed_stacks, profile_nodes, profile_table, profiling, reset_profile, set_profiling,
    write_collapsed_stacks, ProfileNode,
};
pub use report::{
    any_regressed, compare, load_run_stats, render_table, time_to_within, ReportRow, RunStats,
    Thresholds, Verdict,
};
pub use run::{
    attach_provenance, git_rev, provenance, run_artifact, write_run_artifact, RUN_SCHEMA_VERSION,
};
pub use span::{current_depth, span, Span};
pub use trace::{
    reset_trace, set_trace_enabled, take_trace, trace_enabled, trace_json_records, trace_len,
    trace_point, trace_points, write_trace_jsonl, TracePoint,
};

use std::path::Path;
use std::sync::Arc;

/// Gets or creates the global counter `name`.
pub fn counter(name: &str) -> Arc<Counter> {
    registry().counter(name)
}

/// Gets or creates the global gauge `name`.
pub fn gauge(name: &str) -> Arc<Gauge> {
    registry().gauge(name)
}

/// Gets or creates the global histogram `name` with the given bounds.
pub fn histogram(name: &str, bounds: &[f64]) -> Arc<Histogram> {
    registry().histogram(name, bounds)
}

/// Gets or creates the global series `name`.
pub fn series(name: &str) -> Arc<Series> {
    registry().series(name)
}

/// Adds a JSON-lines sink writing to `path` (truncating it).
///
/// # Errors
/// Propagates file-creation errors.
pub fn init_jsonl(path: &Path) -> std::io::Result<()> {
    add_sink(Box::new(JsonlSink::create(path)?));
    Ok(())
}

/// Writes every registered metric as one JSON record per line to all sinks
/// that accept records (i.e. the JSONL file), then flushes.
pub fn dump_metrics() {
    for record in registry().to_json_records() {
        log::emit_record(&record);
    }
    flush();
}

/// The end-of-run metric summary table as plain text.
pub fn summary_table() -> String {
    registry().summary_table()
}

/// Clears the global metric registry (between benchmark repetitions).
pub fn reset_metrics() {
    registry().reset();
}
