//! Leveled structured events and the pluggable sink stack.
//!
//! An *event* is a named point-in-time observation with typed fields
//! (`heurospf.pass` with `pass=3 mlu=1.52`). Events below the global level
//! are dropped before any formatting happens, so disabled instrumentation
//! costs one atomic load. Enabled events are broadcast to every registered
//! [`Sink`]; the default stack is a stderr pretty-printer, and
//! [`crate::init_jsonl`] adds a JSON-lines file writer.

use crate::json::Json;
use std::io::Write;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Event severity, ordered from most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable problems.
    Error = 0,
    /// Suspicious conditions the run survives.
    Warn = 1,
    /// High-level run progress (phase starts, results).
    Info = 2,
    /// Per-iteration algorithm telemetry.
    Debug = 3,
    /// Inner-loop detail (candidate evaluations, pivots).
    Trace = 4,
}

impl Level {
    /// Lower-case name, as used by `--log-level`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            3 => Level::Debug,
            _ => Level::Trace,
        }
    }
}

impl FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!(
                "unknown log level '{other}' (expected error|warn|info|debug|trace)"
            )),
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The global maximum level; events above it are dropped. Defaults to
/// [`Level::Warn`] so library use is silent.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);

/// Sets the global log level.
pub fn set_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current global log level.
pub fn level() -> Level {
    Level::from_u8(MAX_LEVEL.load(Ordering::Relaxed))
}

/// `true` when events at `l` are currently recorded. This is the cheap
/// guard call sites use before assembling fields.
#[inline]
pub fn enabled(l: Level) -> bool {
    (l as u8) <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Monotonic run start, used to timestamp events.
fn run_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Microseconds since the first observability call of the process.
pub fn elapsed_us() -> u64 {
    u64::try_from(run_start().elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// One structured event, as delivered to sinks.
pub struct Event<'a> {
    /// Severity.
    pub level: Level,
    /// Dotted event name (`heurospf.pass`).
    pub name: &'a str,
    /// Typed fields.
    pub fields: &'a [(&'a str, Json)],
    /// Microseconds since run start.
    pub t_us: u64,
    /// Span nesting depth at emission time (for indentation).
    pub depth: usize,
}

impl Event<'_> {
    /// The event as a JSON record (`{"type":"event",...}`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("type".into(), Json::from("event")),
            ("t_us".into(), Json::from(self.t_us)),
            ("level".into(), Json::from(self.level.as_str())),
            ("name".into(), Json::from(self.name)),
            (
                "fields".into(),
                Json::Obj(
                    self.fields
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), v.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// A destination for events and structured records.
pub trait Sink: Send {
    /// Receives one enabled event.
    fn event(&mut self, e: &Event<'_>);
    /// Receives a non-event structured record (metric snapshots, run
    /// summaries). Sinks that only pretty-print may ignore these.
    fn record(&mut self, _json: &Json) {}
    /// Flushes any buffered output.
    fn flush(&mut self) {}
}

/// Pretty-printer for humans: `[  1.234s DEBUG] name key=value ...` on
/// stderr, indented by span depth.
pub struct StderrSink;

impl Sink for StderrSink {
    fn event(&mut self, e: &Event<'_>) {
        let mut line = String::with_capacity(96);
        let secs = e.t_us as f64 / 1e6;
        line.push_str(&format!(
            "[{secs:>9.3}s {:>5}] ",
            e.level.as_str().to_ascii_uppercase()
        ));
        for _ in 0..e.depth {
            line.push_str("  ");
        }
        line.push_str(e.name);
        for (k, v) in e.fields {
            line.push(' ');
            line.push_str(k);
            line.push('=');
            match v {
                Json::Str(s) => line.push_str(s),
                other => line.push_str(&other.render()),
            }
        }
        eprintln!("{line}");
    }
}

/// JSON-lines file writer: one compact JSON object per line, events and
/// structured records alike.
pub struct JsonlSink {
    out: std::io::BufWriter<std::fs::File>,
}

impl JsonlSink {
    /// Creates (truncates) `path`.
    ///
    /// # Errors
    /// Propagates file-creation errors.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self {
            out: std::io::BufWriter::new(std::fs::File::create(path)?),
        })
    }
}

impl Sink for JsonlSink {
    fn event(&mut self, e: &Event<'_>) {
        let _ = writeln!(self.out, "{}", e.to_json().render());
    }

    fn record(&mut self, json: &Json) {
        let _ = writeln!(self.out, "{}", json.render());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

fn sinks() -> &'static Mutex<Vec<Box<dyn Sink>>> {
    static SINKS: OnceLock<Mutex<Vec<Box<dyn Sink>>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(vec![Box::new(StderrSink)]))
}

/// Registers an additional sink.
pub fn add_sink(sink: Box<dyn Sink>) {
    sinks().lock().expect("sink stack poisoned").push(sink);
}

/// Emits one event to every sink. Call sites should guard with
/// [`enabled`] (or use the [`crate::event!`] macro, which does).
pub fn emit(level: Level, name: &str, fields: &[(&str, Json)]) {
    let e = Event {
        level,
        name,
        fields,
        t_us: elapsed_us(),
        depth: crate::span::current_depth(),
    };
    for sink in sinks().lock().expect("sink stack poisoned").iter_mut() {
        sink.event(&e);
    }
}

/// Broadcasts a structured (non-event) record to every sink.
pub fn emit_record(json: &Json) {
    for sink in sinks().lock().expect("sink stack poisoned").iter_mut() {
        sink.record(json);
    }
}

/// Flushes every sink. Call once at the end of a run.
pub fn flush() {
    for sink in sinks().lock().expect("sink stack poisoned").iter_mut() {
        sink.flush();
    }
}

/// Emits a leveled structured event when the level is enabled.
///
/// ```
/// segrout_obs::event!(segrout_obs::Level::Info, "run.start", topology = "Abilene", seed = 3u64);
/// ```
#[macro_export]
macro_rules! event {
    ($level:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled($level) {
            $crate::log::emit(
                $level,
                $name,
                &[$((stringify!($key), $crate::Json::from($value))),*],
            );
        }
    };
}
