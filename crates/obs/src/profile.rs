//! Hierarchical span profiler: an aggregating call-tree over [`crate::span()`].
//!
//! When profiling is enabled ([`set_profiling`]), every span additionally
//! pushes its name onto a thread-local frame stack; on drop the span records
//! its wall-time under the full stack path (`optimize;heurospf;par.batch`).
//! Each path accumulates call count, total time, child time (from which self
//! time is derived) and a duration [`Histogram`] for p50/p99 — the
//! per-callsite latency distribution the flat `time.<name>` histograms
//! cannot give once a span is reached from several parents.
//!
//! Two exports:
//!
//! * [`profile_table`] — an indented human-readable tree with per-node
//!   calls / total / self / p50 / p99 milliseconds.
//! * [`collapsed_stacks`] — the folded-stack text format
//!   (`path;to;frame <self-time-µs>`, one line per node) consumed by
//!   standard flamegraph tooling (`flamegraph.pl`, `inferno`, speedscope).
//!
//! Disabled cost: one relaxed atomic load per span construction (spans are
//! already coarse-grained, so even the enabled cost — one mutex acquisition
//! per span *completion* — is far off every hot loop).

use crate::metrics::{time_bounds_ms, Histogram};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// The stack of profiled span names open on this thread.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Aggregated statistics of one call-tree node.
struct ProfStat {
    count: u64,
    total_ms: f64,
    /// Total time of completed *direct* children (self = total - child).
    child_ms: f64,
    durations: Histogram,
}

impl ProfStat {
    fn new() -> Self {
        Self {
            count: 0,
            total_ms: 0.0,
            child_ms: 0.0,
            durations: Histogram::with_bounds(time_bounds_ms()),
        }
    }
}

/// The call tree, flattened: keyed by the `;`-joined frame path.
fn tree() -> &'static Mutex<BTreeMap<String, ProfStat>> {
    static TREE: OnceLock<Mutex<BTreeMap<String, ProfStat>>> = OnceLock::new();
    TREE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Turns the profiler on or off. Aggregates are kept across toggles; use
/// [`reset_profile`] to clear them.
pub fn set_profiling(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `true` when spans are currently feeding the call-tree profiler.
#[inline]
pub fn profiling() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Opens a frame: pushes `name` onto this thread's stack. Called by
/// [`crate::span`] only when profiling was enabled at span construction; the
/// span remembers that and guarantees a matching [`frame_exit`].
pub(crate) fn frame_enter(name: &'static str) {
    STACK.with(|s| s.borrow_mut().push(name));
}

/// Closes the innermost frame, attributing `ms` of wall-time to its path and
/// as child time to its parent. A stray exit (stack empty) is ignored.
pub(crate) fn frame_exit(ms: f64) {
    let (path, parent) = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let path = stack.join(";");
        stack.pop();
        let parent = if stack.is_empty() {
            None
        } else {
            Some(stack.join(";"))
        };
        (path, parent)
    });
    if path.is_empty() {
        return;
    }
    let mut tree = tree().lock().expect("profile tree poisoned");
    let node = tree.entry(path).or_insert_with(ProfStat::new);
    node.count += 1;
    node.total_ms += ms;
    node.durations.observe(ms);
    if let Some(parent) = parent {
        tree.entry(parent).or_insert_with(ProfStat::new).child_ms += ms;
    }
}

/// Snapshot row of [`profile_nodes`].
#[derive(Clone, Debug)]
pub struct ProfileNode {
    /// `;`-joined frame path from the thread's root span.
    pub path: String,
    /// Completed calls.
    pub count: u64,
    /// Total wall-time, milliseconds.
    pub total_ms: f64,
    /// Self time (total minus completed direct children), milliseconds.
    pub self_ms: f64,
    /// Median call duration, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile call duration, milliseconds.
    pub p99_ms: f64,
}

/// Path-sorted snapshot of the aggregated call tree.
pub fn profile_nodes() -> Vec<ProfileNode> {
    let tree = tree().lock().expect("profile tree poisoned");
    tree.iter()
        .map(|(path, s)| ProfileNode {
            path: path.clone(),
            count: s.count,
            total_ms: s.total_ms,
            self_ms: (s.total_ms - s.child_ms).max(0.0),
            p50_ms: s.durations.quantile(0.5),
            p99_ms: s.durations.quantile(0.99),
        })
        .collect()
}

/// Clears all aggregates (between benchmark repetitions or tests). Open
/// frames on live threads are unaffected.
pub fn reset_profile() {
    tree().lock().expect("profile tree poisoned").clear();
}

/// The aggregated call tree as an indented plain-text table.
pub fn profile_table() -> String {
    let nodes = profile_nodes();
    let mut out = String::new();
    let rule = "─".repeat(86);
    out.push_str(&rule);
    out.push('\n');
    out.push_str(&format!(
        "{:<40} {:>7} {:>9} {:>9} {:>8} {:>8}\n",
        "span path", "calls", "total ms", "self ms", "p50 ms", "p99 ms"
    ));
    out.push_str(&rule);
    out.push('\n');
    for n in &nodes {
        let depth = n.path.matches(';').count();
        let name = n.path.rsplit(';').next().unwrap_or(&n.path);
        let label = format!("{}{}", "  ".repeat(depth), name);
        out.push_str(&format!(
            "{label:<40} {:>7} {:>9.2} {:>9.2} {:>8.2} {:>8.2}\n",
            n.count, n.total_ms, n.self_ms, n.p50_ms, n.p99_ms
        ));
    }
    out.push_str(&rule);
    out.push('\n');
    out
}

/// The call tree in collapsed-stack ("folded") text form: one
/// `path;to;frame <self-time-µs>` line per node, ready for flamegraph
/// tooling. Nodes whose self time rounds to zero microseconds are kept with
/// weight 0 so the hierarchy stays complete.
pub fn collapsed_stacks() -> String {
    let mut out = String::new();
    for n in profile_nodes() {
        let us = (n.self_ms * 1e3).round().max(0.0) as u64;
        out.push_str(&n.path);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    out
}

/// Writes [`collapsed_stacks`] to `path`.
///
/// # Errors
/// Propagates file-write errors.
pub fn write_collapsed_stacks(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, collapsed_stacks())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The call tree is process-global; tests serialize on a local lock and
    // reset around use.
    fn locked() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().expect("test lock")
    }

    #[test]
    fn nested_frames_attribute_self_and_child_time() {
        let _g = locked();
        reset_profile();
        frame_enter("outer");
        frame_enter("inner");
        frame_exit(4.0); // inner
        frame_exit(10.0); // outer
        let nodes = profile_nodes();
        assert_eq!(nodes.len(), 2);
        let outer = nodes.iter().find(|n| n.path == "outer").expect("outer");
        let inner = nodes
            .iter()
            .find(|n| n.path == "outer;inner")
            .expect("inner");
        assert_eq!(outer.count, 1);
        assert!((outer.total_ms - 10.0).abs() < 1e-9);
        assert!((outer.self_ms - 6.0).abs() < 1e-9);
        assert!((inner.total_ms - 4.0).abs() < 1e-9);
        assert!((inner.self_ms - 4.0).abs() < 1e-9);
        reset_profile();
    }

    #[test]
    fn collapsed_stacks_lines_are_path_space_weight() {
        let _g = locked();
        reset_profile();
        frame_enter("a");
        frame_enter("b");
        frame_exit(1.0);
        frame_exit(3.0);
        let folded = collapsed_stacks();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let (path, weight) = line.rsplit_once(' ').expect("weight column");
            assert!(!path.is_empty());
            weight.parse::<u64>().expect("integer microseconds");
        }
        assert!(lines.iter().any(|l| l.starts_with("a;b ")));
        reset_profile();
    }

    #[test]
    fn stray_exit_is_ignored() {
        let _g = locked();
        reset_profile();
        frame_exit(5.0);
        assert!(profile_nodes().is_empty());
    }
}
