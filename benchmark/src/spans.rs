//! The benchmark's own spans: one record per call into a layer, kept in
//! memory during a traced run and written out when it ends.
//!
//! Spans are recorded from outside the program, around public calls, so a
//! layer reached only from inside another (e.g. `graph` under `core`) has no
//! span of its own here.

use segrout_obs::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `core.probe`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to (shared by all spans of one op).
    pub op: u64,
}

/// An in-memory span recorder. A disabled recorder ignores every call, so
/// untraced runs pay one branch per span site.
pub struct Spans {
    epoch: Instant,
    recs: Vec<SpanRec>,
    stack: Vec<usize>,
    enabled: bool,
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

impl Spans {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            recs: Vec::new(),
            stack: Vec::new(),
            enabled,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.recs.len();
        self.recs.push(SpanRec {
            name,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Spans::open`] (innermost first).
    pub fn close(&mut self, span: Open) {
        if let Some(id) = span.0 {
            let end = self.ns(Instant::now());
            self.recs[id].end_ns = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let s = self.open(name, op);
        let r = f();
        self.close(s);
        r
    }

    /// Records an already-finished span under the innermost open span — for
    /// calls timed on pool workers, whose intervals may overlap each other.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let rec = SpanRec {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.stack.last().copied(),
            op,
        };
        self.recs.push(rec);
    }

    /// Writes `spans.jsonl` (one record per span, with its self time) and
    /// `spans.folded` (collapsed stacks weighted by self time in
    /// microseconds) into `dir`.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let selfs = self_times_ns(&self.recs);
        let mut out = std::io::BufWriter::new(std::fs::File::create(dir.join("spans.jsonl"))?);
        for (i, (r, s)) in self.recs.iter().zip(&selfs).enumerate() {
            let rec = Json::obj([
                ("id", Json::from(i)),
                ("name", Json::from(r.name)),
                ("start_ns", Json::from(r.start_ns)),
                ("end_ns", Json::from(r.end_ns)),
                ("parent", Json::from(r.parent)),
                ("op", Json::from(r.op)),
                ("self_ns", Json::from(*s)),
            ]);
            writeln!(out, "{}", rec.render())?;
        }
        out.flush()?;
        std::fs::write(dir.join("spans.folded"), folded(&self.recs, &selfs))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children running in
/// parallel overlap, so their durations cannot simply be subtracted).
pub fn self_times_ns(recs: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); recs.len()];
    for r in recs {
        if let Some(p) = r.parent {
            children[p].push((r.start_ns, r.end_ns));
        }
    }
    recs.iter()
        .zip(children)
        .map(|(r, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = r.start_ns;
            for (s, e) in kids {
                let (s, e) = (s.max(cursor), e.min(r.end_ns));
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
            (r.end_ns - r.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Collapsed stacks (`root;child;leaf <self µs>`), summed per path.
fn folded(recs: &[SpanRec], selfs: &[u64]) -> String {
    let mut by_path: BTreeMap<String, u64> = BTreeMap::new();
    for (i, &s) in selfs.iter().enumerate() {
        let mut names = vec![recs[i].name];
        let mut p = recs[i].parent;
        while let Some(j) = p {
            names.push(recs[j].name);
            p = recs[j].parent;
        }
        names.reverse();
        *by_path.entry(names.join(";")).or_default() += s;
    }
    by_path
        .into_iter()
        .map(|(path, ns)| format!("{path} {}\n", ns / 1_000))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let recs = vec![
            rec("op", 0, 100, None),
            // Two overlapping parallel children cover [10, 50] = 40 ns.
            rec("core.probe", 10, 40, Some(0)),
            rec("core.probe", 20, 50, Some(0)),
            // A disjoint child covering [60, 70].
            rec("core.commit", 60, 70, Some(0)),
            // A grandchild counts against its parent only.
            rec("graph.inner", 62, 65, Some(3)),
        ];
        let s = self_times_ns(&recs);
        assert_eq!(s, vec![50, 30, 30, 7, 3]);
        let f = folded(&recs, &s);
        assert!(f.contains("op;core.probe 0\n"));
        assert!(f.lines().count() == 4);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let recs = vec![rec("op", 10, 20, None), rec("late", 15, 40, Some(0))];
        assert_eq!(self_times_ns(&recs), vec![5, 25]);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut sp = Spans::new(true);
        let a = sp.open("op", 7);
        sp.time("core.commit", 7, || ());
        sp.close(a);
        let r = &sp.recs;
        assert_eq!(r.len(), 2);
        assert_eq!(r[1].parent, Some(0));
        assert_eq!(r[1].op, 7);
        assert!(r[0].end_ns >= r[1].end_ns);

        let mut off = Spans::new(false);
        let a = off.open("op", 1);
        off.record("x", 1, Instant::now(), Instant::now());
        off.close(a);
        assert!(off.recs.is_empty());
    }
}
