//! The global metrics registry: atomic counters, gauges, fixed-bucket
//! histograms, and append-only series.
//!
//! Metrics are identified by dotted names (`simplex.pivots`,
//! `time.heurospf`). Handles are `Arc`s; hot call sites fetch a handle once
//! and update it lock-free, or accumulate locally and flush a single delta
//! at the end of a call (the pattern every per-relaxation / per-pivot site
//! in this workspace uses, keeping instrumentation overhead far below the
//! cost of the instrumented loop).

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins floating-point gauge.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(AtomicU64::new(0.0f64.to_bits()))
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Atomic f64 accumulator (CAS loop over the bit pattern).
#[derive(Debug)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn update(&self, f: impl Fn(f64) -> f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = f(f64::from_bits(cur)).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// A fixed-bucket histogram with atomic bucket counts.
///
/// Bucket `i` counts observations `<= bounds[i]`; one overflow bucket
/// catches the rest. Quantiles are estimated by linear interpolation inside
/// the covering bucket, clamped to the observed min/max.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[f64]>,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicF64,
    min: AtomicF64,
    max: AtomicF64,
}

impl Histogram {
    /// A standalone (unregistered) histogram with the given bucket bounds,
    /// for aggregators that keep their own keyed maps (e.g. the call-tree
    /// profiler).
    ///
    /// # Panics
    /// Panics when `bounds` is empty or not strictly increasing.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        Self::new(bounds)
    }

    fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.into(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicF64::new(0.0),
            min: AtomicF64::new(f64::INFINITY),
            max: AtomicF64::new(f64::NEG_INFINITY),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .partition_point(|&b| b < v)
            .min(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.update(|s| s + v);
        self.min.update(|m| m.min(v));
        self.max.update(|m| m.max(v));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum.get()
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min.get()
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max.get()
    }

    /// The inclusive upper bounds of the finite buckets.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds().len() + 1` entries, last = overflow).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Estimates the `q`-quantile (`0 <= q <= 1`) from the buckets, clamped
    /// to the observed extrema. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * n as f64;
        let counts = self.bucket_counts();
        let mut cum = 0.0;
        for (i, &c) in counts.iter().enumerate() {
            let prev = cum;
            cum += c as f64;
            if cum >= target && c > 0 {
                let lo = if i == 0 {
                    self.min().min(self.bounds[0])
                } else {
                    self.bounds[i - 1]
                };
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max().max(*self.bounds.last().expect("non-empty"))
                };
                let frac = if c == 0 {
                    0.0
                } else {
                    (target - prev) / c as f64
                };
                let est = lo + (hi - lo) * frac.clamp(0.0, 1.0);
                return est.clamp(self.min(), self.max());
            }
        }
        self.max()
    }
}

/// Exponential bucket bounds for wall-time in milliseconds: 0.01 ms to
/// ~10 minutes, factor 2 per bucket.
pub fn time_bounds_ms() -> &'static [f64] {
    static BOUNDS: OnceLock<Vec<f64>> = OnceLock::new();
    BOUNDS.get_or_init(|| (0..26).map(|i| 0.01 * 2f64.powi(i)).collect())
}

/// Finer-grained exponential bucket bounds for per-event serving latency in
/// milliseconds: 1 µs to ~8 s, factor 1.5 per bucket. The factor-2
/// [`time_bounds_ms`] buckets are too coarse for p99 estimates on
/// sub-millisecond probe answers, where a bucket boundary doubles the
/// reported quantile.
pub fn latency_bounds_ms() -> &'static [f64] {
    static BOUNDS: OnceLock<Vec<f64>> = OnceLock::new();
    BOUNDS.get_or_init(|| (0..40).map(|i| 0.001 * 1.5f64.powi(i)).collect())
}

/// An append-only sample series, e.g. the per-iteration MLU trajectory of a
/// local search.
#[derive(Debug, Default)]
pub struct Series(Mutex<Vec<f64>>);

impl Series {
    /// Appends a sample.
    pub fn push(&self, v: f64) {
        self.0.lock().expect("series poisoned").push(v);
    }

    /// Snapshot of all samples.
    pub fn values(&self) -> Vec<f64> {
        self.0.lock().expect("series poisoned").clone()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.lock().expect("series poisoned").len()
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One registered metric.
#[derive(Clone, Debug)]
pub enum Metric {
    /// A [`Counter`].
    Counter(Arc<Counter>),
    /// A [`Gauge`].
    Gauge(Arc<Gauge>),
    /// A [`Histogram`].
    Histogram(Arc<Histogram>),
    /// A [`Series`].
    Series(Arc<Series>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
            Metric::Series(_) => "series",
        }
    }
}

/// The metric registry: a name-keyed map of metrics.
#[derive(Default)]
pub struct Registry {
    map: Mutex<BTreeMap<String, Metric>>,
}

/// The global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

impl Registry {
    /// Gets or creates a counter.
    ///
    /// # Panics
    /// Panics when `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.map.lock().expect("registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric '{name}' is a {}, not a counter", other.kind()),
        }
    }

    /// Gets or creates a gauge.
    ///
    /// # Panics
    /// Panics when `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.map.lock().expect("registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric '{name}' is a {}, not a gauge", other.kind()),
        }
    }

    /// Gets or creates a histogram with the given bucket bounds (ignored
    /// when the histogram already exists).
    ///
    /// # Panics
    /// Panics when `name` is already registered as a different metric kind,
    /// or on invalid bounds.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut map = self.map.lock().expect("registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
        }
    }

    /// Gets or creates a series.
    ///
    /// # Panics
    /// Panics when `name` is already registered as a different metric kind.
    pub fn series(&self, name: &str) -> Arc<Series> {
        let mut map = self.map.lock().expect("registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Series(Arc::new(Series::default())))
        {
            Metric::Series(s) => Arc::clone(s),
            other => panic!("metric '{name}' is a {}, not a series", other.kind()),
        }
    }

    /// Name-sorted snapshot of all metrics.
    pub fn snapshot(&self) -> Vec<(String, Metric)> {
        self.map
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// One JSON record per metric (`{"type":"counter","name":...,...}`),
    /// ready to be written as JSON-lines.
    pub fn to_json_records(&self) -> Vec<Json> {
        self.snapshot()
            .into_iter()
            .map(|(name, metric)| metric_record(&name, &metric))
            .collect()
    }

    /// A plain-text summary table of every metric, for the end-of-run
    /// report.
    pub fn summary_table(&self) -> String {
        let snapshot = self.snapshot();
        let mut out = String::new();
        let rule = "─".repeat(74);
        out.push_str(&rule);
        out.push('\n');
        out.push_str(&format!("{:<38} {:>35}\n", "metric", "value"));
        out.push_str(&rule);
        out.push('\n');
        for (name, metric) in &snapshot {
            let value = match metric {
                Metric::Counter(c) => format!("{}", c.get()),
                Metric::Gauge(g) => format!("{:.6}", g.get()),
                Metric::Histogram(h) => {
                    if h.count() == 0 {
                        "n=0".to_string()
                    } else {
                        format!(
                            "n={} mean={:.3} p50={:.3} max={:.3}",
                            h.count(),
                            h.mean(),
                            h.quantile(0.5),
                            h.max()
                        )
                    }
                }
                Metric::Series(s) => {
                    let v = s.values();
                    match (v.first(), v.last()) {
                        (Some(first), Some(last)) => {
                            format!("n={} first={:.4} last={:.4}", v.len(), first, last)
                        }
                        _ => "n=0".to_string(),
                    }
                }
            };
            out.push_str(&format!("{name:<38} {value:>35}\n"));
        }
        out.push_str(&rule);
        out.push('\n');
        out
    }
}

fn metric_record(name: &str, metric: &Metric) -> Json {
    match metric {
        Metric::Counter(c) => Json::obj([
            ("type", Json::from("counter")),
            ("name", Json::from(name)),
            ("value", Json::from(c.get())),
        ]),
        Metric::Gauge(g) => Json::obj([
            ("type", Json::from("gauge")),
            ("name", Json::from(name)),
            ("value", Json::from(g.get())),
        ]),
        Metric::Histogram(h) => {
            let counts = h.bucket_counts();
            let buckets: Vec<Json> = h
                .bounds()
                .iter()
                .map(|&b| Json::from(b))
                .chain(std::iter::once(Json::Null))
                .zip(counts)
                .filter(|(_, c)| *c > 0)
                .map(|(le, c)| Json::obj([("le", le), ("count", Json::from(c))]))
                .collect();
            Json::obj([
                ("type", Json::from("histogram")),
                ("name", Json::from(name)),
                ("count", Json::from(h.count())),
                ("sum", Json::from(h.sum())),
                ("mean", Json::from(h.mean())),
                (
                    "min",
                    if h.count() == 0 {
                        Json::Null
                    } else {
                        Json::from(h.min())
                    },
                ),
                (
                    "max",
                    if h.count() == 0 {
                        Json::Null
                    } else {
                        Json::from(h.max())
                    },
                ),
                ("p50", Json::from(h.quantile(0.5))),
                ("p95", Json::from(h.quantile(0.95))),
                ("p99", Json::from(h.quantile(0.99))),
                ("buckets", Json::Arr(buckets)),
            ])
        }
        Metric::Series(s) => Json::obj([
            ("type", Json::from("series")),
            ("name", Json::from(name)),
            ("values", Json::from(s.values().as_slice())),
        ]),
    }
}
