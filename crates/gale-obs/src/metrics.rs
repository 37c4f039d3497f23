//! The global metrics registry: counters, gauges, and fixed-bucket
//! histograms.
//!
//! Metrics are keyed by name and live for the whole process (entries are
//! leaked on first registration so handles are `&'static` and updates are
//! plain atomic operations with no lock). The registry itself is sharded
//! across `SHARDS` mutexes hashed by name, so concurrent first-time
//! registrations from the worker pool do not serialize on one lock; after
//! registration (macros cache the handle in a per-call-site `OnceLock`)
//! no lock is touched at all.

use gale_json::{Map, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of registry shards; a small power of two is plenty because the
/// registry is only locked on first registration and on snapshots.
const SHARDS: usize = 16;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins floating-point gauge (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at `0.0`.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Adds `delta` (may be negative) atomically via compare-exchange, so
    /// concurrent adders never lose an update the way racing `set(get() +
    /// d)` pairs would. The accumulation order under concurrency is
    /// unspecified, which is fine for reporting-only values.
    #[inline]
    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// A histogram over fixed, ascending bucket upper bounds.
///
/// A value `v` lands in the first bucket whose bound satisfies
/// `v <= bound` (so arbitrarily small and `-inf` values land in bucket 0
/// — there is no separate underflow bucket), in the overflow bucket when
/// `v` exceeds every bound (including `+inf`), or in the NaN tally when
/// `v` is NaN. NaN values are excluded from `count` and `sum`.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    buckets: Vec<AtomicU64>,
    overflow: AtomicU64,
    nan: AtomicU64,
    count: AtomicU64,
    /// Running sum of recorded (non-NaN) values, as `f64` bits updated by
    /// compare-exchange. The accumulation order under concurrency is
    /// unspecified, which is fine: the sum is reporting-only and never
    /// feeds back into any computation.
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &'static [f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram: empty bounds");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram: bounds must be strictly ascending"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram: bounds must be finite"
        );
        Histogram {
            bounds,
            buckets: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            overflow: AtomicU64::new(0),
            nan: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: f64) {
        if v.is_nan() {
            self.nan.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        match self.buckets.get(idx) {
            Some(b) => b.fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The configured bucket upper bounds.
    pub fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// An owned snapshot of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            overflow: self.overflow.load(Ordering::Relaxed),
            nan: self.nan.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum.load(Ordering::Relaxed)),
        }
    }
}

/// Owned copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (aligned with `bounds`).
    pub buckets: Vec<u64>,
    /// Observations above the last bound.
    pub overflow: u64,
    /// NaN observations (excluded from `count`/`sum`).
    pub nan: u64,
    /// Total non-NaN observations.
    pub count: u64,
    /// Sum of non-NaN observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated quantile `q` in `[0, 1]` from the bucket counts, with
    /// linear interpolation inside the bucket holding the target rank
    /// (the standard Prometheus `histogram_quantile` estimator). Returns
    /// 0 when empty. Observations in the overflow bucket clamp to the
    /// last finite bound — an overflow-heavy histogram under-reports high
    /// quantiles, which is exactly why serving buckets extend well past
    /// expected latencies.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            let prev = cumulative;
            cumulative += n;
            if (cumulative as f64) >= rank {
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let inside = rank - prev as f64;
                return lo + (hi - lo) * (inside / n.max(1) as f64);
            }
        }
        // Target rank sits in the overflow bucket: clamp to the last bound.
        *self.bounds.last().expect("histograms have bounds")
    }
}

/// Owned copy of any registered metric's state.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

enum Slot {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

struct Registry {
    shards: Vec<Mutex<HashMap<&'static str, Slot>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
    })
}

/// FNV-1a; tiny, deterministic, and good enough to spread names over shards.
fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h as usize) % SHARDS
}

fn with_slot<T>(name: &str, make: impl FnOnce() -> Slot, read: impl Fn(&Slot) -> Option<T>) -> T {
    let shard = &registry().shards[shard_of(name)];
    let mut map = shard.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(slot) = map.get(name) {
        return read(slot)
            .unwrap_or_else(|| panic!("metric '{name}' already registered as a {}", slot.kind()));
    }
    let slot = make();
    let out = read(&slot).expect("freshly made slot must match its own kind");
    let key: &'static str = Box::leak(name.to_string().into_boxed_str());
    map.insert(key, slot);
    out
}

/// Returns (registering on first use) the counter with this name.
/// Panics if the name is already registered as a different metric kind.
pub fn counter(name: &str) -> &'static Counter {
    with_slot(
        name,
        || Slot::Counter(Box::leak(Box::new(Counter::new()))),
        |s| match s {
            Slot::Counter(c) => Some(*c),
            _ => None,
        },
    )
}

/// Returns (registering on first use) the gauge with this name.
/// Panics if the name is already registered as a different metric kind.
pub fn gauge(name: &str) -> &'static Gauge {
    with_slot(
        name,
        || Slot::Gauge(Box::leak(Box::new(Gauge::new()))),
        |s| match s {
            Slot::Gauge(g) => Some(*g),
            _ => None,
        },
    )
}

/// Returns (registering on first use) the histogram with this name. The
/// first registration fixes the bucket bounds; later callers get the
/// existing histogram regardless of the bounds they pass. Panics if the
/// name is already registered as a different metric kind.
pub fn histogram(name: &str, bounds: &'static [f64]) -> &'static Histogram {
    with_slot(
        name,
        || Slot::Histogram(Box::leak(Box::new(Histogram::new(bounds)))),
        |s| match s {
            Slot::Histogram(h) => Some(*h),
            _ => None,
        },
    )
}

/// Snapshot of every registered metric, sorted by name (stable output for
/// reports and tests).
pub fn snapshot() -> Vec<(String, MetricSnapshot)> {
    let mut out = Vec::new();
    for shard in &registry().shards {
        let map = shard.lock().unwrap_or_else(|e| e.into_inner());
        for (name, slot) in map.iter() {
            let snap = match slot {
                Slot::Counter(c) => MetricSnapshot::Counter(c.get()),
                Slot::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                Slot::Histogram(h) => MetricSnapshot::Histogram(h.snapshot()),
            };
            out.push((name.to_string(), snap));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// The full registry as a JSON object (name -> value/state), for embedding
/// into `results_*.json` documents.
pub fn snapshot_json() -> Value {
    let mut root = Map::new();
    for (name, snap) in snapshot() {
        let v = match snap {
            MetricSnapshot::Counter(c) => Value::from(c),
            MetricSnapshot::Gauge(g) => Value::from(g),
            MetricSnapshot::Histogram(h) => gale_json::json!({
                "count": h.count,
                "sum": h.sum,
                "mean": h.mean(),
                "bounds": h.bounds.clone(),
                "buckets": h.buckets.clone(),
                "overflow": h.overflow,
                "nan": h.nan,
            }),
        };
        root.insert(name, v);
    }
    Value::Object(root)
}

/// Formats a sample value for the text exposition (Prometheus spells the
/// non-finite values `+Inf`/`-Inf`/`NaN`).
fn render_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Maps a registry name onto the Prometheus metric-name alphabet
/// (`[a-zA-Z0-9_:]`): every other character becomes `_`.
fn render_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Renders every registered metric in the Prometheus text exposition
/// format: a `# TYPE` line per metric, cumulative `_bucket{le=...}` series
/// plus `_sum`/`_count` for histograms. This is the payload served by
/// `gale-serve`'s `GET /metrics`.
pub fn render_text() -> String {
    let mut out = String::new();
    for (name, snap) in snapshot() {
        let name = render_name(&name);
        match snap {
            MetricSnapshot::Counter(c) => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {c}\n"));
            }
            MetricSnapshot::Gauge(g) => {
                out.push_str(&format!(
                    "# TYPE {name} gauge\n{name} {}\n",
                    render_value(g)
                ));
            }
            MetricSnapshot::Histogram(h) => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                let mut cumulative = 0u64;
                for (bound, count) in h.bounds.iter().zip(&h.buckets) {
                    cumulative += count;
                    out.push_str(&format!(
                        "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                        render_value(*bound)
                    ));
                }
                cumulative += h.overflow;
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                out.push_str(&format!("{name}_sum {}\n", render_value(h.sum)));
                out.push_str(&format!("{name}_count {}\n", h.count));
            }
        }
    }
    out
}

/// Canonical fixed bucket sets.
pub mod buckets {
    /// Wall-clock durations in microseconds, ~1 µs to 10 s.
    pub const TIME_US: &[f64] = &[
        1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5,
        2e5, 5e5, 1e6, 2e6, 5e6, 1e7,
    ];

    /// Fractions in `[0, 1]` (utilization, hit rates, changed fractions).
    pub const UNIT: &[f64] = &[
        0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0,
    ];

    /// Log-spaced magnitudes for losses and gradient norms.
    pub const NORM: &[f64] = &[
        1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 1e3, 1e4,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let c = counter("test.metrics.counter");
        c.add(2);
        c.add(3);
        assert_eq!(c.get(), 5);
        assert!(std::ptr::eq(c, counter("test.metrics.counter")));
        let g = gauge("test.metrics.gauge");
        g.set(1.25);
        assert_eq!(g.get(), 1.25);
        g.set(-3.5);
        assert_eq!(g.get(), -3.5);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let _ = counter("test.metrics.kind_clash");
        let _ = gauge("test.metrics.kind_clash");
    }

    #[test]
    fn histogram_buckets_values_by_upper_bound() {
        let h = histogram("test.metrics.hist", &[1.0, 10.0, 100.0]);
        for v in [0.5, 1.0] {
            h.record(v); // both <= 1.0 -> bucket 0
        }
        h.record(1.0001); // bucket 1
        h.record(100.0); // bucket 2 (inclusive upper bound)
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![2, 1, 1]);
        assert_eq!(s.overflow, 0);
        assert_eq!(s.count, 4);
        assert!((s.sum - 102.5001).abs() < 1e-9);
    }

    #[test]
    fn histogram_underflow_overflow_and_nan() {
        let h = histogram("test.metrics.hist_edges", &[0.0, 1.0]);
        // "Underflow": arbitrarily small values belong to the first bucket.
        h.record(-1e300);
        h.record(f64::NEG_INFINITY);
        h.record(f64::MIN);
        // Overflow: above the last bound, including +inf.
        h.record(1.0000001);
        h.record(f64::INFINITY);
        h.record(f64::MAX);
        // NaN: tallied separately, excluded from count and sum.
        h.record(f64::NAN);
        h.record(-f64::NAN);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 3);
        assert_eq!(s.buckets[1], 0);
        assert_eq!(s.overflow, 3);
        assert_eq!(s.nan, 2);
        assert_eq!(s.count, 6);
        // Sum saw ±inf cancelling into NaN; it must not have poisoned the
        // NaN/bucket tallies above, and mean stays well-defined per count.
        assert_eq!(s.count, s.buckets.iter().sum::<u64>() + s.overflow);
    }

    #[test]
    fn histogram_exact_boundary_values() {
        let h = histogram("test.metrics.hist_bounds", &[10.0, 20.0]);
        h.record(10.0); // inclusive: first bucket
        h.record(10.0 + f64::EPSILON * 16.0); // just above: second bucket
        h.record(20.0); // inclusive: second bucket
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![1, 2]);
        assert_eq!(s.overflow, 0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn render_text_exposes_all_metric_kinds() {
        counter("test.render.requests").add(3);
        gauge("test.render.depth").set(2.5);
        let h = histogram("test.render.latency", &[1.0, 10.0]);
        h.record(0.5);
        h.record(5.0);
        h.record(50.0);
        let text = render_text();
        assert!(text.contains("# TYPE test_render_requests counter\ntest_render_requests 3\n"));
        assert!(text.contains("# TYPE test_render_depth gauge\ntest_render_depth 2.5\n"));
        // Histogram buckets are cumulative and end with the +Inf series.
        assert!(text.contains("test_render_latency_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("test_render_latency_bucket{le=\"10\"} 2\n"));
        assert!(text.contains("test_render_latency_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("test_render_latency_sum 55.5\n"));
        assert!(text.contains("test_render_latency_count 3\n"));
    }

    #[test]
    fn snapshot_is_sorted_and_json_encodes() {
        counter("test.metrics.zz").add(7);
        gauge("test.metrics.aa").set(0.5);
        let snap = snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        let json = snapshot_json();
        assert_eq!(json["test.metrics.zz"].as_u64(), Some(7));
        assert_eq!(json["test.metrics.aa"].as_f64(), Some(0.5));
    }
}
