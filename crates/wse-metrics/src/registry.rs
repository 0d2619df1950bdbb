//! The metric registry and its lock-free handles.
//!
//! [`MetricsHub`] is the cheap, clonable capability threaded through the
//! stack (simulator builder, job server, bench binaries). Registering a
//! metric takes the registry mutex once and returns a handle whose
//! recording methods are single atomic operations; the [`MetricsHub::Null`]
//! hub returns [`Counter::Null`]-style handles that compile to no-ops.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one for zero, one per power of two up to
/// `2^63`, and a final catch-all ([`bucket_upper_bound`] returns `None`
/// for it — exposed as `le="+Inf"`).
pub const HIST_BUCKETS: usize = 65;

/// The log2 bucket an observation lands in: bucket `0` holds exactly the
/// value `0`; bucket `i ≥ 1` holds `[2^(i-1), 2^i - 1]`; bucket `64` holds
/// everything from `2^63` up.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (`2^i - 1`), or `None` for the
/// final `+Inf` bucket.
///
/// # Panics
///
/// Panics when `i >= HIST_BUCKETS`.
pub fn bucket_upper_bound(i: usize) -> Option<u64> {
    assert!(i < HIST_BUCKETS, "bucket index {i} out of range");
    if i == HIST_BUCKETS - 1 {
        None
    } else {
        Some((1u64 << i) - 1)
    }
}

/// The atomic cells of one histogram.
#[derive(Debug)]
pub struct HistCell {
    /// Per-bucket observation counts (non-cumulative; exposition
    /// accumulates them into Prometheus' cumulative `_bucket` series).
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistCell {
    fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    #[inline]
    fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub enum Counter {
    /// Metrics off: every method is a no-op.
    #[default]
    Null,
    /// A live cell in some registry.
    Live(Arc<AtomicU64>),
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Counter::Live(cell) = self {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for [`Counter::Null`]).
    pub fn get(&self) -> u64 {
        match self {
            Counter::Null => 0,
            Counter::Live(cell) => cell.load(Ordering::Relaxed),
        }
    }
}

/// A gauge handle; the cell stores `f64` bits so rates fit too.
#[derive(Debug, Clone, Default)]
pub enum Gauge {
    /// Metrics off: every method is a no-op.
    #[default]
    Null,
    /// A live cell in some registry.
    Live(Arc<AtomicU64>),
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Gauge::Live(cell) = self {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Sets the gauge from an integer quantity.
    #[inline]
    pub fn set_u64(&self, value: u64) {
        self.set(value as f64);
    }

    /// Current value (0.0 for [`Gauge::Null`]).
    pub fn get(&self) -> f64 {
        match self {
            Gauge::Null => 0.0,
            Gauge::Live(cell) => f64::from_bits(cell.load(Ordering::Relaxed)),
        }
    }
}

/// A log2-bucketed histogram handle for non-negative integer observations
/// (cycle counts, nanoseconds, event counts).
#[derive(Debug, Clone, Default)]
pub enum Histogram {
    /// Metrics off: every method is a no-op.
    #[default]
    Null,
    /// A live cell set in some registry.
    Live(Arc<HistCell>),
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        if let Histogram::Live(cell) = self {
            cell.observe(value);
        }
    }

    /// Total observations so far (0 for [`Histogram::Null`]).
    pub fn count(&self) -> u64 {
        match self {
            Histogram::Null => 0,
            Histogram::Live(cell) => cell.count.load(Ordering::Relaxed),
        }
    }

    /// Sum of all observations so far (0 for [`Histogram::Null`]).
    pub fn sum(&self) -> u64 {
        match self {
            Histogram::Null => 0,
            Histogram::Live(cell) => cell.sum.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
enum Cell {
    Scalar(Arc<AtomicU64>),
    Hist(Arc<HistCell>),
}

#[derive(Debug)]
struct Metric {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    kind: MetricKind,
    cell: Cell,
}

/// One metric's point-in-time value, as read by [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (Prometheus conventions: `snake_case`, counters end in
    /// `_total`).
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// The preregistered label set, in registration order.
    pub labels: Vec<(String, String)>,
    /// The value, by metric kind.
    pub value: SampleValue,
}

/// A [`Sample`]'s value.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// A counter's running total.
    Counter(u64),
    /// A gauge's last set value.
    Gauge(f64),
    /// A histogram's per-bucket counts (non-cumulative, indexed like
    /// [`bucket_index`]), sum, and count.
    Histogram {
        /// Non-cumulative per-bucket observation counts.
        buckets: Vec<u64>,
        /// Sum of all observations.
        sum: u64,
        /// Number of observations.
        count: u64,
    },
}

/// The metric store behind a live [`MetricsHub`].
///
/// The mutex guards the registration list only; recording goes straight to
/// the `Arc`'d atomic cells and never takes it.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<Vec<Metric>>,
}

impl Registry {
    fn register(&self, kind: MetricKind, name: &str, help: &str, labels: &[(&str, &str)]) -> Cell {
        let mut metrics = self.metrics.lock().unwrap();
        if let Some(existing) = metrics
            .iter()
            .find(|m| m.name == name && label_eq(&m.labels, labels))
        {
            assert!(
                existing.kind == kind,
                "metric {name:?} re-registered as {} (was {})",
                kind.as_str(),
                existing.kind.as_str()
            );
            return match &existing.cell {
                Cell::Scalar(c) => Cell::Scalar(Arc::clone(c)),
                Cell::Hist(c) => Cell::Hist(Arc::clone(c)),
            };
        }
        let cell = match kind {
            MetricKind::Histogram => Cell::Hist(Arc::new(HistCell::new())),
            _ => Cell::Scalar(Arc::new(AtomicU64::new(0))),
        };
        let handle = match &cell {
            Cell::Scalar(c) => Cell::Scalar(Arc::clone(c)),
            Cell::Hist(c) => Cell::Hist(Arc::clone(c)),
        };
        metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            kind,
            cell,
        });
        handle
    }

    /// Reads every registered metric, in registration order.
    pub fn snapshot(&self) -> Vec<Sample> {
        let metrics = self.metrics.lock().unwrap();
        metrics
            .iter()
            .map(|m| Sample {
                name: m.name.clone(),
                help: m.help.clone(),
                labels: m.labels.clone(),
                value: match (&m.cell, m.kind) {
                    (Cell::Scalar(c), MetricKind::Counter) => {
                        SampleValue::Counter(c.load(Ordering::Relaxed))
                    }
                    (Cell::Scalar(c), _) => {
                        SampleValue::Gauge(f64::from_bits(c.load(Ordering::Relaxed)))
                    }
                    (Cell::Hist(h), _) => SampleValue::Histogram {
                        buckets: h
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        sum: h.sum.load(Ordering::Relaxed),
                        count: h.count.load(Ordering::Relaxed),
                    },
                },
            })
            .collect()
    }
}

fn label_eq(a: &[(String, String)], b: &[(&str, &str)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ak, av), (bk, bv))| ak == bk && av == bv)
}

/// The telemetry capability: either off ([`MetricsHub::Null`], the
/// default — every derived handle is a no-op) or a shared live
/// [`Registry`]. Cloning is cheap; all clones feed the same registry.
#[derive(Debug, Clone, Default)]
pub enum MetricsHub {
    /// Metrics off: registration returns null handles, exposition is
    /// empty.
    #[default]
    Null,
    /// Metrics on, recording into the shared registry.
    Live(Arc<Registry>),
}

impl MetricsHub {
    /// A live hub with a fresh, empty registry.
    pub fn new_live() -> Self {
        MetricsHub::Live(Arc::new(Registry::default()))
    }

    /// Whether this hub records anything.
    pub fn is_live(&self) -> bool {
        matches!(self, MetricsHub::Live(_))
    }

    /// Registers (or re-acquires) a counter under `name` with a fixed
    /// label set. Counter names should end in `_total`.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self {
            MetricsHub::Null => Counter::Null,
            MetricsHub::Live(reg) => match reg.register(MetricKind::Counter, name, help, labels) {
                Cell::Scalar(c) => Counter::Live(c),
                Cell::Hist(_) => unreachable!("counter registered a scalar cell"),
            },
        }
    }

    /// Registers (or re-acquires) a gauge.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self {
            MetricsHub::Null => Gauge::Null,
            MetricsHub::Live(reg) => match reg.register(MetricKind::Gauge, name, help, labels) {
                Cell::Scalar(c) => Gauge::Live(c),
                Cell::Hist(_) => unreachable!("gauge registered a scalar cell"),
            },
        }
    }

    /// Registers (or re-acquires) a log2-bucketed histogram.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self {
            MetricsHub::Null => Histogram::Null,
            MetricsHub::Live(reg) => {
                match reg.register(MetricKind::Histogram, name, help, labels) {
                    Cell::Hist(c) => Histogram::Live(c),
                    Cell::Scalar(_) => unreachable!("histogram registered a hist cell"),
                }
            }
        }
    }

    /// Point-in-time snapshot of every metric (empty for a null hub).
    pub fn snapshot(&self) -> Vec<Sample> {
        match self {
            MetricsHub::Null => Vec::new(),
            MetricsHub::Live(reg) => reg.snapshot(),
        }
    }

    /// The registry rendered in the Prometheus text exposition format
    /// (empty string for a null hub).
    pub fn prometheus_text(&self) -> String {
        crate::expose::prometheus_text(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_handles_are_inert() {
        let hub = MetricsHub::Null;
        let c = hub.counter("x_total", "x", &[]);
        let g = hub.gauge("g", "g", &[]);
        let h = hub.histogram("h", "h", &[]);
        c.inc();
        g.set(3.0);
        h.observe(7);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
        assert!(hub.snapshot().is_empty());
    }

    #[test]
    fn counters_gauges_histograms_record() {
        let hub = MetricsHub::new_live();
        let c = hub.counter("events_total", "events", &[("engine", "seq")]);
        c.add(41);
        c.inc();
        assert_eq!(c.get(), 42);
        let g = hub.gauge("depth", "queue depth", &[]);
        g.set_u64(9);
        assert_eq!(g.get(), 9.0);
        let h = hub.histogram("lat_ns", "latency", &[]);
        h.observe(100);
        h.observe(200);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 300);
        assert_eq!(hub.snapshot().len(), 3);
    }

    #[test]
    fn reregistration_returns_the_same_cell() {
        let hub = MetricsHub::new_live();
        let a = hub.counter("x_total", "x", &[("k", "v")]);
        let b = hub.counter("x_total", "x", &[("k", "v")]);
        a.add(5);
        b.add(2);
        assert_eq!(a.get(), 7);
        assert_eq!(hub.snapshot().len(), 1, "one cell, not two");
        // A different label set is a different cell.
        let c = hub.counter("x_total", "x", &[("k", "w")]);
        c.inc();
        assert_eq!(a.get(), 7);
        assert_eq!(hub.snapshot().len(), 2);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_mismatch_panics() {
        let hub = MetricsHub::new_live();
        let _ = hub.counter("x_total", "x", &[]);
        let _ = hub.gauge("x_total", "x", &[]);
    }

    #[test]
    fn log2_bucket_boundaries_are_exact() {
        // Bucket 0 is exactly {0}; bucket i ≥ 1 is [2^(i-1), 2^i - 1].
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        for i in 1..=63usize {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            assert_eq!(bucket_index(lo), i, "lower edge of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper edge of bucket {i}");
        }
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Upper bounds: 2^i - 1, +Inf for the last bucket.
        assert_eq!(bucket_upper_bound(0), Some(0));
        assert_eq!(bucket_upper_bound(1), Some(1));
        assert_eq!(bucket_upper_bound(5), Some(31));
        assert_eq!(bucket_upper_bound(HIST_BUCKETS - 1), None);
        // Every representable value lands in the bucket whose bound
        // brackets it: bound(i-1) < v <= bound(i).
        for v in [0u64, 1, 2, 3, 1023, 1024, 1025, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            if let Some(hi) = bucket_upper_bound(i) {
                assert!(v <= hi);
            }
            if i > 0 {
                let below = bucket_upper_bound(i - 1).unwrap();
                assert!(v > below, "{v} must be above bucket {}'s bound", i - 1);
            }
        }
    }

    #[test]
    fn histogram_observations_land_in_their_buckets() {
        let hub = MetricsHub::new_live();
        let h = hub.histogram("h", "h", &[]);
        for v in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.observe(v);
        }
        let snap = hub.snapshot();
        let SampleValue::Histogram {
            buckets,
            sum: _,
            count,
        } = &snap[0].value
        else {
            panic!("histogram sample expected");
        };
        assert_eq!(*count, 7);
        assert_eq!(buckets[0], 1); // 0
        assert_eq!(buckets[1], 1); // 1
        assert_eq!(buckets[2], 2); // 2, 3
        assert_eq!(buckets[3], 1); // 4
        assert_eq!(buckets[10], 1); // 1000 ∈ [512, 1023]
        assert_eq!(buckets[64], 1); // u64::MAX
    }
}
