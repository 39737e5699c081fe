//! Per-request service metrics: counters by query type, an error
//! counter, and a fixed-bucket latency histogram.
//!
//! Everything is a relaxed atomic — workers record without any shared
//! lock, and a `stats` query (or the shutdown dump) reads a consistent-
//! enough snapshot. The histogram uses power-of-two nanosecond buckets
//! (bucket *i* holds latencies in `[2^i, 2^(i+1))` ns), so p99 is exact
//! to within a factor of two (and clamped to the observed `[min, max]`)
//! and `min`/`mean`/`max` are exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use serde::Value;

use crate::protocol::QUERY_NAMES;

/// Number of histogram buckets: `2^39` ns ≈ 9 minutes, far beyond any
/// sane request; slower requests land in the last bucket.
pub const LATENCY_BUCKETS: usize = 40;

/// Fixed-bucket latency histogram over nanoseconds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    fn bucket_of(ns: u64) -> usize {
        // 0 and 1 ns share bucket 0; otherwise floor(log2(ns)).
        (63 - ns.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
    }

    /// Records one observation.
    pub fn record(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Point-in-time summary of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum_ns.load(Ordering::Relaxed);
        let min = self.min_ns.load(Ordering::Relaxed);
        let max = self.max_ns.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // p99 = upper bound of the first bucket whose cumulative count
        // reaches 99% of the total (exact to within 2×), clamped to the
        // observed [min, max]: a bucket's bound can lie above every
        // observation in it, and p99 must never read above max.
        let p99_ns = if count == 0 {
            0
        } else {
            let target = (count * 99).div_ceil(100);
            let mut seen = 0;
            let mut bound = 0;
            for (i, c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= target {
                    bound = if i + 1 >= 64 {
                        u64::MAX
                    } else {
                        (1 << (i + 1)) - 1
                    };
                    break;
                }
            }
            bound.max(min).min(max)
        };
        HistogramSnapshot {
            count,
            min_ns: if count == 0 { 0 } else { min },
            mean_ns: sum.checked_div(count).unwrap_or(0),
            p99_ns,
            max_ns: max,
        }
    }
}

/// Frozen summary of a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Fastest observation, ns (0 when empty).
    pub min_ns: u64,
    /// Mean observation, ns (0 when empty).
    pub mean_ns: u64,
    /// 99th-percentile upper bound, ns (bucket-quantized, ≤ 2× exact,
    /// clamped to `[min_ns, max_ns]`).
    pub p99_ns: u64,
    /// Slowest observation, ns.
    pub max_ns: u64,
}

impl HistogramSnapshot {
    /// Renders the snapshot as a JSON object.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".to_string(), Value::U64(self.count)),
            ("min_ns".to_string(), Value::U64(self.min_ns)),
            ("mean_ns".to_string(), Value::U64(self.mean_ns)),
            ("p99_ns".to_string(), Value::U64(self.p99_ns)),
            ("max_ns".to_string(), Value::U64(self.max_ns)),
        ])
    }
}

/// Live service metrics shared by every worker.
#[derive(Debug, Default)]
pub struct Metrics {
    by_query: [AtomicU64; QUERY_NAMES.len()],
    errors: AtomicU64,
    latency: Histogram,
}

impl Metrics {
    /// Fresh all-zero metrics.
    pub fn new() -> Self {
        Metrics {
            by_query: std::array::from_fn(|_| AtomicU64::new(0)),
            errors: AtomicU64::new(0),
            latency: Histogram::new(),
        }
    }

    /// Records one finished request. `slot` is [`Query::slot`] when the
    /// request parsed far enough to have a type, `None` otherwise;
    /// `ok` is whether a success response was sent.
    ///
    /// [`Query::slot`]: crate::protocol::Query::slot
    pub fn record(&self, slot: Option<usize>, ok: bool, elapsed: Duration) {
        if let Some(s) = slot {
            self.by_query[s].fetch_add(1, Ordering::Relaxed);
        }
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.latency
            .record(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Point-in-time summary of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let by_query: Vec<(&'static str, u64)> = QUERY_NAMES
            .iter()
            .zip(&self.by_query)
            .map(|(name, c)| (*name, c.load(Ordering::Relaxed)))
            .collect();
        MetricsSnapshot {
            requests: self.latency.count.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            by_query,
            latency: self.latency.snapshot(),
        }
    }
}

/// Frozen summary of [`Metrics`].
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Total requests answered (including error responses).
    pub requests: u64,
    /// Requests answered with an error response.
    pub errors: u64,
    /// Requests per query type, in [`QUERY_NAMES`] order.
    pub by_query: Vec<(&'static str, u64)>,
    /// Latency summary over all requests.
    pub latency: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON object (the `metrics` field of a
    /// `stats` response).
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("requests".to_string(), Value::U64(self.requests)),
            ("errors".to_string(), Value::U64(self.errors)),
            (
                "by_query".to_string(),
                Value::Object(
                    self.by_query
                        .iter()
                        .map(|(name, c)| (name.to_string(), Value::U64(*c)))
                        .collect(),
                ),
            ),
            ("latency".to_string(), self.latency.to_value()),
        ])
    }

    /// Renders a compact human-readable dump (printed on shutdown).
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "requests {}  errors {}  latency min/mean/p99/max {}/{}/{}/{} us\n",
            self.requests,
            self.errors,
            self.latency.min_ns / 1_000,
            self.latency.mean_ns / 1_000,
            self.latency.p99_ns / 1_000,
            self.latency.max_ns / 1_000,
        );
        for (name, c) in &self.by_query {
            if *c > 0 {
                out.push_str(&format!("  {name}: {c}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(1023), 9);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn histogram_summary_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().count, 0);
        for ns in [100, 200, 300, 400, 1_000_000] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.min_ns, 100);
        assert_eq!(s.max_ns, 1_000_000);
        assert_eq!(s.mean_ns, (100 + 200 + 300 + 400 + 1_000_000) / 5);
        // p99 must cover the slowest observation's bucket.
        assert!(s.p99_ns >= 1_000_000 && s.p99_ns < 2_097_152);
    }

    #[test]
    fn p99_is_clamped_to_the_observed_range() {
        // 58 µs lands in the [32768, 65535] ns bucket, whose upper
        // bound lies above the only observation.
        let h = Histogram::new();
        h.record(58_000);
        let s = h.snapshot();
        assert_eq!((s.min_ns, s.p99_ns, s.max_ns), (58_000, 58_000, 58_000));
    }

    #[test]
    fn metrics_counters() {
        let m = Metrics::new();
        m.record(Some(0), true, Duration::from_micros(5));
        m.record(Some(0), true, Duration::from_micros(7));
        m.record(Some(4), false, Duration::from_micros(9));
        m.record(None, false, Duration::from_micros(1));
        let s = m.snapshot();
        assert_eq!(s.requests, 4);
        assert_eq!(s.errors, 2);
        assert_eq!(s.by_query[0], ("lambda", 2));
        assert_eq!(s.by_query[4], ("density", 1));
        let text = s.render_text();
        assert!(text.contains("lambda: 2"));
        assert!(!text.contains("stats:"));
    }
}
