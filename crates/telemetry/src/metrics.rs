//! Metrics registry: counters, gauges, and log2-bucketed histograms with
//! quantile estimation, plus a Prometheus text-format exposition writer.
//!
//! Instruments are plain relaxed atomics and are always live (no enable
//! flag): recording is cheap enough for every hot path in the workspace.
//! Handles are `Arc`s resolved once from a [`Registry`] (usually
//! [`global()`]) and then touched lock-free.
//!
//! Naming convention: `stellaris_<crate>_<name>`, with `_total` for
//! counters and a `_us` suffix for microsecond histograms (DESIGN.md §8).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point gauge.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
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

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i`
/// (1..=40) holds values with bit length `i` (i.e. `[2^(i-1), 2^i - 1]`),
/// and the last bucket is the overflow bucket for values `>= 2^40`.
pub const NUM_BUCKETS: usize = 42;

/// Index of the overflow bucket.
pub const OVERFLOW_BUCKET: usize = NUM_BUCKETS - 1;

const MAX_FINITE_BIT: usize = OVERFLOW_BUCKET - 1; // 40

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        let bits = 64 - v.leading_zeros() as usize;
        if bits > MAX_FINITE_BIT {
            OVERFLOW_BUCKET
        } else {
            bits
        }
    }
}

/// Inclusive upper bound of bucket `i`, `None` for the overflow bucket.
fn bucket_upper(i: usize) -> Option<u64> {
    if i >= OVERFLOW_BUCKET {
        None
    } else if i == 0 {
        Some(0)
    } else {
        Some((1u64 << i) - 1)
    }
}

/// Log2-bucketed histogram of `u64` samples (typically microseconds or
/// staleness counts). Recording is two `fetch_add`s plus min/max updates;
/// quantiles are estimated by linear interpolation inside the bucket and
/// clamped to the observed min/max, so single-sample quantiles are exact.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Point-in-time copy of a histogram's state.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`NUM_BUCKETS`]).
    pub buckets: [u64; NUM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow).
    pub sum: u64,
    /// Smallest sample, `u64::MAX` when empty.
    pub min: u64,
    /// Largest sample, 0 when empty.
    pub max: u64,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration as whole microseconds (saturating).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Copies the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count(),
            sum: self.sum(),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Estimated `q`-quantile (`q` in `[0,1]`), `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.snapshot().quantile(q)
    }

    /// Estimated median.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// Estimated 90th percentile.
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.90)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

impl HistogramSnapshot {
    /// Estimated `q`-quantile (`q` clamped to `[0,1]`), `None` when empty.
    ///
    /// The target rank is located by a cumulative walk over the buckets;
    /// within the bucket the value is interpolated at the midpoint of the
    /// rank's slot, then clamped to the observed `[min, max]` so estimates
    /// never leave the recorded range (and a single sample is returned
    /// exactly).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (cum + n) as f64 >= rank {
                let lo = if i == 0 {
                    0.0
                } else if i == OVERFLOW_BUCKET {
                    (1u64 << MAX_FINITE_BIT) as f64
                } else {
                    (1u64 << (i - 1)) as f64
                };
                let hi = match bucket_upper(i) {
                    Some(ub) => ub as f64 + 1.0,
                    None => (self.max as f64).max(lo + 1.0),
                };
                let frac = ((rank - cum as f64 - 0.5) / n as f64).clamp(0.0, 1.0);
                let est = lo + (hi - lo) * frac;
                let lo_seen = if self.min == u64::MAX {
                    est
                } else {
                    self.min as f64
                };
                return Some(est.clamp(lo_seen.min(self.max as f64), self.max as f64));
            }
            cum += n;
        }
        None
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics with get-or-create handle resolution and
/// Prometheus text-format rendering. Most code uses the process-wide
/// [`global()`] registry; tests construct their own.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the counter registered under `name`, creating it if absent.
    /// If `name` is already registered as a different metric type, a fresh
    /// detached counter is returned (recorded values are then invisible to
    /// exposition — never panic over a naming bug).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.lock();
        let entry = m
            .entry(sanitize_metric_name(name))
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())));
        match entry {
            Metric::Counter(c) => Arc::clone(c),
            _ => Arc::new(Counter::default()),
        }
    }

    /// Returns the gauge registered under `name`, creating it if absent.
    /// Type collisions yield a detached instrument, as for [`Self::counter`].
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.lock();
        let entry = m
            .entry(sanitize_metric_name(name))
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())));
        match entry {
            Metric::Gauge(g) => Arc::clone(g),
            _ => Arc::new(Gauge::default()),
        }
    }

    /// Returns the histogram registered under `name`, creating it if absent.
    /// Type collisions yield a detached instrument, as for [`Self::counter`].
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.lock();
        let entry = m
            .entry(sanitize_metric_name(name))
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())));
        match entry {
            Metric::Histogram(h) => Arc::clone(h),
            _ => Arc::new(Histogram::default()),
        }
    }

    /// Renders every registered metric in Prometheus text exposition
    /// format. Histograms emit cumulative `_bucket{le="..."}` series (one
    /// line per non-empty prefix of buckets), `+Inf`, `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        // Snapshot handles first so no lock is held while formatting.
        let snap: Vec<(String, MetricSnapshot)> = {
            let m = self.lock();
            m.iter()
                .map(|(name, metric)| {
                    let s = match metric {
                        Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                        Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                        Metric::Histogram(h) => MetricSnapshot::Histogram(Box::new(h.snapshot())),
                    };
                    (name.clone(), s)
                })
                .collect()
        };
        let mut out = String::with_capacity(snap.len() * 96);
        for (name, metric) in &snap {
            match metric {
                MetricSnapshot::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
                }
                MetricSnapshot::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
                }
                MetricSnapshot::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let last_used = h
                        .buckets
                        .iter()
                        .rposition(|&n| n > 0)
                        .unwrap_or(0)
                        .min(MAX_FINITE_BIT);
                    let mut cum = 0u64;
                    for (i, &n) in h.buckets.iter().enumerate().take(last_used + 1) {
                        cum += n;
                        if let Some(ub) = bucket_upper(i) {
                            let _ = writeln!(out, "{name}_bucket{{le=\"{ub}\"}} {cum}");
                        }
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                    let _ = writeln!(out, "{name}_sum {}", h.sum);
                    let _ = writeln!(out, "{name}_count {}", h.count);
                }
            }
        }
        out
    }
}

enum MetricSnapshot {
    Counter(u64),
    Gauge(f64),
    // Boxed: a snapshot carries the full bucket array, dwarfing the scalars.
    Histogram(Box<HistogramSnapshot>),
}

/// Escapes an arbitrary string into a valid Prometheus metric name:
/// every character outside `[a-zA-Z0-9_:]` becomes `_`, a leading digit
/// gets a `_` prefix, and the empty string becomes `_`. Registration goes
/// through this, so [`Registry::render_prometheus`] output always passes
/// [`validate_prometheus`] whatever callers name their instruments.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() || out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// The process-wide registry all Stellaris instrumentation records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Validates Prometheus text exposition format: every line is a `#`
/// comment or a `name[{labels}] value` sample, histogram `_bucket` series
/// are cumulative (non-decreasing) in file order, and each histogram's
/// `+Inf` bucket equals its `_count`. Used by the CI trace validator and
/// the exposition tests.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    let mut bucket_prev: BTreeMap<String, u64> = BTreeMap::new();
    let mut inf_bucket: BTreeMap<String, u64> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = match line.rsplit_once(' ') {
            Some(parts) => parts,
            None => return Err(format!("line {}: no value: {raw:?}", lineno + 1)),
        };
        let value: f64 = match value_part.parse() {
            Ok(v) => v,
            Err(_) => return Err(format!("line {}: bad value {value_part:?}", lineno + 1)),
        };
        let (name, labels) = match name_part.split_once('{') {
            Some((n, rest)) => match rest.strip_suffix('}') {
                Some(l) => (n, Some(l)),
                None => return Err(format!("line {}: unclosed labels", lineno + 1)),
            },
            None => (name_part, None),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        if let Some(series) = name.strip_suffix("_bucket") {
            let le = labels
                .and_then(|l| l.strip_prefix("le=\""))
                .and_then(|l| l.strip_suffix('"'))
                .ok_or_else(|| format!("line {}: _bucket without le label", lineno + 1))?;
            let n = value as u64;
            if let Some(&prev) = bucket_prev.get(series) {
                if n < prev {
                    return Err(format!(
                        "line {}: {series} buckets not cumulative ({n} < {prev})",
                        lineno + 1
                    ));
                }
            }
            bucket_prev.insert(series.to_owned(), n);
            if le == "+Inf" {
                inf_bucket.insert(series.to_owned(), n);
            } else if le.parse::<u64>().is_err() {
                return Err(format!("line {}: bad le bound {le:?}", lineno + 1));
            }
        } else if let Some(series) = name.strip_suffix("_count") {
            counts.insert(series.to_owned(), value as u64);
        }
    }
    for (series, inf) in &inf_bucket {
        match counts.get(series) {
            Some(c) if c == inf => {}
            Some(c) => {
                return Err(format!("{series}: +Inf bucket {inf} != _count {c}"));
            }
            None => return Err(format!("{series}: has buckets but no _count")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("stellaris_test_events_total");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("stellaris_test_events_total").get(), 5);
        let g = r.gauge("stellaris_test_depth");
        g.set(2.5);
        assert_eq!(r.gauge("stellaris_test_depth").get(), 2.5);
    }

    #[test]
    fn type_collision_returns_detached_handle() {
        let r = Registry::new();
        let c = r.counter("stellaris_test_m");
        c.inc();
        // Same name as a histogram: detached instrument, no panic, and the
        // original counter is untouched.
        let h = r.histogram("stellaris_test_m");
        h.record(7);
        assert_eq!(r.counter("stellaris_test_m").get(), 1);
        assert!(!r.render_prometheus().contains("_bucket"));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert!(h.quantile(0.0).is_none());
        assert!(h.p50().is_none());
        assert!(h.p99().is_none());
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        for v in [0u64, 1, 7, 1000, 123_456_789] {
            let h = Histogram::default();
            h.record(v);
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                let est = h.quantile(q).expect("non-empty");
                assert_eq!(est, v as f64, "q={q} v={v}");
            }
        }
    }

    #[test]
    fn overflow_bucket_clamps_to_observed_max() {
        let h = Histogram::default();
        let big = 1u64 << 50; // beyond the finite buckets
        h.record(big);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        let p99 = h.p99().expect("non-empty");
        assert!(p99 >= big as f64, "{p99}");
        assert!(p99 <= u64::MAX as f64);
        // The exposition still parses: overflow lands in +Inf only.
        let r = Registry::new();
        let rh = r.histogram("stellaris_test_over_us");
        rh.record(big);
        let text = r.render_prometheus();
        validate_prometheus(&text).expect("valid exposition");
        assert!(text.contains("stellaris_test_over_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("stellaris_test_over_us_count 1"));
    }

    #[test]
    fn quantiles_track_uniform_data() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.p50().expect("p50");
        let p90 = h.p90().expect("p90");
        let p99 = h.p99().expect("p99");
        // Log buckets are coarse; just require the right ballpark + order.
        assert!((250.0..=760.0).contains(&p50), "{p50}");
        assert!((510.0..=1000.0).contains(&p90), "{p90}");
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(p99 <= 1000.0, "{p99}");
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
    }

    #[test]
    fn zero_and_boundary_values_bucket_correctly() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index((1 << 40) - 1), 40);
        assert_eq!(bucket_index(1 << 40), OVERFLOW_BUCKET);
        assert_eq!(bucket_index(u64::MAX), OVERFLOW_BUCKET);
        assert_eq!(bucket_upper(0), Some(0));
        assert_eq!(bucket_upper(1), Some(1));
        assert_eq!(bucket_upper(2), Some(3));
        assert_eq!(bucket_upper(OVERFLOW_BUCKET), None);
    }

    #[test]
    fn prometheus_exposition_format() {
        let r = Registry::new();
        r.counter("stellaris_test_rounds_total").add(3);
        r.gauge("stellaris_test_beta").set(12.5);
        let h = r.histogram("stellaris_test_staleness");
        h.record(0);
        h.record(1);
        h.record(5);
        let text = r.render_prometheus();
        validate_prometheus(&text).expect("valid exposition");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.contains(&"# TYPE stellaris_test_rounds_total counter"));
        assert!(lines.contains(&"stellaris_test_rounds_total 3"));
        assert!(lines.contains(&"# TYPE stellaris_test_beta gauge"));
        assert!(lines.contains(&"stellaris_test_beta 12.5"));
        assert!(lines.contains(&"# TYPE stellaris_test_staleness histogram"));
        // Cumulative buckets: 0 → 1 sample, le=1 → 2, le=3 → 2, le=7 → 3.
        assert!(lines.contains(&"stellaris_test_staleness_bucket{le=\"0\"} 1"));
        assert!(lines.contains(&"stellaris_test_staleness_bucket{le=\"1\"} 2"));
        assert!(lines.contains(&"stellaris_test_staleness_bucket{le=\"3\"} 2"));
        assert!(lines.contains(&"stellaris_test_staleness_bucket{le=\"7\"} 3"));
        assert!(lines.contains(&"stellaris_test_staleness_bucket{le=\"+Inf\"} 3"));
        assert!(lines.contains(&"stellaris_test_staleness_sum 6"));
        assert!(lines.contains(&"stellaris_test_staleness_count 3"));
        // Registry iteration is name-sorted.
        let first = lines.iter().position(|l| l.contains("beta")).unwrap();
        let second = lines.iter().position(|l| l.contains("rounds")).unwrap();
        assert!(first < second);
    }

    #[test]
    fn empty_histogram_roundtrips_through_exposition() {
        // A registered-but-never-recorded histogram must still render a
        // validator-clean series: one zero finite bucket, +Inf == _count
        // == 0, _sum == 0.
        let r = Registry::new();
        r.histogram("stellaris_test_empty_us");
        let text = r.render_prometheus();
        validate_prometheus(&text).expect("empty histogram renders validly");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.contains(&"stellaris_test_empty_us_bucket{le=\"0\"} 0"));
        assert!(lines.contains(&"stellaris_test_empty_us_bucket{le=\"+Inf\"} 0"));
        assert!(lines.contains(&"stellaris_test_empty_us_sum 0"));
        assert!(lines.contains(&"stellaris_test_empty_us_count 0"));
    }

    #[test]
    fn all_three_types_roundtrip_through_render_and_validate() {
        let r = Registry::new();
        r.counter("stellaris_test_total").add(u64::MAX);
        r.gauge("stellaris_test_neg").set(-3.25);
        r.gauge("stellaris_test_zero").set(0.0);
        let h = r.histogram("stellaris_test_lat_us");
        h.record(0);
        h.record(1 << 20);
        h.record(u64::MAX); // overflow bucket
        let text = r.render_prometheus();
        validate_prometheus(&text).expect("mixed registry renders validly");
        // Values survive formatting exactly.
        assert!(text.contains(&format!("stellaris_test_total {}", u64::MAX)));
        assert!(text.contains("stellaris_test_neg -3.25"));
        assert!(text.contains("stellaris_test_zero 0"));
        assert!(text.contains("stellaris_test_lat_us_count 3"));
        assert!(text.contains("stellaris_test_lat_us_bucket{le=\"+Inf\"} 3"));
    }

    #[test]
    fn hostile_metric_names_are_escaped_at_registration() {
        let r = Registry::new();
        // Spaces, dots, dashes, quotes, unicode, leading digit, empty.
        r.counter("stellaris test-events.total").inc();
        r.gauge("stellaris_\"depth\"").set(1.0);
        r.histogram("1stellaris_µs").record(5);
        r.counter("").inc();
        let text = r.render_prometheus();
        validate_prometheus(&text).expect("sanitized names validate");
        assert!(text.contains("stellaris_test_events_total 1"));
        assert!(text.contains("stellaris__depth_ 1"));
        assert!(text.contains("_1stellaris__s_count 1"));
        assert!(text.contains("\n_ 1"));
        // Sanitization is applied on lookup too: the same hostile spelling
        // resolves to the same instrument.
        r.counter("stellaris test-events.total").inc();
        assert_eq!(r.counter("stellaris_test_events_total").get(), 2);
        // Pure-fn edge cases.
        assert_eq!(sanitize_metric_name("ok_name:x9"), "ok_name:x9");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    #[test]
    fn validator_rejects_broken_expositions() {
        assert!(
            validate_prometheus("x_bucket{le=\"1\"} 5\nx_bucket{le=\"+Inf\"} 3\nx_count 3")
                .is_err()
        );
        assert!(validate_prometheus("x_bucket{le=\"+Inf\"} 3\nx_count 4").is_err());
        assert!(validate_prometheus("x_bucket{le=\"+Inf\"} 3").is_err());
        assert!(validate_prometheus("bad name 1").is_err());
        assert!(validate_prometheus("x").is_err());
        assert!(validate_prometheus("x notanumber").is_err());
        assert!(validate_prometheus("# comment\nok_metric 1\n").is_ok());
    }
}
