//! Named metrics: counters, gauges, and log₂-bucket histograms.
//!
//! The registry is a flat name → metric map. Names are dotted paths by
//! convention (`"sta.pba.paths"`); the first operation on a name fixes
//! its kind, and later operations of a different kind are ignored (they
//! must not panic inside instrumented library code).
//!
//! [`Histogram`] is also a plain value type: a store that must record
//! whether or not profiling is enabled (the server's always-on latency
//! histograms) keeps its own and renders it through the same
//! [`HistogramSnapshot`].

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Number of histogram buckets. Bucket `i` counts values in
/// `(2^(i-1+HIST_MIN_EXP), 2^(i+HIST_MIN_EXP)]`; the first bucket also
/// absorbs every value ≤ its upper bound (including zero and negatives).
pub const HIST_BUCKETS: usize = 64;

/// Exponent of the first bucket's upper bound: bucket 0 is
/// `(-∞, 2^HIST_MIN_EXP]`. With 64 buckets the top covers up to 2⁴⁷ —
/// wide enough for nanosecond durations and row counts alike.
pub const HIST_MIN_EXP: i32 = -16;

/// A log₂-bucket histogram: per-bucket counts plus count, sum, min and
/// max. The registry stores one per histogram name.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Records one value.
    pub fn observe(&mut self, v: f64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` in, as if its values had been observed here.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Captures the histogram under `name`.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_owned(),
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            // Trim leading/trailing empty buckets only; keep the
            // interior contiguous so every renderer sees one range.
            buckets: match (
                self.buckets.iter().position(|&c| c > 0),
                self.buckets.iter().rposition(|&c| c > 0),
            ) {
                (Some(first), Some(last)) => (first..=last)
                    .map(|i| (bucket_le(i), self.buckets[i]))
                    .collect(),
                _ => Vec::new(),
            },
        }
    }
}

/// Fixed log₂ bucketing: values ≤ 2^HIST_MIN_EXP land in bucket 0,
/// values beyond the last boundary in the last bucket.
fn bucket_index(v: f64) -> usize {
    if !v.is_finite() || v <= 0.0 {
        return 0;
    }
    let exp = v.log2().ceil() as i64;
    (exp - HIST_MIN_EXP as i64).clamp(0, HIST_BUCKETS as i64 - 1) as usize
}

/// Upper bound (`le`) of bucket `i`. The last bucket is the overflow
/// bucket with an infinite bound (serialized as `null` in JSON).
fn bucket_le(i: usize) -> f64 {
    if i == HIST_BUCKETS - 1 {
        f64::INFINITY
    } else {
        (2.0f64).powi(HIST_MIN_EXP + i as i32)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Hist(Histogram),
}

static REGISTRY: Mutex<BTreeMap<String, Metric>> = Mutex::new(BTreeMap::new());

/// Adds `by` to the counter `name`. No-op when recording is disabled or
/// `name` is already a different metric kind.
pub fn counter_add(name: &str, by: u64) {
    if !crate::enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    if let Metric::Counter(c) = reg.entry(name.to_owned()).or_insert(Metric::Counter(0)) {
        *c += by;
    }
}

/// Sets the gauge `name` to `v` (last write wins). No-op when recording
/// is disabled or `name` is already a different metric kind.
pub fn gauge_set(name: &str, v: f64) {
    if !crate::enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    if let Metric::Gauge(g) = reg.entry(name.to_owned()).or_insert(Metric::Gauge(v)) {
        *g = v;
    }
}

/// Records `v` into the histogram `name`. No-op when recording is
/// disabled or `name` is already a different metric kind.
pub fn observe(name: &str, v: f64) {
    if !crate::enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    if let Metric::Hist(h) = reg
        .entry(name.to_owned())
        .or_insert_with(|| Metric::Hist(Histogram::default()))
    {
        h.observe(v);
    }
}

/// Snapshot of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (`+∞` when empty).
    pub min: f64,
    /// Largest observed value (`-∞` when empty).
    pub max: f64,
    /// Buckets as `(upper_bound, count)` in ascending order, covering
    /// the **contiguous** range from the first to the last non-empty
    /// bucket. Interior empty buckets are included (count 0); only
    /// leading and trailing empty buckets are trimmed. Every renderer —
    /// JSON, pretty text, Prometheus exposition — consumes this same
    /// range, so bucket counts agree across formats (pinned by a golden
    /// test).
    pub buckets: Vec<(f64, u64)>,
}

/// Snapshot of the whole metrics registry, names sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, f64)>,
    /// Histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the log₂ buckets:
    /// the upper bound of the first bucket whose cumulative count reaches
    /// `q · count`, clamped to the observed `[min, max]` range. Returns
    /// `None` for an empty histogram.
    ///
    /// The estimate is bucket-resolution coarse (a factor-of-two bound),
    /// which is exactly what latency reporting needs: p50/p99 within one
    /// power of two, with the true extremes preserved by the clamp.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(le, c) in &self.buckets {
            seen += c;
            if seen >= target {
                return Some(le.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Captures the registry.
pub fn snapshot() -> MetricsSnapshot {
    let reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    let mut out = MetricsSnapshot::default();
    for (name, metric) in reg.iter() {
        match metric {
            Metric::Counter(c) => out.counters.push((name.clone(), *c)),
            Metric::Gauge(g) => out.gauges.push((name.clone(), *g)),
            Metric::Hist(h) => out.histograms.push(h.snapshot(name)),
        }
    }
    out
}

/// Clears the registry.
pub(crate) fn reset() {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testlock;

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        // 1.0 = 2^0 → le boundary 2^0 → bucket index -HIST_MIN_EXP.
        assert_eq!(bucket_index(1.0), (-HIST_MIN_EXP) as usize);
        assert_eq!(bucket_index(1.5), (-HIST_MIN_EXP) as usize + 1);
        assert_eq!(bucket_index(2.0), (-HIST_MIN_EXP) as usize + 1);
        assert_eq!(bucket_index(f64::MAX), HIST_BUCKETS - 1);
        // Every value lands at or below its bucket's upper bound.
        for v in [1e-9, 0.02, 1.0, 3.7, 1e6, 1e30] {
            let i = bucket_index(v);
            assert!(v <= bucket_le(i), "{v} > le {}", bucket_le(i));
            if i > 0 {
                assert!(v > bucket_le(i - 1), "{v} ≤ prior le {}", bucket_le(i - 1));
            }
        }
    }

    #[test]
    fn counters_gauges_histograms_record_and_snapshot() {
        let _l = testlock::hold();
        crate::set_enabled(true);
        counter_add("c.x", 2);
        counter_add("c.x", 3);
        gauge_set("g.y", 1.5);
        gauge_set("g.y", 2.5);
        observe("h.z", 1.0);
        observe("h.z", 100.0);
        crate::set_enabled(false);
        let s = snapshot();
        assert_eq!(s.counter("c.x"), Some(5));
        assert_eq!(s.gauge("g.y"), Some(2.5));
        let h = s.histogram("h.z").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 101.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert_eq!(h.buckets.iter().map(|(_, c)| c).sum::<u64>(), 2);
    }

    #[test]
    fn kind_mismatch_is_ignored_not_fatal() {
        let _l = testlock::hold();
        crate::set_enabled(true);
        counter_add("mixed", 1);
        gauge_set("mixed", 9.0);
        observe("mixed", 9.0);
        crate::set_enabled(false);
        let s = snapshot();
        assert_eq!(s.counter("mixed"), Some(1));
        assert_eq!(s.gauge("mixed"), None);
        assert!(s.histogram("mixed").is_none());
    }

    #[test]
    fn quantiles_track_bucket_bounds() {
        let _l = testlock::hold();
        crate::set_enabled(true);
        // 99 fast observations and one slow outlier: p50 stays in the
        // fast band, p99 reaches the outlier's bucket.
        for _ in 0..99 {
            observe("q", 10.0);
        }
        observe("q", 5000.0);
        crate::set_enabled(false);
        let s = snapshot();
        let h = s.histogram("q").unwrap();
        let p50 = h.quantile(0.50).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((10.0..=16.0).contains(&p50), "p50 = {p50}");
        assert!(p50 <= p99);
        assert!((10.0..=5000.0).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), Some(5000.0));
        // Empty histogram has no quantiles.
        assert!(s.histogram("absent").is_none());
    }

    #[test]
    fn bucket_trimming_keeps_contiguous_interior() {
        let _l = testlock::hold();
        crate::set_enabled(true);
        // 1.0 lands at le=1 (bucket 16), 5.0 at le=8 (bucket 19): the
        // snapshot must keep the empty le=2 and le=4 buckets between
        // them, and trim everything outside [le=1, le=8].
        observe("golden", 1.0);
        observe("golden", 5.0);
        crate::set_enabled(false);
        let s = snapshot();
        let h = s.histogram("golden").unwrap();
        assert_eq!(
            h.buckets,
            vec![(1.0, 1), (2.0, 0), (4.0, 0), (8.0, 1)],
            "contiguous range from first to last non-empty bucket"
        );
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 6.0);
    }

    #[test]
    fn merge_equals_one_histogram_fed_both_sets() {
        // Integer-valued observations below 2⁵³ in total, so the sums
        // are exact in any order. The right side holds both extremes:
        // zero (bucket 0) and 2⁵⁰ (the overflow bucket).
        let left = [3.0, 7.0, 100.0];
        let right = [0.0, 1.0, 8.0, 90_000.0, (1u64 << 50) as f64];
        let (mut a, mut b, mut both) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for &v in &left {
            a.observe(v);
            both.observe(v);
        }
        for &v in &right {
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.snapshot("h"), both.snapshot("h"));
        assert_eq!(a.buckets, both.buckets);
        // An empty histogram is the identity on either side.
        let mut empty = Histogram::default();
        empty.merge(&both);
        assert_eq!(empty.snapshot("h"), both.snapshot("h"));
        both.merge(&Histogram::default());
        assert_eq!(empty.snapshot("h"), both.snapshot("h"));
    }

    #[test]
    fn value_histogram_and_registry_snapshot_alike() {
        let _l = testlock::hold();
        crate::set_enabled(true);
        let mut h = Histogram::default();
        for v in [0.0, 0.25, 1.0, 3.7, 5.0, 5.0, 1e6] {
            h.observe(v);
            observe("same", v);
        }
        crate::set_enabled(false);
        assert_eq!(snapshot().histogram("same"), Some(&h.snapshot("same")));
        let empty = Histogram::default().snapshot("empty");
        assert_eq!((empty.count, empty.sum), (0, 0.0));
        assert!(empty.buckets.is_empty());
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn disabled_records_nothing() {
        let _l = testlock::hold();
        counter_add("off", 1);
        observe("off.h", 1.0);
        assert!(snapshot().counters.is_empty());
        assert!(snapshot().histograms.is_empty());
    }
}
