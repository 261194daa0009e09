//! The online metrics registry: counters, gauges and log-linear histograms.
//!
//! Every metric is registered up front (at hub construction), which is the
//! only time the registry allocates; the hot-path mutators — [`inc`],
//! [`set_gauge`], [`observe`] — are index arithmetic on pre-sized vectors,
//! so steady state allocates nothing and stays deterministic.
//!
//! [`inc`]: MetricsRegistry::inc
//! [`set_gauge`]: MetricsRegistry::set_gauge
//! [`observe`]: MetricsRegistry::observe

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets (≈6% relative error per bucket).
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;
/// Values below `SUBS` get one exact bucket each; above, one group of
/// `SUBS` buckets per octave up to `u64::MAX` (msb 4..=63 → 60 groups).
const BUCKETS: usize = SUBS + 60 * SUBS;

/// Maps a value to its log-linear bucket index.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let sub = ((v >> (msb - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        (msb - SUB_BITS + 1) as usize * SUBS + sub
    }
}

/// Midpoint of a bucket, used when reporting quantiles. Integer-derived,
/// so quantile estimates are bit-exact across runs.
fn bucket_mid(i: usize) -> f64 {
    if i < SUBS {
        i as f64
    } else {
        let group = (i / SUBS) as u32; // 1-based beyond the exact range
        let sub = (i % SUBS) as u64;
        let msb = group + SUB_BITS - 1;
        let width = 1u64 << (msb - SUB_BITS);
        let lower = (SUBS as u64 + sub) * width;
        lower as f64 + width as f64 / 2.0
    }
}

/// A fixed-size log-linear histogram over `u64` values.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    count: u64,
    sum: u64,
    max: u64,
    /// Occupied bucket range (`lo..=hi`), so quantile scans touch only the
    /// populated span instead of all [`BUCKETS`] cells. `lo > hi` ⇔ empty.
    lo: usize,
    hi: usize,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            lo: BUCKETS,
            hi: 0,
        }
    }

    #[inline]
    fn observe(&mut self, v: u64) {
        let b = bucket_of(v);
        self.counts[b] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
        self.lo = self.lo.min(b);
        self.hi = self.hi.max(b);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observed value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Estimated quantile (`0.0..=1.0`) as the midpoint of the bucket
    /// holding the `ceil(q * count)`-th observation; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for i in self.lo..=self.hi {
            seen += u64::from(self.counts[i]);
            if seen >= rank {
                return Some(bucket_mid(i));
            }
        }
        Some(bucket_mid(self.hi))
    }

    /// Compact copy for a snapshot, with p50 and p99 resolved in a single
    /// pass over the occupied bucket span. Produces exactly what
    /// [`quantile`](Self::quantile)`(0.50)` / `(0.99)` produce. A function
    /// of the buckets alone, so it changes only when the count does.
    pub fn snap(&self) -> HistogramSnapshot {
        if self.count == 0 {
            return HistogramSnapshot::default();
        }
        let r50 = ((0.50 * self.count as f64).ceil() as u64).max(1);
        let r99 = ((0.99 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let mut p50 = None;
        let mut p99 = None;
        for i in self.lo..=self.hi {
            seen += u64::from(self.counts[i]);
            if p50.is_none() && seen >= r50 {
                p50 = Some(bucket_mid(i));
            }
            if seen >= r99 {
                p99 = Some(bucket_mid(i));
                break;
            }
        }
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            max: self.max,
            p50: p50.unwrap_or_else(|| bucket_mid(self.hi)),
            p99: p99.unwrap_or_else(|| bucket_mid(self.hi)),
        }
    }
}

/// Point-in-time view of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Number of observations so far.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Estimated median (bucket midpoint), 0 when empty.
    pub p50: f64,
    /// Estimated 99th percentile (bucket midpoint), 0 when empty.
    pub p99: f64,
}

/// The registry: named counters, gauges and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counter_names: Vec<&'static str>,
    counters: Vec<u64>,
    gauge_names: Vec<&'static str>,
    gauges: Vec<f64>,
    hist_names: Vec<&'static str>,
    hists: Vec<Histogram>,
    /// Histogram observations buffered since the last [`flush`]: recording
    /// is a contiguous push, and the bucket math runs batched at snapshot
    /// boundaries where its cache footprint is paid once.
    ///
    /// [`flush`]: MetricsRegistry::flush
    pending: Vec<(u32, u64)>,
}

/// Pending-observation high-water mark: [`MetricsRegistry::observe`]
/// self-flushes past this, bounding buffer memory between snapshots.
const FLUSH_AT: usize = 4096;

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers a counter (allocation happens here, not on increment).
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        self.counter_names.push(name);
        self.counters.push(0);
        CounterId(self.counters.len() as u32 - 1)
    }

    /// Registers a gauge.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        self.gauge_names.push(name);
        self.gauges.push(0.0);
        GaugeId(self.gauges.len() as u32 - 1)
    }

    /// Registers a histogram; its full bucket array is allocated now.
    pub fn histogram(&mut self, name: &'static str) -> HistogramId {
        self.hist_names.push(name);
        self.hists.push(Histogram::new());
        HistogramId(self.hists.len() as u32 - 1)
    }

    /// Adds `by` to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0 as usize] += by;
    }

    /// Sets a gauge.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0 as usize] = v;
    }

    /// Records one histogram observation. Buffered: the observation counts
    /// toward the histogram only after [`flush`](Self::flush), which every
    /// snapshot path runs first — readers of [`hist`](Self::hist) must do
    /// the same.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: u64) {
        self.pending.push((id.0, v));
        if self.pending.len() >= FLUSH_AT {
            self.flush();
        }
    }

    /// Applies all buffered observations to their histograms, in recording
    /// order.
    pub fn flush(&mut self) {
        let mut pending = std::mem::take(&mut self.pending);
        for &(id, v) in &pending {
            self.hists[id as usize].observe(v);
        }
        pending.clear();
        self.pending = pending;
    }

    /// Read access to a histogram. Call [`flush`](Self::flush) first if
    /// observations were recorded since the last snapshot.
    pub fn hist(&self, id: HistogramId) -> &Histogram {
        &self.hists[id.0 as usize]
    }

    /// Registered counter names, in registration order.
    pub fn counter_names(&self) -> &[&'static str] {
        &self.counter_names
    }

    /// Registered gauge names, in registration order.
    pub fn gauge_names(&self) -> &[&'static str] {
        &self.gauge_names
    }

    /// Registered histogram names, in registration order.
    pub fn hist_names(&self) -> &[&'static str] {
        &self.hist_names
    }

    /// All counter values, parallel to [`counter_names`](Self::counter_names).
    pub fn counter_values(&self) -> &[u64] {
        &self.counters
    }

    /// All gauge values, parallel to [`gauge_names`](Self::gauge_names).
    pub fn gauge_values(&self) -> &[f64] {
        &self.gauges
    }

    /// All histograms, parallel to [`hist_names`](Self::hist_names). Call
    /// [`flush`](Self::flush) first if observations were recorded since
    /// the last snapshot.
    pub(crate) fn histograms(&self) -> &[Histogram] {
        &self.hists
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_exhaustive() {
        let mut last = 0;
        for v in [0u64, 1, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= last, "bucket regressed at {v}");
            assert!(b < BUCKETS, "bucket {b} out of range at {v}");
            last = b;
        }
        // Small values are exact.
        for v in 0..16u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_mid(v as usize), v as f64);
        }
    }

    #[test]
    fn bucket_mid_falls_inside_bucket() {
        for v in [16u64, 100, 999, 4096, 1 << 30] {
            let b = bucket_of(v);
            let mid = bucket_mid(b);
            // The midpoint maps back to the same bucket.
            assert_eq!(bucket_of(mid as u64), b, "midpoint escaped bucket for {v}");
        }
    }

    #[test]
    fn histogram_quantiles_track_the_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        // Log-linear buckets: ≤ ~6% relative error.
        assert!((p50 - 500.0).abs() / 500.0 < 0.07, "p50 {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.07, "p99 {p99}");
        assert!(h.quantile(0.0).is_some());
        assert!(h.quantile(1.0).unwrap() >= p99);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        let s = h.snap();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn registry_round_trips_all_metric_kinds() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("runs");
        let g = r.gauge("depth");
        let h = r.histogram("latency_us");
        r.inc(c, 2);
        r.inc(c, 3);
        r.set_gauge(g, 7.5);
        r.observe(h, 100);
        r.flush();
        assert_eq!(r.counter_values()[c.0 as usize], 5);
        assert_eq!(r.gauge_values()[g.0 as usize], 7.5);
        assert_eq!(r.hist(h).count(), 1);
        assert_eq!(r.counter_names(), &["runs"]);
        assert_eq!(r.gauge_names(), &["depth"]);
        assert_eq!(r.hist_names(), &["latency_us"]);
    }
}
