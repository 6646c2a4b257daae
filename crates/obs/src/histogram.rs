//! The latency histogram: one bucket ladder, recorded into by the
//! registry's atomic [`Histogram`] and carried as the plain
//! [`HistogramSnapshot`] everywhere else (registry snapshots, window
//! epochs and rollups, the serving layer's Stats wire).
//!
//! The ladder is private to this module: exporters and codecs walk a
//! snapshot's buckets through [`HistogramSnapshot::iter_buckets`] rather than
//! indexing the bounds, so changing the ladder is a change to this file.

use crate::registry::collecting;
use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram bucket upper bounds in nanoseconds (inclusive), a coarse
/// log ladder from 1µs to 10s. One extra overflow bucket catches
/// everything above the last bound.
const BUCKET_BOUNDS_NS: [u64; 16] = [
    1_000,          // 1µs
    5_000,          // 5µs
    10_000,         // 10µs
    50_000,         // 50µs
    100_000,        // 100µs
    500_000,        // 500µs
    1_000_000,      // 1ms
    5_000_000,      // 5ms
    10_000_000,     // 10ms
    50_000_000,     // 50ms
    100_000_000,    // 100ms
    500_000_000,    // 500ms
    1_000_000_000,  // 1s
    2_500_000_000,  // 2.5s
    5_000_000_000,  // 5s
    10_000_000_000, // 10s
];

/// Buckets per histogram: one per bound plus the overflow bucket.
const BUCKETS: usize = BUCKET_BOUNDS_NS.len() + 1;

/// The bucket an observation of `ns` nanoseconds lands in.
fn bucket_of(ns: u64) -> usize {
    BUCKET_BOUNDS_NS
        .iter()
        .position(|&bound| ns <= bound)
        .unwrap_or(BUCKET_BOUNDS_NS.len())
}

/// A fixed-bucket latency histogram over nanosecond observations, in
/// the process-wide registry: plain atomics with `Relaxed` ordering.
///
/// `count`/`sum`/`min`/`max` are tracked alongside the buckets so
/// snapshots can report a mean and tighten quantiles without walking
/// buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Histogram {
    pub(crate) const fn new() -> Self {
        // `[AtomicU64::new(0); N]` needs Copy; use an inline-const block.
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one observation of `ns` nanoseconds (no-op while the
    /// registry is disabled).
    pub fn observe_ns(&self, ns: u64) {
        if !collecting() {
            return;
        }
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// The histogram's current contents as a plain value.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min_ns.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            min_ns: (min != u64::MAX).then_some(min),
            max_ns: (count > 0).then(|| self.max_ns.load(Ordering::Relaxed)),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    pub(crate) fn reset(&self) {
        self.buckets
            .iter()
            .for_each(|b| b.store(0, Ordering::Relaxed));
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

/// A latency histogram as a plain, mergeable value on the same ladder
/// as [`Histogram`]: what a registry snapshot freezes, what each window
/// epoch and rollup accumulates, and what the Stats wire carries. The
/// buckets are a fixed-size array, so holding one allocates nothing.
/// The default value is the empty histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_ns: u64,
    /// Smallest observation, or `None` before the first one.
    pub min_ns: Option<u64>,
    /// Largest observation, or `None` before the first one.
    pub max_ns: Option<u64>,
    /// Counts per bucket, in ladder order; the final entry is the
    /// overflow bucket. [`HistogramSnapshot::iter_buckets`] pairs each with
    /// its bound.
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Records one observation of `ns` nanoseconds.
    pub fn observe_ns(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns;
        self.min_ns = Some(self.min_ns.map_or(ns, |m| m.min(ns)));
        self.max_ns = Some(self.max_ns.map_or(ns, |m| m.max(ns)));
    }

    /// Adds every observation of `other` into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.into_iter().chain(other.min_ns).min();
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The observations `self` holds beyond `earlier`, an earlier read
    /// of the same cumulative histogram (before/after deltas against
    /// one daemon). Saturates rather than panicking if the windows
    /// rolled between the two reads. The extremes of the delta are not
    /// known; `self`'s still bound it, so they carry over.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let count = self.count.saturating_sub(earlier.count);
        HistogramSnapshot {
            count,
            sum_ns: self.sum_ns.saturating_sub(earlier.sum_ns),
            min_ns: self.min_ns.filter(|_| count > 0),
            max_ns: self.max_ns.filter(|_| count > 0),
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
        }
    }

    /// Each bucket's inclusive upper bound in nanoseconds (`None` for
    /// the open-ended overflow bucket) with its count, in ladder order.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (Option<u64>, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &count)| (BUCKET_BOUNDS_NS.get(i).copied(), count))
    }

    /// Mean observation in nanoseconds, or `None` before the first one.
    pub fn mean_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_ns as f64 / self.count as f64)
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) in nanoseconds, or `None`
    /// while the histogram is empty or `q` is out of range.
    ///
    /// The estimate takes the nearest rank `⌈q·count⌉` (at least 1),
    /// walks the cumulative bucket counts to the bucket holding it and
    /// interpolates linearly inside that bucket, with the bucket edges
    /// tightened to the observed `min`/`max` so single-bucket
    /// histograms report sensible values instead of a whole log-ladder
    /// decade. Coarse by construction — the ladder has 16 buckets — but
    /// monotone in `q` and good enough for the p50/p99/p999 the serving
    /// layer reports.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &in_bucket) in self.buckets.iter().enumerate() {
            if in_bucket == 0 {
                continue;
            }
            let before = seen;
            seen += in_bucket;
            if seen < rank {
                continue;
            }
            // Nominal bucket edges from the ladder; the overflow bucket
            // is open-ended above the last bound.
            let lo = if i == 0 { 0 } else { BUCKET_BOUNDS_NS[i - 1] };
            let hi = BUCKET_BOUNDS_NS.get(i).copied().unwrap_or(u64::MAX);
            // Tighten to what was actually observed.
            let lo = self.min_ns.map_or(lo, |m| lo.max(m));
            let hi = self.max_ns.map_or(hi, |m| hi.min(m)).max(lo);
            let frac = (rank - before) as f64 / in_bucket as f64;
            return Some(lo.saturating_add(((hi - lo) as f64 * frac).round() as u64));
        }
        self.max_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(buckets: [u64; BUCKETS], min_ns: u64, max_ns: u64) -> HistogramSnapshot {
        let count = buckets.iter().sum();
        HistogramSnapshot {
            count,
            sum_ns: 0,
            min_ns: (count > 0).then_some(min_ns),
            max_ns: (count > 0).then_some(max_ns),
            buckets,
        }
    }

    #[test]
    fn quantile_of_empty_or_bad_q_is_none() {
        let h = hist([0; BUCKETS], 0, 0);
        assert_eq!(h.quantile_ns(0.5), None);
        let mut b = [0; BUCKETS];
        b[0] = 1;
        let h = hist(b, 500, 500);
        assert_eq!(h.quantile_ns(-0.1), None);
        assert_eq!(h.quantile_ns(1.5), None);
    }

    #[test]
    fn quantile_is_monotone_and_bracketed_by_min_max() {
        // 10 obs ≤1µs, 80 in (1µs, 5µs], 10 in (5µs, 10µs].
        let mut b = [0u64; BUCKETS];
        (b[0], b[1], b[2]) = (10, 80, 10);
        let h = hist(b, 800, 9_000);
        let p50 = h.quantile_ns(0.50).unwrap();
        let p99 = h.quantile_ns(0.99).unwrap();
        let p999 = h.quantile_ns(0.999).unwrap();
        assert!(p50 >= 800 && p999 <= 9_000, "{p50} {p999}");
        assert!(p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
        // The median rank lands in the middle bucket.
        assert!((1_000..=5_000).contains(&p50), "{p50}");
    }

    #[test]
    fn single_bucket_histogram_stays_inside_observed_range() {
        let mut b = [0u64; BUCKETS];
        b[6] = 100; // all obs in (500µs, 1ms]
        let h = hist(b, 700_000, 800_000);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile_ns(q).unwrap();
            assert!((700_000..=800_000).contains(&v), "q={q} → {v}");
        }
    }

    #[test]
    fn overflow_bucket_quantile_uses_observed_max() {
        let mut b = [0u64; BUCKETS];
        b[BUCKETS - 1] = 4; // beyond the 10s ladder top
        let h = hist(b, 11_000_000_000, 12_000_000_000);
        let v = h.quantile_ns(0.99).unwrap();
        assert!((11_000_000_000..=12_000_000_000).contains(&v), "{v}");
        // With no max (a corrupt wire read) the bucket is open-ended up
        // to `u64::MAX`; the interpolated offset from this min rounds up
        // in `f64`, and the estimate must saturate, not overflow.
        let open = HistogramSnapshot {
            min_ns: Some(10_000_001_024),
            max_ns: None,
            ..h
        };
        assert_eq!(open.quantile_ns(1.0), Some(u64::MAX));
    }

    fn observed(ns: &[u64]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        ns.iter().for_each(|&ns| h.observe_ns(ns));
        h
    }

    #[test]
    fn plain_and_atomic_histograms_bucket_alike() {
        let _guard = crate::unit_test_lock();
        let values = [0, 1_000, 1_001, 777_777, 10_000_000_000, u64::MAX / 4];
        let atomic = Histogram::new();
        values.iter().for_each(|&ns| atomic.observe_ns(ns));
        let plain = observed(&values);
        assert_eq!(atomic.snapshot(), plain);
        assert_eq!((plain.min_ns, plain.max_ns), (Some(0), Some(u64::MAX / 4)));
    }

    #[test]
    fn merge_and_delta_are_inverse_on_counts_and_keep_bounds() {
        let (early, extra) = (observed(&[2_000, 3_000_000]), observed(&[40_000, 900]));
        let mut late = early.clone();
        late.merge(&extra);
        assert_eq!((late.min_ns, late.max_ns), (Some(900), Some(3_000_000)));
        // The delta's extremes are the later read's, which bound it.
        let delta = late.delta_since(&early);
        assert_eq!((delta.min_ns, delta.max_ns), (late.min_ns, late.max_ns));
        assert_eq!(
            (delta.buckets, delta.count, delta.sum_ns),
            (extra.buckets, 2, extra.sum_ns)
        );
        assert_eq!(early.delta_since(&early), HistogramSnapshot::default());
        let mut empty = HistogramSnapshot::default();
        empty.merge(&extra);
        assert_eq!(empty, extra);
    }
}
