//! A tiny deterministic quantile sketch for windowed score telemetry.
//!
//! The drift watch needs a compact summary of gate-margin and
//! spatial-coherence distributions that (a) merges across epoch
//! buckets, (b) yields quantiles, and (c) is **bit-identical across
//! thread counts** like every other `echo-obs` structure. Streaming
//! sketches with randomised or insertion-order-dependent compaction
//! (GK, KLL, t-digest) fail (c): two runs that observe the same
//! multiset in different orders produce different summaries.
//!
//! So this sketch is the boring thing that cannot be order-dependent:
//! a **fixed 64-bin histogram on an asinh-compressed axis**. `asinh`
//! behaves like `ln(2x)` for large `|x|` and like `x` near zero, so
//! one fixed grid resolves both the sub-0.1 gate margins near the
//! decision boundary and multi-unit outliers, for either sign, with no
//! per-distribution tuning. Bin contents are integer counts; inserting
//! is a pure function of the value; merging adds counts — determinism
//! is structural, not defended by tests alone (though it is also
//! pinned by `window_determinism`).
//!
//! The same fixed binning makes the population-stability-index
//! divergence ([`psi`]) between two sketches well defined: both sides
//! share bin edges by construction.

/// Number of bins in every [`Sketch`]. Fixed so sketches are always
/// mergeable and PSI-comparable.
pub const SKETCH_BINS: usize = 64;

/// Half-width of the compressed domain: values map through
/// `asinh(v * SCALE)` clamped to `[-RANGE, RANGE]`. `asinh(8·x) = 6`
/// at `x ≈ 25.2`, so scores beyond ±25 land in the edge bins.
const RANGE: f64 = 6.0;

/// Pre-compression scale. Gate margins cluster in `[-1, 1]`;
/// multiplying by 8 before `asinh` spends ~half the bins on that
/// interval.
const SCALE: f64 = 8.0;

/// A fixed-bin, order-independent quantile sketch over `f64` scores.
///
/// Insert with [`Sketch::add`], combine with [`Sketch::merge`], read
/// with [`Sketch::quantile`]. Non-finite values are counted in
/// [`Sketch::count`] via dedicated clamping (NaN is treated as `0.0`;
/// infinities clamp to the edge bins) so a poisoned score cannot
/// silently vanish from the population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sketch {
    bins: [u64; SKETCH_BINS],
    count: u64,
}

impl Default for Sketch {
    fn default() -> Self {
        Self::new()
    }
}

impl Sketch {
    /// An empty sketch.
    pub const fn new() -> Self {
        Self {
            bins: [0; SKETCH_BINS],
            count: 0,
        }
    }

    /// The bin index for `value` — a pure function of the value.
    fn bin_of(value: f64) -> usize {
        let v = if value.is_nan() { 0.0 } else { value };
        let t = (v * SCALE).asinh().clamp(-RANGE, RANGE);
        // t ∈ [-RANGE, RANGE] → [0, SKETCH_BINS); the upper clamp keeps
        // t == RANGE inside the last bin.
        let idx = ((t + RANGE) / (2.0 * RANGE) * SKETCH_BINS as f64).floor() as usize;
        idx.min(SKETCH_BINS - 1)
    }

    /// The lower edge of bin `i` back on the value axis.
    fn edge(i: usize) -> f64 {
        let t = -RANGE + 2.0 * RANGE * (i as f64) / (SKETCH_BINS as f64);
        t.sinh() / SCALE
    }

    /// Records one observation.
    pub fn add(&mut self, value: f64) {
        self.bins[Self::bin_of(value)] += 1;
        self.count += 1;
    }

    /// Adds every count of `other` into `self`. Order-independent:
    /// `a.merge(&b)` equals `b.merge(&a)` bin for bin.
    pub fn merge(&mut self, other: &Sketch) {
        for (dst, src) in self.bins.iter_mut().zip(other.bins.iter()) {
            *dst += src;
        }
        self.count += other.count;
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Raw bin counts — the deterministic fingerprint of the sketch.
    pub fn bins(&self) -> &[u64; SKETCH_BINS] {
        &self.bins
    }

    /// Rebuilds a sketch from raw bin counts (wire decode).
    pub fn from_bins(bins: [u64; SKETCH_BINS]) -> Self {
        let count = bins.iter().sum();
        Self { bins, count }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), interpolated linearly within
    /// the containing bin. `None` when the sketch is empty. The result
    /// is approximate (bin-resolution) but deterministic: a pure
    /// function of the bin counts.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Fractional target rank `q·(count−1)` on [0, count−1],
        // interpolated inside the bin that holds it. (The latency
        // histogram's `quantile_ns` differs: it takes the nearest rank
        // `⌈q·count⌉`.)
        let rank = q * (self.count - 1) as f64;
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo_rank = seen as f64;
            let hi_rank = (seen + c - 1) as f64;
            if rank <= hi_rank {
                let lo = Self::edge(i);
                let hi = Self::edge(i + 1);
                let frac = if c > 1 {
                    ((rank - lo_rank) / (hi_rank - lo_rank + 1.0)).clamp(0.0, 1.0)
                } else {
                    0.5
                };
                return Some(lo + (hi - lo) * frac);
            }
            seen += c;
        }
        // rank beyond the last populated bin (q == 1.0 rounding):
        // return the upper edge of the last populated bin.
        let last = self.bins.iter().rposition(|&c| c > 0)?;
        Some(Self::edge(last + 1))
    }
}

/// Population Stability Index between a `reference` and a `live`
/// sketch: `Σ (pᵢ − qᵢ) · ln(pᵢ / qᵢ)` over the shared bins, with a
/// small Laplace smoothing (`eps = 1e-3` pseudo-counts per bin) so
/// empty bins on either side stay finite. The epsilon is deliberately
/// tiny: larger pseudo-counts bias the score upward whenever the two
/// sides have very different populations sizes (a 32-decision live
/// window against a 10k-sample reference would read as drift).
/// Conventional reading: `< 0.1` stable, `0.1 – 0.25` moderate shift,
/// `> 0.25` major shift.
///
/// Returns `None` when either side is empty — "no data" must be
/// distinguishable from "no drift".
pub fn psi(reference: &Sketch, live: &Sketch) -> Option<f64> {
    if reference.count == 0 || live.count == 0 {
        return None;
    }
    const EPS: f64 = 1e-3;
    let ref_total = reference.count as f64 + EPS * SKETCH_BINS as f64;
    let live_total = live.count as f64 + EPS * SKETCH_BINS as f64;
    let mut score = 0.0;
    for i in 0..SKETCH_BINS {
        let p = (reference.bins[i] as f64 + EPS) / ref_total;
        let q = (live.bins[i] as f64 + EPS) / live_total;
        score += (p - q) * (p / q).ln();
    }
    Some(score)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: &[f64]) -> Sketch {
        let mut s = Sketch::new();
        for &v in values {
            s.add(v);
        }
        s
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = Sketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(psi(&s, &s), None);
    }

    #[test]
    fn insertion_order_is_irrelevant() {
        let forward = filled(&[-0.4, -0.1, 0.0, 0.05, 0.3, 2.0, -7.5]);
        let backward = filled(&[-7.5, 2.0, 0.3, 0.05, 0.0, -0.1, -0.4]);
        assert_eq!(forward, backward);
    }

    #[test]
    fn merge_matches_bulk_insert() {
        let a = filled(&[0.1, 0.2, -0.3]);
        let b = filled(&[0.4, -0.5]);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, filled(&[0.1, 0.2, -0.3, 0.4, -0.5]));
        let mut other_way = b.clone();
        other_way.merge(&a);
        assert_eq!(merged, other_way);
    }

    #[test]
    fn quantiles_are_ordered_and_in_range() {
        let values: Vec<f64> = (0..500).map(|i| (i as f64 - 250.0) * 0.004).collect();
        let s = filled(&values);
        let p10 = s.quantile(0.1).unwrap();
        let p50 = s.quantile(0.5).unwrap();
        let p99 = s.quantile(0.99).unwrap();
        assert!(p10 < p50 && p50 < p99, "{p10} {p50} {p99}");
        // Values span [-1, 1]; quantiles must land near the data, and
        // the median of a symmetric population near zero.
        assert!(p50.abs() < 0.1, "median {p50}");
        assert!((-1.2..=1.2).contains(&p10));
        assert!((-1.2..=1.2).contains(&p99));
    }

    #[test]
    fn extreme_values_land_in_edge_bins() {
        let s = filled(&[f64::NEG_INFINITY, -1e9, 1e9, f64::INFINITY, f64::NAN]);
        assert_eq!(s.count(), 5);
        assert_eq!(s.bins()[0], 2);
        assert_eq!(s.bins()[SKETCH_BINS - 1], 2);
        // NaN is clamped to 0.0, which lands in the middle of the grid.
        let nan_bin = s
            .bins()
            .iter()
            .enumerate()
            .find(|(i, &c)| c > 0 && *i != 0 && *i != SKETCH_BINS - 1)
            .map(|(i, _)| i)
            .unwrap();
        assert!((SKETCH_BINS / 2 - 1..=SKETCH_BINS / 2).contains(&nan_bin));
    }

    #[test]
    fn from_bins_round_trips() {
        let s = filled(&[0.1, -0.2, 0.3, 4.0]);
        let rebuilt = Sketch::from_bins(*s.bins());
        assert_eq!(rebuilt, s);
        assert_eq!(rebuilt.count(), 4);
    }

    #[test]
    fn psi_detects_shift_and_tolerates_identity() {
        let base: Vec<f64> = (0..400).map(|i| 0.2 + (i % 37) as f64 * 0.01).collect();
        let same = filled(&base);
        let shifted = filled(&base.iter().map(|v| v - 0.6).collect::<Vec<_>>());
        let none = psi(&same, &same).unwrap();
        let big = psi(&same, &shifted).unwrap();
        assert!(none.abs() < 1e-12, "identical populations: {none}");
        assert!(big > 0.25, "shifted population must alarm: {big}");
    }

    #[test]
    fn psi_is_finite_with_disjoint_support() {
        let lo = filled(&[-0.9; 50]);
        let hi = filled(&[0.9; 50]);
        let v = psi(&lo, &hi).unwrap();
        assert!(v.is_finite() && v > 0.25, "{v}");
    }
}
