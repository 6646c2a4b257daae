//! Order statistics for latency samples.

/// Fewest samples a reported tail percentile must leave beyond it.
const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first, in parts per thousand.
const TAILS: [(&str, usize); 3] = [("p99.9", 999), ("p99", 990), ("p90", 900)];

/// Nearest-rank quantile of ascending `sorted` for `per_mille`/1000:
/// the smallest sample with at least that share of samples at or below
/// it. Integer ranks keep the choice exact (`0.99 × 1000` in floating
/// point can round past 990).
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

/// The nearest-rank `per_mille`/1000 quantile of ascending `sorted`,
/// 0 for no samples.
pub fn quantile(sorted: &[f64], per_mille: usize) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted[rank(sorted.len(), per_mille) - 1]
    }
}

/// The median (lower middle for even counts) of ascending `sorted`.
pub fn median(sorted: &[f64]) -> f64 {
    quantile(sorted, 500)
}

/// A tail percentile and how well the sample supports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    pub label: &'static str,
    pub value: f64,
    /// Samples ranked after the percentile.
    pub beyond: usize,
    pub samples: usize,
}

/// The highest of p99.9, p99 and p90 that leaves at least
/// [`MIN_BEYOND`] samples beyond it, considering only percentiles up to
/// `highest` per mille. Below 100 samples even p90 cannot, and p90 is
/// returned with its short count so the output shows it.
pub fn tail(sorted: &[f64], highest: usize) -> Tail {
    let n = sorted.len();
    let pick = |&(label, per_mille): &(&'static str, usize)| {
        let r = rank(n, per_mille);
        Tail {
            label,
            value: sorted[r - 1],
            beyond: n - r,
            samples: n,
        }
    };
    TAILS
        .iter()
        .filter(|(_, per_mille)| *per_mille <= highest)
        .map(pick)
        .find(|t| t.beyond >= MIN_BEYOND)
        .unwrap_or_else(|| pick(&TAILS[2]))
}

/// Ascending copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Each input's fastest repeat. `samples` are `(input, value)` pairs
/// with inputs below `inputs`; the result has one value per input that
/// ran, in input order. The fastest of many repeats spread over a run
/// is the input's cost with the host's noise filtered out; a failed
/// repeat (infinite) makes its input's value infinite, so a failure is
/// never hidden by a faster repeat.
pub fn best_per_input(samples: &[(usize, f64)], inputs: usize) -> Vec<f64> {
    let mut best: Vec<Option<f64>> = vec![None; inputs];
    let mut failed = vec![false; inputs];
    for &(k, v) in samples {
        failed[k] |= v.is_infinite();
        best[k] = Some(best[k].map_or(v, |b| b.min(v)));
    }
    best.iter()
        .zip(&failed)
        .filter_map(|(b, &f)| b.map(|b| if f { f64::INFINITY } else { b }))
        .collect()
}

/// Each input's latency relative to the median input's, from whole
/// cycles over `inputs` inputs visited in a fixed order (`latencies[i]`
/// is input `i % inputs`; a trailing part cycle is ignored). Inputs a
/// cycle apart meet about the same host, so a latency over its cycle's
/// median is the input's relative cost even while the host is slowed.
/// Each input's value is its median over the cycles after the first,
/// whose caches start cold (the first alone when there is no other).
pub fn relative_cost_per_input(latencies: &[f64], inputs: usize) -> Vec<f64> {
    let cycles: Vec<&[f64]> = latencies.chunks_exact(inputs).collect();
    let warm = if cycles.len() > 1 {
        &cycles[1..]
    } else {
        &cycles[..]
    };
    if warm.is_empty() {
        return Vec::new();
    }
    let medians: Vec<f64> = warm.iter().map(|c| median(&sorted(c))).collect();
    (0..inputs)
        .map(|k| {
            let ratios: Vec<f64> = warm.iter().zip(&medians).map(|(c, m)| c[k] / m).collect();
            median(&sorted(&ratios))
        })
        .collect()
}

/// Medians of `samples`, in time order, cut into consecutive windows of
/// about `window` samples each (one window when there are fewer).
pub fn window_medians(samples: &[f64], window: usize) -> Vec<f64> {
    let n = samples.len();
    let windows = (n / window.max(1)).max(1);
    (0..windows)
        .map(|i| median(&sorted(&samples[i * n / windows..(i + 1) * n / windows])))
        .collect()
}

/// Arithmetic mean, 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99.9 leaves 1, p99 leaves exactly 10.
        let t = tail(&ramp(1000), 999);
        assert_eq!(
            (t.label, t.value, t.beyond, t.samples),
            ("p99", 990.0, 10, 1000)
        );
        // 999 samples: p99 leaves 9, so p90.
        let t = tail(&ramp(999), 999);
        assert_eq!((t.label, t.beyond), ("p90", 99));
        // 10 000 samples: p99.9 leaves exactly 10.
        let t = tail(&ramp(10_000), 999);
        assert_eq!((t.label, t.value, t.beyond), ("p99.9", 9990.0, 10));
        // 2000 samples (a 20 s serve_sparse run): p99, 20 beyond.
        assert_eq!(tail(&ramp(2000), 999).beyond, 20);
        // A cap keeps a closed loop on one percentile as it speeds up.
        assert_eq!(tail(&ramp(10_000), 900).label, "p90");
        // 100 samples: p90 leaves exactly 10.
        let t = tail(&ramp(100), 999);
        assert_eq!((t.label, t.value, t.beyond), ("p90", 90.0, 10));
    }

    #[test]
    fn tail_falls_back_to_p90_and_shows_the_short_count() {
        let t = tail(&ramp(40), 999);
        assert_eq!((t.label, t.value, t.beyond), ("p90", 36.0, 4));
        let t = tail(&[5.0], 999);
        assert_eq!((t.label, t.value, t.beyond), ("p90", 5.0, 0));
    }

    #[test]
    fn best_per_input_keeps_each_inputs_fastest_repeat() {
        let samples = [(0, 5.0), (1, 9.0), (0, 4.0), (1, 7.0), (0, 6.0), (3, 2.0)];
        assert_eq!(best_per_input(&samples, 4), vec![4.0, 7.0, 2.0]);
        // A failed repeat is not hidden by a faster one.
        let failed = [(0, 5.0), (0, f64::INFINITY), (1, 3.0)];
        assert_eq!(best_per_input(&failed, 2), vec![f64::INFINITY, 3.0]);
        assert!(best_per_input(&[], 3).is_empty());
    }

    #[test]
    fn relative_cost_cancels_a_slowdown_shared_by_a_cycle() {
        // Three inputs costing 1, 2 and 4; the second cycle runs at half
        // speed and the cold first cycle is skipped.
        let lat = [
            9.0, 9.0, 9.0, 1.0, 2.0, 4.0, 2.0, 4.0, 8.0, 1.0, 2.0, 4.0, 1.0,
        ];
        assert_eq!(relative_cost_per_input(&lat, 3), vec![0.5, 1.0, 2.0]);
        // One whole cycle is used as it is; none gives nothing.
        assert_eq!(relative_cost_per_input(&lat[..3], 3), vec![1.0, 1.0, 1.0]);
        assert!(relative_cost_per_input(&lat[..2], 3).is_empty());
    }

    #[test]
    fn window_medians_cover_every_sample() {
        // 10 samples in windows of about 3: three windows of 3, 3 and 4.
        let xs = [1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0, 0.0];
        assert_eq!(window_medians(&xs, 3), vec![2.0, 7.0, 4.0]);
        assert_eq!(window_medians(&xs[..2], 3), vec![1.0]);
        assert_eq!(window_medians(&ramp(4500), 250).len(), 18);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&ramp(5)), 3.0);
        assert_eq!(median(&ramp(4)), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!((ratio(3, 4), ratio(3, 0)), (0.75, 0.0));
        assert_eq!(quantile(&ramp(200), 990), 198.0);
        assert_eq!(quantile(&[], 990), 0.0);
        assert_eq!(sorted(&[3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }
}
