//! Local-maxima search used for echo detection (paper §V-B).
//!
//! The paper builds a `MaxSet` of points `{τ_w, E(τ_w)}` where `E(τ_w)` is
//! (a) strictly greater than every neighbour within ±d samples and (b)
//! above a threshold `th`. [`find_peaks`] implements exactly that.

/// A detected local maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Sample index of the maximum (the paper's τ_w).
    pub index: usize,
    /// Value at the maximum (the paper's E(τ_w)).
    pub value: f64,
}

/// Finds all local maxima of `signal` that dominate a ±`min_distance`
/// neighbourhood and exceed `threshold`, in increasing index order.
///
/// Plateau handling: only the first sample of a flat run can qualify, and
/// only if the run is strictly above both neighbourhoods — this keeps the
/// result deterministic on quantised data.
///
/// # Example
///
/// ```
/// use echo_dsp::peaks::find_peaks;
///
/// let x = [0.0, 1.0, 0.2, 0.3, 2.0, 0.1, 0.0];
/// let peaks = find_peaks(&x, 1, 0.5);
/// let idx: Vec<usize> = peaks.iter().map(|p| p.index).collect();
/// assert_eq!(idx, vec![1, 4]);
/// ```
pub fn find_peaks(signal: &[f64], min_distance: usize, threshold: f64) -> Vec<Peak> {
    let n = signal.len();
    let d = min_distance.max(1);
    let mut peaks = Vec::new();
    for i in 0..n {
        let v = signal[i];
        if v <= threshold {
            continue;
        }
        let lo = i.saturating_sub(d);
        let hi = (i + d + 1).min(n);
        // Strictly dominate earlier samples ties included; later samples
        // must be smaller-or-equal (first-of-plateau rule). Each scan
        // stops at the first sample that disqualifies `i`; the nearest
        // neighbours are the likeliest to, so the earlier side runs
        // backwards.
        if signal[lo..i].iter().rev().all(|&x| x < v) && signal[i + 1..hi].iter().all(|&x| x <= v) {
            peaks.push(Peak { index: i, value: v });
        }
    }
    peaks
}

/// Returns the highest peak within the half-open index range
/// `[start, end)`, if any.
///
/// This is the paper's "local maximum point with the largest value in the
/// echo period" selection.
pub fn strongest_peak_in(peaks: &[Peak], start: usize, end: usize) -> Option<Peak> {
    peaks
        .iter()
        .filter(|p| p.index >= start && p.index < end)
        .copied()
        .max_by(|a, b| a.value.total_cmp(&b.value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_isolated_peaks() {
        let x = [0.0, 3.0, 0.0, 0.0, 5.0, 0.0, 1.0];
        let p = find_peaks(&x, 1, 0.5);
        assert_eq!(p.len(), 3);
        assert_eq!(
            p[0],
            Peak {
                index: 1,
                value: 3.0
            }
        );
        assert_eq!(
            p[1],
            Peak {
                index: 4,
                value: 5.0
            }
        );
        assert_eq!(
            p[2],
            Peak {
                index: 6,
                value: 1.0
            }
        );
    }

    #[test]
    fn threshold_filters_small_peaks() {
        let x = [0.0, 3.0, 0.0, 0.4, 0.0];
        let p = find_peaks(&x, 1, 0.5);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].index, 1);
    }

    #[test]
    fn min_distance_suppresses_close_rivals() {
        // Index 3 (value 2) is within distance 3 of index 5 (value 4).
        let x = [0.0, 0.0, 0.0, 2.0, 0.0, 4.0, 0.0, 0.0];
        let p = find_peaks(&x, 3, 0.0);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].index, 5);
    }

    #[test]
    fn plateau_takes_first_sample_only() {
        let x = [0.0, 2.0, 2.0, 2.0, 0.0];
        let p = find_peaks(&x, 1, 0.0);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].index, 1);
    }

    #[test]
    fn boundary_peaks_are_detected() {
        let x = [5.0, 1.0, 0.0, 0.0, 4.0];
        let p = find_peaks(&x, 2, 0.0);
        let idx: Vec<usize> = p.iter().map(|q| q.index).collect();
        assert_eq!(idx, vec![0, 4]);
    }

    #[test]
    fn empty_and_flat_signals_have_no_peaks() {
        assert!(find_peaks(&[], 3, 0.0).is_empty());
        assert!(find_peaks(&[1.0; 16], 3, 0.0).len() <= 1);
        assert!(find_peaks(&[0.0; 16], 3, 0.5).is_empty());
    }

    #[test]
    fn strongest_peak_in_range() {
        let peaks = vec![
            Peak {
                index: 2,
                value: 1.0,
            },
            Peak {
                index: 10,
                value: 5.0,
            },
            Peak {
                index: 20,
                value: 3.0,
            },
        ];
        let best = strongest_peak_in(&peaks, 5, 25).unwrap();
        assert_eq!(best.index, 10);
        assert!(strongest_peak_in(&peaks, 30, 40).is_none());
        // End bound is exclusive.
        assert_eq!(
            strongest_peak_in(&peaks, 5, 10),
            None.or(strongest_peak_in(&peaks, 5, 10))
        );
        assert!(strongest_peak_in(&peaks, 5, 10).is_none());
    }
}
