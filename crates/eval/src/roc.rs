//! ROC / EER analysis of the spoofer gate.
//!
//! The paper reports threshold-at-zero metrics only; sweeping the gate's
//! decision threshold gives the full trade-off curve (an extension, and
//! standard practice for biometric systems).

/// One operating point of the gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Decision threshold.
    pub threshold: f64,
    /// False accept rate (impostors passing) at this threshold.
    pub far: f64,
    /// False reject rate (genuine users failing) at this threshold.
    pub frr: f64,
}

echo_obs::json_object!(RocPoint {
    threshold,
    far,
    frr
});

/// A full ROC sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RocCurve {
    /// Operating points, ordered by increasing threshold.
    pub points: Vec<RocPoint>,
    /// Equal error rate (where FAR ≈ FRR).
    pub eer: f64,
    /// Threshold achieving the EER.
    pub eer_threshold: f64,
    /// Area under the ROC curve (1.0 = perfect separation).
    pub auc: f64,
}

echo_obs::json_object!(RocCurve {
    points,
    eer,
    eer_threshold,
    auc
});

/// Sweeps every distinct score as a threshold over genuine and impostor
/// gate scores (higher = more genuine).
///
/// The sweep covers both curve endpoints: the lowest observed score
/// accepts everything — (FAR, FRR) = (1, 0) — and a sentinel threshold
/// just past the highest score rejects everything — (FAR, FRR) =
/// (0, 1). Without the sentinel the curve would stop at the last
/// observed score, which still accepts at least one sample, so the
/// (0, 1) corner every ROC is defined to reach would be missing and
/// trapezoidal integrations over the points would come up short.
///
/// # Panics
///
/// Panics if either score list is empty.
pub fn roc_curve(genuine: &[f64], impostor: &[f64]) -> RocCurve {
    assert!(
        !genuine.is_empty() && !impostor.is_empty(),
        "ROC needs both genuine and impostor scores"
    );
    let mut thresholds: Vec<f64> = genuine.iter().chain(impostor.iter()).copied().collect();
    thresholds.sort_by(f64::total_cmp);
    thresholds.dedup();
    // Finite sentinel (not f64::INFINITY — the curve is serialised, and
    // JSON has no infinity) strictly above the maximum score.
    if let Some(&max) = thresholds.last() {
        let sentinel = max.next_up();
        if sentinel > max && sentinel.is_finite() {
            thresholds.push(sentinel);
        }
    }

    let mut points = Vec::with_capacity(thresholds.len());
    let mut eer = 1.0;
    let mut eer_threshold = 0.0;
    let mut best_gap = f64::INFINITY;
    for &t in &thresholds {
        let far = impostor.iter().filter(|&&s| s >= t).count() as f64 / impostor.len() as f64;
        let frr = genuine.iter().filter(|&&s| s < t).count() as f64 / genuine.len() as f64;
        let gap = (far - frr).abs();
        if gap < best_gap {
            best_gap = gap;
            eer = (far + frr) / 2.0;
            eer_threshold = t;
        }
        points.push(RocPoint {
            threshold: t,
            far,
            frr,
        });
    }

    // AUC via the probability interpretation: P(genuine > impostor)
    // (+½ for ties).
    let mut wins = 0.0;
    for &g in genuine {
        for &i in impostor {
            if g > i {
                wins += 1.0;
            } else if g == i {
                wins += 0.5;
            }
        }
    }
    let auc = wins / (genuine.len() * impostor.len()) as f64;

    RocCurve {
        points,
        eer,
        eer_threshold,
        auc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_separation_has_zero_eer_unit_auc() {
        let genuine = [1.0, 2.0, 3.0];
        let impostor = [-3.0, -2.0, -1.0];
        let roc = roc_curve(&genuine, &impostor);
        assert_eq!(roc.auc, 1.0);
        assert!(roc.eer < 1e-9);
        // A threshold between the populations separates them.
        assert!(roc.eer_threshold > -1.0 && roc.eer_threshold <= 1.0);
    }

    #[test]
    fn random_scores_have_half_auc() {
        // Interleaved identical distributions.
        let genuine: Vec<f64> = (0..50).map(|i| (i % 10) as f64).collect();
        let impostor: Vec<f64> = (0..50).map(|i| ((i + 5) % 10) as f64).collect();
        let roc = roc_curve(&genuine, &impostor);
        assert!((roc.auc - 0.5).abs() < 0.05, "auc {}", roc.auc);
        assert!(roc.eer > 0.3 && roc.eer < 0.7, "eer {}", roc.eer);
    }

    #[test]
    fn far_and_frr_are_monotone_in_threshold() {
        let genuine = [0.5, 1.0, 1.5, 2.0];
        let impostor = [-1.0, 0.0, 0.7, 1.2];
        let roc = roc_curve(&genuine, &impostor);
        for w in roc.points.windows(2) {
            assert!(w[1].far <= w[0].far, "FAR must fall as threshold rises");
            assert!(w[1].frr >= w[0].frr, "FRR must rise as threshold rises");
        }
    }

    #[test]
    fn overlapping_distributions_give_intermediate_eer() {
        let genuine = [0.0, 0.5, 1.0, 1.5, 2.0];
        let impostor = [-1.0, -0.5, 0.0, 0.5, 1.0];
        let roc = roc_curve(&genuine, &impostor);
        assert!(roc.eer > 0.05 && roc.eer < 0.5, "eer {}", roc.eer);
        assert!(roc.auc > 0.5 && roc.auc < 1.0, "auc {}", roc.auc);
    }

    #[test]
    #[should_panic(expected = "ROC needs")]
    fn empty_scores_panic() {
        let _ = roc_curve(&[], &[1.0]);
    }

    #[test]
    fn curve_reaches_both_endpoints() {
        // Regression: the sweep used to stop at the highest observed
        // score, which still accepts that score's sample — the (0, 1)
        // corner was never emitted.
        let genuine = [0.5, 1.0, 2.0];
        let impostor = [-1.0, 0.0, 0.8];
        let roc = roc_curve(&genuine, &impostor);
        let first = roc.points.first().unwrap();
        assert_eq!((first.far, first.frr), (1.0, 0.0), "accept-all endpoint");
        let last = roc.points.last().unwrap();
        assert_eq!((last.far, last.frr), (0.0, 1.0), "reject-all endpoint");
        assert!(last.threshold.is_finite(), "sentinel must serialise");
        assert!(last.threshold > 2.0);
    }
}
