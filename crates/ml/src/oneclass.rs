//! One-class ν-SVM — the spoofer gate.
//!
//! The paper trains a Support Vector Domain Description (SVDD) on the
//! legitimate users' features alone and uses it to reject spoofers
//! (§V-E). We implement the Schölkopf one-class ν-SVM, which is the
//! standard practical realisation of SVDD (for the RBF kernel the two
//! formulations are equivalent): minimise `½ Σᵢⱼ αᵢαⱼK(xᵢ,xⱼ)` subject to
//! `0 ≤ αᵢ ≤ 1/(νn)`, `Σαᵢ = 1`, solved with pairwise coordinate updates
//! on the maximal violating pair.

use crate::kernel::Kernel;

const TOL: f64 = 1e-4;
const MAX_ITER_FACTOR: usize = 2_000;

/// A trained one-class SVM.
///
/// The decision function is `f(x) = Σ αᵢ k(xᵢ, x) − ρ`; `f(x) ≥ 0` means
/// `x` belongs to the training distribution (a legitimate user),
/// `f(x) < 0` flags an outlier (a spoofer).
///
/// # Example
///
/// ```
/// use echo_ml::oneclass::OneClassSvm;
/// use echo_ml::kernel::Kernel;
///
/// // Enrol a tight cluster near the origin.
/// let train: Vec<Vec<f64>> = (0..40)
///     .map(|i| vec![(i % 7) as f64 * 0.03, (i % 5) as f64 * 0.03])
///     .collect();
/// let svdd = OneClassSvm::train(&train, Kernel::Rbf { gamma: 1.0 }, 0.1);
/// assert!(svdd.is_inlier(&[0.1, 0.06]));
/// assert!(!svdd.is_inlier(&[5.0, 5.0]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OneClassSvm {
    support_vectors: Vec<Vec<f64>>,
    coefficients: Vec<f64>,
    rho: f64,
    kernel: Kernel,
}

impl OneClassSvm {
    /// Trains on one-class samples with outlier-fraction parameter
    /// `nu ∈ (0, 1]`: at most a fraction ν of the training data will fall
    /// outside the learned boundary.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or `nu` is outside `(0, 1]`.
    pub fn train(xs: &[Vec<f64>], kernel: Kernel, nu: f64) -> Self {
        assert!(!xs.is_empty(), "training set is empty");
        assert!(nu > 0.0 && nu <= 1.0, "nu must lie in (0, 1]");

        let n = xs.len();
        let upper = 1.0 / (nu * n as f64);
        let k = kernel.gram(xs);

        // Feasible start: α = 1/n (≤ upper since ν ≤ 1).
        let mut alpha = vec![1.0 / n as f64; n];
        // g_i = Σ_j α_j K_ij — the dual gradient.
        let mut g: Vec<f64> = (0..n)
            .map(|i| k[i].iter().sum::<f64>() / n as f64)
            .collect();

        let max_iter = MAX_ITER_FACTOR * n.max(100);
        for _ in 0..max_iter {
            // Maximal violating pair: raise α where g is smallest (α < U),
            // lower it where g is largest (α > 0).
            let mut i_best: Option<(usize, f64)> = None;
            let mut j_best: Option<(usize, f64)> = None;
            for t in 0..n {
                if alpha[t] < upper - 1e-15 && i_best.is_none_or(|(_, v)| g[t] < v) {
                    i_best = Some((t, g[t]));
                }
                if alpha[t] > 1e-15 && j_best.is_none_or(|(_, v)| g[t] > v) {
                    j_best = Some((t, g[t]));
                }
            }
            let ((i, gi), (j, gj)) = match (i_best, j_best) {
                (Some(a), Some(b)) => (a, b),
                _ => break,
            };
            if gj - gi < TOL || i == j {
                break;
            }
            let eta = k[i][i] + k[j][j] - 2.0 * k[i][j];
            if eta <= 1e-12 {
                break;
            }
            // Move δ from α_j to α_i (keeps Σα = 1).
            let delta = ((gj - gi) / eta).min(upper - alpha[i]).min(alpha[j]);
            if delta <= 1e-16 {
                break;
            }
            alpha[i] += delta;
            alpha[j] -= delta;
            for t in 0..n {
                g[t] += delta * (k[i][t] - k[j][t]);
            }
        }

        // ρ: the common value of g on free support vectors.
        let mut rho_sum = 0.0;
        let mut rho_count = 0usize;
        for t in 0..n {
            if alpha[t] > 1e-9 && alpha[t] < upper - 1e-9 {
                rho_sum += g[t];
                rho_count += 1;
            }
        }
        let rho = if rho_count > 0 {
            rho_sum / rho_count as f64
        } else {
            // All α at bounds: take the midpoint of the KKT interval.
            let hi = g
                .iter()
                .zip(&alpha)
                .filter(|(_, &a)| a > 1e-9)
                .map(|(&v, _)| v)
                .fold(f64::NEG_INFINITY, f64::max);
            let lo = g
                .iter()
                .zip(&alpha)
                .filter(|(_, &a)| a < upper - 1e-9)
                .map(|(&v, _)| v)
                .fold(f64::INFINITY, f64::min);
            if hi.is_finite() && lo.is_finite() {
                (hi + lo) / 2.0
            } else if hi.is_finite() {
                hi
            } else {
                lo
            }
        };

        let mut support_vectors = Vec::new();
        let mut coefficients = Vec::new();
        for t in 0..n {
            if alpha[t] > 1e-9 {
                support_vectors.push(xs[t].clone());
                coefficients.push(alpha[t]);
            }
        }
        OneClassSvm {
            support_vectors,
            coefficients,
            rho,
            kernel,
        }
    }

    /// The decision value `f(x) = Σ αᵢ k(xᵢ, x) − ρ`.
    pub fn decision(&self, x: &[f64]) -> f64 {
        self.support_vectors
            .iter()
            .zip(self.coefficients.iter())
            .map(|(sv, &c)| c * self.kernel.eval(sv, x))
            .sum::<f64>()
            - self.rho
    }

    /// `true` when `x` is accepted as belonging to the training class.
    pub fn is_inlier(&self, x: &[f64]) -> bool {
        self.decision(x) >= 0.0
    }

    /// Number of support vectors retained.
    pub fn num_support_vectors(&self) -> usize {
        self.support_vectors.len()
    }

    /// The retained support vectors, in training order.
    pub fn support_vectors(&self) -> &[Vec<f64>] {
        &self.support_vectors
    }

    /// The dual coefficients αᵢ, aligned with
    /// [`OneClassSvm::support_vectors`].
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// The decision offset ρ.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The kernel the model was trained with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Reassembles a model from its components (the inverse of the
    /// accessors above) — the template store's deserialization hook.
    /// `decision` on the result is bit-identical to the original model's
    /// when the parts are preserved exactly.
    ///
    /// # Panics
    ///
    /// Panics if `support_vectors` and `coefficients` disagree in
    /// length.
    pub fn from_parts(
        support_vectors: Vec<Vec<f64>>,
        coefficients: Vec<f64>,
        rho: f64,
        kernel: Kernel,
    ) -> Self {
        assert_eq!(
            support_vectors.len(),
            coefficients.len(),
            "support vectors and coefficients disagree in length"
        );
        OneClassSvm {
            support_vectors,
            coefficients,
            rho,
            kernel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(cx: f64, cy: f64, n: usize, spread: f64, salt: u64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(salt);
                let a = ((h & 0xFFFF) as f64 / 65536.0 - 0.5) * 2.0 * spread;
                let b = (((h >> 16) & 0xFFFF) as f64 / 65536.0 - 0.5) * 2.0 * spread;
                vec![cx + a, cy + b]
            })
            .collect()
    }

    #[test]
    fn accepts_training_region_rejects_far_points() {
        let train = cluster(0.0, 0.0, 60, 0.5, 1);
        let oc = OneClassSvm::train(&train, Kernel::Rbf { gamma: 1.0 }, 0.05);
        assert!(oc.is_inlier(&[0.0, 0.0]));
        assert!(oc.is_inlier(&[0.2, -0.2]));
        assert!(!oc.is_inlier(&[4.0, 4.0]));
        assert!(!oc.is_inlier(&[-3.0, 2.5]));
    }

    #[test]
    fn nu_bounds_training_outlier_fraction() {
        let train = cluster(0.0, 0.0, 100, 1.0, 2);
        for nu in [0.05, 0.2, 0.5] {
            let oc = OneClassSvm::train(&train, Kernel::Rbf { gamma: 0.5 }, nu);
            let rejected = train.iter().filter(|x| !oc.is_inlier(x)).count();
            let frac = rejected as f64 / train.len() as f64;
            // ν is an upper bound on training rejections (allow slack for
            // boundary ties).
            assert!(frac <= nu + 0.08, "nu={nu}: rejected {frac}");
        }
    }

    #[test]
    fn decision_decreases_with_distance_from_cluster() {
        let train = cluster(0.0, 0.0, 50, 0.4, 3);
        let oc = OneClassSvm::train(&train, Kernel::Rbf { gamma: 1.0 }, 0.1);
        let d0 = oc.decision(&[0.0, 0.0]);
        let d1 = oc.decision(&[1.0, 0.0]);
        let d2 = oc.decision(&[2.5, 0.0]);
        assert!(d0 > d1, "{d0} vs {d1}");
        assert!(d1 > d2, "{d1} vs {d2}");
    }

    #[test]
    fn two_enrolled_clusters_are_both_accepted() {
        // The multi-user SVDD gate trains on *all* legitimate users'
        // data; both clusters must be inliers.
        let mut train = cluster(-2.0, 0.0, 40, 0.4, 4);
        train.extend(cluster(2.0, 0.0, 40, 0.4, 5));
        let oc = OneClassSvm::train(&train, Kernel::Rbf { gamma: 1.5 }, 0.08);
        assert!(oc.is_inlier(&[-2.0, 0.1]));
        assert!(oc.is_inlier(&[2.1, 0.0]));
        // The midpoint between the clusters is outside the support.
        assert!(!oc.is_inlier(&[0.0, 0.0]));
        assert!(!oc.is_inlier(&[0.0, 4.0]));
    }

    #[test]
    fn training_is_deterministic() {
        let train = cluster(1.0, -1.0, 30, 0.3, 6);
        let a = OneClassSvm::train(&train, Kernel::Rbf { gamma: 1.0 }, 0.1);
        let b = OneClassSvm::train(&train, Kernel::Rbf { gamma: 1.0 }, 0.1);
        assert_eq!(a, b);
    }

    #[test]
    fn single_sample_trains() {
        let oc = OneClassSvm::train(&[vec![1.0, 1.0]], Kernel::Rbf { gamma: 1.0 }, 0.5);
        assert!(oc.is_inlier(&[1.0, 1.0]));
        assert!(!oc.is_inlier(&[9.0, 9.0]));
    }

    #[test]
    #[should_panic(expected = "nu must lie")]
    fn invalid_nu_rejected() {
        let _ = OneClassSvm::train(&[vec![0.0]], Kernel::Linear, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_training_set_rejected() {
        let _ = OneClassSvm::train(&[], Kernel::Linear, 0.5);
    }
}
