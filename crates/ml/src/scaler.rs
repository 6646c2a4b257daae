//! Per-feature standardisation.
//!
//! SVMs with RBF kernels need comparably scaled features; the scaler is
//! fit on enrolment data and applied to every authentication query.

/// A fitted per-feature standardiser: `x → (x − μ) / σ`.
///
/// Features with zero variance pass through centred (σ treated as 1).
///
/// # Example
///
/// ```
/// use echo_ml::StandardScaler;
///
/// let data = vec![vec![1.0, 10.0], vec![3.0, 10.0]];
/// let scaler = StandardScaler::fit(&data);
/// let t = scaler.transform(&[2.0, 10.0]);
/// assert!(t[0].abs() < 1e-12);   // the mean maps to zero
/// assert!(t[1].abs() < 1e-12);   // constant feature: centred, not scaled
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Centers per feature but scales by one *global* standard deviation
    /// (the RMS of the per-feature deviations).
    ///
    /// Per-feature scaling equalises every dimension's variance — which
    /// inflates noise-only dimensions and destroys the distance contrast
    /// a kernel method relies on. Global scaling preserves the relative
    /// information content of each dimension while still normalising the
    /// overall feature magnitude.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or rows have unequal lengths.
    pub fn fit_global(data: &[Vec<f64>]) -> Self {
        let mut s = Self::fit(data);
        let mean_var = s.stds.iter().map(|v| v * v).sum::<f64>() / s.stds.len().max(1) as f64;
        let global = mean_var.sqrt().max(1e-12);
        for v in &mut s.stds {
            *v = global;
        }
        s
    }

    /// Fits means and standard deviations on `data` (rows = samples).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or rows have unequal lengths.
    pub fn fit(data: &[Vec<f64>]) -> Self {
        assert!(!data.is_empty(), "cannot fit a scaler on no data");
        let d = data[0].len();
        assert!(
            data.iter().all(|r| r.len() == d),
            "rows must have equal lengths"
        );
        let n = data.len() as f64;
        let mut means = vec![0.0; d];
        for row in data {
            for (m, &x) in means.iter_mut().zip(row) {
                *m += x;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; d];
        for row in data {
            for ((v, &x), &m) in vars.iter_mut().zip(row).zip(&means) {
                *v += (x - m) * (x - m);
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        StandardScaler { means, stds }
    }

    /// Number of features.
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// Per-feature means subtracted by [`StandardScaler::transform`].
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-feature divisors applied by [`StandardScaler::transform`]
    /// (all equal after [`StandardScaler::fit_global`]).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Reassembles a scaler from its components — the template store's
    /// deserialization hook. `transform` on the result is bit-identical
    /// to the original scaler's when the parts are preserved exactly.
    ///
    /// # Panics
    ///
    /// Panics if `means` and `stds` disagree in length or are empty.
    pub fn from_parts(means: Vec<f64>, stds: Vec<f64>) -> Self {
        assert_eq!(means.len(), stds.len(), "means/stds length mismatch");
        assert!(!means.is_empty(), "scaler needs at least one feature");
        StandardScaler { means, stds }
    }

    /// Standardises one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim(), "feature length mismatch");
        x.iter()
            .zip(self.means.iter().zip(self.stds.iter()))
            .map(|(&v, (&m, &s))| (v - m) / s)
            .collect()
    }

    /// Standardises a batch of samples.
    pub fn transform_batch(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        xs.iter().map(|x| self.transform(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transformed_data_has_zero_mean_unit_variance() {
        let data: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, 100.0 - 2.0 * i as f64])
            .collect();
        let scaler = StandardScaler::fit(&data);
        let t = scaler.transform_batch(&data);
        for j in 0..2 {
            let mean: f64 = t.iter().map(|r| r[j]).sum::<f64>() / 50.0;
            let var: f64 = t.iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / 50.0;
            assert!(mean.abs() < 1e-9, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-9, "var {var}");
        }
    }

    #[test]
    fn constant_features_are_centred_not_scaled() {
        let data = vec![vec![5.0], vec![5.0], vec![5.0]];
        let scaler = StandardScaler::fit(&data);
        assert_eq!(scaler.transform(&[5.0]), vec![0.0]);
        assert_eq!(scaler.transform(&[6.0]), vec![1.0]);
    }

    #[test]
    fn transform_is_affine() {
        let data = vec![vec![0.0], vec![10.0]];
        let scaler = StandardScaler::fit(&data);
        let a = scaler.transform(&[2.0])[0];
        let b = scaler.transform(&[4.0])[0];
        let c = scaler.transform(&[6.0])[0];
        assert!((c - b - (b - a)).abs() < 1e-12, "equal spacing preserved");
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn empty_fit_panics() {
        let _ = StandardScaler::fit(&[]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_dim_transform_panics() {
        let scaler = StandardScaler::fit(&[vec![1.0, 2.0]]);
        let _ = scaler.transform(&[1.0]);
    }
}
