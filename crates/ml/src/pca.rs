//! Principal component analysis.
//!
//! An ablation tool: projecting the CNN embeddings onto their leading
//! principal components before the SVM measures how much of the
//! biometric lives in a low-dimensional subspace (and speeds kernel
//! evaluations up).

/// A fitted PCA projection.
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    mean: Vec<f64>,
    /// `components[k]` is the k-th principal axis (unit norm).
    components: Vec<Vec<f64>>,
    /// Variance captured by each component, descending.
    explained_variance: Vec<f64>,
}

impl Pca {
    /// Fits `num_components` principal axes to `data` (rows = samples).
    ///
    /// Uses cyclic Jacobi on the covariance matrix — exact and plenty
    /// fast for feature dimensions in the hundreds.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, ragged, or `num_components` is zero or
    /// exceeds the feature dimension.
    #[allow(clippy::needless_range_loop)] // symmetric-matrix index pairs read as maths
    pub fn fit(data: &[Vec<f64>], num_components: usize) -> Self {
        assert!(!data.is_empty(), "cannot fit PCA on no data");
        let d = data[0].len();
        assert!(data.iter().all(|r| r.len() == d), "ragged data");
        assert!(
            num_components > 0 && num_components <= d,
            "component count must lie in 1..=dim"
        );

        let n = data.len() as f64;
        let mut mean = vec![0.0; d];
        for row in data {
            for (m, &x) in mean.iter_mut().zip(row) {
                *m += x;
            }
        }
        mean.iter_mut().for_each(|m| *m /= n);

        // Covariance (symmetric d×d).
        let mut cov = vec![vec![0.0f64; d]; d];
        for row in data {
            let centred: Vec<f64> = row.iter().zip(&mean).map(|(x, m)| x - m).collect();
            for i in 0..d {
                if centred[i] == 0.0 {
                    continue;
                }
                for j in i..d {
                    cov[i][j] += centred[i] * centred[j];
                }
            }
        }
        for i in 0..d {
            for j in i..d {
                cov[i][j] /= n;
                cov[j][i] = cov[i][j];
            }
        }

        let (values, vectors) = jacobi_symmetric(&mut cov);
        // Sort descending by eigenvalue.
        let mut order: Vec<usize> = (0..d).collect();
        order.sort_by(|&a, &b| values[b].total_cmp(&values[a]));

        let components: Vec<Vec<f64>> = order[..num_components]
            .iter()
            .map(|&k| (0..d).map(|i| vectors[i][k]).collect())
            .collect();
        let explained_variance = order[..num_components]
            .iter()
            .map(|&k| values[k].max(0.0))
            .collect();
        Pca {
            mean,
            components,
            explained_variance,
        }
    }

    /// Number of components retained.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Variance captured by each retained component, descending.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Projects one sample onto the retained components.
    ///
    /// # Panics
    ///
    /// Panics if the dimension does not match.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        let centred: Vec<f64> = x.iter().zip(&self.mean).map(|(v, m)| v - m).collect();
        self.components
            .iter()
            .map(|c| c.iter().zip(&centred).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Projects a batch.
    pub fn transform_batch(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        xs.iter().map(|x| self.transform(x)).collect()
    }
}

/// Cyclic Jacobi eigendecomposition of a real symmetric matrix
/// (destroys `a`); returns `(eigenvalues, eigenvector-columns)`.
#[allow(clippy::needless_range_loop)] // Jacobi rotations index row/col pairs symmetrically
fn jacobi_symmetric(a: &mut [Vec<f64>]) -> (Vec<f64>, Vec<Vec<f64>>) {
    let d = a.len();
    let mut v = vec![vec![0.0f64; d]; d];
    for (i, row) in v.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    let scale = a
        .iter()
        .flat_map(|r| r.iter().map(|x| x.abs()))
        .fold(0.0f64, f64::max)
        .max(1e-300);

    for _sweep in 0..100 {
        let mut off = 0.0;
        for i in 0..d {
            for j in i + 1..d {
                off += a[i][j] * a[i][j];
            }
        }
        if off.sqrt() < 1e-12 * scale {
            break;
        }
        for p in 0..d {
            for q in p + 1..d {
                if a[p][q].abs() < 1e-300 {
                    continue;
                }
                let theta = 0.5 * f64::atan2(-2.0 * a[p][q], a[p][p] - a[q][q]);
                let (c, s) = (theta.cos(), theta.sin());
                for r in 0..d {
                    let (arp, arq) = (a[r][p], a[r][q]);
                    a[r][p] = c * arp - s * arq;
                    a[r][q] = s * arp + c * arq;
                }
                for r in 0..d {
                    let (apr, aqr) = (a[p][r], a[q][r]);
                    a[p][r] = c * apr - s * aqr;
                    a[q][r] = s * apr + c * aqr;
                }
                for r in 0..d {
                    let (vrp, vrq) = (v[r][p], v[r][q]);
                    v[r][p] = c * vrp - s * vrq;
                    v[r][q] = s * vrp + c * vrq;
                }
            }
        }
    }
    let values: Vec<f64> = (0..d).map(|i| a[i][i]).collect();
    (values, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2-D data stretched along a known axis.
    fn stretched_cloud() -> Vec<Vec<f64>> {
        (0..200)
            .map(|i| {
                let t = (i as f64 / 200.0 - 0.5) * 10.0;
                let jitter = ((i * 37) % 17) as f64 / 17.0 - 0.5;
                // Main axis (3, 4)/5, small noise along (−4, 3)/5.
                vec![
                    3.0 / 5.0 * t - 4.0 / 5.0 * 0.2 * jitter + 1.0,
                    4.0 / 5.0 * t + 3.0 / 5.0 * 0.2 * jitter - 2.0,
                ]
            })
            .collect()
    }

    #[test]
    fn first_component_follows_the_stretch() {
        let pca = Pca::fit(&stretched_cloud(), 2);
        let c0 = &pca.components[0];
        // Up to sign, c0 ≈ (0.6, 0.8).
        let dot = (c0[0] * 0.6 + c0[1] * 0.8).abs();
        assert!(dot > 0.999, "first axis {c0:?}");
        assert!(pca.explained_variance()[0] > 50.0 * pca.explained_variance()[1]);
    }

    #[test]
    fn projection_preserves_pairwise_distances_in_full_rank() {
        let data = stretched_cloud();
        let pca = Pca::fit(&data, 2);
        let t = pca.transform_batch(&data);
        let d_orig = |a: &[f64], b: &[f64]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        for i in (0..data.len()).step_by(41) {
            for j in (0..data.len()).step_by(53) {
                assert!(
                    (d_orig(&data[i], &data[j]) - d_orig(&t[i], &t[j])).abs() < 1e-9,
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn one_component_projection_keeps_most_variance() {
        let data = stretched_cloud();
        let pca = Pca::fit(&data, 1);
        let t = pca.transform_batch(&data);
        let var_t: f64 = {
            let m = t.iter().map(|r| r[0]).sum::<f64>() / t.len() as f64;
            t.iter().map(|r| (r[0] - m) * (r[0] - m)).sum::<f64>() / t.len() as f64
        };
        // Total variance of the cloud.
        let total: f64 = {
            let mut acc = 0.0;
            for dim in 0..2 {
                let m = data.iter().map(|r| r[dim]).sum::<f64>() / data.len() as f64;
                acc += data
                    .iter()
                    .map(|r| (r[dim] - m) * (r[dim] - m))
                    .sum::<f64>()
                    / data.len() as f64;
            }
            acc
        };
        assert!(var_t / total > 0.99, "captured {}", var_t / total);
    }

    #[test]
    fn transform_of_mean_is_origin() {
        let data = stretched_cloud();
        let pca = Pca::fit(&data, 2);
        let mut mean = vec![0.0; 2];
        for r in &data {
            mean[0] += r[0];
            mean[1] += r[1];
        }
        mean.iter_mut().for_each(|m| *m /= data.len() as f64);
        let t = pca.transform(&mean);
        assert!(t.iter().all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn components_are_orthonormal() {
        let pca = Pca::fit(&stretched_cloud(), 2);
        let c = &pca.components;
        let dot = |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
        assert!((dot(&c[0], &c[0]) - 1.0).abs() < 1e-9);
        assert!((dot(&c[1], &c[1]) - 1.0).abs() < 1e-9);
        assert!(dot(&c[0], &c[1]).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "component count")]
    fn too_many_components_panics() {
        let _ = Pca::fit(&stretched_cloud(), 3);
    }
}
