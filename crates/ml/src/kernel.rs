//! SVM kernels.

/// A positive-definite kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Linear kernel `⟨x, y⟩`.
    Linear,
    /// Gaussian RBF kernel `exp(−γ‖x − y‖²)`.
    Rbf {
        /// Kernel width parameter γ.
        gamma: f64,
    },
}

impl Kernel {
    /// Evaluates the kernel.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "kernel operand length mismatch");
        match *self {
            Kernel::Linear => a.iter().zip(b).map(|(x, y)| x * y).sum(),
            Kernel::Rbf { gamma } => {
                let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                (-gamma * d2).exp()
            }
        }
    }

    /// A reasonable default RBF width for `dim`-dimensional standardised
    /// features: `γ = 1/dim` (the common "scale" heuristic).
    pub fn rbf_for_dim(dim: usize) -> Kernel {
        Kernel::Rbf {
            gamma: 1.0 / dim.max(1) as f64,
        }
    }

    /// The median heuristic: `γ = 1/median(‖xᵢ − xⱼ‖²)` over sample
    /// pairs, so typical kernel values land mid-range instead of
    /// saturating at 0 or 1. Pairs are subsampled deterministically for
    /// large sets.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two samples are given.
    pub fn rbf_median(xs: &[Vec<f64>]) -> Kernel {
        assert!(xs.len() >= 2, "median heuristic needs at least two samples");
        let n = xs.len();
        let mut d2: Vec<f64> = Vec::new();
        // Deterministic pair subsample: stride the upper triangle.
        let max_pairs = 2_000usize;
        let total_pairs = n * (n - 1) / 2;
        let stride = (total_pairs / max_pairs).max(1);
        let mut count = 0usize;
        'outer: for i in 0..n {
            for j in i + 1..n {
                if count.is_multiple_of(stride) {
                    let d: f64 = xs[i]
                        .iter()
                        .zip(&xs[j])
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    d2.push(d);
                    if d2.len() >= max_pairs {
                        break 'outer;
                    }
                }
                count += 1;
            }
        }
        d2.sort_by(f64::total_cmp);
        let median = d2[d2.len() / 2];
        Kernel::Rbf {
            gamma: if median > 1e-12 { 1.0 / median } else { 1.0 },
        }
    }

    /// Computes the full Gram matrix `K[i][j] = k(x_i, x_j)`.
    pub fn gram(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let n = xs.len();
        let mut k = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in i..n {
                let v = self.eval(&xs[i], &xs[j]);
                k[i][j] = v;
                k[j][i] = v;
            }
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_dot_product() {
        let k = Kernel::Linear;
        assert_eq!(k.eval(&[1.0, 2.0], &[3.0, -1.0]), 1.0);
    }

    #[test]
    fn rbf_is_one_at_zero_distance_and_decays() {
        let k = Kernel::Rbf { gamma: 0.5 };
        assert_eq!(k.eval(&[1.0, 2.0], &[1.0, 2.0]), 1.0);
        let near = k.eval(&[0.0, 0.0], &[0.1, 0.0]);
        let far = k.eval(&[0.0, 0.0], &[2.0, 0.0]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn gram_is_symmetric_with_unit_diagonal_for_rbf() {
        let xs = vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![2.0, 2.0]];
        let g = Kernel::Rbf { gamma: 1.0 }.gram(&xs);
        for (i, row) in g.iter().enumerate() {
            assert_eq!(row[i], 1.0);
            for (j, v) in row.iter().enumerate() {
                assert_eq!(*v, g[j][i]);
            }
        }
    }

    #[test]
    fn rbf_for_dim_heuristic() {
        match Kernel::rbf_for_dim(512) {
            Kernel::Rbf { gamma } => assert!((gamma - 1.0 / 512.0).abs() < 1e-15),
            _ => panic!("expected RBF"),
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_lengths_panic() {
        let _ = Kernel::Linear.eval(&[1.0], &[1.0, 2.0]);
    }
}
