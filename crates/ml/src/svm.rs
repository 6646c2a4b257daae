//! Soft-margin SVM trained with Sequential Minimal Optimization.
//!
//! The paper's multi-user stage is an n-class SVM over CNN features
//! (§V-E). We implement the binary C-SVC dual with an SMO solver using
//! maximal-violating-pair working-set selection (the LIBSVM strategy) and
//! compose classes one-vs-one with majority voting.

use crate::kernel::Kernel;

/// Convergence tolerance for the KKT gap.
const TOL: f64 = 1e-3;
/// Hard cap on SMO iterations (defensive; typical problems converge in
/// a few times `n` iterations).
const MAX_ITER_FACTOR: usize = 2_000;

/// A trained binary soft-margin SVM.
///
/// # Example
///
/// ```
/// use echo_ml::svm::SvmBinary;
/// use echo_ml::kernel::Kernel;
///
/// let xs = vec![vec![-1.0], vec![-0.8], vec![0.8], vec![1.0]];
/// let ys = vec![-1.0, -1.0, 1.0, 1.0];
/// let svm = SvmBinary::train(&xs, &ys, Kernel::Linear, 1.0);
/// assert_eq!(svm.predict(&[-0.9]), -1.0);
/// assert_eq!(svm.predict(&[0.9]), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SvmBinary {
    support_vectors: Vec<Vec<f64>>,
    /// `α_i · y_i` for each support vector.
    coefficients: Vec<f64>,
    bias: f64,
    kernel: Kernel,
}

impl SvmBinary {
    /// Trains on samples `xs` with labels `ys ∈ {−1, +1}` and
    /// regularisation parameter `C`.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or inconsistent, labels are not ±1,
    /// only one class is present, or `C` is not positive.
    pub fn train(xs: &[Vec<f64>], ys: &[f64], kernel: Kernel, c: f64) -> Self {
        assert!(!xs.is_empty(), "training set is empty");
        assert_eq!(xs.len(), ys.len(), "sample/label count mismatch");
        assert!(c > 0.0, "C must be positive");
        assert!(
            ys.iter().all(|&y| y == 1.0 || y == -1.0),
            "labels must be ±1"
        );
        assert!(
            ys.contains(&1.0) && ys.contains(&-1.0),
            "need samples from both classes"
        );

        let n = xs.len();
        let (alpha, g, _) = smo(&kernel.gram(xs), ys, c);

        // Bias from free support vectors (0 < α < C), falling back to the
        // midpoint of the KKT interval.
        let mut bias_sum = 0.0;
        let mut bias_count = 0usize;
        for t in 0..n {
            if alpha[t] > 1e-9 && alpha[t] < c - 1e-9 {
                bias_sum += ys[t] - g[t];
                bias_count += 1;
            }
        }
        let bias = if bias_count > 0 {
            bias_sum / bias_count as f64
        } else {
            // Midpoint between the class boundaries.
            let mut up = f64::INFINITY;
            let mut low = f64::NEG_INFINITY;
            for t in 0..n {
                let v = ys[t] - g[t];
                if ys[t] > 0.0 {
                    up = up.min(v);
                } else {
                    low = low.max(v);
                }
            }
            (up + low) / 2.0
        };

        let mut support_vectors = Vec::new();
        let mut coefficients = Vec::new();
        for t in 0..n {
            if alpha[t] > 1e-9 {
                support_vectors.push(xs[t].clone());
                coefficients.push(alpha[t] * ys[t]);
            }
        }
        SvmBinary {
            support_vectors,
            coefficients,
            bias,
            kernel,
        }
    }

    /// Signed decision value `f(x) = Σ αᵢyᵢ k(xᵢ, x) + b`.
    pub fn decision(&self, x: &[f64]) -> f64 {
        self.support_vectors
            .iter()
            .zip(self.coefficients.iter())
            .map(|(sv, &c)| c * self.kernel.eval(sv, x))
            .sum::<f64>()
            + self.bias
    }

    /// Predicted label, +1 or −1.
    pub fn predict(&self, x: &[f64]) -> f64 {
        if self.decision(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Number of support vectors retained.
    pub fn num_support_vectors(&self) -> usize {
        self.support_vectors.len()
    }
}

/// A one-vs-one multiclass SVM (the paper's n-class user classifier).
///
/// Trains `k(k−1)/2` binary machines and predicts by majority vote, with
/// ties broken by the summed decision margins.
#[derive(Debug, Clone, PartialEq)]
pub struct SvmMulticlass {
    classes: Vec<usize>,
    /// `(class_a, class_b, machine)` with `a < b`; +1 ⇔ `class_a`.
    machines: Vec<(usize, usize, SvmBinary)>,
}

impl SvmMulticlass {
    /// Trains on samples `xs` with class labels `ys` (arbitrary `usize`
    /// ids, at least two distinct).
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty/inconsistent or fewer than two classes
    /// are present.
    pub fn train(xs: &[Vec<f64>], ys: &[usize], kernel: Kernel, c: f64) -> Self {
        assert!(!xs.is_empty(), "training set is empty");
        assert_eq!(xs.len(), ys.len(), "sample/label count mismatch");
        let mut classes: Vec<usize> = ys.to_vec();
        classes.sort_unstable();
        classes.dedup();
        assert!(classes.len() >= 2, "need at least two classes");

        let mut machines = Vec::new();
        for (ai, &a) in classes.iter().enumerate() {
            for &b in &classes[ai + 1..] {
                let mut sub_x = Vec::new();
                let mut sub_y = Vec::new();
                for (x, &y) in xs.iter().zip(ys.iter()) {
                    if y == a {
                        sub_x.push(x.clone());
                        sub_y.push(1.0);
                    } else if y == b {
                        sub_x.push(x.clone());
                        sub_y.push(-1.0);
                    }
                }
                machines.push((a, b, SvmBinary::train(&sub_x, &sub_y, kernel, c)));
            }
        }
        SvmMulticlass { classes, machines }
    }

    /// The distinct class labels seen at training time.
    pub fn classes(&self) -> &[usize] {
        &self.classes
    }

    /// Predicts the class of `x` by one-vs-one voting.
    pub fn predict(&self, x: &[f64]) -> usize {
        let mut votes: Vec<usize> = vec![0; self.classes.len()];
        let mut margins: Vec<f64> = vec![0.0; self.classes.len()];
        for (a, b, m) in &self.machines {
            let d = m.decision(x);
            let (winner, margin) = if d >= 0.0 { (*a, d) } else { (*b, -d) };
            let idx = self
                .classes
                .iter()
                .position(|&c| c == winner)
                .expect("known class");
            votes[idx] += 1;
            margins[idx] += margin;
        }
        let best = (0..self.classes.len())
            .max_by(|&i, &j| {
                votes[i]
                    .cmp(&votes[j])
                    .then(margins[i].total_cmp(&margins[j]))
            })
            .expect("at least two classes");
        self.classes[best]
    }
}

/// Sequential Minimal Optimization over the C-SVC dual of the Gram
/// matrix `k`. Returns α, the bias-free decision values
/// `g_i = Σ_j α_j y_j K_ij`, and the number of iterations run.
fn smo(k: &[Vec<f64>], ys: &[f64], c: f64) -> (Vec<f64>, Vec<f64>, usize) {
    let n = ys.len();
    let mut alpha = vec![0.0f64; n];
    // g_i = Σ_j α_j y_j K_ij (decision value without bias).
    let mut g = vec![0.0f64; n];

    let max_iter = MAX_ITER_FACTOR * n.max(100);
    let mut iterations = 0;
    while iterations < max_iter {
        iterations += 1;
        // Maximal violating pair over
        //   I_up  = {α<C, y=+1} ∪ {α>0, y=−1}
        //   I_low = {α<C, y=−1} ∪ {α>0, y=+1}
        // using scores s_i = −y_i ∇_i = y_i − g_i (−E_i):
        // maximise on I_up, minimise on I_low.
        let mut i_up: Option<(usize, f64)> = None;
        let mut i_low: Option<(usize, f64)> = None;
        for t in 0..n {
            let s = ys[t] - g[t];
            let in_up = (ys[t] > 0.0 && alpha[t] < c) || (ys[t] < 0.0 && alpha[t] > 0.0);
            let in_low = (ys[t] < 0.0 && alpha[t] < c) || (ys[t] > 0.0 && alpha[t] > 0.0);
            if in_up && i_up.is_none_or(|(_, best)| s > best) {
                i_up = Some((t, s));
            }
            if in_low && i_low.is_none_or(|(_, best)| s < best) {
                i_low = Some((t, s));
            }
        }
        let (i, m_up) = match i_up {
            Some(v) => v,
            None => break,
        };
        let (j, m_low) = match i_low {
            Some(v) => v,
            None => break,
        };
        if m_up - m_low < TOL {
            break;
        }

        // Two-variable analytic update (Platt).
        let (yi, yj) = (ys[i], ys[j]);
        let (ei, ej) = (g[i] - yi, g[j] - yj);
        let eta = k[i][i] + k[j][j] - 2.0 * k[i][j];
        if eta <= 1e-12 {
            // Degenerate pair; nudge via a tiny step to avoid cycling.
            break;
        }
        let (lo, hi) = if (yi - yj).abs() > 1e-12 {
            (
                (alpha[j] - alpha[i]).max(0.0),
                (c + alpha[j] - alpha[i]).min(c),
            )
        } else {
            (
                (alpha[i] + alpha[j] - c).max(0.0),
                (alpha[i] + alpha[j]).min(c),
            )
        };
        // An empty box or a vanishing step leaves α and g unchanged, so
        // every later iteration would select this pair again: stop.
        if hi - lo < 1e-12 {
            break;
        }
        let aj_old = alpha[j];
        let ai_old = alpha[i];
        let aj_new = (aj_old + yj * (ei - ej) / eta).clamp(lo, hi);
        let ai_new = ai_old + yi * yj * (aj_old - aj_new);
        if (aj_new - aj_old).abs() < 1e-14 {
            break;
        }
        alpha[i] = ai_new;
        alpha[j] = aj_new;
        let di = yi * (ai_new - ai_old);
        let dj = yj * (aj_new - aj_old);
        for t in 0..n {
            g[t] += di * k[i][t] + dj * k[j][t];
        }
    }
    (alpha, g, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(cx: f64, cy: f64, n: usize, spread: f64, salt: u64) -> Vec<Vec<f64>> {
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
    fn separates_linearly_separable_blobs() {
        let mut xs = blob(-2.0, 0.0, 30, 0.5, 1);
        xs.extend(blob(2.0, 0.0, 30, 0.5, 2));
        let ys: Vec<f64> = (0..60).map(|i| if i < 30 { -1.0 } else { 1.0 }).collect();
        let svm = SvmBinary::train(&xs, &ys, Kernel::Linear, 1.0);
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(svm.predict(x), y);
        }
        // Sparse solution: far fewer SVs than samples.
        assert!(
            svm.num_support_vectors() < 20,
            "{} SVs",
            svm.num_support_vectors()
        );
    }

    #[test]
    fn rbf_solves_xor() {
        let xs = vec![
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
        ];
        let ys = vec![1.0, 1.0, -1.0, -1.0];
        let svm = SvmBinary::train(&xs, &ys, Kernel::Rbf { gamma: 2.0 }, 100.0);
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(svm.predict(x), y, "at {x:?}");
        }
    }

    #[test]
    fn decision_margin_grows_away_from_boundary() {
        let xs = vec![vec![-1.0], vec![1.0]];
        let ys = vec![-1.0, 1.0];
        let svm = SvmBinary::train(&xs, &ys, Kernel::Linear, 10.0);
        assert!(svm.decision(&[3.0]) > svm.decision(&[0.5]));
        assert!(svm.decision(&[0.0]).abs() < 0.3);
    }

    #[test]
    fn soft_margin_tolerates_label_noise() {
        let mut xs = blob(-2.0, 0.0, 25, 0.5, 3);
        xs.extend(blob(2.0, 0.0, 25, 0.5, 4));
        let mut ys: Vec<f64> = (0..50).map(|i| if i < 25 { -1.0 } else { 1.0 }).collect();
        // Flip two labels.
        ys[0] = 1.0;
        ys[30] = -1.0;
        let svm = SvmBinary::train(&xs, &ys, Kernel::Linear, 0.5);
        // The clean points should still classify correctly.
        let correct = xs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 0 && *i != 30)
            .filter(|(i, x)| svm.predict(x) == if *i < 25 { -1.0 } else { 1.0 })
            .count();
        assert!(correct >= 46, "only {correct}/48 clean points correct");
    }

    #[test]
    fn multiclass_three_blobs() {
        let mut xs = blob(0.0, 0.0, 20, 0.4, 5);
        xs.extend(blob(4.0, 0.0, 20, 0.4, 6));
        xs.extend(blob(2.0, 3.0, 20, 0.4, 7));
        let ys: Vec<usize> = (0..60).map(|i| i / 20).collect();
        let svm = SvmMulticlass::train(&xs, &ys, Kernel::Rbf { gamma: 0.5 }, 10.0);
        assert_eq!(svm.classes(), &[0, 1, 2]);
        let acc = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| svm.predict(x) == y)
            .count();
        assert_eq!(acc, 60);
        assert_eq!(svm.predict(&[0.1, -0.1]), 0);
        assert_eq!(svm.predict(&[3.9, 0.2]), 1);
        assert_eq!(svm.predict(&[2.0, 2.8]), 2);
    }

    #[test]
    fn multiclass_accepts_sparse_label_ids() {
        let mut xs = blob(-2.0, 0.0, 10, 0.3, 8);
        xs.extend(blob(2.0, 0.0, 10, 0.3, 9));
        let ys: Vec<usize> = (0..20).map(|i| if i < 10 { 7 } else { 42 }).collect();
        let svm = SvmMulticlass::train(&xs, &ys, Kernel::Linear, 1.0);
        assert_eq!(svm.predict(&[-2.0, 0.0]), 7);
        assert_eq!(svm.predict(&[2.0, 0.0]), 42);
    }

    #[test]
    fn solver_stops_when_the_selected_pair_cannot_move() {
        // Eight overlapping points, linear kernel, C = 10: the maximal
        // violating pair's step rounds to nothing after a few
        // iterations while the KKT gap is still above `TOL`.
        let xs = vec![
            vec![1.2, 0.4, 0.3],
            vec![0.2, -0.1, 0.8],
            vec![1.9, 0.4, -0.6],
            vec![-2.0, -0.6, -0.7],
            vec![0.9, -1.9, 1.1],
            vec![1.1, -1.9, 0.3],
            vec![-0.3, 1.4, 0.7],
            vec![-1.1, 0.8, -1.9],
        ];
        let ys = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        let (_, _, iterations) = smo(&Kernel::Linear.gram(&xs), &ys, 10.0);
        assert!(iterations < 300, "ran {iterations} iterations");
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_rejected() {
        let xs = vec![vec![0.0], vec![1.0]];
        let _ = SvmBinary::train(&xs, &[1.0, 1.0], Kernel::Linear, 1.0);
    }

    #[test]
    #[should_panic(expected = "±1")]
    fn non_pm1_labels_rejected() {
        let xs = vec![vec![0.0], vec![1.0]];
        let _ = SvmBinary::train(&xs, &[0.0, 1.0], Kernel::Linear, 1.0);
    }

    #[test]
    #[should_panic(expected = "C must be positive")]
    fn non_positive_c_rejected() {
        let xs = vec![vec![0.0], vec![1.0]];
        let _ = SvmBinary::train(&xs, &[-1.0, 1.0], Kernel::Linear, 0.0);
    }
}
