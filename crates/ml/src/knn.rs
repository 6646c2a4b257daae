//! k-nearest-neighbour classification — the simplest credible baseline
//! against the paper's SVM stage for ablations.

/// A k-NN classifier over Euclidean distance.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnClassifier {
    samples: Vec<Vec<f64>>,
    labels: Vec<usize>,
    k: usize,
}

impl KnnClassifier {
    /// Stores the training set.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty/inconsistent or `k == 0`.
    pub fn fit(samples: &[Vec<f64>], labels: &[usize], k: usize) -> Self {
        assert!(!samples.is_empty(), "training set is empty");
        assert_eq!(samples.len(), labels.len(), "sample/label count mismatch");
        assert!(k > 0, "k must be positive");
        KnnClassifier {
            samples: samples.to_vec(),
            labels: labels.to_vec(),
            k: k.min(samples.len()),
        }
    }

    /// Majority vote among the `k` nearest neighbours (ties broken by
    /// summed inverse distance).
    ///
    /// # Panics
    ///
    /// Panics if the dimension does not match the training data.
    pub fn predict(&self, x: &[f64]) -> usize {
        let mut dists: Vec<(f64, usize)> = self
            .samples
            .iter()
            .zip(&self.labels)
            .map(|(s, &l)| {
                assert_eq!(s.len(), x.len(), "dimension mismatch");
                let d2: f64 = s.iter().zip(x).map(|(a, b)| (a - b) * (a - b)).sum();
                (d2, l)
            })
            .collect();
        dists.sort_by(|a, b| a.0.total_cmp(&b.0));
        let neighbours = &dists[..self.k];

        let mut votes: std::collections::BTreeMap<usize, (usize, f64)> =
            std::collections::BTreeMap::new();
        for &(d2, l) in neighbours {
            let e = votes.entry(l).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += 1.0 / (d2.sqrt() + 1e-12);
        }
        votes
            .into_iter()
            .max_by(|a, b| a.1 .0.cmp(&b.1 .0).then(a.1 .1.total_cmp(&b.1 .1)))
            .map(|(l, _)| l)
            .expect("non-empty neighbours")
    }

    /// The distance to the nearest training sample — usable as a naive
    /// open-set rejection score (small = familiar).
    pub fn nearest_distance(&self, x: &[f64]) -> f64 {
        self.samples
            .iter()
            .map(|s| {
                s.iter()
                    .zip(x)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt()
            })
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..30 {
            let j = (i * 31) % 13;
            xs.push(vec![0.0 + j as f64 * 0.02, 0.0 - j as f64 * 0.015]);
            ys.push(0);
            xs.push(vec![3.0 - j as f64 * 0.02, 3.0 + j as f64 * 0.01]);
            ys.push(1);
        }
        (xs, ys)
    }

    #[test]
    fn classifies_separable_blobs() {
        let (xs, ys) = blobs();
        let knn = KnnClassifier::fit(&xs, &ys, 5);
        assert_eq!(knn.predict(&[0.1, 0.0]), 0);
        assert_eq!(knn.predict(&[2.9, 3.1]), 1);
    }

    #[test]
    fn k_one_memorises_training_data() {
        let (xs, ys) = blobs();
        let knn = KnnClassifier::fit(&xs, &ys, 1);
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(knn.predict(x), y);
        }
    }

    #[test]
    fn nearest_distance_grows_away_from_data() {
        let (xs, ys) = blobs();
        let knn = KnnClassifier::fit(&xs, &ys, 3);
        assert!(knn.nearest_distance(&[0.0, 0.0]) < 0.1);
        assert!(knn.nearest_distance(&[10.0, -10.0]) > 10.0);
    }

    #[test]
    fn k_larger_than_training_set_is_clamped() {
        let xs = vec![vec![0.0], vec![1.0]];
        let knn = KnnClassifier::fit(&xs, &[0, 1], 99);
        // Tie between the two classes → inverse-distance tiebreak wins
        // for the closer sample.
        assert_eq!(knn.predict(&[0.1]), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_training_set_panics() {
        let _ = KnnClassifier::fit(&[], &[], 1);
    }
}
