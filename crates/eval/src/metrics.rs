//! Authentication metrics (paper §VI-A-2).
//!
//! The paper reports recall, precision, accuracy and F-measure over
//! authentication decisions. We track decisions in a confusion matrix
//! whose classes are the registered user ids plus a distinguished
//! spoofer class ([`SPOOFER`]): the true label of a sample is either a
//! user id or spoofer, and the decision is either `Accepted{user}` or
//! `Rejected` (mapped to the spoofer class).

use echoimage_core::AuthDecision;

/// Pseudo-class id for "spoofer / rejected".
pub const SPOOFER: usize = usize::MAX;

/// A confusion matrix over user ids plus the spoofer class.
///
/// # Example
///
/// ```
/// use echo_eval::metrics::{ConfusionMatrix, SPOOFER};
/// use echoimage_core::AuthDecision;
///
/// let mut cm = ConfusionMatrix::new(&[1, 2]);
/// cm.record(1, AuthDecision::Accepted { user_id: 1 });
/// cm.record(2, AuthDecision::Accepted { user_id: 1 });
/// cm.record(SPOOFER, AuthDecision::Rejected);
/// assert_eq!(cm.total(), 3);
/// assert!((cm.metrics().accuracy - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConfusionMatrix {
    /// Registered user ids, sorted; the spoofer class is implicit.
    classes: Vec<usize>,
    /// `counts[true_idx][pred_idx]`; the last row/column is the spoofer
    /// class.
    counts: Vec<Vec<usize>>,
}

echo_obs::json_object!(ConfusionMatrix { classes, counts });

impl ConfusionMatrix {
    /// Creates an empty matrix for the given registered user ids.
    ///
    /// # Panics
    ///
    /// Panics if `users` is empty or contains [`SPOOFER`].
    pub fn new(users: &[usize]) -> Self {
        assert!(!users.is_empty(), "need at least one registered user");
        assert!(
            !users.contains(&SPOOFER),
            "SPOOFER is reserved for the rejected class"
        );
        let mut classes = users.to_vec();
        classes.sort_unstable();
        classes.dedup();
        let n = classes.len() + 1;
        ConfusionMatrix {
            classes,
            counts: vec![vec![0; n]; n],
        }
    }

    fn index_of(&self, class: usize) -> usize {
        if class == SPOOFER {
            self.classes.len()
        } else {
            self.classes
                .iter()
                .position(|&c| c == class)
                .expect("unknown user id recorded in confusion matrix")
        }
    }

    /// Records one decision for a sample whose true class is `truth`
    /// (a user id or [`SPOOFER`]).
    ///
    /// # Panics
    ///
    /// Panics if `truth` or an accepted user id is unknown.
    pub fn record(&mut self, truth: usize, decision: AuthDecision) {
        let t = self.index_of(truth);
        let p = match decision {
            AuthDecision::Accepted { user_id } => self.index_of(user_id),
            AuthDecision::Rejected => self.classes.len(),
        };
        self.counts[t][p] += 1;
    }

    /// Registered user ids.
    pub fn users(&self) -> &[usize] {
        &self.classes
    }

    /// Count of samples with true class `truth` predicted as `pred`.
    pub fn count(&self, truth: usize, pred: usize) -> usize {
        self.counts[self.index_of(truth)][self.index_of(pred)]
    }

    /// Total recorded samples.
    pub fn total(&self) -> usize {
        self.counts.iter().map(|r| r.iter().sum::<usize>()).sum()
    }

    /// Row-normalised rates: `rate(truth, pred)` in `[0, 1]`.
    pub fn rate(&self, truth: usize, pred: usize) -> f64 {
        let t = self.index_of(truth);
        let row: usize = self.counts[t].iter().sum();
        if row == 0 {
            0.0
        } else {
            self.counts[t][self.index_of(pred)] as f64 / row as f64
        }
    }

    /// Fraction of spoofer samples correctly rejected.
    pub fn spoofer_detection_rate(&self) -> f64 {
        self.rate(SPOOFER, SPOOFER)
    }

    /// Mean over registered users of the rate at which their samples
    /// are attributed to themselves.
    pub fn mean_user_recall(&self) -> f64 {
        let users = &self.classes;
        let sum: f64 = users.iter().map(|&u| self.rate(u, u)).sum();
        sum / users.len() as f64
    }

    /// Aggregate authentication metrics (macro-averaged over users).
    pub fn metrics(&self) -> AuthMetrics {
        let n = self.classes.len() + 1;
        let mut correct = 0usize;
        for i in 0..n {
            correct += self.counts[i][i];
        }
        let total = self.total().max(1);

        // Macro precision/recall over registered users (the spoofer class
        // enters as negatives, matching the paper's tp/fp/fn definitions).
        let mut recalls = Vec::new();
        let mut precisions = Vec::new();
        for (i, _) in self.classes.iter().enumerate() {
            let tp = self.counts[i][i];
            let fn_: usize = self.counts[i].iter().sum::<usize>() - tp;
            let fp: usize = (0..n).filter(|&t| t != i).map(|t| self.counts[t][i]).sum();
            if tp + fn_ > 0 {
                recalls.push(tp as f64 / (tp + fn_) as f64);
            }
            if tp + fp > 0 {
                precisions.push(tp as f64 / (tp + fp) as f64);
            }
        }
        let recall = mean(&recalls);
        let precision = mean(&precisions);
        let f_measure = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        AuthMetrics {
            recall,
            precision,
            accuracy: correct as f64 / total as f64,
            f_measure,
        }
    }

    /// Renders the row-normalised matrix as text (users then spoofer).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let label = |i: usize| -> String {
            if i == self.classes.len() {
                "spoof".to_string()
            } else {
                format!("u{:02}", self.classes[i])
            }
        };
        out.push_str("true\\pred");
        for j in 0..=self.classes.len() {
            out.push_str(&format!(" {:>6}", label(j)));
        }
        out.push('\n');
        for i in 0..=self.classes.len() {
            let row: usize = self.counts[i].iter().sum();
            out.push_str(&format!("{:>9}", label(i)));
            for j in 0..=self.classes.len() {
                let r = if row == 0 {
                    0.0
                } else {
                    self.counts[i][j] as f64 / row as f64
                };
                out.push_str(&format!(" {:>6.3}", r));
            }
            out.push('\n');
        }
        out
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Aggregate authentication quality metrics (paper §VI-A-2, Eq. 16).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuthMetrics {
    /// Macro-averaged recall over registered users.
    pub recall: f64,
    /// Macro-averaged precision over registered users.
    pub precision: f64,
    /// Overall decision accuracy (users attributed correctly + spoofers
    /// rejected, over all samples).
    pub accuracy: f64,
    /// Harmonic mean of precision and recall (Eq. 16).
    pub f_measure: f64,
}

echo_obs::json_object!(AuthMetrics {
    recall,
    precision,
    accuracy,
    f_measure
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classification_scores_one() {
        let mut cm = ConfusionMatrix::new(&[1, 2, 3]);
        for u in [1, 2, 3] {
            for _ in 0..10 {
                cm.record(u, AuthDecision::Accepted { user_id: u });
            }
        }
        for _ in 0..10 {
            cm.record(SPOOFER, AuthDecision::Rejected);
        }
        let m = cm.metrics();
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.f_measure, 1.0);
        assert_eq!(cm.spoofer_detection_rate(), 1.0);
        assert_eq!(cm.mean_user_recall(), 1.0);
    }

    #[test]
    fn misattribution_reduces_recall_and_precision() {
        let mut cm = ConfusionMatrix::new(&[1, 2]);
        // User 1: 8 correct, 2 attributed to user 2.
        for _ in 0..8 {
            cm.record(1, AuthDecision::Accepted { user_id: 1 });
        }
        for _ in 0..2 {
            cm.record(1, AuthDecision::Accepted { user_id: 2 });
        }
        // User 2: all correct.
        for _ in 0..10 {
            cm.record(2, AuthDecision::Accepted { user_id: 2 });
        }
        let m = cm.metrics();
        assert!((m.recall - (0.8 + 1.0) / 2.0).abs() < 1e-12);
        // Precision for user 2 = 10/12, for user 1 = 1.0.
        assert!((m.precision - (1.0 + 10.0 / 12.0) / 2.0).abs() < 1e-12);
        assert!((m.accuracy - 18.0 / 20.0).abs() < 1e-12);
        assert!(m.f_measure > 0.0 && m.f_measure < 1.0);
    }

    #[test]
    fn rejected_user_counts_as_false_negative() {
        let mut cm = ConfusionMatrix::new(&[1]);
        cm.record(1, AuthDecision::Rejected);
        cm.record(1, AuthDecision::Accepted { user_id: 1 });
        let m = cm.metrics();
        assert!((m.recall - 0.5).abs() < 1e-12);
        assert_eq!(cm.count(1, SPOOFER), 1);
    }

    #[test]
    fn accepted_spoofer_hurts_precision_not_recall() {
        let mut cm = ConfusionMatrix::new(&[1]);
        for _ in 0..9 {
            cm.record(1, AuthDecision::Accepted { user_id: 1 });
        }
        cm.record(SPOOFER, AuthDecision::Accepted { user_id: 1 });
        let m = cm.metrics();
        assert_eq!(m.recall, 1.0);
        assert!((m.precision - 0.9).abs() < 1e-12);
        assert_eq!(cm.spoofer_detection_rate(), 0.0);
    }

    #[test]
    fn f_measure_is_harmonic_mean() {
        let mut cm = ConfusionMatrix::new(&[1]);
        for _ in 0..6 {
            cm.record(1, AuthDecision::Accepted { user_id: 1 });
        }
        for _ in 0..4 {
            cm.record(1, AuthDecision::Rejected);
        }
        let m = cm.metrics();
        let expect = 2.0 * m.precision * m.recall / (m.precision + m.recall);
        assert!((m.f_measure - expect).abs() < 1e-12);
    }

    #[test]
    fn rates_normalise_rows() {
        let mut cm = ConfusionMatrix::new(&[1, 2]);
        cm.record(1, AuthDecision::Accepted { user_id: 1 });
        cm.record(1, AuthDecision::Accepted { user_id: 2 });
        assert!((cm.rate(1, 1) - 0.5).abs() < 1e-12);
        assert_eq!(cm.rate(2, 2), 0.0, "empty row rates are zero");
    }

    #[test]
    fn table_rendering_includes_all_classes() {
        let mut cm = ConfusionMatrix::new(&[3, 7]);
        cm.record(3, AuthDecision::Accepted { user_id: 7 });
        let t = cm.to_table();
        assert!(t.contains("u03"));
        assert!(t.contains("u07"));
        assert!(t.contains("spoof"));
    }

    #[test]
    #[should_panic(expected = "unknown user")]
    fn unknown_user_panics() {
        let mut cm = ConfusionMatrix::new(&[1]);
        cm.record(9, AuthDecision::Rejected);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn spoofer_id_cannot_be_registered() {
        let _ = ConfusionMatrix::new(&[SPOOFER]);
    }
}
