//! Extension — classifier-stage ablations.
//!
//! The paper picks SVM over alternatives without comparison; this
//! experiment quantifies the choice on the simulated substrate:
//!
//! * attribution accuracy of the n-class SVM vs a k-NN baseline,
//! * CNN features vs raw downsampled pixels,
//! * effect of PCA dimensionality reduction ahead of the classifier,
//! * pooled vs per-user spoofer gate ([`echoimage_core::auth::GateMode`]).

use crate::harness::{CaptureSpec, Harness};
use echo_ml::{Kernel, KnnClassifier, Pca, SvmMulticlass};
use echo_sim::{Placement, Population};
use echoimage_core::auth::{AuthConfig, Authenticator, GateMode};
use echoimage_core::enrollment::{enrollment_features, EnrollmentConfig};
use echoimage_core::EchoImageError;

/// Configuration for the classifier ablations.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Scene/population seed.
    pub seed: u64,
    /// Registered users.
    pub users: usize,
    /// Spoofers (gate ablation only).
    pub spoofers: usize,
    /// Enrolment beeps per user per visit.
    pub beeps_per_visit: usize,
    /// Enrolment visits.
    pub visits: u32,
    /// Test beeps per user.
    pub test_beeps: usize,
    /// PCA dimensions swept.
    pub pca_dims: Vec<usize>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 31,
            users: 5,
            spoofers: 3,
            beeps_per_visit: 6,
            visits: 3,
            test_beeps: 6,
            pca_dims: vec![8, 32, 128],
        }
    }
}

/// Results of the ablations.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Attribution accuracy of the one-vs-one SVM on CNN features.
    pub svm_accuracy: f64,
    /// Attribution accuracy of 5-NN on the same features.
    pub knn_accuracy: f64,
    /// Attribution accuracy per PCA dimensionality (dim, accuracy).
    pub pca_accuracy: Vec<(usize, f64)>,
    /// Full-cascade metrics with the per-user gate.
    pub per_user_gate: GateResult,
    /// Full-cascade metrics with the paper's pooled gate.
    pub pooled_gate: GateResult,
}

echo_obs::json_object!(Output {
    svm_accuracy,
    knn_accuracy,
    pca_accuracy,
    per_user_gate,
    pooled_gate
});

/// Gate-ablation cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateResult {
    /// Fraction of genuine probes accepted as themselves.
    pub genuine_accept: f64,
    /// Fraction of spoofer probes rejected.
    pub spoofer_reject: f64,
}

echo_obs::json_object!(GateResult {
    genuine_accept,
    spoofer_reject
});

/// Runs the ablations.
///
/// # Errors
///
/// Propagates pipeline failures during data collection.
pub fn run(config: &Config) -> Result<Output, EchoImageError> {
    let harness = Harness::new(config.seed);
    let population =
        Population::generate(config.users + config.spoofers, config.users, config.seed);
    let registered: Vec<_> = population.registered().collect();
    let spoofers: Vec<_> = population.spoofers().collect();

    // Enrolment features per user (production recipe).
    let mut train: Vec<(usize, Vec<Vec<f64>>)> = Vec::new();
    for profile in &registered {
        let body = profile.body();
        let visits: Vec<_> = (0..config.visits)
            .map(|v| {
                let spec = CaptureSpec {
                    session: v,
                    beeps: config.beeps_per_visit,
                    beep_offset: v as u64 * 1_000,
                    ..CaptureSpec::default_lab(0)
                };
                let scene = harness.scene(&spec);
                scene.capture_train(
                    &body,
                    &Placement::standing_front(spec.distance),
                    spec.session,
                    spec.beeps,
                    spec.beep_offset,
                )
            })
            .collect();
        let feats = enrollment_features(harness.pipeline(), &visits, &EnrollmentConfig::default())?;
        train.push((profile.id as usize, feats));
    }

    // Test features (fresh visit).
    let mut genuine_tests: Vec<(usize, Vec<Vec<f64>>)> = Vec::new();
    for profile in &registered {
        let spec = CaptureSpec {
            session: 77,
            beeps: config.test_beeps,
            beep_offset: 50_000 + profile.id as u64 * 1_000,
            ..CaptureSpec::default_lab(0)
        };
        genuine_tests.push((
            profile.id as usize,
            harness.features_for(&profile.body(), &spec)?,
        ));
    }
    let mut spoof_tests: Vec<Vec<Vec<f64>>> = Vec::new();
    for profile in &spoofers {
        let spec = CaptureSpec {
            session: 77,
            beeps: config.test_beeps,
            beep_offset: 60_000 + profile.id as u64 * 1_000,
            ..CaptureSpec::default_lab(0)
        };
        spoof_tests.push(harness.features_for(&profile.body(), &spec)?);
    }

    // Flat training matrices for the bare classifiers.
    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<usize> = Vec::new();
    for (id, fs) in &train {
        for f in fs {
            xs.push(f.clone());
            ys.push(*id);
        }
    }

    let attribution_accuracy = |predict: &dyn Fn(&[f64]) -> usize| -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (id, fs) in &genuine_tests {
            for f in fs {
                total += 1;
                if predict(f) == *id {
                    correct += 1;
                }
            }
        }
        correct as f64 / total.max(1) as f64
    };

    let svm = SvmMulticlass::train(&xs, &ys, Kernel::rbf_median(&xs), 10.0);
    let svm_accuracy = attribution_accuracy(&|f| svm.predict(f));

    let knn = KnnClassifier::fit(&xs, &ys, 5);
    let knn_accuracy = attribution_accuracy(&|f| knn.predict(f));

    let mut pca_accuracy = Vec::new();
    for &dim in &config.pca_dims {
        let dim = dim.min(xs[0].len());
        let pca = Pca::fit(&xs, dim);
        let txs = pca.transform_batch(&xs);
        let svm_p = SvmMulticlass::train(&txs, &ys, Kernel::rbf_median(&txs), 10.0);
        let acc = attribution_accuracy(&|f| svm_p.predict(&pca.transform(f)));
        pca_accuracy.push((dim, acc));
    }

    // Gate-mode ablation on the full cascade.
    let gate_result = |mode: GateMode| -> Result<GateResult, EchoImageError> {
        let auth = Authenticator::enroll(
            &train,
            &AuthConfig {
                gate: mode,
                ..AuthConfig::default()
            },
        )?;
        let mut gen_ok = 0usize;
        let mut gen_total = 0usize;
        for (id, fs) in &genuine_tests {
            for f in fs {
                gen_total += 1;
                if auth.authenticate(f).user_id() == Some(*id) {
                    gen_ok += 1;
                }
            }
        }
        let mut spoof_rej = 0usize;
        let mut spoof_total = 0usize;
        for fs in &spoof_tests {
            for f in fs {
                spoof_total += 1;
                if !auth.authenticate(f).is_accepted() {
                    spoof_rej += 1;
                }
            }
        }
        Ok(GateResult {
            genuine_accept: gen_ok as f64 / gen_total.max(1) as f64,
            spoofer_reject: spoof_rej as f64 / spoof_total.max(1) as f64,
        })
    };

    Ok(Output {
        svm_accuracy,
        knn_accuracy,
        pca_accuracy,
        per_user_gate: gate_result(GateMode::PerUser)?,
        pooled_gate: gate_result(GateMode::Pooled)?,
    })
}
