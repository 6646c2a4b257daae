//! Fig. 14 — impact of data augmentation (paper §VI-E).
//!
//! Training images are collected at a fixed 0.7 m only; test images come
//! from 0.6–1.5 m. With augmentation, every training image is also
//! re-projected to a sweep of target distances via the inverse-square
//! model (§V-F) before enrolment. Paper result: augmentation lifts
//! recall/precision/accuracy substantially when training data is scarce,
//! and performance saturates once enough training beeps are available.

use crate::harness::{CaptureSpec, Harness};
use crate::metrics::{AuthMetrics, ConfusionMatrix, SPOOFER};
use echo_ml::GrayImage;
use echo_sim::{EnvironmentKind, NoiseKind, Population, UserProfile};
use echoimage_core::augment::augment_sweep;
use echoimage_core::auth::{AuthConfig, Authenticator};
use echoimage_core::EchoImageError;

/// Configuration for the augmentation experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Scene/population seed.
    pub seed: u64,
    /// Registered users.
    pub users: usize,
    /// Spoofers.
    pub spoofers: usize,
    /// Training distance, metres (paper: 0.7).
    pub train_distance: f64,
    /// Training-set sizes swept (beeps per user).
    pub train_sizes: Vec<usize>,
    /// Distances the augmentation synthesises (and the tests probe).
    pub target_distances: Vec<f64>,
    /// Test beeps per user per distance.
    pub test_beeps: usize,
    /// Classifier hyper-parameters.
    pub auth: AuthConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 14,
            users: 5,
            spoofers: 3,
            train_distance: 0.7,
            train_sizes: vec![4, 8, 16, 24],
            target_distances: vec![0.6, 0.9, 1.2, 1.5],
            test_beeps: 4,
            auth: AuthConfig::default(),
        }
    }
}

/// Metrics for one training-set size, with and without augmentation.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Training beeps per user.
    pub train_beeps: usize,
    /// Metrics without augmentation.
    pub without: AuthMetrics,
    /// Metrics with augmentation.
    pub with: AuthMetrics,
}

echo_obs::json_object!(Point {
    train_beeps,
    without,
    with
});

/// Results of the augmentation experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// One point per training-set size, ascending.
    pub points: Vec<Point>,
}

echo_obs::json_object!(Output { points });

/// Runs the experiment.
///
/// # Errors
///
/// Propagates pipeline failures during training-data collection.
pub fn run(config: &Config) -> Result<Output, EchoImageError> {
    let harness = Harness::new(config.seed);
    let population =
        Population::generate(config.users + config.spoofers, config.users, config.seed);
    let registered: Vec<_> = population.registered().collect();
    let spoofers: Vec<_> = population.spoofers().collect();
    let max_train = config.train_sizes.iter().copied().max().unwrap_or(0);

    // Collect the full training pool once per user; smaller training
    // sets are prefixes (the paper varies "number of training beeps").
    // Each beep yields a group of images: the estimated plane plus the
    // pipeline's standard ±3 cm plane-diversity copies — part of the
    // baseline enrolment recipe (both arms get it); the §V-F
    // inverse-square synthesis is what the `with` arm adds on top.
    struct TrainPool {
        id: usize,
        /// One group of images per training beep.
        beep_groups: Vec<Vec<GrayImage>>,
        estimated_distance: f64,
    }
    const PLANE_OFFSETS: [f64; 2] = [-0.03, 0.03];
    let mut pools = Vec::new();
    for profile in &registered {
        // The pool spans several visits (the paper's Session 1 covers
        // days 0–2), collected in batches of 8 beeps.
        let mut beep_groups: Vec<Vec<GrayImage>> = Vec::new();
        let mut est_sum = 0.0;
        let mut batches = 0u32;
        let mut remaining = max_train;
        while remaining > 0 {
            let beeps = remaining.min(8);
            let spec = CaptureSpec {
                environment: EnvironmentKind::Laboratory,
                noise: NoiseKind::Quiet,
                distance: config.train_distance,
                session: batches,
                beeps,
                beep_offset: batches as u64 * 1_000,
                mic_gain_error_db: 0.0,
                mic_timing_error: 0.0,
                faults: echo_sim::FaultPlan::none(),
                room: None,
            };
            let (images, est) =
                harness.images_multi_plane(&profile.body(), &spec, &PLANE_OFFSETS)?;
            let per_beep = 1 + PLANE_OFFSETS.len();
            for group in images.chunks(per_beep) {
                beep_groups.push(group.to_vec());
            }
            est_sum += est.horizontal_distance;
            batches += 1;
            remaining -= beeps;
        }
        pools.push(TrainPool {
            id: profile.id as usize,
            beep_groups,
            estimated_distance: est_sum / batches.max(1) as f64,
        });
    }

    // Collect test features once: every subject probes from every target
    // distance, in sessions disjoint from training.
    struct TestSet {
        truth: usize,
        features: Vec<Vec<f64>>,
    }
    let mut tests = Vec::new();
    let mut collect_tests = |profiles: &[&UserProfile],
                             truth_of: &dyn Fn(&UserProfile) -> usize| {
        for profile in profiles {
            let mut features = Vec::new();
            for &d in &config.target_distances {
                let spec = CaptureSpec {
                    environment: EnvironmentKind::Laboratory,
                    noise: NoiseKind::Quiet,
                    distance: d,
                    // A fresh visit of paper-session 3 (visit id 237).
                    session: 237,
                    beeps: config.test_beeps,
                    beep_offset: 40_000 + profile.id as u64 * 101 + (d * 977.0) as u64,
                    mic_gain_error_db: 0.0,
                    mic_timing_error: 0.0,
                    faults: echo_sim::FaultPlan::none(),
                    room: None,
                };
                if let Ok(f) = harness.features_for(&profile.body(), &spec) {
                    features.extend(f);
                }
            }
            tests.push(TestSet {
                truth: truth_of(profile),
                features,
            });
        }
    };
    collect_tests(&registered, &|p| p.id as usize);
    collect_tests(&spoofers, &|_| SPOOFER);

    let ids: Vec<usize> = registered.iter().map(|p| p.id as usize).collect();
    let imaging = &harness.pipeline().config().imaging;

    let mut points = Vec::new();
    for &n in &config.train_sizes {
        // Each user's enrolment is organised in groups (modes): the
        // real 0.7 m cloud, plus — in the `with` arm — one synthesised
        // cloud per target distance (§V-F).
        let mut plain: Vec<(usize, Vec<Vec<Vec<f64>>>)> = Vec::new();
        let mut augmented: Vec<(usize, Vec<Vec<Vec<f64>>>)> = Vec::new();
        for pool in &pools {
            let groups = &pool.beep_groups[..n.min(pool.beep_groups.len())];
            let subset: Vec<GrayImage> = groups.iter().flatten().cloned().collect();
            let base = harness.features_of_images(&subset);
            plain.push((pool.id, vec![base.clone()]));

            let mut modes = vec![base];
            for &d in &config.target_distances {
                let mut mode = Vec::new();
                for img in &subset {
                    let synth = augment_sweep(img, imaging, pool.estimated_distance, &[d])?;
                    mode.extend(harness.features_of_images(&synth));
                }
                modes.push(mode);
            }
            augmented.push((pool.id, modes));
        }

        let arm = |train: &[(usize, Vec<Vec<Vec<f64>>>)]| -> Result<AuthMetrics, EchoImageError> {
            let auth = Authenticator::enroll_with_groups(train, &config.auth)?;
            let mut cm = ConfusionMatrix::new(&ids);
            for t in &tests {
                for f in &t.features {
                    cm.record(t.truth, auth.authenticate(f));
                }
            }
            Ok(cm.metrics())
        };
        points.push(Point {
            train_beeps: n,
            without: arm(&plain)?,
            with: arm(&augmented)?,
        });
    }
    Ok(Output { points })
}
