//! End-to-end behaviour of the channel-fault layer.
//!
//! Faults are injected by `echo-sim`'s [`FaultPlan`], screened out by
//! the core health module, and imaged around by the degraded pipeline.
//! These tests pin the contract: a fully-dead channel changes *nothing*
//! about the image the surviving subset produces, the degraded path is
//! bit-identical across thread counts, and a capture with too few
//! healthy microphones is rejected with a typed error — never a panic.
//!
//! The thread count under test comes from `ECHOIMAGE_THREADS` (default
//! `0`, auto), so CI can run the same suite pinned serial and with the
//! pool; the serial reference inside each test is always an explicit
//! `threads = 1` pipeline.

use echo_ml::GrayImage;
use echo_sim::{BodyModel, ChannelFault, FaultKind, FaultPlan, Placement, Scene, SceneConfig};
use echoimage_core::auth::AuthAttempt;
use echoimage_core::config::ImagingConfig;
use echoimage_core::enrollment::{enroll_features, EnrollRequest, EnrollmentConfig};
use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig, TrainRequest};
use echoimage_core::{
    AuthDecision, Authenticator, ChannelHealth, DistanceEstimate, EchoImageError, RetryPolicy,
};

/// Worker threads for the pipeline under test (`ECHOIMAGE_THREADS`,
/// default auto).
fn pool_threads() -> usize {
    echoimage_core::par::threads_from_env().expect("invalid ECHOIMAGE_THREADS")
}

fn config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        imaging: ImagingConfig {
            grid_n: 16,
            grid_spacing: 0.1,
            ..ImagingConfig::default()
        },
        threads,
        ..PipelineConfig::default()
    }
}

fn assert_images_bit_identical(a: &[GrayImage], b: &[GrayImage]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        let (px, py) = (x.pixels(), y.pixels());
        assert_eq!(px.len(), py.len());
        for (p, q) in px.iter().zip(py.iter()) {
            assert_eq!(p.to_bits(), q.to_bits(), "pixel bits diverged");
        }
    }
}

/// The health-screened route: images, estimate and the screen's verdict.
fn screened(
    pipeline: &EchoImagePipeline,
    captures: &[echo_sim::BeepCapture],
) -> Result<(Vec<GrayImage>, DistanceEstimate, ChannelHealth), EchoImageError> {
    let request = TrainRequest {
        screen: true,
        ..TrainRequest::new(captures)
    };
    let train = pipeline.images(&request)?;
    Ok((
        train.images,
        train.estimate,
        train.health.expect("screened"),
    ))
}

fn train(seed: u64, body_seed: u64, beeps: usize, salt: u64) -> Vec<echo_sim::BeepCapture> {
    let scene = Scene::new(SceneConfig::laboratory_quiet(seed));
    let body = BodyModel::from_seed(body_seed);
    scene.capture_train(&body, &Placement::standing_front(0.7), 0, beeps, salt)
}

#[test]
fn dead_channel_images_match_direct_subset_pipeline() {
    let caps = train(31, 61, 2, 0);
    let plan = FaultPlan::new(7).with_fault(2, ChannelFault::Dead);
    let faulted = plan.apply_train(&caps);

    let pipeline = EchoImagePipeline::new(config(pool_threads()));
    let (degraded, est, health) = screened(&pipeline, &faulted).unwrap();
    assert!(!health.is_healthy(2), "dead mic 2 must be flagged");
    assert_eq!(health.healthy_indices(), vec![0, 1, 3, 4, 5]);

    // Reference: hand-build the 5-mic pipeline on hand-selected channels.
    let healthy = [0usize, 1, 3, 4, 5];
    let sub_caps: Vec<_> = faulted
        .iter()
        .map(|c| c.select_channels(&healthy))
        .collect();
    let sub_pipeline =
        EchoImagePipeline::with_array(config(pool_threads()), pipeline.array().subset(&healthy));
    let train = sub_pipeline.images(&TrainRequest::new(&sub_caps)).unwrap();
    let (reference, ref_est) = (train.images, train.estimate);
    assert_eq!(
        est.horizontal_distance.to_bits(),
        ref_est.horizontal_distance.to_bits()
    );
    assert_images_bit_identical(&degraded, &reference);
}

#[test]
fn degraded_imaging_is_bit_identical_across_thread_counts() {
    let caps = train(37, 62, 3, 0);
    let plan = FaultPlan::new(11)
        .with_fault(0, ChannelFault::Dead)
        .with_fault(4, ChannelFault::from_severity(FaultKind::Clipping, 1.0));
    let faulted = plan.apply_train(&caps);

    let (serial, est_serial, _) = screened(&EchoImagePipeline::new(config(1)), &faulted).unwrap();
    let (pooled, est_pooled, _) =
        screened(&EchoImagePipeline::new(config(pool_threads())), &faulted).unwrap();
    assert_eq!(
        est_serial.horizontal_distance.to_bits(),
        est_pooled.horizontal_distance.to_bits()
    );
    assert_images_bit_identical(&serial, &pooled);
}

#[test]
fn healthy_train_takes_the_bit_identical_normal_path() {
    let caps = train(41, 63, 2, 0);
    let pipeline = EchoImagePipeline::new(config(pool_threads()));
    let train = pipeline.images(&TrainRequest::new(&caps)).unwrap();
    let (normal, est_n) = (train.images, train.estimate);
    let (degraded, est_d, health) = screened(&pipeline, &caps).unwrap();
    assert!(health.all_healthy());
    assert_eq!(
        est_n.horizontal_distance.to_bits(),
        est_d.horizontal_distance.to_bits()
    );
    assert_images_bit_identical(&normal, &degraded);
}

#[test]
fn every_fault_kind_yields_a_decision_or_a_typed_reject() {
    // Enrol on a clean train once, then probe with each fault kind at
    // full severity on two microphones. The contract is graceful
    // degradation: every probe either authenticates (Ok) or is rejected
    // with the typed DegradedCapture error — no panics, no other errors.
    let pipeline = EchoImagePipeline::new(config(pool_threads()));
    let enroll_feats = pipeline.features_from_train(&train(43, 64, 6, 0)).unwrap();
    let auth = Authenticator::enroll(&[(1, enroll_feats)], &Default::default()).unwrap();

    for (i, &kind) in FaultKind::ALL.iter().enumerate() {
        let caps = train(43, 64, 3, 1_000 + i as u64);
        let plan = FaultPlan::uniform(kind, 1.0, &[1, 4], 19 + i as u64);
        let faulted = plan.apply_train(&caps);
        match auth.authenticate_train(&pipeline, &faulted, AuthAttempt::default()) {
            Ok(_) => {}
            Err(EchoImageError::DegradedCapture {
                healthy, required, ..
            }) => {
                assert!(healthy < required, "{kind:?}: inconsistent reject");
            }
            Err(e) => panic!("{kind:?}: unexpected error {e}"),
        }
    }
}

#[test]
fn two_dead_mics_still_enrol_and_authenticate_the_right_user() {
    // The acceptance bar: any 2 of 6 microphones dead, the system still
    // enrols and authenticates via the mic-subset mask. A hardware
    // fault is persistent — enrolment sees the same dead microphones as
    // authentication, and both flow through the same health screen.
    let pipeline = EchoImagePipeline::new(config(pool_threads()));
    let plan = FaultPlan::uniform(FaultKind::Dead, 1.0, &[1, 4], 23);

    let scene = Scene::new(SceneConfig::laboratory_quiet(47));
    let body = BodyModel::from_seed(65);
    let visits: Vec<_> = (0..3u32)
        .map(|v| {
            plan.apply_train(&scene.capture_train(
                &body,
                &Placement::standing_front(0.7),
                v,
                3,
                v as u64 * 500,
            ))
        })
        .collect();
    let request = EnrollRequest {
        visits: &visits,
        recipe: &EnrollmentConfig::default(),
        screen: true,
        parent: None,
    };
    let (enroll_feats, health) = enroll_features(&pipeline, &request).unwrap();
    assert_eq!(health.unwrap().healthy_indices(), vec![0, 2, 3, 5]);
    let auth = Authenticator::enroll(&[(1, enroll_feats)], &Default::default()).unwrap();

    let probe = plan.apply_train(&train(47, 65, 4, 5_000));
    let decision = auth
        .authenticate_train(&pipeline, &probe, AuthAttempt::default())
        .unwrap();
    assert_eq!(decision, AuthDecision::Accepted { user_id: 1 });

    // A different body probing through the same degraded hardware must
    // still be gated out — degradation shrinks the array, not security.
    let scene = Scene::new(SceneConfig::laboratory_quiet(47));
    let impostor = BodyModel::from_seed(90);
    let imp_caps =
        plan.apply_train(&scene.capture_train(&impostor, &Placement::standing_front(0.7), 0, 4, 0));
    let imp_decision = auth
        .authenticate_train(&pipeline, &imp_caps, AuthAttempt::default())
        .unwrap();
    assert_eq!(imp_decision, AuthDecision::Rejected);
}

#[test]
fn too_many_dead_mics_reject_with_counts() {
    let caps = train(53, 66, 2, 0);
    let plan = FaultPlan::uniform(FaultKind::Dead, 1.0, &[0, 2, 3, 5], 29);
    let pipeline = EchoImagePipeline::new(config(pool_threads()));
    let err = screened(&pipeline, &plan.apply_train(&caps)).unwrap_err();
    assert_eq!(
        err,
        EchoImageError::DegradedCapture {
            healthy: 2,
            required: 3,
            mask: 0b10_1101
        }
    );
}

#[test]
fn retry_recovers_when_a_later_train_is_clean() {
    // Enrol with the production recipe (plane diversity + augmentation)
    // so a fresh clean train authenticates; a bare single-plane cloud
    // is too tight for majority voting on unseen probes.
    let pipeline = EchoImagePipeline::new(config(pool_threads()));
    let scene = Scene::new(SceneConfig::laboratory_quiet(59));
    let body = BodyModel::from_seed(67);
    let visits: Vec<_> = (0..3u32)
        .map(|v| scene.capture_train(&body, &Placement::standing_front(0.7), v, 3, v as u64 * 500))
        .collect();
    let enroll_feats = echoimage_core::enrollment::enrollment_features(
        &pipeline,
        &visits,
        &echoimage_core::enrollment::EnrollmentConfig::default(),
    )
    .unwrap();
    let auth = Authenticator::enroll(&[(1, enroll_feats)], &Default::default()).unwrap();

    let dead4 = FaultPlan::uniform(FaultKind::Dead, 1.0, &[0, 1, 2, 3], 31);
    let mut attempts_seen = 0usize;
    let decision = auth
        .authenticate_train_with_retry(&pipeline, &RetryPolicy::default(), |attempt| {
            attempts_seen += 1;
            let caps = train(59, 67, 3, 9_000 + attempt as u64);
            if attempt == 0 {
                dead4.apply_train(&caps)
            } else {
                caps
            }
        })
        .unwrap();
    assert_eq!(attempts_seen, 2, "first attempt must have been retried");
    assert_eq!(decision, AuthDecision::Accepted { user_id: 1 });

    // Permanently degraded hardware exhausts the policy and surfaces
    // the last typed error.
    let err = auth
        .authenticate_train_with_retry(&pipeline, &RetryPolicy { max_attempts: 3 }, |attempt| {
            dead4.apply_train(&train(59, 67, 2, 12_000 + attempt as u64))
        })
        .unwrap_err();
    assert!(matches!(err, EchoImageError::DegradedCapture { .. }));
}
