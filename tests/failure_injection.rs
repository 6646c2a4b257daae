//! Failure injection: the pipeline must degrade gracefully, not panic,
//! when captures are saturated, silent, empty-scene or mis-steered.

use echoimage::core::config::ImagingConfig;
use echoimage::core::pipeline::{EchoImagePipeline, PipelineConfig, TrainImages, TrainRequest};
use echoimage::core::EchoImageError;
use echoimage::sim::{BeepCapture, BodyModel, Placement, Scene, SceneConfig};

fn small_pipeline() -> EchoImagePipeline {
    let cfg = PipelineConfig {
        imaging: ImagingConfig {
            grid_n: 12,
            grid_spacing: 0.12,
            ..ImagingConfig::default()
        },
        ..PipelineConfig::default()
    };
    EchoImagePipeline::new(cfg)
}

#[test]
fn saturated_microphones_still_range() {
    let scene = Scene::new(SceneConfig::laboratory_quiet(41));
    let body = BodyModel::from_seed(14);
    let caps: Vec<BeepCapture> = scene
        .capture_train(&body, &Placement::standing_front(0.7), 0, 4, 0)
        .iter()
        .map(|c| c.clipped(0.3))
        .collect();
    let p = small_pipeline();
    // Hard clipping distorts but must neither panic nor produce NaN.
    match p.estimate_distance(&caps) {
        Ok(est) => {
            assert!(est.horizontal_distance.is_finite());
            assert!(est.horizontal_distance > 0.0);
        }
        Err(e) => {
            // A graceful error is acceptable under heavy distortion.
            assert!(matches!(
                e,
                EchoImageError::EchoNotFound | EchoImageError::DirectPathNotFound
            ));
        }
    }
}

#[test]
fn empty_room_reports_no_echo_or_far_junk() {
    let scene = Scene::new(SceneConfig::laboratory_quiet(43));
    let caps: Vec<BeepCapture> = (0..4).map(|b| scene.capture_empty(0, b)).collect();
    let p = small_pipeline();
    match p.estimate_distance(&caps) {
        // Either no echo is found…
        Err(e) => assert!(matches!(e, EchoImageError::EchoNotFound)),
        // …or an environment reflector is ranged — which must then be
        // far from where a user would stand.
        Ok(est) => assert!(
            est.horizontal_distance > 1.0,
            "empty room produced a user-like distance {}",
            est.horizontal_distance
        ),
    }
}

#[test]
fn silent_captures_error_cleanly() {
    let silent: Vec<BeepCapture> = (0..2)
        .map(|_| BeepCapture::new(vec![vec![0.0; 3_360]; 6], 48_000.0, 480))
        .collect();
    let p = small_pipeline();
    assert!(matches!(
        p.estimate_distance(&silent),
        Err(EchoImageError::DirectPathNotFound)
    ));
}

#[test]
fn imaging_with_wildly_wrong_distance_still_yields_finite_image() {
    let scene = Scene::new(SceneConfig::laboratory_quiet(47));
    let body = BodyModel::from_seed(15);
    let cap = scene.capture_beep(&body, &Placement::standing_front(0.7), 0, 0);
    let p = small_pipeline();
    for wrong in [0.25, 3.0] {
        let img = p.acoustic_image(&cap, wrong).expect("imaging failed");
        assert!(img.pixels().iter().all(|v| v.is_finite() && *v >= 0.0));
    }
}

#[test]
fn dropped_beeps_in_a_train_are_tolerated() {
    // A train of one beep is the degenerate minimum: everything must
    // still run (the paper uses L = 20 for ranging, but the pipeline
    // cannot assume it).
    let scene = Scene::new(SceneConfig::laboratory_quiet(53));
    let body = BodyModel::from_seed(16);
    let caps = scene.capture_train(&body, &Placement::standing_front(0.7), 0, 1, 0);
    let p = small_pipeline();
    let train = p
        .images(&TrainRequest::new(&caps))
        .expect("single-beep train failed");
    let (images, est) = (train.images, train.estimate);
    assert_eq!(images.len(), 1);
    assert!((est.horizontal_distance - 0.7).abs() < 0.3);
}

#[test]
fn extreme_noise_degrades_but_does_not_panic() {
    use echoimage::sim::noise::NoiseGenerator;
    use echoimage::sim::{EnvironmentKind, NoiseKind};
    // Crank chatter up to 75 dB — far beyond the paper's 50 dB.
    let mut cfg =
        SceneConfig::with_environment(EnvironmentKind::Laboratory, NoiseKind::Chatter, 59);
    cfg.noise = NoiseGenerator::new(NoiseKind::Chatter, 75.0, 48_000.0);
    let scene = Scene::new(cfg);
    let body = BodyModel::from_seed(17);
    let caps = scene.capture_train(&body, &Placement::standing_front(0.7), 0, 4, 0);
    let p = small_pipeline();
    match p.images(&TrainRequest::new(&caps)) {
        Ok(TrainImages { images, .. }) => {
            assert!(images
                .iter()
                .all(|i| i.pixels().iter().all(|v| v.is_finite())));
        }
        Err(e) => {
            assert!(matches!(
                e,
                EchoImageError::EchoNotFound | EchoImageError::DirectPathNotFound
            ));
        }
    }
}

#[test]
fn bystander_walking_past_does_not_break_the_pipeline() {
    use echoimage::sim::{BodyModel as BM, Bystander};
    let scene = Scene::new(SceneConfig::laboratory_quiet(83));
    let user = BM::from_seed(30);
    let walker = Bystander::walking_past(BM::from_seed(31));
    let placement = Placement::standing_front(0.7);
    let caps: Vec<BeepCapture> = (0..4)
        .map(|b| scene.capture_beep_with_bystander(&user, &placement, 0, b, &walker))
        .collect();
    let p = small_pipeline();
    // The user is much closer than the walker: ranging must still find
    // the user, and imaging must stay finite.
    let train = p
        .images(&TrainRequest::new(&caps))
        .expect("pipeline failed");
    let (images, est) = (train.images, train.estimate);
    assert!(
        (est.horizontal_distance - 0.7).abs() < 0.25,
        "estimate {} with a bystander",
        est.horizontal_distance
    );
    assert!(images
        .iter()
        .all(|i| i.pixels().iter().all(|v| v.is_finite())));
}
