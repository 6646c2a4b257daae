//! Extension: physical presentation attacks beyond other humans.
//!
//! The paper's motivation is that voice can be replayed through a
//! loudspeaker; EchoImage defends because a loudspeaker does not *look*
//! (acoustically) like the enrolled person's body. These tests present
//! non-body reflectors — a flat panel (a loudspeaker cabinet), a bare
//! point reflector, and an empty room — and require the gate to reject
//! them all.

use echo_array::Vec3;
use echoimage::core::auth::{AuthConfig, Authenticator};
use echoimage::core::config::ImagingConfig;
use echoimage::core::pipeline::{EchoImagePipeline, PipelineConfig, TrainRequest};
use echoimage::sim::{BodyModel, Placement, Scatterer, Scene, SceneConfig};

fn small_pipeline() -> EchoImagePipeline {
    let cfg = PipelineConfig {
        imaging: ImagingConfig {
            grid_n: 16,
            grid_spacing: 0.1,
            ..ImagingConfig::default()
        },
        ..PipelineConfig::default()
    };
    EchoImagePipeline::new(cfg)
}

/// A flat rigid panel (e.g. a loudspeaker box) facing the array.
fn panel(distance: f64, width: f64, height: f64, reflectivity: f64) -> Vec<Scatterer> {
    let mut out = Vec::new();
    let (nx, nz) = (9, 9);
    for i in 0..nx {
        for j in 0..nz {
            let x = (i as f64 / (nx - 1) as f64 - 0.5) * width;
            let z = (j as f64 / (nz - 1) as f64 - 0.5) * height;
            out.push(Scatterer {
                position: Vec3::new(x, distance, z),
                reflectivity: reflectivity / (nx * nz) as f64,
            });
        }
    }
    out
}

fn enrol(scene: &Scene, pipeline: &EchoImagePipeline, body: &BodyModel) -> Authenticator {
    let placement = Placement::standing_front(0.7);
    let mut feats = Vec::new();
    for v in 0..3u32 {
        let caps = scene.capture_train(body, &placement, v, 4, v as u64 * 1_000);
        let train = pipeline
            .images(&TrainRequest {
                plane_offsets: &[-0.03, 0.03],
                ..TrainRequest::new(&caps)
            })
            .expect("enrolment failed");
        feats.extend(train.images.iter().map(|i| pipeline.features(i)));
    }
    Authenticator::enroll(&[(1, feats)], &AuthConfig::default()).expect("enrol failed")
}

#[test]
fn loudspeaker_panel_is_rejected() {
    let scene = Scene::new(SceneConfig::laboratory_quiet(61));
    let pipeline = small_pipeline();
    let user = BodyModel::from_seed(20);
    let auth = enrol(&scene, &pipeline, &user);

    // Replay rig: a 0.4 × 0.5 m panel at the user's spot.
    let rig = panel(0.7, 0.4, 0.5, 1.0);
    let caps: Vec<_> = (0..3)
        .map(|b| scene.capture_beep_from(&rig, 9, 40_000 + b))
        .collect();
    match pipeline.features_from_train(&caps) {
        Ok(feats) => {
            let accepted = feats
                .iter()
                .filter(|f| auth.authenticate(f).is_accepted())
                .count();
            assert_eq!(
                accepted,
                0,
                "panel accepted {accepted}/{} times",
                feats.len()
            );
        }
        Err(_) => { /* no usable echo — also a rejection */ }
    }
}

#[test]
fn bare_point_reflector_is_rejected() {
    let scene = Scene::new(SceneConfig::laboratory_quiet(67));
    let pipeline = small_pipeline();
    let user = BodyModel::from_seed(21);
    let auth = enrol(&scene, &pipeline, &user);

    let point = vec![Scatterer {
        position: Vec3::new(0.0, 0.7, 0.1),
        reflectivity: 1.0,
    }];
    let caps: Vec<_> = (0..3)
        .map(|b| scene.capture_beep_from(&point, 9, 50_000 + b))
        .collect();
    if let Ok(feats) = pipeline.features_from_train(&caps) {
        let accepted = feats
            .iter()
            .filter(|f| auth.authenticate(f).is_accepted())
            .count();
        assert_eq!(accepted, 0, "point reflector accepted");
    }
}

#[test]
fn empty_room_replay_is_rejected() {
    // A remote attacker replays voice with no one standing there at all.
    let scene = Scene::new(SceneConfig::laboratory_quiet(71));
    let pipeline = small_pipeline();
    let user = BodyModel::from_seed(22);
    let auth = enrol(&scene, &pipeline, &user);

    let caps: Vec<_> = (0..3).map(|b| scene.capture_empty(9, 60_000 + b)).collect();
    if let Ok(feats) = pipeline.features_from_train(&caps) {
        let accepted = feats
            .iter()
            .filter(|f| auth.authenticate(f).is_accepted())
            .count();
        assert_eq!(accepted, 0, "empty room accepted");
    }
}
