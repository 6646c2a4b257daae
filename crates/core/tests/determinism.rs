//! Bit-level determinism of the parallel imaging engine.
//!
//! The parallel sweep and the precomputed MVDR designer are both
//! claimed to be *bit-identical* to the serial reference path. These
//! tests hold that claim to `f64::to_bits` equality — not approximate
//! closeness — because a biometric template must not depend on the
//! machine's core count.

use echo_ml::GrayImage;
use echo_sim::{BodyModel, Placement, Scene, SceneConfig};
use echoimage_core::config::ImagingConfig;
use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig, TrainRequest};

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

#[test]
fn four_threads_match_serial_reference() {
    let scene = Scene::new(SceneConfig::laboratory_quiet(11));
    let body = BodyModel::from_seed(21);
    let caps = scene.capture_train(&body, &Placement::standing_front(0.7), 0, 3, 0);

    let train = EchoImagePipeline::new(config(1))
        .images(&TrainRequest::new(&caps))
        .unwrap();
    let (serial, est_serial) = (train.images, train.estimate);
    for threads in [2, 4] {
        let train = EchoImagePipeline::new(config(threads))
            .images(&TrainRequest::new(&caps))
            .unwrap();
        let (parallel, est_parallel) = (train.images, train.estimate);
        assert_eq!(
            est_serial.horizontal_distance.to_bits(),
            est_parallel.horizontal_distance.to_bits()
        );
        assert_images_bit_identical(&serial, &parallel);
    }
}

#[test]
fn multi_plane_fanout_matches_serial_reference() {
    let scene = Scene::new(SceneConfig::laboratory_quiet(13));
    let body = BodyModel::from_seed(22);
    let caps = scene.capture_train(&body, &Placement::standing_front(0.7), 0, 2, 0);
    let offsets = [-0.03, 0.03];

    let request = TrainRequest {
        plane_offsets: &offsets,
        ..TrainRequest::new(&caps)
    };
    let serial = EchoImagePipeline::new(config(1))
        .images(&request)
        .unwrap()
        .images;
    let parallel = EchoImagePipeline::new(config(4))
        .images(&request)
        .unwrap()
        .images;
    // capture-major order: (beeps) × (estimate + two offsets).
    assert_eq!(serial.len(), 2 * 3);
    assert_images_bit_identical(&serial, &parallel);
}

#[test]
fn auto_thread_count_matches_serial_reference() {
    // threads = 0 resolves to available parallelism — whatever that is
    // on the machine running this test, the image must not change.
    let scene = Scene::new(SceneConfig::laboratory_quiet(19));
    let body = BodyModel::from_seed(24);
    let caps = scene.capture_train(&body, &Placement::standing_front(0.7), 0, 2, 0);

    let serial = EchoImagePipeline::new(config(1))
        .images(&TrainRequest::new(&caps))
        .unwrap()
        .images;
    let auto = EchoImagePipeline::new(config(0))
        .images(&TrainRequest::new(&caps))
        .unwrap()
        .images;
    assert_images_bit_identical(&serial, &auto);
}
