//! Bit-level determinism of the batched feature path.
//!
//! The im2col+GEMM forward pass, the batched extractors and the FFT
//! plan cache are all claimed bit-identical to their serial / per-call
//! counterparts. These tests hold the claims to
//! `f64::to_bits` equality, because an enrolment template must not
//! depend on core count, batch size, or warm caches.
//!
//! The thread count under test comes from `ECHOIMAGE_THREADS` (default
//! `0`, auto), so CI runs the same suite pinned serial and with the
//! pool; the reference inside each test is always `threads = 1`.

use echo_ml::GrayImage;
use echo_sim::{BodyModel, Placement, Scene, SceneConfig};
use echoimage_core::config::ImagingConfig;
use echoimage_core::features::ImageFeatures;
use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig};

/// Worker threads for the path under test (`ECHOIMAGE_THREADS`,
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

fn test_images(count: usize) -> Vec<GrayImage> {
    (0..count)
        .map(|k| {
            GrayImage::from_fn(30 + k % 7, 25 + (k * 3) % 11, move |x, y| {
                ((x * 13 + y * 7 + k * 29) % 61) as f64 / 3.0
            })
        })
        .collect()
}

fn assert_features_bit_identical(a: &[Vec<f64>], b: &[Vec<f64>]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.len(), y.len());
        for (p, q) in x.iter().zip(y.iter()) {
            assert_eq!(p.to_bits(), q.to_bits(), "feature bits diverged");
        }
    }
}

#[test]
fn batch_extraction_matches_serial_at_pool_threads() {
    let fx = ImageFeatures::new();
    let images = test_images(9);
    let serial: Vec<Vec<f64>> = images.iter().map(|i| fx.extract(i)).collect();
    let batched = fx.extract_batch_threaded(&images, pool_threads());
    assert_features_bit_identical(&serial, &batched);
}

#[test]
fn batch_size_does_not_change_features() {
    // The same image must produce the same bits whether extracted
    // alone, at the front of a batch, or buried in a bigger batch
    // (scratch arenas must not leak state between images).
    let fx = ImageFeatures::new();
    let images = test_images(8);
    let alone = fx.extract(&images[5]);
    for batch_size in [2usize, 4, 8] {
        let batch = fx.extract_batch_threaded(&images[..batch_size.max(6)], pool_threads());
        if batch.len() > 5 {
            assert_features_bit_identical(std::slice::from_ref(&alone), &batch[5..6]);
        }
    }
    let full = fx.extract_batch(&images);
    assert_features_bit_identical(std::slice::from_ref(&alone), &full[5..6]);
}

#[test]
fn train_features_match_serial_reference_end_to_end() {
    let scene = Scene::new(SceneConfig::laboratory_quiet(17));
    let body = BodyModel::from_seed(23);
    let caps = scene.capture_train(&body, &Placement::standing_front(0.7), 0, 3, 0);

    let serial = EchoImagePipeline::new(config(1))
        .features_from_train(&caps)
        .unwrap();
    let pooled = EchoImagePipeline::new(config(pool_threads()))
        .features_from_train(&caps)
        .unwrap();
    assert_features_bit_identical(&serial, &pooled);
}

#[test]
fn distance_is_bit_identical_across_fft_plan_cache_states() {
    let scene = Scene::new(SceneConfig::laboratory_quiet(13));
    let body = BodyModel::from_seed(5);
    let caps = scene.capture_train(&body, &Placement::standing_front(0.8), 0, 2, 0);
    let pipeline = EchoImagePipeline::new(config(pool_threads()));

    echo_dsp::plan::clear_plan_cache();
    let cold = pipeline.estimate_distance(&caps).unwrap();
    assert!(echo_dsp::plan::plan_cache_len() >= 1, "plans were cached");
    let warm = pipeline.estimate_distance(&caps).unwrap();

    assert_eq!(
        cold.horizontal_distance.to_bits(),
        warm.horizontal_distance.to_bits()
    );
    assert_eq!(cold.direct_peak, warm.direct_peak);
    assert_eq!(cold.echo_peak, warm.echo_peak);
    assert_eq!(cold.envelope.len(), warm.envelope.len());
    for (a, b) in cold.envelope.iter().zip(warm.envelope.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "envelope bits diverged");
    }
}
