//! Parity of the pipeline's shared-signal imaging with the standalone
//! stage calls.
//!
//! The pipeline transforms each beep to its per-channel analytic signal
//! once, ranges and images from those buffers, and designs each plane's
//! weights once per train. The standalone entry points —
//! `distance::estimate_distance`, `distance::resolve_covariance` and
//! `imaging::construct_image_with_covariance`, the calls a stage-by-stage
//! replay makes — compute the same buffers and weights per call. These
//! tests pin the two routes to bit-identical estimates and images on
//! the healthy route, the degraded route (one faulted channel) and the
//! multi-plane enrolment route, at the `ECHOIMAGE_THREADS` count under
//! test. A last test pins the imaging kernel against the per-cell
//! complex multiply–accumulate it replaced, kept here as the oracle.

use echo_array::MicArray;
use echo_beamform::{das_weights, MvdrDesigner, SpatialCovariance};
use echo_dsp::hilbert::analytic_signal_padded;
use echo_dsp::{Complex, SPEED_OF_SOUND};
use echo_ml::GrayImage;
use echo_sim::{BeepCapture, BodyModel, ChannelFault, FaultPlan, Placement, Scene, SceneConfig};
use echoimage_core::config::{BeamformerKind, ImagingConfig};
use echoimage_core::distance::{self, DistanceEstimate};
use echoimage_core::imaging;
use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig};
use echoimage_core::steering_cache;

/// Worker threads for the pipeline under test (`ECHOIMAGE_THREADS`,
/// default auto).
fn pool_threads() -> usize {
    echoimage_core::par::threads_from_env().expect("invalid ECHOIMAGE_THREADS")
}

fn config() -> PipelineConfig {
    PipelineConfig::default().with_threads(pool_threads())
}

fn train(beeps: usize) -> Vec<BeepCapture> {
    let scene = Scene::new(SceneConfig::laboratory_quiet(17));
    let body = BodyModel::from_seed(43);
    scene.capture_train(&body, &Placement::standing_front(0.7), 0, beeps, 0)
}

fn assert_images_bit_identical(a: &[GrayImage], b: &[GrayImage]) {
    assert_eq!(a.len(), b.len(), "image count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!((x.width(), x.height()), (y.width(), y.height()));
        for (p, q) in x.pixels().iter().zip(y.pixels()) {
            assert_eq!(p.to_bits(), q.to_bits(), "image {i}: pixel bits diverged");
        }
    }
}

fn assert_estimates_bit_identical(a: &DistanceEstimate, b: &DistanceEstimate) {
    assert_eq!(
        a.horizontal_distance.to_bits(),
        b.horizontal_distance.to_bits()
    );
    assert_eq!((a.direct_peak, a.echo_peak), (b.direct_peak, b.echo_peak));
    assert_eq!(a.envelope.len(), b.envelope.len());
    for (x, y) in a.envelope.iter().zip(&b.envelope) {
        assert_eq!(x.to_bits(), y.to_bits(), "envelope bits diverged");
    }
}

/// The standalone route: band-pass every beep, range, pool one
/// covariance, then image every beep on every plane (the estimate's
/// plane, then one per offset) with its own analytic signal and weights.
fn standalone(
    pipeline: &EchoImagePipeline,
    array: &MicArray,
    captures: &[BeepCapture],
    plane_offsets: &[f64],
) -> (Vec<GrayImage>, DistanceEstimate) {
    let cfg = pipeline.config();
    let filtered: Vec<BeepCapture> = captures.iter().map(|c| pipeline.preprocess(c)).collect();
    let est = distance::estimate_distance(&filtered, array, cfg).unwrap();
    let cov = distance::resolve_covariance(&filtered, array, cfg);
    let mut planes = vec![est.horizontal_distance];
    planes.extend(
        plane_offsets
            .iter()
            .map(|o| (est.horizontal_distance + o).max(0.2)),
    );
    let images = filtered
        .iter()
        .flat_map(|c| planes.iter().map(move |&d| (c, d)))
        .map(|(c, d)| imaging::construct_image_with_covariance(c, array, d, &cov, cfg).unwrap())
        .collect();
    (images, est)
}

#[test]
fn healthy_train_matches_standalone_calls() {
    let caps = train(3);
    let pipeline = EchoImagePipeline::new(config());
    let (images, est) = pipeline.images_from_train(&caps).unwrap();
    let (want, want_est) = standalone(&pipeline, pipeline.array(), &caps, &[]);
    assert_eq!(images.len(), 3);
    assert_estimates_bit_identical(&est, &want_est);
    assert_images_bit_identical(&images, &want);
}

#[test]
fn degraded_train_matches_standalone_calls_on_the_survivors() {
    let caps = train(3);
    let faulted = FaultPlan::new(5)
        .with_fault(4, ChannelFault::Dead)
        .apply_train(&caps);
    let pipeline = EchoImagePipeline::new(config());
    let (images, est, health) = pipeline.images_from_train_degraded(&faulted).unwrap();
    let healthy = health.healthy_indices();
    assert_eq!(healthy, vec![0, 1, 2, 3, 5], "dead mic 4 must be excised");

    let sub_caps: Vec<BeepCapture> = faulted
        .iter()
        .map(|c| c.select_channels(&healthy))
        .collect();
    let sub_array = pipeline.array().subset(&healthy);
    let (want, want_est) = standalone(&pipeline, &sub_array, &sub_caps, &[]);
    assert_estimates_bit_identical(&est, &want_est);
    assert_images_bit_identical(&images, &want);
}

#[test]
fn multi_plane_images_match_standalone_calls() {
    let caps = train(3);
    let offsets = [-0.05, 0.05];
    let pipeline = EchoImagePipeline::new(config());
    let (images, est) = pipeline
        .images_from_train_multi_plane(&caps, &offsets)
        .unwrap();
    let (want, want_est) = standalone(&pipeline, pipeline.array(), &caps, &offsets);
    assert_eq!(images.len(), 9, "3 beeps × 3 planes, capture-major");
    assert_estimates_bit_identical(&est, &want_est);
    assert_images_bit_identical(&images, &want);
}

/// The imaging loop before the shared-signal rewrite, given the same
/// padded analytic signal: per-cell weights, then the complex
/// multiply–accumulate `Σ_m conj(w_m)·x_m[t]` over the gate, keeping
/// the energy of the real part.
fn complex_loop_image(
    capture: &BeepCapture,
    array: &MicArray,
    horizontal_distance: f64,
    cov: &SpatialCovariance,
    config: &PipelineConfig,
) -> GrayImage {
    let icfg = &config.imaging;
    let fs = capture.sample_rate();
    let n = capture.len();
    let analytic: Vec<Vec<Complex>> = capture
        .channels()
        .iter()
        .map(|ch| analytic_signal_padded(ch))
        .collect();
    let guard = (icfg.safeguard * fs).round() as usize;
    let chirp_len = config.beep.chirp_samples();
    let field = steering_cache::compute_field(
        array,
        icfg,
        horizontal_distance,
        config.beep.center_frequency(),
    );
    let designer = MvdrDesigner::new(cov).unwrap();
    let mut image = GrayImage::zeros(icfg.grid_n, icfg.grid_n);
    for row in 0..icfg.grid_n {
        for col in 0..icfg.grid_n {
            let cell = field.cell(col, row);
            let weights = match icfg.beamformer {
                BeamformerKind::Mvdr => designer.weights(&cell.steering).unwrap(),
                BeamformerKind::DelayAndSum => das_weights(&cell.steering),
            };
            let center = capture.preroll() as f64 + 2.0 * cell.distance / SPEED_OF_SOUND * fs;
            let start = (center as isize - guard as isize).max(0) as usize;
            let end = ((center as usize).saturating_add(guard + chirp_len)).min(n);
            let mut energy = 0.0;
            for t in start..end {
                let mut acc = Complex::ZERO;
                for (ch, &w) in analytic.iter().zip(weights.iter()) {
                    acc += w.conj() * ch[t];
                }
                energy += acc.re * acc.re;
            }
            image.set(col, row, energy.sqrt());
        }
    }
    image
}

#[test]
fn gated_kernel_matches_the_complex_loop_oracle() {
    let caps = train(1);
    let array = MicArray::respeaker_6();
    for beamformer in [BeamformerKind::Mvdr, BeamformerKind::DelayAndSum] {
        // The paper's grid spacing at a finer grid, so gates at the
        // plane's edges and its centre are both exercised.
        let cfg = PipelineConfig {
            imaging: ImagingConfig {
                grid_n: 40,
                beamformer,
                ..ImagingConfig::default()
            },
            ..config()
        };
        let pipeline = EchoImagePipeline::new(cfg);
        let filtered = pipeline.preprocess(&caps[0]);
        let cov = distance::resolve_covariance(
            std::slice::from_ref(&filtered),
            &array,
            pipeline.config(),
        );
        for d in [0.5, 0.7, 1.3] {
            let got = imaging::construct_image_with_covariance(
                &filtered,
                &array,
                d,
                &cov,
                pipeline.config(),
            )
            .unwrap();
            let want = complex_loop_image(&filtered, &array, d, &cov, pipeline.config());
            assert!(want.pixels().iter().any(|&p| p > 0.0));
            assert_images_bit_identical(&[got], &[want]);
        }
    }
}
