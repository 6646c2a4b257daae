//! Anti-replay spatial check on the imaging path (DESIGN.md §14).
//!
//! A genuine user's echo is the superposition of hundreds of
//! speaker→scatterer→microphone paths spread across bearing; the MVDR
//! image of such a train has angular *structure* — intensity
//! concentrates where the body actually is. A loudspeaker replaying a
//! recorded capture is a single point source: every microphone receives
//! the same waveform, the array sees no angular diversity at all, and
//! the beamformed image collapses to a function of range alone — a
//! smooth ring-like intensity spread across the whole plane. (This is
//! the acoustic-map replay signature of Neri & Virtanen, applied to
//! EchoImage's probing beeps.)
//!
//! The statistic is therefore the **normalized spatial spread** of the
//! acoustic image: the intensity-weighted RMS distance of pixels from
//! the intensity centroid, normalized by the spread of a uniform image,
//! averaged over the train's beeps. Live bodies image compactly
//! (≈0.7–0.77 in the reference simulator); point-source replays flatten
//! toward uniformity (≈0.85–0.92). An attempt whose spread exceeds
//! [`SpatialCheckConfig::max_coherence`] is rejected with
//! [`RejectKind::ReplaySignature`] before feature extraction.
//!
//! Waveform-domain pair correlation was deliberately rejected for this
//! job: the dominant chest echo of a live body is so compact that its
//! inter-channel coherence is indistinguishable from a loudspeaker's
//! once sub-sample lag alignment is accounted for, and the measurement
//! mostly tracks the echo's signal-to-noise ratio instead of its
//! geometry. The image-domain statistic uses the array's full angular
//! aperture and is nearly free — the images are already built.
//!
//! The screen is **off by default** ([`SpatialCheckConfig::enabled`])
//! — it is an attack countermeasure, not part of the paper's §V
//! pipeline — and is enabled by the attack evaluation (`fig_attack`),
//! the spoof audit suite, and deployments that want it.
//!
//! [`RejectKind::ReplaySignature`]: echo_obs::RejectKind::ReplaySignature

use crate::config::SpatialCheckConfig;
use echo_ml::GrayImage;

/// Mean normalized spatial spread over a train's acoustic images, or
/// `None` when the check is disabled or `images` is empty. Compare
/// against [`SpatialCheckConfig::max_coherence`].
pub fn train_spread(cfg: &SpatialCheckConfig, images: &[GrayImage]) -> Option<f64> {
    if !cfg.enabled || images.is_empty() {
        return None;
    }
    Some(images.iter().map(image_spread).sum::<f64>() / images.len() as f64)
}

/// Normalized spatial spread of one acoustic image: the
/// intensity-weighted RMS pixel distance from the intensity centroid,
/// divided by the RMS distance of a uniform image about its centre
/// (`√((w²+h²)/12)`). Near 1 for a structureless (point-source) image;
/// measurably lower when intensity concentrates on a body. An all-zero
/// image reads as fully structureless (1.0).
pub fn image_spread(image: &GrayImage) -> f64 {
    let (w, h) = (image.width(), image.height());
    let mut total = 0.0;
    let mut cx = 0.0;
    let mut cy = 0.0;
    for y in 0..h {
        for x in 0..w {
            let v = image.get(x, y).max(0.0);
            total += v;
            cx += v * x as f64;
            cy += v * y as f64;
        }
    }
    if total <= 0.0 {
        return 1.0;
    }
    cx /= total;
    cy /= total;
    let mut m2 = 0.0;
    for y in 0..h {
        for x in 0..w {
            let v = image.get(x, y).max(0.0);
            m2 += v * ((x as f64 - cx).powi(2) + (y as f64 - cy).powi(2));
        }
    }
    let uniform = ((w * w + h * h) as f64 / 12.0).sqrt();
    (m2 / total).sqrt() / uniform
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::pipeline::{EchoImagePipeline, TrainRequest};
    use echo_sim::body::{BodyModel, Placement};
    use echo_sim::scene::{Scene, SceneConfig};
    use echo_sim::spoof::SpoofPlan;

    fn enabled() -> SpatialCheckConfig {
        SpatialCheckConfig {
            enabled: true,
            ..SpatialCheckConfig::default()
        }
    }

    #[test]
    fn disabled_check_measures_nothing() {
        let img = GrayImage::from_fn(8, 8, |x, y| (x + y) as f64);
        assert_eq!(train_spread(&SpatialCheckConfig::default(), &[img]), None);
        assert_eq!(train_spread(&enabled(), &[]), None);
    }

    #[test]
    fn point_image_is_compact_and_uniform_image_is_flat() {
        let mut point = GrayImage::zeros(32, 32);
        point.set(16, 16, 1.0);
        assert!(image_spread(&point) < 1e-9);
        let uniform = GrayImage::from_fn(32, 32, |_, _| 1.0);
        let u = image_spread(&uniform);
        assert!((u - 1.0).abs() < 0.05, "uniform spread {u} should be ≈1");
        assert!(image_spread(&GrayImage::zeros(8, 8)) == 1.0);
    }

    #[test]
    fn replay_spread_exceeds_genuine_with_margin() {
        let scene = Scene::new(SceneConfig::laboratory_quiet(3));
        let p = Placement::standing_front(0.7);
        let pipe = EchoImagePipeline::new(PipelineConfig::default().with_threads(1));
        let cfg = enabled();
        let mut genuine_max = 0.0f64;
        let mut replay_min = 1.0f64;
        for seed in [11u64, 22, 33] {
            let victim = BodyModel::from_seed(seed);
            let caps = scene.capture_train(&victim, &p, 0, 3, 0);
            let gi = pipe.images(&TrainRequest::new(&caps)).unwrap().images;
            let g = train_spread(&cfg, &gi).unwrap();
            let plan = SpoofPlan::replay_of(&caps, 0.7, seed);
            let attack = plan.capture_train(&scene, &p, 5, 3, 0);
            let ri = pipe.images(&TrainRequest::new(&attack)).unwrap().images;
            let r = train_spread(&cfg, &ri).unwrap();
            genuine_max = genuine_max.max(g);
            replay_min = replay_min.min(r);
        }
        assert!(
            replay_min > genuine_max,
            "replay spread {replay_min} must exceed genuine {genuine_max}"
        );
        // The default ceiling must sit inside the gap.
        let t = SpatialCheckConfig::default().max_coherence;
        assert!(
            genuine_max < t && t < replay_min,
            "default ceiling {t} must separate genuine {genuine_max} from replay {replay_min}"
        );
    }
}
