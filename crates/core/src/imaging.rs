//! Acoustic image construction (paper §V-C).
//!
//! A virtual square imaging plane is erected parallel to the x–o–z plane
//! at the estimated horizontal distance `D_p`, divided into K grid cells.
//! For each cell the array is steered (Eq. 11–12 give the cell's angles),
//! the beamformed signal is time-gated around the expected round-trip
//! delay `2·D_k/c ± d′` (only echoes whose path length matches the cell's
//! distance can come from the user's surface there), and the pixel value
//! is the L2 norm of the gated segment.
//!
//! The sweep runs as a narrowband beamformer usually does: fixed weights
//! times precomputed signal frames.
//!
//! * **Signal.** A beep's per-channel analytic signal is the radix-2
//!   padded transform that ranging reads too
//!   ([`crate::distance::estimate_distance`]). The pipeline computes it
//!   once per beep and shares it between ranging and every plane it
//!   images.
//! * **Weights.** The MVDR (or delay-and-sum) weights depend only on the
//!   sweep geometry and the noise covariance, so they are designed once
//!   per (train, plane) into one flat table, cells in pixel order. The
//!   design steers the array at each cell straight from the geometry
//!   and keeps nothing else but the cell distances.
//! * **Pixels.** A pixel is the energy of the real beamformed signal
//!   `Re Σ_m conj(w_m)·x_m[t]` over the cell's gate, and that energy is a
//!   quadratic form of the gate's real sample Gram matrix. One
//!   [`echo_dsp::gram::GateGram`] per (beep, plane) keeps the running
//!   Gram sums over the union of the plane's gates, and each pixel is
//!   `√max(0, vᵀ(S[end] − S[start])v)`: O(M²) per cell instead of one
//!   beamformed sample per gate sample. It differs from the per-sample
//!   sum only by rounding, within the bound the kernel's docs state.

use crate::config::{BeamformerKind, PipelineConfig};
use crate::error::EchoImageError;
use echo_array::{Direction, MicArray, Vec3};
use echo_beamform::{das_weights, MvdrDesigner, SpatialCovariance};
use echo_dsp::gram::GateGram;
use echo_dsp::{Complex, SPEED_OF_SOUND};
use echo_ml::GrayImage;
use echo_obs::TraceCtx;
use echo_sim::BeepCapture;

/// Constructs the acoustic image `AI_l` from one band-passed beep capture.
///
/// `horizontal_distance` is the `D_p` estimated by
/// [`crate::distance::estimate_distance`].
///
/// # Errors
///
/// * [`EchoImageError::InvalidParameter`] — non-positive distance or an
///   array/capture mismatch.
/// * [`EchoImageError::Beamforming`] — MVDR weight design failed.
///
/// # Example
///
/// ```
/// use echo_sim::{BodyModel, Placement, Scene, SceneConfig};
/// use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig};
/// use echoimage_core::imaging::construct_image;
/// use echo_array::MicArray;
///
/// let scene = Scene::new(SceneConfig::laboratory_quiet(2));
/// let body = BodyModel::from_seed(5);
/// let cap = scene.capture_beep(&body, &Placement::standing_front(0.7), 0, 0);
/// let pipeline = EchoImagePipeline::new(PipelineConfig::default());
/// let filtered = pipeline.preprocess(&cap);
/// let image = construct_image(&filtered, &MicArray::respeaker_6(), 0.7, pipeline.config()).unwrap();
/// assert_eq!(image.width(), 32);
/// ```
pub fn construct_image(
    capture: &BeepCapture,
    array: &MicArray,
    horizontal_distance: f64,
    config: &PipelineConfig,
) -> Result<GrayImage, EchoImageError> {
    let cov = crate::distance::resolve_covariance(std::slice::from_ref(capture), array, config);
    construct_image_with_covariance(capture, array, horizontal_distance, &cov, config)
}

/// [`construct_image`] with an explicit noise covariance, for a caller
/// that computed [`crate::distance::resolve_covariance`] once for a
/// whole beep train.
///
/// Computes the beep's analytic signal and the plane's weights itself,
/// exactly as the pipeline does once per beep and once per plane, so the
/// image is bit-identical to the pipeline's image of the same beep.
///
/// # Errors
///
/// See [`construct_image`].
pub fn construct_image_with_covariance(
    capture: &BeepCapture,
    array: &MicArray,
    horizontal_distance: f64,
    cov: &SpatialCovariance,
    config: &PipelineConfig,
) -> Result<GrayImage, EchoImageError> {
    check_distance(horizontal_distance)?;
    if capture.num_channels() != array.len() {
        return Err(EchoImageError::InvalidParameter(
            "array geometry does not match the capture channel count",
        ));
    }
    if capture.is_empty() {
        // A zero-sample capture would silently image to all-black; the
        // fault layer produces exactly these, so fail loudly instead.
        return Err(EchoImageError::InvalidParameter("capture holds no samples"));
    }
    let analytic = crate::distance::analytic_channels(TraceCtx::none(), 0, capture);
    let plane = PlaneWeights::design(array, horizontal_distance, cov, config, TraceCtx::none(), 0)?;
    Ok(image_beep(
        capture,
        &analytic,
        &plane,
        config,
        TraceCtx::none(),
        0,
    ))
}

fn check_distance(horizontal_distance: f64) -> Result<(), EchoImageError> {
    if horizontal_distance.is_finite() && horizontal_distance > 0.0 {
        Ok(())
    } else {
        Err(EchoImageError::InvalidParameter(
            "horizontal distance must be positive",
        ))
    }
}

/// The beamformer weights of every cell of one imaging plane, designed
/// once per (train, plane) and read by every beep imaged on it.
#[derive(Debug, Clone)]
pub(crate) struct PlaneWeights {
    /// Grid cells per side.
    grid_n: usize,
    /// Cell-to-origin distance `D_k` per cell, in pixel order (drives
    /// the echo time gates).
    distances: Vec<f64>,
    /// Weights per cell (the array's microphone count).
    channels: usize,
    /// `channels` weights per cell, cells in pixel order.
    table: Vec<Complex>,
}

impl PlaneWeights {
    /// Designs the weights of the plane at `horizontal_distance` against
    /// `cov`, recording a `stage.imaging.weights` span as child `lidx` of
    /// `ctx` (`lidx` is the plane's index within its train).
    ///
    /// One pass over the grid: each cell's steering vector (Eq. 11–12 via
    /// the general direction-to-point formula) feeds its weights straight
    /// into the table and is then dropped. MVDR inverts the covariance
    /// once, so each cell is one matrix–vector product: the m×K product
    /// over the plane, bit-identical to per-cell `mvdr_weights`.
    pub(crate) fn design(
        array: &MicArray,
        horizontal_distance: f64,
        cov: &SpatialCovariance,
        config: &PipelineConfig,
        ctx: TraceCtx,
        lidx: u64,
    ) -> Result<Self, EchoImageError> {
        check_distance(horizontal_distance)?;
        let mut tspan = echo_obs::stage!(ctx, "stage.imaging.weights", lidx);
        let icfg = &config.imaging;
        let grid_n = icfg.grid_n;
        tspan.attr_u64("grid_n", grid_n as u64);
        let f0 = config.beep.center_frequency();
        let mvdr = match icfg.beamformer {
            BeamformerKind::Mvdr => Some(MvdrDesigner::new(cov)?),
            BeamformerKind::DelayAndSum => None,
        };
        let channels = array.len();
        let mut table = vec![Complex::ZERO; grid_n * grid_n * channels];
        let mut distances = Vec::with_capacity(grid_n * grid_n);
        for (k, w) in table.chunks_exact_mut(channels).enumerate() {
            let (x_k, z_k) = icfg.cell_center(k % grid_n, k / grid_n);
            let cell = Vec3::new(x_k, horizontal_distance, z_k);
            let steering = array.steering_vector(Direction::toward_point(cell), f0);
            match &mvdr {
                Some(designer) => designer.weights_into(&steering, w)?,
                None => w.copy_from_slice(&das_weights(&steering)),
            }
            distances.push(cell.norm());
        }
        Ok(PlaneWeights {
            grid_n,
            distances,
            channels,
            table,
        })
    }
}

/// Images one beep on one plane from its analytic signals (one per
/// channel, as [`crate::distance::estimate_distance`] computes them),
/// recording a `stage.imaging` span as child `lidx` of `ctx`. The running
/// Gram sums over the union of the plane's gates are built once, then
/// each cell reads its pixel from them. The sweep is serial: at O(M²)
/// per cell it is cheaper than spawning workers, and the pipeline
/// already runs its (beep, plane) jobs in parallel.
pub(crate) fn image_beep(
    capture: &BeepCapture,
    analytic: &[Vec<Complex>],
    plane: &PlaneWeights,
    config: &PipelineConfig,
    ctx: TraceCtx,
    lidx: u64,
) -> GrayImage {
    let mut tspan = echo_obs::stage!(ctx, "stage.imaging", lidx);
    let grid_n = plane.grid_n;
    tspan.attr_u64("grid_n", grid_n as u64);
    tspan.attr_u64("channels", plane.channels as u64);
    echo_obs::counter!("pipeline.images_constructed").inc();
    debug_assert_eq!(analytic.len(), plane.channels);

    let icfg = &config.imaging;
    let fs = capture.sample_rate();
    let n = capture.len();
    let guard = (icfg.safeguard * fs).round() as usize;
    let chirp_len = config.beep.chirp_samples();
    let preroll = capture.preroll();
    // Time gate: echoes from a cell arrive after the round trip 2·D_k/c
    // (paper approximation: speaker ≈ array origin). An empty gate
    // images to 0.
    let gates: Vec<(usize, usize)> = plane
        .distances
        .iter()
        .map(|&distance| {
            let center = preroll as f64 + 2.0 * distance / SPEED_OF_SOUND * fs;
            let start = (center as isize - guard as isize).max(0) as usize;
            let end = ((center as usize).saturating_add(guard + chirp_len)).min(n);
            (start, end)
        })
        .collect();
    let (lo, hi) = gates
        .iter()
        .filter(|(start, end)| start < end)
        .fold((n, 0), |(lo, hi), &(start, end)| {
            (lo.min(start), hi.max(end))
        });
    let gram = GateGram::new(analytic, lo, hi);
    let weights = plane.table.chunks_exact(plane.channels);
    // Pixel uses the real beamformed signal, as in the paper.
    let pixels = gates
        .iter()
        .zip(weights)
        .map(|(&(start, end), w)| gram.beam_energy(w, start, end).sqrt())
        .collect();
    GrayImage::from_data(grid_n, grid_n, pixels)
}

/// The cell-to-origin distance `D_k = √(x_k² + D_p² + z_k²)` used both by
/// the time gate and by the inverse-square augmentation (Eq. 13–14).
pub fn cell_distance(x_k: f64, d_p: f64, z_k: f64) -> f64 {
    (x_k * x_k + d_p * d_p + z_k * z_k).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::EchoImagePipeline;
    use echo_dsp::stats::cosine_similarity;
    use echo_sim::{BodyModel, Placement, Scene, SceneConfig};

    fn image_for(body_seed: u64, beep: u64, distance: f64) -> GrayImage {
        let scene = Scene::new(SceneConfig::laboratory_quiet(9));
        let body = BodyModel::from_seed(body_seed);
        let cap = scene.capture_beep(&body, &Placement::standing_front(distance), 0, beep);
        let pipeline = EchoImagePipeline::new(PipelineConfig::default());
        let filtered = pipeline.preprocess(&cap);
        construct_image(
            &filtered,
            &MicArray::respeaker_6(),
            distance,
            pipeline.config(),
        )
        .unwrap()
    }

    #[test]
    fn image_has_configured_size_and_finite_pixels() {
        let img = image_for(1, 0, 0.7);
        assert_eq!(img.width(), 32);
        assert_eq!(img.height(), 32);
        assert!(img.pixels().iter().all(|p| p.is_finite() && *p >= 0.0));
        assert!(img.pixels().iter().any(|p| *p > 0.0));
    }

    #[test]
    fn same_user_images_are_similar_across_beeps() {
        // Paper Fig. 8: images of one user are very similar, images of
        // different users differ significantly.
        // Different beep indices everywhere: no two real recordings share
        // an ambient-noise realisation. Similarity is measured on
        // mean-centred pixels — the raw cosine is dominated by the common
        // positive "standing person" blob every image shares.
        let a0 = image_for(1, 0, 0.7);
        let a1 = image_for(1, 1, 0.7);
        let b0 = image_for(2, 7, 0.7);
        let centred = |i: &GrayImage| -> Vec<f64> {
            let m = i.mean();
            i.pixels().iter().map(|p| p - m).collect()
        };
        let same = cosine_similarity(&centred(&a0), &centred(&a1));
        let cross = cosine_similarity(&centred(&a0), &centred(&b0));
        assert!(same > 0.9, "same-user similarity {same}");
        assert!(same > cross, "same {same} vs cross {cross}");
    }

    #[test]
    fn body_region_is_brighter_than_plane_edges() {
        // Pixels in the central body region should carry more energy
        // than the extreme corners of the plane.
        let img = image_for(3, 0, 0.7);
        let n = img.width();
        let center_band: f64 = (n / 4..3 * n / 4)
            .flat_map(|r| (n / 4..3 * n / 4).map(move |c| (c, r)))
            .map(|(c, r)| img.get(c, r))
            .sum();
        let corners: f64 = [(0, 0), (n - 1, 0), (0, n - 1), (n - 1, n - 1)]
            .iter()
            .map(|&(c, r)| img.get(c, r))
            .sum::<f64>()
            * ((n / 2) * (n / 2)) as f64
            / 4.0;
        assert!(
            center_band > corners * 0.8,
            "centre {center_band} vs corner-scaled {corners}"
        );
    }

    #[test]
    fn das_and_mvdr_images_differ() {
        let scene = Scene::new(SceneConfig::laboratory_quiet(9));
        let body = BodyModel::from_seed(4);
        let cap = scene.capture_beep(&body, &Placement::standing_front(0.7), 0, 0);
        let pipeline = EchoImagePipeline::new(PipelineConfig::default());
        let filtered = pipeline.preprocess(&cap);
        let mvdr =
            construct_image(&filtered, &MicArray::respeaker_6(), 0.7, pipeline.config()).unwrap();
        let mut das_cfg = pipeline.config().clone();
        das_cfg.imaging.beamformer = BeamformerKind::DelayAndSum;
        let das = construct_image(&filtered, &MicArray::respeaker_6(), 0.7, &das_cfg).unwrap();
        assert_ne!(mvdr, das);
    }

    #[test]
    fn cell_distance_formula() {
        assert!((cell_distance(0.3, 0.7, -0.2) - (0.09f64 + 0.49 + 0.04).sqrt()).abs() < 1e-12);
        assert_eq!(cell_distance(0.0, 1.0, 0.0), 1.0);
    }

    #[test]
    fn negative_distance_is_rejected() {
        let scene = Scene::new(SceneConfig::laboratory_quiet(9));
        let cap = scene.capture_empty(0, 0);
        let pipeline = EchoImagePipeline::new(PipelineConfig::default());
        let err =
            construct_image(&cap, &MicArray::respeaker_6(), -0.5, pipeline.config()).unwrap_err();
        assert!(matches!(err, EchoImageError::InvalidParameter(_)));
    }

    #[test]
    fn empty_scene_image_is_darker_than_body_image() {
        let scene = Scene::new(SceneConfig::laboratory_quiet(9));
        let body = BodyModel::from_seed(5);
        let pipeline = EchoImagePipeline::new(PipelineConfig::default());
        let with =
            pipeline.preprocess(&scene.capture_beep(&body, &Placement::standing_front(0.7), 0, 0));
        let without = pipeline.preprocess(&scene.capture_empty(0, 0));
        let img_with =
            construct_image(&with, &MicArray::respeaker_6(), 0.7, pipeline.config()).unwrap();
        let img_without =
            construct_image(&without, &MicArray::respeaker_6(), 0.7, pipeline.config()).unwrap();
        let sum = |i: &GrayImage| i.pixels().iter().sum::<f64>();
        assert!(sum(&img_with) > 2.0 * sum(&img_without));
    }
}
