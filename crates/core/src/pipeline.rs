//! The end-to-end EchoImage pipeline (paper Fig. 3).
//!
//! [`EchoImagePipeline`] owns the configuration and the frozen feature
//! extractor and exposes each stage — band-pass preprocessing, distance
//! estimation, acoustic imaging, feature extraction — plus conveniences
//! that run a whole beep train through to feature vectors.

pub use crate::config::PipelineConfig;
use crate::distance::{estimate_distance, DistanceEstimate};
use crate::error::EchoImageError;
use crate::features::ImageFeatures;
use crate::health::ChannelHealth;
use crate::imaging::{construct_image, image_beep, PlaneWeights};
use crate::par::parallel_map_indexed;
use echo_array::MicArray;
use echo_dsp::correlate::MatchedFilterPlan;
use echo_dsp::filter::SosFilter;
use echo_ml::GrayImage;
use echo_obs::{TraceCtx, TraceSpan};
use echo_sim::BeepCapture;
use std::sync::Arc;

/// The assembled EchoImage processing pipeline.
///
/// # Example
///
/// ```
/// use echo_sim::{BodyModel, Placement, Scene, SceneConfig};
/// use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig, TrainRequest};
///
/// let scene = Scene::new(SceneConfig::laboratory_quiet(4));
/// let user = BodyModel::from_seed(12);
/// let captures = scene.capture_train(&user, &Placement::standing_front(0.7), 0, 3, 0);
///
/// let pipeline = EchoImagePipeline::new(PipelineConfig::default());
/// let train = pipeline.images(&TrainRequest::new(&captures)).unwrap();
/// assert_eq!(train.images.len(), 3);
/// assert!((train.estimate.horizontal_distance - 0.7).abs() < 0.2);
/// let features = pipeline.features(&train.images[0]);
/// assert!(!features.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EchoImagePipeline {
    config: PipelineConfig,
    array: MicArray,
    features: ImageFeatures,
    bandpass: SosFilter,
    chirp: Arc<MatchedFilterPlan>,
}

/// One beep train to image, and how: the request
/// [`EchoImagePipeline::images`] takes. [`TrainRequest::new`] is the
/// plain route (estimated plane only, no screening, its own trace root);
/// set fields with struct-update syntax for the others.
#[derive(Debug, Clone, Copy)]
pub struct TrainRequest<'a> {
    /// The raw beep captures of one train.
    pub captures: &'a [BeepCapture],
    /// Plane distances to image at besides the estimated plane, as
    /// offsets from the estimate in metres (clamped to at least 0.2 m).
    /// Re-imaging the same captures is how enrolment makes the
    /// classifier see distance-estimate jitter. Empty images the
    /// estimated plane only.
    pub plane_offsets: &'a [f64],
    /// Health-screen the raw train first and image from the surviving
    /// microphones (see [`TrainImages::health`]).
    pub screen: bool,
    /// The trace context to record under; `None` mints a
    /// `pipeline.images_from_train` root.
    pub parent: Option<TraceCtx>,
}

impl<'a> TrainRequest<'a> {
    /// The plain route over `captures`.
    pub fn new(captures: &'a [BeepCapture]) -> Self {
        TrainRequest {
            captures,
            plane_offsets: &[],
            screen: false,
            parent: None,
        }
    }
}

/// What [`EchoImagePipeline::images`] returns.
#[derive(Debug, Clone)]
pub struct TrainImages {
    /// Per capture, the image at the estimated plane followed by one per
    /// plane offset.
    pub images: Vec<GrayImage>,
    /// The train's distance estimate (from the surviving microphones
    /// when channels were excised).
    pub estimate: DistanceEstimate,
    /// The screen's verdict when the request screened, `None` otherwise.
    pub health: Option<ChannelHealth>,
}

impl EchoImagePipeline {
    /// Builds the pipeline for the paper's prototype array geometry.
    pub fn new(config: PipelineConfig) -> Self {
        Self::with_array(config, MicArray::respeaker_6())
    }

    /// Builds the pipeline for a custom array geometry.
    pub fn with_array(config: PipelineConfig, array: MicArray) -> Self {
        let bandpass = SosFilter::butterworth_bandpass(
            config.bandpass_order.max(1),
            config.beep.f_start,
            config.beep.f_end,
            config.beep.sample_rate,
        );
        let chirp = Arc::new(crate::distance::chirp_plan(&config.beep));
        EchoImagePipeline {
            config,
            array,
            features: ImageFeatures::new(),
            bandpass,
            chirp,
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The array geometry the pipeline assumes.
    pub fn array(&self) -> &MicArray {
        &self.array
    }

    /// The frozen feature extractor.
    pub fn feature_extractor(&self) -> &ImageFeatures {
        &self.features
    }

    /// Band-passes every channel to the probing band (zero-phase, so
    /// echo timing is unaffected). All channels go through the cascade
    /// together, in SIMD lanes, bit-identical to filtering each channel
    /// on its own ([`SosFilter::filtfilt_channels`]).
    pub fn preprocess(&self, capture: &BeepCapture) -> BeepCapture {
        self.preprocess_at(TraceCtx::none(), 0, capture)
    }

    /// [`EchoImagePipeline::preprocess`] timed as `stage.preprocess`
    /// child `lidx` of `ctx`.
    fn preprocess_at(&self, ctx: TraceCtx, lidx: u64, capture: &BeepCapture) -> BeepCapture {
        let _t = echo_obs::stage!(ctx, "stage.preprocess", lidx);
        BeepCapture::new(
            self.bandpass.filtfilt_channels(capture.channels()),
            capture.sample_rate(),
            capture.preroll(),
        )
    }

    /// Estimates the user–array distance from raw captures
    /// (preprocessing included).
    ///
    /// # Errors
    ///
    /// See [`crate::distance::estimate_distance`].
    pub fn estimate_distance(
        &self,
        captures: &[BeepCapture],
    ) -> Result<DistanceEstimate, EchoImageError> {
        let filtered: Vec<BeepCapture> = captures.iter().map(|c| self.preprocess(c)).collect();
        estimate_distance(&filtered, &self.array, &self.config)
    }

    /// Constructs the acoustic image from one raw capture at a known
    /// horizontal distance (preprocessing included).
    ///
    /// # Errors
    ///
    /// See [`crate::imaging::construct_image`].
    pub fn acoustic_image(
        &self,
        capture: &BeepCapture,
        horizontal_distance: f64,
    ) -> Result<GrayImage, EchoImageError> {
        let filtered = self.preprocess(capture);
        construct_image(&filtered, &self.array, horizontal_distance, &self.config)
    }

    /// Full front half of the system: estimates the distance from the
    /// whole train, then builds one acoustic image per beep and plane.
    ///
    /// Each field of [`TrainRequest`] picks one variant of the route:
    /// extra planes for enrolment-time plane diversity, health screening
    /// for the degraded route, and the trace context to record under.
    ///
    /// # Errors
    ///
    /// * [`EchoImageError::DegradedCapture`] — the request screens and
    ///   too few healthy microphones survive; reject the capture and
    ///   retry.
    /// * Distance-estimation, imaging and screening errors.
    pub fn images(&self, request: &TrainRequest) -> Result<TrainImages, EchoImageError> {
        let root;
        let ctx = match request.parent {
            Some(ctx) => ctx,
            None => {
                root = echo_obs::root_span("pipeline.images_from_train");
                root.ctx()
            }
        };
        let (captures, offsets) = (request.captures, request.plane_offsets);
        let (subset, health) = if request.screen {
            let mut tspan = ctx.child("stage.health_screen");
            let health = self.screen_train(captures)?;
            (self.excise(&health, &mut tspan)?, Some(health))
        } else {
            (None, None)
        };
        let (images, estimate) = match subset {
            None => self.image_train(ctx, captures, offsets)?,
            Some((pipeline, channels)) => {
                let captures: Vec<BeepCapture> = captures
                    .iter()
                    .map(|c| c.select_channels(&channels))
                    .collect();
                pipeline.image_train(ctx, &captures, offsets)?
            }
        };
        Ok(TrainImages {
            images,
            estimate,
            health,
        })
    }

    /// The imaging body under `ctx`. Weight-design spans use the plane
    /// index (0 = the estimated plane) and imaging spans the flattened
    /// capture×plane job index as their logical index; per-beep
    /// preprocess and analytic spans carry the beep index.
    ///
    /// Each beep is band-passed and transformed to its per-channel
    /// analytic signal once; ranging and every plane's imaging read those
    /// same buffers. Each plane's weights are designed once and shared by
    /// every beep. Both are dropped when the call returns.
    fn image_train(
        &self,
        ctx: TraceCtx,
        captures: &[BeepCapture],
        plane_offsets: &[f64],
    ) -> Result<(Vec<GrayImage>, DistanceEstimate), EchoImageError> {
        echo_obs::counter!("pipeline.trains").inc();
        echo_obs::counter!("pipeline.beeps_imaged").add(captures.len() as u64);
        let (filtered, analytic): (Vec<BeepCapture>, Vec<_>) =
            parallel_map_indexed(captures, self.config.threads, |i, c| {
                let filtered = self.preprocess_at(ctx, i as u64, c);
                let analytic = crate::distance::analytic_channels(ctx, i as u64, &filtered);
                (filtered, analytic)
            })
            .into_iter()
            .unzip();
        crate::distance::check_train(&filtered, &self.array)?;
        let cov = crate::distance::resolve_covariance(&filtered, &self.array, &self.config);
        let estimate = crate::distance::estimate_from_analytic(
            &filtered,
            &analytic,
            &cov,
            &self.chirp,
            &self.array,
            &self.config,
            ctx,
        )?;
        let mut planes = vec![estimate.horizontal_distance];
        planes.extend(
            plane_offsets
                .iter()
                .map(|o| (estimate.horizontal_distance + o).max(0.2)),
        );
        let weights = planes
            .iter()
            .enumerate()
            .map(|(p, &d)| PlaneWeights::design(&self.array, d, &cov, &self.config, ctx, p as u64))
            .collect::<Result<Vec<_>, _>>()?;
        // Flatten the capture × plane grid into one job list so the
        // pool sees every unit of work at once; output order matches
        // the serial nested loop (capture-major). Each job images its
        // plane serially.
        let jobs: Vec<(usize, usize)> = (0..filtered.len())
            .flat_map(|ci| (0..planes.len()).map(move |pi| (ci, pi)))
            .collect();
        let images = parallel_map_indexed(&jobs, self.config.threads, |i, &(ci, pi)| {
            image_beep(
                &filtered[ci],
                &analytic[ci],
                &weights[pi],
                &self.config,
                ctx,
                i as u64,
            )
        });
        Ok((images, estimate))
    }

    /// Extracts the classification features of an acoustic image.
    pub fn features(&self, image: &GrayImage) -> Vec<f64> {
        self.features.extract(image)
    }

    /// Extracts features for a batch of images over the configured
    /// thread count (bit-identical to mapping [`EchoImagePipeline::features`]).
    pub fn features_batch(&self, images: &[GrayImage]) -> Vec<Vec<f64>> {
        self.features_batch_traced(TraceCtx::none(), images)
    }

    /// [`EchoImagePipeline::features_batch`] recording a
    /// `stage.features` trace span under `ctx`.
    pub fn features_batch_traced(&self, ctx: TraceCtx, images: &[GrayImage]) -> Vec<Vec<f64>> {
        let mut tspan = echo_obs::stage!(ctx, "stage.features");
        tspan.attr_u64("images", images.len() as u64);
        echo_obs::counter!("pipeline.features_extracted").add(images.len() as u64);
        self.features
            .extract_batch_threaded(images, self.config.threads)
    }

    /// Runs a whole train to feature vectors (distance → images →
    /// features).
    ///
    /// # Errors
    ///
    /// Propagates distance-estimation and imaging errors.
    pub fn features_from_train(
        &self,
        captures: &[BeepCapture],
    ) -> Result<Vec<Vec<f64>>, EchoImageError> {
        let root = echo_obs::root_span("pipeline.features_from_train");
        let ctx = root.ctx();
        let train = self.images(&TrainRequest {
            parent: Some(ctx),
            ..TrainRequest::new(captures)
        })?;
        Ok(self.features_batch_traced(ctx, &train.images))
    }

    /// Screens the train for channel faults.
    ///
    /// Pass **raw** captures: the band-pass filter would strip exactly
    /// the evidence the screen looks for (DC offsets, clipping rails,
    /// out-of-band bursts).
    ///
    /// # Errors
    ///
    /// See [`crate::health::screen_train`].
    pub fn screen_train(&self, captures: &[BeepCapture]) -> Result<ChannelHealth, EchoImageError> {
        crate::health::screen_train(captures, &self.config.health)
    }

    /// Channel excision, the one place a screened route turns a
    /// [`ChannelHealth`] into a way forward, recording the verdict on
    /// the route's `stage.health_screen` span:
    ///
    /// * `Ok(None)` — every channel passed; the normal path applies
    ///   unchanged, so healthy captures stay bit-identical to it.
    /// * `Ok(Some((pipeline, channels)))` — some channels failed but at
    ///   least `max(min_mics, 2)` survive: the pipeline over the
    ///   surviving mic subset and the channels to keep of each capture.
    ///   Bumps `degraded.activations`.
    /// * `Err(DegradedCapture)` — too few healthy microphones. Bumps
    ///   `degraded.rejections` and marks the span `rejected`.
    pub(crate) fn excise(
        &self,
        health: &ChannelHealth,
        tspan: &mut TraceSpan,
    ) -> Result<Option<(EchoImagePipeline, Vec<usize>)>, EchoImageError> {
        tspan.attr_u64("channels", health.num_channels() as u64);
        tspan.attr_u64("healthy", health.num_healthy() as u64);
        tspan.attr_u64("excised_mask", health.excised_mask());
        if health.all_healthy() {
            return Ok(None);
        }
        let healthy = health.healthy_indices();
        let required = self.config.health.min_mics.max(2);
        if healthy.len() < required {
            echo_obs::counter!("degraded.rejections").inc();
            tspan.attr_bool("rejected", true);
            return Err(EchoImageError::DegradedCapture {
                healthy: healthy.len(),
                required,
                mask: health.excised_mask(),
            });
        }
        echo_obs::counter!("degraded.activations").inc();
        let subset =
            EchoImagePipeline::with_array(self.config.clone(), self.array.subset(&healthy));
        Ok(Some((subset, healthy)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_sim::{BodyModel, Placement, Scene, SceneConfig};

    fn pipeline() -> EchoImagePipeline {
        EchoImagePipeline::new(PipelineConfig::default())
    }

    #[test]
    fn preprocess_removes_out_of_band_noise() {
        let scene = Scene::new(SceneConfig::with_environment(
            echo_sim::EnvironmentKind::Laboratory,
            echo_sim::NoiseKind::Traffic,
            3,
        ));
        let cap = scene.capture_empty(0, 0);
        let p = pipeline();
        let filtered = p.preprocess(&cap);
        // Traffic noise is sub-500 Hz: preroll energy should collapse.
        // Compare the first half of the preroll — the zero-phase filter
        // smears the direct chirp backwards into the preroll's tail.
        let half = cap.preroll() / 2;
        let raw = echo_dsp::stats::energy(&cap.noise_segments()[0][..half]);
        let clean = echo_dsp::stats::energy(&filtered.noise_segments()[0][..half]);
        assert!(clean < raw * 0.05, "raw {raw}, filtered {clean}");
        assert_eq!(filtered.preroll(), cap.preroll());
    }

    #[test]
    fn preprocess_is_per_channel_filtfilt_bit_for_bit() {
        let scene = Scene::new(SceneConfig::laboratory_quiet(5));
        let cap = scene.capture_beep(
            &BodyModel::from_seed(3),
            &Placement::standing_front(0.7),
            0,
            0,
        );
        let p = pipeline();
        let filtered = p.preprocess(&cap);
        assert_eq!(filtered.sample_rate(), cap.sample_rate());
        assert_eq!(filtered.num_channels(), cap.num_channels());
        for (got, raw) in filtered.channels().iter().zip(cap.channels()) {
            let want = p.bandpass.filtfilt(raw);
            assert!(got
                .iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(got.len(), want.len());
        }
    }

    #[test]
    fn end_to_end_images_and_features() {
        let scene = Scene::new(SceneConfig::laboratory_quiet(8));
        let body = BodyModel::from_seed(31);
        let caps = scene.capture_train(&body, &Placement::standing_front(0.7), 0, 2, 0);
        let p = pipeline();
        let TrainImages {
            images, estimate, ..
        } = p.images(&TrainRequest::new(&caps)).unwrap();
        assert_eq!(images.len(), 2);
        assert!((estimate.horizontal_distance - 0.7).abs() < 0.2);
        let feats = p.features_from_train(&caps).unwrap();
        assert_eq!(feats.len(), 2);
        assert_eq!(feats[0].len(), p.feature_extractor().feature_len());
    }

    #[test]
    fn images_of_same_user_cluster_in_feature_space() {
        let scene = Scene::new(SceneConfig::laboratory_quiet(8));
        let a = BodyModel::from_seed(41);
        let b = BodyModel::from_seed(42);
        let p = pipeline();
        let place = Placement::standing_front(0.7);
        let fa: Vec<Vec<f64>> = p
            .features_from_train(&scene.capture_train(&a, &place, 0, 2, 0))
            .unwrap();
        let fb: Vec<Vec<f64>> = p
            .features_from_train(&scene.capture_train(&b, &place, 0, 2, 0))
            .unwrap();
        let d = |x: &[f64], y: &[f64]| -> f64 {
            x.iter()
                .zip(y)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        };
        let intra = d(&fa[0], &fa[1]);
        let inter = d(&fa[0], &fb[0]);
        assert!(intra < inter, "intra {intra} vs inter {inter}");
    }

    #[test]
    fn pipeline_errors_propagate() {
        let p = pipeline();
        assert!(p.estimate_distance(&[]).is_err());
        let silent = BeepCapture::new(vec![vec![0.0; 3_000]; 6], 48_000.0, 480);
        assert!(p.estimate_distance(&[silent]).is_err());
    }
}
