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
use echo_dsp::filter::SosFilter;
use echo_ml::GrayImage;
use echo_obs::TraceCtx;
use echo_sim::BeepCapture;

/// The assembled EchoImage processing pipeline.
///
/// # Example
///
/// ```
/// use echo_sim::{BodyModel, Placement, Scene, SceneConfig};
/// use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig};
///
/// let scene = Scene::new(SceneConfig::laboratory_quiet(4));
/// let user = BodyModel::from_seed(12);
/// let captures = scene.capture_train(&user, &Placement::standing_front(0.7), 0, 3, 0);
///
/// let pipeline = EchoImagePipeline::new(PipelineConfig::default());
/// let (images, estimate) = pipeline.images_from_train(&captures).unwrap();
/// assert_eq!(images.len(), 3);
/// assert!((estimate.horizontal_distance - 0.7).abs() < 0.2);
/// let features = pipeline.features(&images[0]);
/// assert!(!features.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EchoImagePipeline {
    config: PipelineConfig,
    array: MicArray,
    features: ImageFeatures,
    bandpass: SosFilter,
}

/// `None` when every channel is healthy (normal path applies); the
/// mic-subset captures and matching subset pipeline otherwise.
type DegradedRoute = Option<(Vec<BeepCapture>, EchoImagePipeline)>;

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
        EchoImagePipeline {
            config,
            array,
            features: ImageFeatures::new(),
            bandpass,
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
    /// echo timing is unaffected).
    pub fn preprocess(&self, capture: &BeepCapture) -> BeepCapture {
        let _span = echo_obs::span!("stage.preprocess");
        capture.map_channels(|ch| self.bandpass.filtfilt(ch))
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
    /// whole train, then builds one acoustic image per beep.
    ///
    /// # Errors
    ///
    /// Propagates distance-estimation and imaging errors.
    pub fn images_from_train(
        &self,
        captures: &[BeepCapture],
    ) -> Result<(Vec<GrayImage>, DistanceEstimate), EchoImageError> {
        let root = echo_obs::root_span("pipeline.images_from_train");
        let ctx = root.ctx();
        self.images_from_train_traced(ctx, captures)
    }

    /// [`EchoImagePipeline::images_from_train`] recording its stage
    /// spans as children of `ctx` instead of minting a fresh trace —
    /// the variant callers inside a traced attempt (auth, eval batches)
    /// use. Per-beep preprocess, analytic and imaging spans carry the
    /// beep index as their logical index.
    pub fn images_from_train_traced(
        &self,
        ctx: TraceCtx,
        captures: &[BeepCapture],
    ) -> Result<(Vec<GrayImage>, DistanceEstimate), EchoImageError> {
        self.images_from_train_multi_plane_traced(ctx, captures, &[])
    }

    /// Like [`EchoImagePipeline::images_from_train`], but additionally
    /// constructs images at plane distances offset from the estimate by
    /// each of `plane_offsets` — true geometric re-imaging of the same
    /// captures, used at enrolment so the classifier sees the feature
    /// variation caused by distance-estimate jitter.
    ///
    /// Returns `(images, estimate)` where `images` holds, per capture,
    /// the image at the estimated plane followed by one per offset.
    ///
    /// # Errors
    ///
    /// Propagates distance-estimation and imaging errors.
    pub fn images_from_train_multi_plane(
        &self,
        captures: &[BeepCapture],
        plane_offsets: &[f64],
    ) -> Result<(Vec<GrayImage>, DistanceEstimate), EchoImageError> {
        let root = echo_obs::root_span("pipeline.images_multi_plane");
        let ctx = root.ctx();
        self.images_from_train_multi_plane_traced(ctx, captures, plane_offsets)
    }

    /// [`EchoImagePipeline::images_from_train_multi_plane`] under an
    /// existing trace context. Weight-design spans use the plane index
    /// (0 = the estimated plane) and imaging spans the flattened
    /// capture×plane job index as their logical index.
    ///
    /// Each beep is band-passed and transformed to its per-channel
    /// analytic signal once; ranging and every plane's imaging read those
    /// same buffers. Each plane's weights are designed once and shared by
    /// every beep. Both are dropped when the call returns.
    pub fn images_from_train_multi_plane_traced(
        &self,
        ctx: TraceCtx,
        captures: &[BeepCapture],
        plane_offsets: &[f64],
    ) -> Result<(Vec<GrayImage>, DistanceEstimate), EchoImageError> {
        echo_obs::counter!("pipeline.trains").inc();
        echo_obs::counter!("pipeline.beeps_imaged").add(captures.len() as u64);
        let (filtered, analytic): (Vec<BeepCapture>, Vec<_>) =
            parallel_map_indexed(captures, self.config.threads, |i, c| {
                let filtered = {
                    let _t = ctx.child_at("stage.preprocess", i as u64);
                    self.preprocess(c)
                };
                let _t = ctx.child_at("stage.analytic", i as u64);
                let analytic = crate::distance::analytic_channels(&filtered);
                (filtered, analytic)
            })
            .into_iter()
            .unzip();
        let estimate = crate::distance::estimate_from_analytic(
            &filtered,
            &analytic,
            &self.array,
            &self.config,
            ctx,
        )?;
        // One covariance for the whole train keeps the MVDR weights
        // identical across beeps, so image variation reflects the user,
        // not the covariance estimator.
        let cov = crate::distance::resolve_covariance(&filtered, &self.array, &self.config);
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
        // the serial nested loop (capture-major). Each job sweeps its
        // rows serially — one layer of parallelism, not threads²
        // workers.
        let jobs: Vec<(usize, usize)> = (0..filtered.len())
            .flat_map(|ci| (0..planes.len()).map(move |pi| (ci, pi)))
            .collect();
        let images = parallel_map_indexed(&jobs, self.config.threads, |i, &(ci, pi)| {
            image_beep(
                &filtered[ci],
                &analytic[ci],
                &weights[pi],
                &self.config,
                1,
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
        let _span = echo_obs::span!("stage.features");
        let mut tspan = ctx.child("stage.features");
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
        self.features_from_train_traced(ctx, captures)
    }

    /// [`EchoImagePipeline::features_from_train`] under an existing
    /// trace context.
    pub fn features_from_train_traced(
        &self,
        ctx: TraceCtx,
        captures: &[BeepCapture],
    ) -> Result<Vec<Vec<f64>>, EchoImageError> {
        let (images, _) = self.images_from_train_traced(ctx, captures)?;
        Ok(self.features_batch_traced(ctx, &images))
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

    /// Screens the train and, when channels must be excised, builds the
    /// mic-subset captures and pipeline. `Ok((None, health))` means every
    /// channel passed and the normal path applies unchanged.
    fn degraded_route(
        &self,
        ctx: TraceCtx,
        captures: &[BeepCapture],
    ) -> Result<(DegradedRoute, ChannelHealth), EchoImageError> {
        let mut tspan = ctx.child("stage.health_screen");
        let health = self.screen_train(captures)?;
        tspan.attr_u64("channels", health.num_channels() as u64);
        tspan.attr_u64("healthy", health.num_healthy() as u64);
        tspan.attr_u64("excised_mask", health.excised_mask());
        if health.all_healthy() {
            return Ok((None, health));
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
        let sub_captures: Vec<BeepCapture> = captures
            .iter()
            .map(|c| c.select_channels(&healthy))
            .collect();
        let sub_pipeline =
            EchoImagePipeline::with_array(self.config.clone(), self.array.subset(&healthy));
        Ok((Some((sub_captures, sub_pipeline)), health))
    }

    /// [`EchoImagePipeline::images_from_train`] with channel-health
    /// screening: faulted microphones are excised and the train is imaged
    /// from the surviving subset.
    ///
    /// When every channel passes the screen this delegates to the normal
    /// path, so healthy captures produce bit-identical images. When some
    /// channels fail but at least `max(min_mics, 2)` survive, the
    /// captures and the array geometry are both narrowed to the
    /// survivors and imaged as usual (the subset array has its own
    /// geometry fingerprint, so steering-field cache entries never mix).
    ///
    /// # Errors
    ///
    /// * [`EchoImageError::DegradedCapture`] — too few healthy
    ///   microphones; reject the capture and retry.
    /// * Everything [`EchoImagePipeline::images_from_train`] and
    ///   [`EchoImagePipeline::screen_train`] can return.
    pub fn images_from_train_degraded(
        &self,
        captures: &[BeepCapture],
    ) -> Result<(Vec<GrayImage>, DistanceEstimate, ChannelHealth), EchoImageError> {
        let root = echo_obs::root_span("pipeline.images_from_train");
        let ctx = root.ctx();
        self.images_from_train_degraded_traced(ctx, captures)
    }

    /// [`EchoImagePipeline::images_from_train_degraded`] under an
    /// existing trace context.
    pub fn images_from_train_degraded_traced(
        &self,
        ctx: TraceCtx,
        captures: &[BeepCapture],
    ) -> Result<(Vec<GrayImage>, DistanceEstimate, ChannelHealth), EchoImageError> {
        let (route, health) = self.degraded_route(ctx, captures)?;
        let (images, estimate) = match &route {
            None => self.images_from_train_traced(ctx, captures)?,
            Some((sub_captures, sub_pipeline)) => {
                sub_pipeline.images_from_train_traced(ctx, sub_captures)?
            }
        };
        Ok((images, estimate, health))
    }

    /// [`EchoImagePipeline::images_from_train_multi_plane`] through the
    /// degraded path — plane-diverse enrolment imaging that excises
    /// faulted microphones the same way
    /// [`EchoImagePipeline::images_from_train_degraded`] does.
    ///
    /// # Errors
    ///
    /// See [`EchoImagePipeline::images_from_train_degraded`].
    pub fn images_from_train_multi_plane_degraded(
        &self,
        captures: &[BeepCapture],
        plane_offsets: &[f64],
    ) -> Result<(Vec<GrayImage>, DistanceEstimate, ChannelHealth), EchoImageError> {
        let root = echo_obs::root_span("pipeline.images_multi_plane");
        let ctx = root.ctx();
        self.images_from_train_multi_plane_degraded_traced(ctx, captures, plane_offsets)
    }

    /// [`EchoImagePipeline::images_from_train_multi_plane_degraded`]
    /// under an existing trace context.
    pub fn images_from_train_multi_plane_degraded_traced(
        &self,
        ctx: TraceCtx,
        captures: &[BeepCapture],
        plane_offsets: &[f64],
    ) -> Result<(Vec<GrayImage>, DistanceEstimate, ChannelHealth), EchoImageError> {
        let (route, health) = self.degraded_route(ctx, captures)?;
        let (images, estimate) = match &route {
            None => self.images_from_train_multi_plane_traced(ctx, captures, plane_offsets)?,
            Some((sub_captures, sub_pipeline)) => sub_pipeline
                .images_from_train_multi_plane_traced(ctx, sub_captures, plane_offsets)?,
        };
        Ok((images, estimate, health))
    }

    /// [`EchoImagePipeline::features_from_train`] through the degraded
    /// path: screen, excise faulted microphones, image from the
    /// survivors, extract features.
    ///
    /// # Errors
    ///
    /// See [`EchoImagePipeline::images_from_train_degraded`].
    pub fn features_from_train_degraded(
        &self,
        captures: &[BeepCapture],
    ) -> Result<(Vec<Vec<f64>>, ChannelHealth), EchoImageError> {
        let root = echo_obs::root_span("pipeline.features_from_train");
        let ctx = root.ctx();
        self.features_from_train_degraded_traced(ctx, captures)
    }

    /// [`EchoImagePipeline::features_from_train_degraded`] under an
    /// existing trace context.
    pub fn features_from_train_degraded_traced(
        &self,
        ctx: TraceCtx,
        captures: &[BeepCapture],
    ) -> Result<(Vec<Vec<f64>>, ChannelHealth), EchoImageError> {
        let (images, _, health) = self.images_from_train_degraded_traced(ctx, captures)?;
        Ok((self.features_batch_traced(ctx, &images), health))
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
    fn end_to_end_images_and_features() {
        let scene = Scene::new(SceneConfig::laboratory_quiet(8));
        let body = BodyModel::from_seed(31);
        let caps = scene.capture_train(&body, &Placement::standing_front(0.7), 0, 2, 0);
        let p = pipeline();
        let (images, est) = p.images_from_train(&caps).unwrap();
        assert_eq!(images.len(), 2);
        assert!((est.horizontal_distance - 0.7).abs() < 0.2);
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
