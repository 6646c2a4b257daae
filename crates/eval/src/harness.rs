//! Dataset generation: simulated subjects → feature vectors.
//!
//! [`Harness`] runs the full EchoImage front end (capture → band-pass →
//! distance estimation → acoustic imaging → CNN features) for a subject
//! under a [`CaptureSpec`] describing the experimental condition
//! (environment, noise, distance, session). This is the piece every
//! experiment runner shares.

use echo_ml::GrayImage;
use echo_obs::TraceCtx;
use echo_sim::{
    BeepCapture, BodyModel, EnvironmentKind, FaultPlan, NoiseKind, Placement, Scene, SceneConfig,
    UserProfile,
};
use echoimage_core::par::parallel_map_indexed;
use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig, TrainRequest};
use echoimage_core::{DistanceEstimate, EchoImageError};

/// One experimental condition.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureSpec {
    /// Experiment environment.
    pub environment: EnvironmentKind,
    /// Ambient-noise condition.
    pub noise: NoiseKind,
    /// True horizontal user–array distance, metres.
    pub distance: f64,
    /// Session index (the paper's Sessions 1–3 → 0–2).
    pub session: u32,
    /// Number of beeps to capture.
    pub beeps: usize,
    /// First beep index (decorrelates noise across draws).
    pub beep_offset: u64,
    /// Per-microphone gain mismatch std, dB (device imperfection sweep).
    pub mic_gain_error_db: f64,
    /// Per-microphone timing mismatch std, seconds.
    pub mic_timing_error: f64,
    /// Channel faults injected into every captured train. An empty plan
    /// leaves the capture path byte-for-byte unchanged; a non-empty plan
    /// routes imaging through the degraded (health-screened) pipeline.
    pub faults: FaultPlan,
    /// Image-source room model. `None` renders the legacy free-field
    /// scene byte-for-byte; `Some` adds wall-reflection ghosts to
    /// *every* capture built from this spec — enrolment, genuine
    /// probes, and attack probes alike — so multipath alone never
    /// separates clean captures from attacks.
    pub room: Option<echo_sim::RoomModel>,
}

impl CaptureSpec {
    /// The paper's default condition: quiet laboratory, 0.7 m, session 1.
    pub fn default_lab(beeps: usize) -> Self {
        CaptureSpec {
            environment: EnvironmentKind::Laboratory,
            noise: NoiseKind::Quiet,
            distance: 0.7,
            session: 0,
            beeps,
            beep_offset: 0,
            mic_gain_error_db: 0.0,
            mic_timing_error: 0.0,
            faults: FaultPlan::none(),
            room: None,
        }
    }
}

/// Harness construction parameters: the pipeline configuration plus the
/// evaluation-level concurrency.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HarnessConfig {
    /// Pipeline configuration shared by every subject.
    pub pipeline: PipelineConfig,
    /// Scene/population base seed.
    pub seed: u64,
    /// Worker threads for the subject×session fan-out
    /// ([`Harness::features_for_batch`] and the protocol runners): `0`
    /// uses available parallelism, `1` forces serial. Results are
    /// bit-identical at every setting.
    pub threads: usize,
}

/// The shared experiment harness.
///
/// # Example
///
/// ```
/// use echo_eval::harness::{CaptureSpec, Harness};
/// use echo_sim::Population;
///
/// let harness = Harness::new(7);
/// let pop = Population::paper_table1(7);
/// let feats = harness
///     .features_for(&pop.profiles()[0].body(), &CaptureSpec::default_lab(2))
///     .unwrap();
/// assert_eq!(feats.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Harness {
    pipeline: EchoImagePipeline,
    seed: u64,
    threads: usize,
}

impl Harness {
    /// Creates a harness with the default pipeline configuration.
    pub fn new(seed: u64) -> Self {
        Self::with_config(PipelineConfig::default(), seed)
    }

    /// Creates a harness with a custom pipeline configuration (smaller
    /// grids for smoke tests, ablation beamformers, …). The fan-out
    /// thread count is taken from [`PipelineConfig::threads`].
    pub fn with_config(config: PipelineConfig, seed: u64) -> Self {
        Self::from_config(HarnessConfig {
            threads: config.threads,
            pipeline: config,
            seed,
        })
    }

    /// Creates a harness from a full [`HarnessConfig`].
    pub fn from_config(config: HarnessConfig) -> Self {
        Harness {
            pipeline: EchoImagePipeline::new(config.pipeline),
            seed: config.seed,
            threads: config.threads,
        }
    }

    /// Worker threads used for batch fan-out.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A clone of the pipeline pinned to one thread, for use *inside*
    /// fan-out workers — the batch level is the parallel one, so each
    /// job images serially instead of stacking thread pools.
    pub(crate) fn worker_pipeline(&self) -> EchoImagePipeline {
        EchoImagePipeline::with_array(
            self.pipeline.config().clone().with_threads(1),
            self.pipeline.array().clone(),
        )
    }

    /// The underlying pipeline.
    pub fn pipeline(&self) -> &EchoImagePipeline {
        &self.pipeline
    }

    /// Builds the scene for a condition (environment layout and noise
    /// streams derive from the harness seed).
    pub fn scene(&self, spec: &CaptureSpec) -> Scene {
        let mut cfg = SceneConfig::with_environment(spec.environment, spec.noise, self.seed);
        cfg.mic_gain_error_db = spec.mic_gain_error_db;
        cfg.mic_timing_error = spec.mic_timing_error;
        cfg.room = spec.room.clone();
        Scene::new(cfg)
    }

    /// Captures `spec.beeps` beeps of `body` and returns the acoustic
    /// images plus the distance estimate used to build them.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors (undetectable direct path or echo,
    /// beamforming failures).
    pub fn images_for(
        &self,
        body: &BodyModel,
        spec: &CaptureSpec,
    ) -> Result<(Vec<GrayImage>, DistanceEstimate), EchoImageError> {
        let captures = self.capture_train(body, spec);
        // Only specs with a non-empty fault plan pay for health
        // screening; the clean path is exactly the pre-fault-layer
        // behaviour.
        let train = self.pipeline.images(&TrainRequest {
            screen: !spec.faults.is_empty(),
            parent: Some(TraceCtx::none()),
            ..TrainRequest::new(&captures)
        })?;
        Ok((train.images, train.estimate))
    }

    /// Captures the spec's train with its fault plan applied.
    fn capture_train(&self, body: &BodyModel, spec: &CaptureSpec) -> Vec<BeepCapture> {
        self.capture_train_traced(TraceCtx::none(), body, spec)
    }

    /// [`Harness::capture_train`] recording simulator spans (`sim.beep`
    /// per beep, `sim.fault_inject` when a fault plan fires) under `ctx`.
    fn capture_train_traced(
        &self,
        ctx: TraceCtx,
        body: &BodyModel,
        spec: &CaptureSpec,
    ) -> Vec<BeepCapture> {
        let scene = self.scene(spec);
        let captures = scene.capture_train_traced(
            ctx,
            body,
            &Placement::standing_front(spec.distance),
            spec.session,
            spec.beeps,
            spec.beep_offset,
        );
        if spec.faults.is_empty() {
            captures
        } else {
            spec.faults.apply_train_traced(ctx, &captures)
        }
    }

    /// Like [`Harness::images_for`], with extra images constructed at
    /// plane distances offset from the estimate (enrolment-time plane
    /// diversity).
    ///
    /// # Errors
    ///
    /// See [`Harness::images_for`].
    pub fn images_multi_plane(
        &self,
        body: &BodyModel,
        spec: &CaptureSpec,
        plane_offsets: &[f64],
    ) -> Result<(Vec<GrayImage>, DistanceEstimate), EchoImageError> {
        let captures = self.capture_train(body, spec);
        let train = self.pipeline.images(&TrainRequest {
            plane_offsets,
            screen: !spec.faults.is_empty(),
            ..TrainRequest::new(&captures)
        })?;
        Ok((train.images, train.estimate))
    }

    /// Captures and converts straight to feature vectors.
    ///
    /// # Errors
    ///
    /// See [`Harness::images_for`].
    pub fn features_for(
        &self,
        body: &BodyModel,
        spec: &CaptureSpec,
    ) -> Result<Vec<Vec<f64>>, EchoImageError> {
        let (images, _) = self.images_for(body, spec)?;
        Ok(self.pipeline.features_batch(&images))
    }

    /// Convenience over a [`UserProfile`].
    ///
    /// # Errors
    ///
    /// See [`Harness::images_for`].
    pub fn features_for_profile(
        &self,
        profile: &UserProfile,
        spec: &CaptureSpec,
    ) -> Result<Vec<Vec<f64>>, EchoImageError> {
        self.features_for(&profile.body(), spec)
    }

    /// Extracts features for a batch of images (used by the augmentation
    /// experiment, which synthesises extra images before featurising),
    /// fanned over the harness's worker threads.
    pub fn features_of_images(&self, images: &[GrayImage]) -> Vec<Vec<f64>> {
        self.pipeline
            .feature_extractor()
            .extract_batch_threaded(images, self.threads)
    }

    /// Runs a whole batch of `(subject, condition)` jobs — the
    /// subject×session fan-out of an evaluation — across the harness's
    /// worker threads. The result vector is in job order regardless of
    /// thread count, and every job is independent (its own scene, its
    /// own captures), so the output is bit-identical to calling
    /// [`Harness::features_for_profile`] in a loop.
    pub fn features_for_batch(
        &self,
        jobs: &[(UserProfile, CaptureSpec)],
    ) -> Vec<Result<Vec<Vec<f64>>, EchoImageError>> {
        let root = echo_obs::root_span("eval.batch");
        let ctx = root.ctx();
        let _t = echo_obs::stage!(TraceCtx::none(), "stage.eval_batch");
        echo_obs::counter!("eval.jobs").add(jobs.len() as u64);
        let worker = self.worker_pipeline();
        let results = parallel_map_indexed(jobs, self.threads, |i, (profile, spec)| {
            let mut jspan = ctx.child_at("eval.job", i as u64);
            jspan.attr_u64("user", profile.id as u64);
            jspan.attr_u64("session", spec.session as u64);
            let captures = self.capture_train_traced(jspan.ctx(), &profile.body(), spec);
            let train = worker.images(&TrainRequest {
                screen: !spec.faults.is_empty(),
                parent: Some(jspan.ctx()),
                ..TrainRequest::new(&captures)
            })?;
            // Each job is already on a pool worker; extract its images
            // serially with one reused scratch (no nested fan-out).
            Ok(worker.feature_extractor().extract_batch(&train.images))
        });
        let failures = results.iter().filter(|r| r.is_err()).count();
        echo_obs::counter!("eval.job_failures").add(failures as u64);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_sim::Population;
    use echoimage_core::config::ImagingConfig;

    fn small_harness() -> Harness {
        // A small grid keeps unit tests fast; experiments use defaults.
        let cfg = PipelineConfig {
            imaging: ImagingConfig {
                grid_n: 16,
                grid_spacing: 0.1,
                ..ImagingConfig::default()
            },
            ..PipelineConfig::default()
        };
        Harness::with_config(cfg, 3)
    }

    #[test]
    fn features_have_consistent_shape() {
        let h = small_harness();
        let pop = Population::paper_table1(3);
        let f = h
            .features_for_profile(&pop.profiles()[0], &CaptureSpec::default_lab(2))
            .unwrap();
        assert_eq!(f.len(), 2);
        let d = h.pipeline().feature_extractor().feature_len();
        assert!(f.iter().all(|v| v.len() == d));
    }

    #[test]
    fn harness_is_deterministic() {
        let h1 = small_harness();
        let h2 = small_harness();
        let body = BodyModel::from_seed(5);
        let spec = CaptureSpec::default_lab(1);
        assert_eq!(
            h1.features_for(&body, &spec).unwrap(),
            h2.features_for(&body, &spec).unwrap()
        );
    }

    #[test]
    fn beep_offset_changes_samples_but_not_identity() {
        let h = small_harness();
        let body = BodyModel::from_seed(6);
        let mut spec = CaptureSpec::default_lab(1);
        let a = h.features_for(&body, &spec).unwrap();
        spec.beep_offset = 50;
        let b = h.features_for(&body, &spec).unwrap();
        assert_ne!(a, b, "different beeps should differ");
    }

    #[test]
    fn distance_estimate_is_near_spec_distance() {
        let h = small_harness();
        let body = BodyModel::from_seed(7);
        let (_, est) = h.images_for(&body, &CaptureSpec::default_lab(4)).unwrap();
        assert!(
            (est.horizontal_distance - 0.7).abs() < 0.2,
            "{}",
            est.horizontal_distance
        );
    }
}
