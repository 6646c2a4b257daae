//! The production enrolment recipe.
//!
//! Registering a user is more than running captures through
//! [`crate::pipeline::EchoImagePipeline::features_from_train`]: to
//! survive day-to-day drift and distance-estimate jitter, the enrolment
//! cloud must *span* the variation authentication-time probes will
//! carry. The recipe, validated by the evaluation suite:
//!
//! 1. **Multiple visits** — capture several independent beep batches
//!    (fresh stance, fresh noise, fresh distance estimate). The paper's
//!    own Session 1 spans days 0–2.
//! 2. **Plane diversity** — re-image each batch at slightly perturbed
//!    plane distances, covering the test-time ranging jitter.
//! 3. **§V-F augmentation** — synthesise inverse-square copies around
//!    the estimated distance.

use crate::augment::augment_sweep;
use crate::error::EchoImageError;
use crate::health::ChannelHealth;
use crate::pipeline::{EchoImagePipeline, TrainRequest};
use echo_obs::TraceCtx;
use echo_sim::BeepCapture;

/// Tunables of the enrolment recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct EnrollmentConfig {
    /// Plane-distance offsets for re-imaging each capture, metres.
    pub plane_offsets: Vec<f64>,
    /// Distance offsets for inverse-square synthesis, metres.
    pub augment_offsets: Vec<f64>,
}

impl Default for EnrollmentConfig {
    fn default() -> Self {
        EnrollmentConfig {
            plane_offsets: vec![-0.03, 0.03],
            augment_offsets: vec![-0.05, 0.05],
        }
    }
}

/// Turns one user's enrolment visits into the feature cloud to hand to
/// [`crate::auth::Authenticator::enroll`].
///
/// `visits` holds one beep train per registration visit; each visit is
/// ranged and imaged independently.
///
/// # Errors
///
/// Propagates pipeline failures — enrolment happens under controlled
/// conditions, so a failed visit is a real error the caller should
/// surface (and re-capture).
///
/// # Example
///
/// ```
/// use echo_sim::{BodyModel, Placement, Scene, SceneConfig};
/// use echoimage_core::enrollment::{enrollment_features, EnrollmentConfig};
/// use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig};
///
/// let scene = Scene::new(SceneConfig::laboratory_quiet(5));
/// let user = BodyModel::from_seed(8);
/// let placement = Placement::standing_front(0.7);
/// let visits: Vec<_> = (0..2u32)
///     .map(|v| scene.capture_train(&user, &placement, v, 3, v as u64 * 100))
///     .collect();
///
/// let pipeline = EchoImagePipeline::new(PipelineConfig::default());
/// let features =
///     enrollment_features(&pipeline, &visits, &EnrollmentConfig::default()).unwrap();
/// // 2 visits × 3 beeps × (1 + 2 planes) images, plus 2 augmented
/// // copies per image.
/// assert_eq!(features.len(), 2 * 3 * 3 * (1 + 2));
/// ```
pub fn enrollment_features(
    pipeline: &EchoImagePipeline,
    visits: &[Vec<BeepCapture>],
    config: &EnrollmentConfig,
) -> Result<Vec<Vec<f64>>, EchoImageError> {
    let request = EnrollRequest {
        visits,
        recipe: config,
        screen: false,
        parent: None,
    };
    Ok(enroll_features(pipeline, &request)?.0)
}

/// One user's enrolment visits, and how to run the recipe over them:
/// the request [`enroll_features`] takes.
#[derive(Debug, Clone, Copy)]
pub struct EnrollRequest<'a> {
    /// One raw beep train per registration visit; each visit is ranged
    /// and imaged independently.
    pub visits: &'a [Vec<BeepCapture>],
    /// The enrolment recipe.
    pub recipe: &'a EnrollmentConfig,
    /// Health-screen the union of all visits first. Microphones that are
    /// unhealthy in *any* visit are excised, and the whole recipe
    /// (ranging, plane diversity, augmentation) runs on the surviving
    /// subset. A hardware fault is persistent, so a user enrolling on a
    /// degraded device builds their template in the same mic-subset
    /// feature space their authentication probes will occupy.
    pub screen: bool,
    /// The trace context to record under (used when many users enrol in
    /// parallel under one batch trace); `None` mints an `enroll.user`
    /// root. Each visit gets an `enroll.visit` span indexed by visit
    /// number.
    pub parent: Option<TraceCtx>,
}

/// [`enrollment_features`] for any [`EnrollRequest`]. Returns the
/// features together with the pooled [`ChannelHealth`] when the request
/// screens, so the caller can record which microphones the template
/// excludes.
///
/// # Errors
///
/// * [`EchoImageError::DegradedCapture`] — the request screens and too
///   few healthy microphones survive to enrol at all.
/// * Everything [`enrollment_features`] can return.
pub fn enroll_features(
    pipeline: &EchoImagePipeline,
    request: &EnrollRequest,
) -> Result<(Vec<Vec<f64>>, Option<ChannelHealth>), EchoImageError> {
    let root;
    let ctx = match request.parent {
        Some(ctx) => ctx,
        None => {
            root = echo_obs::root_span("enroll.user");
            root.ctx()
        }
    };
    let (visits, recipe) = (request.visits, request.recipe);
    if visits.is_empty() || visits.iter().any(|v| v.is_empty()) {
        return Err(EchoImageError::NoCaptures);
    }
    let (subset, health) = if request.screen {
        let mut tspan = ctx.child("stage.health_screen");
        let all: Vec<BeepCapture> = visits.iter().flatten().cloned().collect();
        let health = pipeline.screen_train(&all)?;
        (pipeline.excise(&health, &mut tspan)?, Some(health))
    } else {
        (None, None)
    };
    let features = match subset {
        None => gather_features(ctx, pipeline, visits, recipe)?,
        Some((pipeline, channels)) => {
            let visits: Vec<Vec<BeepCapture>> = visits
                .iter()
                .map(|v| v.iter().map(|c| c.select_channels(&channels)).collect())
                .collect();
            gather_features(ctx, &pipeline, &visits, recipe)?
        }
    };
    Ok((features, health))
}

/// The recipe body: image every visit at every plane, augment, then
/// extract features in one batch over the configured thread count.
fn gather_features(
    ctx: TraceCtx,
    pipeline: &EchoImagePipeline,
    visits: &[Vec<BeepCapture>],
    config: &EnrollmentConfig,
) -> Result<Vec<Vec<f64>>, EchoImageError> {
    let _t = echo_obs::stage!(TraceCtx::none(), "stage.enroll");
    let imaging = &pipeline.config().imaging;
    // Gather every image (captured, re-planed, and augmented) first,
    // then extract features in one batch over the configured thread
    // count. The gather order — per visit, per image: base then its
    // augmented copies — matches the feature order of the serial recipe.
    let mut gathered = Vec::new();
    for (v, visit) in visits.iter().enumerate() {
        let mut vspan = ctx.child_at("enroll.visit", v as u64);
        vspan.attr_u64("beeps", visit.len() as u64);
        let train = pipeline.images(&TrainRequest {
            plane_offsets: &config.plane_offsets,
            parent: Some(vspan.ctx()),
            ..TrainRequest::new(visit)
        })?;
        let est = train.estimate.horizontal_distance;
        for img in train.images {
            let synth = if config.augment_offsets.is_empty() {
                Vec::new()
            } else {
                let targets: Vec<f64> = config
                    .augment_offsets
                    .iter()
                    .map(|o| (est + o).max(0.2))
                    .collect();
                augment_sweep(&img, imaging, est, &targets)?
            };
            gathered.push(img);
            gathered.extend(synth);
        }
    }
    Ok(pipeline.features_batch_traced(ctx, &gathered))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::{AuthConfig, Authenticator};
    use crate::config::{ImagingConfig, PipelineConfig};
    use echo_sim::{BodyModel, Placement, Scene, SceneConfig};

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

    fn visits(
        scene: &Scene,
        body: &BodyModel,
        count: u32,
        beeps: usize,
    ) -> Vec<Vec<echo_sim::BeepCapture>> {
        let placement = Placement::standing_front(0.7);
        (0..count)
            .map(|v| scene.capture_train(body, &placement, v, beeps, v as u64 * 500))
            .collect()
    }

    #[test]
    fn feature_counts_match_recipe() {
        let scene = Scene::new(SceneConfig::laboratory_quiet(9));
        let body = BodyModel::from_seed(3);
        let p = small_pipeline();
        let v = visits(&scene, &body, 2, 2);
        let cfg = EnrollmentConfig::default();
        let f = enrollment_features(&p, &v, &cfg).unwrap();
        // 2 visits × 2 beeps × 3 planes × (1 base + 2 augmented).
        assert_eq!(f.len(), 2 * 2 * 3 * 3);
    }

    #[test]
    fn recipe_enrolment_accepts_fresh_visits() {
        let scene = Scene::new(SceneConfig::laboratory_quiet(9));
        let body = BodyModel::from_seed(4);
        let p = small_pipeline();
        let v = visits(&scene, &body, 3, 3);
        let features = enrollment_features(&p, &v, &EnrollmentConfig::default()).unwrap();
        let auth = Authenticator::enroll(&[(1, features)], &AuthConfig::default()).unwrap();

        let fresh = scene.capture_train(&body, &Placement::standing_front(0.7), 8, 3, 77_000);
        let probes = p.features_from_train(&fresh).unwrap();
        let accepted = probes
            .iter()
            .filter(|f| auth.authenticate(f).is_accepted())
            .count();
        assert!(accepted > 0, "no fresh probe accepted");
    }

    #[test]
    fn disabling_augmentation_shrinks_the_cloud() {
        let scene = Scene::new(SceneConfig::laboratory_quiet(9));
        let body = BodyModel::from_seed(5);
        let p = small_pipeline();
        let v = visits(&scene, &body, 1, 2);
        let with = enrollment_features(&p, &v, &EnrollmentConfig::default()).unwrap();
        let without = enrollment_features(
            &p,
            &v,
            &EnrollmentConfig {
                augment_offsets: vec![],
                ..EnrollmentConfig::default()
            },
        )
        .unwrap();
        assert!(with.len() > without.len());
    }

    #[test]
    fn zero_sample_visit_errors_instead_of_panicking() {
        let p = small_pipeline();
        let degenerate = vec![vec![BeepCapture::new(vec![Vec::new(); 6], 48_000.0, 0)]];
        let err = enrollment_features(&p, &degenerate, &EnrollmentConfig::default()).unwrap_err();
        assert!(matches!(err, EchoImageError::InvalidParameter(_)));
    }

    #[test]
    fn empty_visits_error() {
        let p = small_pipeline();
        assert!(matches!(
            enrollment_features(&p, &[], &EnrollmentConfig::default()),
            Err(EchoImageError::NoCaptures)
        ));
        assert!(matches!(
            enrollment_features(&p, &[vec![]], &EnrollmentConfig::default()),
            Err(EchoImageError::NoCaptures)
        ));
    }
}
