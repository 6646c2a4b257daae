//! User–array distance estimation (paper §V-B).
//!
//! The estimator steers an MVDR beam at an arbitrary patch of the user's
//! upper body (θ = π/2, φ ∈ [π/3, 2π/3]), matched-filters the beamformed
//! signal against the transmitted chirp (Eq. 9), accumulates the squared
//! correlation envelopes over L beeps (Eq. 10), and reads the geometry
//! off the peaks: the first peak τ₁ is the direct speaker→mic chirp, the
//! strongest peak in the echo period is the body echo τ_w′, and the
//! slant distance is `D_f = τ·c/2`, projected to the horizontal
//! user–array distance `D_p = D_f·sin φ·sin θ`.
//!
//! One refinement over the paper's description: echo delays are measured
//! *relative to the direct-path peak* and corrected by the known
//! speaker→mic path length. Both peaks pass through the same band-pass
//! filter, so its group delay cancels — absolute peak positions would be
//! biased by it.

use crate::config::{BeepConfig, DistanceConfig, PipelineConfig};
use crate::error::EchoImageError;
use echo_array::{Direction, MicArray};
use echo_beamform::{apply_weights, mvdr_weights, SpatialCovariance};
use echo_dsp::correlate::{CorrelationScratch, MatchedFilterPlan};
use echo_dsp::hilbert::{analytic_signal, analytic_signal_padded_with, moving_average};
use echo_dsp::peaks::{find_peaks, strongest_peak_in, Peak};
use echo_dsp::FftScratch;
use echo_dsp::{Complex, SPEED_OF_SOUND};
use echo_obs::TraceCtx;
use echo_sim::BeepCapture;

/// The result of distance estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceEstimate {
    /// Slant distance `D_f` from the array to the steered body patch,
    /// metres.
    pub slant_distance: f64,
    /// Horizontal user–array distance `D_p = D_f·sinφ·sinθ`, metres.
    pub horizontal_distance: f64,
    /// Sample index of the direct-path peak τ₁ in the accumulated
    /// envelope.
    pub direct_peak: usize,
    /// Sample index of the detected body-echo peak τ_w′.
    pub echo_peak: usize,
    /// The accumulated envelope `E(t)` (Eq. 10), for diagnostics and the
    /// paper's Fig. 5.
    pub envelope: Vec<f64>,
    /// All detected peaks (the paper's `MaxSet`).
    pub peaks: Vec<Peak>,
}

/// Estimates the user–array distance from `L` band-passed beep captures.
///
/// `array` must describe the geometry the captures were recorded with.
///
/// # Errors
///
/// * [`EchoImageError::NoCaptures`] — `captures` is empty.
/// * [`EchoImageError::InconsistentCaptures`] — captures disagree in shape.
/// * [`EchoImageError::DirectPathNotFound`] — no peak qualifies as the
///   direct chirp.
/// * [`EchoImageError::EchoNotFound`] — the echo period contains no peak.
/// * [`EchoImageError::Beamforming`] — MVDR weight design failed.
pub fn estimate_distance(
    captures: &[BeepCapture],
    array: &MicArray,
    config: &PipelineConfig,
) -> Result<DistanceEstimate, EchoImageError> {
    check_train(captures, array)?;
    let analytic: Vec<Vec<Vec<Complex>>> = captures
        .iter()
        .map(|c| analytic_channels(TraceCtx::none(), 0, c))
        .collect();
    let cov = resolve_covariance(captures, array, config);
    let chirp = chirp_plan(&config.beep);
    estimate_from_analytic(
        captures,
        &analytic,
        &cov,
        &chirp,
        array,
        config,
        TraceCtx::none(),
    )
}

/// The matched-filter plan for `beep`'s analytic chirp template (paper
/// Eq. 9), which ranging correlates every beamformed beep against. It
/// depends on the beep alone, so a pipeline builds it once; the plan
/// transforms the template at each padded length on first use.
pub(crate) fn chirp_plan(beep: &BeepConfig) -> MatchedFilterPlan {
    MatchedFilterPlan::new_complex(&analytic_signal(&beep.chirp().samples()))
}

/// The shape checks ranging needs before any covariance or estimate is
/// computed: at least one capture, every capture of one shape and rate,
/// one channel per microphone, and at least one sample.
///
/// # Errors
///
/// [`EchoImageError::NoCaptures`],
/// [`EchoImageError::InconsistentCaptures`], or
/// [`EchoImageError::InvalidParameter`] for a channel-count mismatch or
/// empty captures.
pub(crate) fn check_train(
    captures: &[BeepCapture],
    array: &MicArray,
) -> Result<(), EchoImageError> {
    let first = captures.first().ok_or(EchoImageError::NoCaptures)?;
    let (fs, n, m) = (first.sample_rate(), first.len(), first.num_channels());
    if captures
        .iter()
        .any(|c| c.len() != n || c.num_channels() != m || c.sample_rate() != fs)
    {
        return Err(EchoImageError::InconsistentCaptures);
    }
    if m != array.len() {
        return Err(EchoImageError::InvalidParameter(
            "array geometry does not match the capture channel count",
        ));
    }
    if n == 0 {
        return Err(EchoImageError::InvalidParameter("captures hold no samples"));
    }
    Ok(())
}

/// The per-channel analytic signals of one band-passed capture: the
/// radix-2 padded transform ([`analytic_signal_padded_with`]), which
/// ranging and imaging both read. A pipeline run computes it once per
/// beep and hands the same buffers to [`estimate_from_analytic`] and to
/// every imaging plane; the standalone entry points compute the same
/// buffers themselves, so both routes are bit-identical.
///
/// Captures are rarely a power-of-two length, and the exact transform
/// of such a length runs Bluestein, ~5× the work of a direct radix-2
/// pair. The padded signal tracks the exact one closely away from the
/// capture's ends, and neither the envelope peaks nor the echo gates
/// are read there.
///
/// Timed as `stage.analytic` child `lidx` of `ctx`.
pub(crate) fn analytic_channels(
    ctx: TraceCtx,
    lidx: u64,
    capture: &BeepCapture,
) -> Vec<Vec<Complex>> {
    let _t = echo_obs::stage!(ctx, "stage.analytic", lidx);
    let mut scratch = FftScratch::new();
    capture
        .channels()
        .iter()
        .map(|ch| analytic_signal_padded_with(ch, &mut scratch))
        .collect()
}

/// [`estimate_distance`] over analytic signals already computed by
/// [`analytic_channels`] (`analytic[l]` belongs to `captures[l]`), the
/// noise covariance from [`resolve_covariance`] and the template plan
/// from [`chirp_plan`], for captures that passed [`check_train`].
/// Records a `stage.distance` trace span under `ctx` (beep count,
/// estimated horizontal distance).
pub(crate) fn estimate_from_analytic(
    captures: &[BeepCapture],
    analytic: &[Vec<Vec<Complex>>],
    cov: &SpatialCovariance,
    chirp: &MatchedFilterPlan,
    array: &MicArray,
    config: &PipelineConfig,
    ctx: TraceCtx,
) -> Result<DistanceEstimate, EchoImageError> {
    debug_assert!(check_train(captures, array).is_ok());
    debug_assert_eq!(analytic.len(), captures.len());
    let first = &captures[0];
    let (fs, n) = (first.sample_rate(), first.len());
    let mut tspan = echo_obs::stage!(ctx, "stage.distance");
    tspan.attr_u64("beeps", captures.len() as u64);
    echo_obs::counter!("distance.estimates").inc();
    // Which SIMD path the kernels below run on. Gauge only — traces and
    // audits stay bit-identical across dispatch modes by contract.
    echo_dsp::simd::record_dispatch();

    let dcfg = &config.distance;
    let look = Direction::new(dcfg.azimuth, dcfg.elevation);
    let f0 = config.beep.center_frequency();
    let steering = array.steering_vector(look, f0);
    // One weight vector for the whole train: the paper's ρ_n is a
    // single background-noise statistic, not a per-beep one.
    let weights = mvdr_weights(cov, &steering)?;

    // Accumulate E(t) = (1/L) Σ |E_l(t)|² (Eq. 10). The envelope is read
    // well inside the capture, where the padded analytic signal tracks
    // the exact one to the accumulation noise floor.
    let mut accumulated = vec![0.0f64; n];
    let mut corr_scratch = CorrelationScratch::new();
    for channels in analytic {
        let beamformed = apply_weights(channels, &weights);
        // |C_l(t)| of the analytic correlation *is* the envelope E_l(t).
        let correlation = chirp.matched_filter_complex_with(&beamformed, &mut corr_scratch);
        for (acc, c) in accumulated.iter_mut().zip(&correlation) {
            *acc += c.norm_sqr();
        }
    }
    let l = captures.len() as f64;
    for v in &mut accumulated {
        *v /= l;
    }

    let estimate = locate_peaks(accumulated, fs, first.preroll(), dcfg);
    if let Ok(est) = &estimate {
        tspan.attr_f64("horizontal_m", est.horizontal_distance);
    }
    estimate
}

/// The MVDR noise covariance ρ_n (paper §III-D, §V-B): the array's
/// spherically isotropic diffuse-field coherence at the beep centre
/// frequency, loaded by [`ROBUST_LOADING`]. It is a model of the
/// background noise, not an estimate from it, so the weights do not
/// wander with each short noise observation and no capture is read.
pub fn resolve_covariance(
    _captures: &[BeepCapture],
    array: &MicArray,
    config: &PipelineConfig,
) -> SpatialCovariance {
    SpatialCovariance::isotropic(
        array,
        config.beep.center_frequency(),
        SPEED_OF_SOUND,
        ROBUST_LOADING,
    )
}

/// Diagonal loading of the noise covariance (robust MVDR). In-band
/// diffuse noise on a small aperture yields a near-singular coherence
/// matrix whose inverse is superdirective, with sharp accidental nulls
/// right next to the look direction. Heavy loading trades a little
/// noise suppression for a well-behaved beam.
pub const ROBUST_LOADING: f64 = 0.05;

/// Peak logic shared with diagnostics: finds τ₁ and τ_w′ in an envelope
/// and converts to distances. The envelope moves into the estimate.
fn locate_peaks(
    envelope: Vec<f64>,
    fs: f64,
    preroll: usize,
    dcfg: &DistanceConfig,
) -> Result<DistanceEstimate, EchoImageError> {
    let max = envelope.iter().copied().fold(0.0, f64::max);
    if max <= 0.0 {
        return Err(EchoImageError::DirectPathNotFound);
    }
    let peaks = find_peaks(
        &envelope,
        dcfg.peak_distance,
        dcfg.peak_threshold_ratio * max,
    );
    // τ₁: the chirp travelling directly from the speaker to the
    // microphones. The device knows when it emitted the beep (the end of
    // the preroll) and its own speaker→mic geometry, so the direct peak
    // is the strongest peak within a couple of milliseconds of the
    // expected arrival — not blindly the first peak anywhere, which a
    // noise ripple could claim once MVDR has suppressed the (off-look)
    // direct path.
    let expect = preroll + (dcfg.direct_path_length / SPEED_OF_SOUND * fs) as usize;
    let lo = expect.saturating_sub((0.001 * fs) as usize);
    let hi = (expect + (0.002 * fs) as usize).min(envelope.len());
    let direct = strongest_peak_in(&peaks, lo, hi).ok_or(EchoImageError::DirectPathNotFound)?;

    let chirp_period = (dcfg.chirp_period * fs).round() as usize;
    let echo_period = (dcfg.echo_period * fs).round() as usize;
    let echo_start = direct.index + chirp_period;
    let echo_end = (echo_start + echo_period).min(envelope.len());
    if echo_start >= echo_end {
        return Err(EchoImageError::EchoNotFound);
    }
    // Guard against degenerate windows, then locate the body echo as the
    // leading edge of the strongest smoothed lobe: lobe maxima wander
    // with coherent speckle, leading edges do not.
    let smooth_w = ((dcfg.envelope_smoothing * fs).round() as usize).max(1);
    let smoothed = moving_average(&envelope, smooth_w);
    let window = &smoothed[echo_start..echo_end];
    // The window opens on the decaying skirt of the direct chirp. Walk
    // down that initial decay first; the echo lobe must rise after it
    // (an empty room never rises above the noise floor again).
    let mut skirt_end = 0usize;
    while skirt_end + 1 < window.len() && window[skirt_end + 1] <= window[skirt_end] {
        skirt_end += 1;
    }
    if skirt_end + 1 >= window.len() {
        return Err(EchoImageError::EchoNotFound);
    }
    let (lobe_off, &lobe_max) = window[skirt_end..]
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, v)| (i + skirt_end, v))
        .expect("window checked non-empty");
    // Echo validity: the lobe must clear both the relative threshold and
    // the matched-filter noise floor measured on the (signal-free) early
    // preroll — otherwise an empty room would "range" its own noise.
    let clean_preroll = preroll.saturating_sub(2 * chirp_period);
    let preroll_floor = if clean_preroll > 16 {
        smoothed[..clean_preroll]
            .iter()
            .copied()
            .fold(0.0, f64::max)
    } else {
        0.0
    };
    let noise_floor = (dcfg.peak_threshold_ratio * max).max(4.0 * preroll_floor);
    if lobe_max <= noise_floor {
        return Err(EchoImageError::EchoNotFound);
    }
    let threshold = dcfg.echo_onset_fraction * lobe_max;
    let mut edge = lobe_off;
    while edge > skirt_end && window[edge - 1] >= threshold {
        edge -= 1;
    }
    // The echo time is the midpoint between the lobe's leading edge and
    // its maximum: the edge alone fires early by the smoothing width,
    // the max alone wanders with speckle; their midpoint is both stable
    // and centred on the echo onset.
    let echo_idx = echo_start + (edge + lobe_off) / 2;
    let echo = Peak {
        index: echo_idx,
        value: envelope[echo_idx],
    };
    // Delay relative to the direct peak, plus the known speaker→mic path,
    // is the round-trip time to the dominant body patch.
    let round_trip =
        (echo.index - direct.index) as f64 / fs + dcfg.direct_path_length / SPEED_OF_SOUND;
    let slant = round_trip * SPEED_OF_SOUND / 2.0;
    // Project D_f to the horizontal distance D_p = D_f·sinφ·sinθ with the
    // φ of the *echoing patch*: the chest sits `echo_height_offset` above
    // the array and its bulge brings the onset `surface_onset_correction`
    // closer, so sinφ = √(1 − (Δz/D)²) with D the corrected slant.
    let corrected = slant + dcfg.surface_onset_correction;
    let dz = dcfg.echo_height_offset;
    let sin_phi = if corrected > dz {
        (1.0 - (dz / corrected) * (dz / corrected)).sqrt()
    } else {
        dcfg.elevation.sin()
    };
    let horizontal = corrected * sin_phi * dcfg.azimuth.sin();

    Ok(DistanceEstimate {
        // Report the onset-corrected slant (the physical distance to the
        // echoing patch), so D_f ≥ D_p as in the paper's geometry.
        slant_distance: corrected,
        horizontal_distance: horizontal,
        direct_peak: direct.index,
        echo_peak: echo.index,
        envelope,
        peaks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::EchoImagePipeline;
    use echo_sim::{BodyModel, Placement, Scene, SceneConfig};

    fn estimate_at(distance: f64, beeps: usize) -> DistanceEstimate {
        let scene = Scene::new(SceneConfig::laboratory_quiet(21));
        let body = BodyModel::from_seed(77);
        let captures =
            scene.capture_train(&body, &Placement::standing_front(distance), 0, beeps, 0);
        let pipeline = EchoImagePipeline::new(PipelineConfig::default());
        let filtered: Vec<BeepCapture> = captures.iter().map(|c| pipeline.preprocess(c)).collect();
        estimate_distance(&filtered, &MicArray::respeaker_6(), pipeline.config()).unwrap()
    }

    #[test]
    fn feasibility_study_geometry() {
        // Paper §V-B feasibility: user at 0.6 m, θ = π/2, φ = π/3 gives
        // D_f ≈ 0.68 m and D_p ≈ 0.58–0.6 m.
        let est = estimate_at(0.6, 10);
        assert!(
            (est.horizontal_distance - 0.6).abs() < 0.12,
            "D_p = {}",
            est.horizontal_distance
        );
        assert!(
            est.slant_distance + 0.1 > est.horizontal_distance,
            "horizontal projection cannot exceed the onset-corrected slant"
        );
    }

    #[test]
    fn estimates_track_true_distance() {
        for d in [0.7, 1.0, 1.3] {
            let est = estimate_at(d, 8);
            assert!(
                (est.horizontal_distance - d).abs() < 0.18,
                "true {d}, got {}",
                est.horizontal_distance
            );
        }
    }

    #[test]
    fn direct_peak_precedes_echo_peak() {
        let est = estimate_at(0.7, 4);
        assert!(est.direct_peak < est.echo_peak);
        // Direct peak sits near the preroll boundary (480 samples).
        assert!((est.direct_peak as i64 - 480).unsigned_abs() < 60);
    }

    #[test]
    fn more_beeps_stabilise_the_estimate() {
        // Eq. 10's averaging: estimates from many beeps vary less.
        let spread = |l: usize| {
            let scene = Scene::new(SceneConfig::laboratory_quiet(33));
            let body = BodyModel::from_seed(55);
            let pipeline = EchoImagePipeline::new(PipelineConfig::default());
            let mut estimates = Vec::new();
            for trial in 0..5 {
                let captures = scene.capture_train(
                    &body,
                    &Placement::standing_front(0.8),
                    0,
                    l,
                    (trial * 100) as u64,
                );
                let filtered: Vec<BeepCapture> =
                    captures.iter().map(|c| pipeline.preprocess(c)).collect();
                let est = estimate_distance(&filtered, &MicArray::respeaker_6(), pipeline.config())
                    .unwrap();
                estimates.push(est.horizontal_distance);
            }
            let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
            estimates
                .iter()
                .map(|e| (e - mean).abs())
                .fold(0.0f64, f64::max)
        };
        // Averaging over more beeps must not hurt; it usually helps.
        assert!(spread(6) <= spread(1) + 0.02);
    }

    #[test]
    fn empty_captures_error() {
        let pipeline = EchoImagePipeline::new(PipelineConfig::default());
        let err = estimate_distance(&[], &MicArray::respeaker_6(), pipeline.config()).unwrap_err();
        assert_eq!(err, EchoImageError::NoCaptures);
    }

    #[test]
    fn inconsistent_captures_error() {
        let scene = Scene::new(SceneConfig::laboratory_quiet(1));
        let body = BodyModel::from_seed(1);
        let a = scene.capture_beep(&body, &Placement::standing_front(0.7), 0, 0);
        let b = a.map_channels(|c| c.to_vec());
        // Truncate one capture to a different length.
        let short = BeepCapture::new(
            b.channels()
                .iter()
                .map(|c| c[..c.len() - 10].to_vec())
                .collect(),
            b.sample_rate(),
            b.preroll(),
        );
        let pipeline = EchoImagePipeline::new(PipelineConfig::default());
        let err = estimate_distance(&[a, short], &MicArray::respeaker_6(), pipeline.config())
            .unwrap_err();
        assert_eq!(err, EchoImageError::InconsistentCaptures);
    }

    #[test]
    fn zero_sample_captures_error_instead_of_panicking() {
        let empty = BeepCapture::new(vec![Vec::new(); 6], 48_000.0, 0);
        let pipeline = EchoImagePipeline::new(PipelineConfig::default());
        let err =
            estimate_distance(&[empty], &MicArray::respeaker_6(), pipeline.config()).unwrap_err();
        assert!(matches!(err, EchoImageError::InvalidParameter(_)));
    }

    #[test]
    fn silence_reports_missing_direct_path() {
        let silent = BeepCapture::new(vec![vec![0.0; 4_000]; 6], 48_000.0, 480);
        let pipeline = EchoImagePipeline::new(PipelineConfig::default());
        let err =
            estimate_distance(&[silent], &MicArray::respeaker_6(), pipeline.config()).unwrap_err();
        assert_eq!(err, EchoImageError::DirectPathNotFound);
    }

    #[test]
    fn wrong_array_geometry_is_rejected() {
        let scene = Scene::new(SceneConfig::laboratory_quiet(1));
        let body = BodyModel::from_seed(1);
        let cap = scene.capture_beep(&body, &Placement::standing_front(0.7), 0, 0);
        let wrong = MicArray::linear(4, 0.04);
        let pipeline = EchoImagePipeline::new(PipelineConfig::default());
        let err = estimate_distance(&[cap], &wrong, pipeline.config()).unwrap_err();
        assert!(matches!(err, EchoImageError::InvalidParameter(_)));
    }
}
