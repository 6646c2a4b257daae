//! Fig. 5 — distance-estimation feasibility study (paper §V-B).
//!
//! One volunteer stands 0.6 m in front of the array in an empty quiet
//! room; 20 beeps are collected, the accumulated correlation envelope is
//! computed, and the chirp/echo periods are read off its peaks. The
//! paper reports `D_f = 0.68 m` and `D_p = 0.58 m` against a 0.6 m
//! ground truth.

use crate::harness::{CaptureSpec, Harness};
use echo_sim::{EnvironmentKind, Placement};
use echo_sim::{NoiseKind, Population};
use echoimage_core::distance::estimate_distance;
use echoimage_core::EchoImageError;

/// Configuration for the feasibility study.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Scene/population seed.
    pub seed: u64,
    /// Ground-truth user distance, metres (paper: 0.6).
    pub distance: f64,
    /// Number of beeps (paper: 20).
    pub beeps: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 5,
            distance: 0.6,
            beeps: 20,
        }
    }
}

/// A detected envelope peak, relative to the envelope maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopePeak {
    /// Time in seconds from the start of the capture.
    pub time: f64,
    /// Envelope value relative to the maximum.
    pub relative_value: f64,
}

echo_obs::json_object!(EnvelopePeak {
    time,
    relative_value
});

/// Results of the feasibility study.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Ground-truth horizontal distance, metres.
    pub true_distance: f64,
    /// Estimated slant distance `D_f`, metres (paper: 0.68).
    pub slant_distance: f64,
    /// Estimated horizontal distance `D_p`, metres (paper: 0.58).
    pub horizontal_distance: f64,
    /// Absolute estimation error, metres.
    pub error: f64,
    /// Time of the direct-path peak τ₁, seconds.
    pub direct_peak_time: f64,
    /// Time of the detected body-echo peak, seconds.
    pub echo_peak_time: f64,
    /// All detected peaks of the accumulated envelope.
    pub peaks: Vec<EnvelopePeak>,
    /// The accumulated envelope `E(t)` (Eq. 10), decimated for plotting.
    pub envelope: Vec<f64>,
    /// Decimation factor applied to the envelope.
    pub envelope_decimation: usize,
}

echo_obs::json_object!(Output {
    true_distance,
    slant_distance,
    horizontal_distance,
    error,
    direct_peak_time,
    echo_peak_time,
    peaks,
    envelope,
    envelope_decimation
});

/// Runs the feasibility study.
///
/// # Errors
///
/// Propagates distance-estimation failures.
pub fn run(config: &Config) -> Result<Output, EchoImageError> {
    let harness = Harness::new(config.seed);
    let spec = CaptureSpec {
        environment: EnvironmentKind::Laboratory,
        noise: NoiseKind::Quiet,
        distance: config.distance,
        session: 0,
        beeps: config.beeps,
        beep_offset: 0,
        mic_gain_error_db: 0.0,
        mic_timing_error: 0.0,
        faults: echo_sim::FaultPlan::none(),
        room: None,
    };
    let scene = harness.scene(&spec);
    let volunteer = Population::paper_table1(config.seed).profiles()[0].body();
    let captures = scene.capture_train(
        &volunteer,
        &Placement::standing_front(config.distance),
        0,
        config.beeps,
        0,
    );
    let pipeline = harness.pipeline();
    let filtered: Vec<_> = captures.iter().map(|c| pipeline.preprocess(c)).collect();
    let est = estimate_distance(&filtered, pipeline.array(), pipeline.config())?;

    let fs = captures[0].sample_rate();
    let max = est
        .envelope
        .iter()
        .cloned()
        .fold(f64::MIN_POSITIVE, f64::max);
    let peaks = est
        .peaks
        .iter()
        .map(|p| EnvelopePeak {
            time: p.index as f64 / fs,
            relative_value: p.value / max,
        })
        .collect();
    let decim = 8;
    let envelope: Vec<f64> = est
        .envelope
        .iter()
        .step_by(decim)
        .map(|v| v / max)
        .collect();

    Ok(Output {
        true_distance: config.distance,
        slant_distance: est.slant_distance,
        horizontal_distance: est.horizontal_distance,
        error: (est.horizontal_distance - config.distance).abs(),
        direct_peak_time: est.direct_peak as f64 / fs,
        echo_peak_time: est.echo_peak as f64 / fs,
        peaks,
        envelope,
        envelope_decimation: decim,
    })
}
