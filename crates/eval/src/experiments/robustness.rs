//! Extension — robustness to microphone-array imperfections.
//!
//! The paper assumes a calibrated array; real devices carry per-element
//! gain and timing mismatches. This experiment sweeps both and measures
//! authentication quality, answering "how well-matched must the
//! microphones be for acoustic-image authentication to survive?"

use crate::experiments::protocol::{enroll, evaluate, ProtocolConfig};
use crate::harness::{CaptureSpec, Harness};
use crate::metrics::AuthMetrics;

/// Configuration for the imperfection sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Scene/population seed.
    pub seed: u64,
    /// Registered users.
    pub users: usize,
    /// Spoofers.
    pub spoofers: usize,
    /// Gain-mismatch standard deviations swept, dB.
    pub gain_errors_db: Vec<f64>,
    /// Timing-mismatch standard deviations swept, seconds.
    pub timing_errors: Vec<f64>,
    /// Enrol/test counts.
    pub protocol: ProtocolConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 77,
            users: 4,
            spoofers: 2,
            gain_errors_db: vec![0.0, 1.0, 3.0, 6.0],
            timing_errors: vec![0.0, 20e-6, 50e-6],
            protocol: ProtocolConfig {
                train_beeps: 18,
                test_beeps: 6,
                test_sessions: vec![0],
                ..ProtocolConfig::default()
            },
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Gain mismatch std, dB.
    pub gain_error_db: f64,
    /// Timing mismatch std, seconds.
    pub timing_error: f64,
    /// Authentication metrics under this imperfection level.
    pub metrics: AuthMetrics,
}

echo_obs::json_object!(Point {
    gain_error_db,
    timing_error,
    metrics
});

/// Results of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Gain sweep (timing fixed at 0).
    pub gain_sweep: Vec<Point>,
    /// Timing sweep (gain fixed at 0).
    pub timing_sweep: Vec<Point>,
}

echo_obs::json_object!(Output {
    gain_sweep,
    timing_sweep
});

/// Runs the sweep. The same (imperfect) device is used for enrolment
/// and authentication, as it would be in deployment.
///
/// # Errors
///
/// Propagates enrolment-time pipeline failures.
pub fn run(config: &Config) -> Result<Output, echoimage_core::EchoImageError> {
    let population =
        echo_sim::Population::generate(config.users + config.spoofers, config.users, config.seed);
    let registered: Vec<_> = population.registered().collect();
    let spoofers: Vec<_> = population.spoofers().collect();

    let run_point = |gain: f64, timing: f64| -> Result<Point, echoimage_core::EchoImageError> {
        let harness = Harness::new(config.seed);
        let spec = CaptureSpec {
            mic_gain_error_db: gain,
            mic_timing_error: timing,
            ..CaptureSpec::default_lab(0)
        };
        let auth = enroll(&harness, &registered, &spec, &config.protocol)?;
        let cm = evaluate(
            &harness,
            &auth,
            &registered,
            &spoofers,
            &spec,
            &config.protocol,
        );
        Ok(Point {
            gain_error_db: gain,
            timing_error: timing,
            metrics: cm.metrics(),
        })
    };

    let mut gain_sweep = Vec::new();
    for &g in &config.gain_errors_db {
        gain_sweep.push(run_point(g, 0.0)?);
    }
    let mut timing_sweep = Vec::new();
    for &t in &config.timing_errors {
        timing_sweep.push(run_point(0.0, t)?);
    }
    Ok(Output {
        gain_sweep,
        timing_sweep,
    })
}
