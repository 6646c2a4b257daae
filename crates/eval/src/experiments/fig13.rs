//! Fig. 13 — impact of the user–array distance (paper §VI-D).
//!
//! The distance varies from 0.6 m to 1.5 m in the laboratory; the paper
//! reports F-measure above 0.95 below 1 m (quiet) with a marked drop
//! beyond 1 m as the echoes weaken.

use crate::experiments::protocol::{enroll, evaluate, ProtocolConfig};
use crate::harness::{CaptureSpec, Harness};
use crate::metrics::AuthMetrics;
use echo_sim::{EnvironmentKind, NoiseKind, Population};
use echoimage_core::EchoImageError;

/// Configuration for the distance sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Scene/population seed.
    pub seed: u64,
    /// Registered users.
    pub users: usize,
    /// Spoofers.
    pub spoofers: usize,
    /// Distances swept, metres (paper: 0.6–1.5).
    pub distances: Vec<f64>,
    /// Noise conditions compared (paper plots quiet and noisy curves).
    pub noises: Vec<NoiseKind>,
    /// Enrol/test counts.
    pub protocol: ProtocolConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 13,
            users: 6,
            spoofers: 3,
            distances: vec![0.6, 0.8, 1.0, 1.2, 1.5],
            noises: vec![NoiseKind::Quiet, NoiseKind::Chatter],
            protocol: ProtocolConfig {
                train_beeps: 12,
                test_beeps: 6,
                test_sessions: vec![0],
                ..ProtocolConfig::default()
            },
        }
    }
}

/// One point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// User–array distance, metres.
    pub distance: f64,
    /// Noise label.
    pub noise: String,
    /// Aggregate metrics (the paper plots `metrics.f_measure`).
    pub metrics: AuthMetrics,
}

echo_obs::json_object!(Point {
    distance,
    noise,
    metrics
});

/// Results of the distance sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Points ordered by noise, then distance.
    pub points: Vec<Point>,
}

echo_obs::json_object!(Output { points });

impl Output {
    /// The F-measure series for one noise condition, ordered by distance.
    pub fn f_measure_series(&self, noise: NoiseKind) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .filter(|p| p.noise == noise.label())
            .map(|p| (p.distance, p.metrics.f_measure))
            .collect()
    }
}

/// Runs the sweep: for each (noise, distance) the users enrol and are
/// tested at that distance in the laboratory.
///
/// # Errors
///
/// Propagates enrolment-time pipeline failures.
pub fn run(config: &Config) -> Result<Output, EchoImageError> {
    let population =
        Population::generate(config.users + config.spoofers, config.users, config.seed);
    let registered: Vec<_> = population.registered().collect();
    let spoofers: Vec<_> = population.spoofers().collect();

    let mut points = Vec::new();
    for &noise in &config.noises {
        for &distance in &config.distances {
            let harness = Harness::new(config.seed ^ (distance * 1_000.0) as u64);
            let spec = CaptureSpec {
                environment: EnvironmentKind::Laboratory,
                noise,
                distance,
                session: 0,
                beeps: 0,
                beep_offset: 0,
                mic_gain_error_db: 0.0,
                mic_timing_error: 0.0,
                faults: echo_sim::FaultPlan::none(),
                room: None,
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
            points.push(Point {
                distance,
                noise: noise.label().to_string(),
                metrics: cm.metrics(),
            });
        }
    }
    Ok(Output { points })
}
