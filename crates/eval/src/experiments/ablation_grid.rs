//! Extension — imaging-grid resolution ablation.
//!
//! The paper images on a 180×180 grid of 1 cm cells; this reproduction
//! defaults to 32×32 of 5 cm. This experiment sweeps the grid size over
//! a fixed physical extent and measures authentication quality and
//! per-image construction cost, quantifying how much resolution the
//! 6-microphone array actually exploits.

use crate::experiments::protocol::{enroll, evaluate, ProtocolConfig};
use crate::harness::{CaptureSpec, Harness};
use crate::metrics::AuthMetrics;
use echoimage_core::config::{ImagingConfig, PipelineConfig};

/// Configuration for the grid sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Scene/population seed.
    pub seed: u64,
    /// Registered users.
    pub users: usize,
    /// Spoofers.
    pub spoofers: usize,
    /// Grid sizes swept (cells per side over a fixed ±0.8 m extent).
    pub grid_sizes: Vec<usize>,
    /// Enrol/test counts.
    pub protocol: ProtocolConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 41,
            users: 4,
            spoofers: 2,
            grid_sizes: vec![8, 16, 32, 48],
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
    /// Cells per side.
    pub grid_n: usize,
    /// Cell edge, metres.
    pub grid_spacing: f64,
    /// Authentication metrics at this resolution.
    pub metrics: AuthMetrics,
    /// Mean wall-clock per constructed image, milliseconds. Kept out of
    /// the artefact, which seeded runs reproduce byte for byte.
    pub ms_per_image: f64,
}

echo_obs::json_object!(Point {
    grid_n,
    grid_spacing,
    metrics
} skip {
    ms_per_image
});

/// Results of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Points ordered by grid size.
    pub points: Vec<Point>,
}

echo_obs::json_object!(Output { points });

/// Runs the sweep.
///
/// # Errors
///
/// Propagates enrolment-time pipeline failures.
pub fn run(config: &Config) -> Result<Output, echoimage_core::EchoImageError> {
    let population =
        echo_sim::Population::generate(config.users + config.spoofers, config.users, config.seed);
    let registered: Vec<_> = population.registered().collect();
    let spoofers: Vec<_> = population.spoofers().collect();
    let extent = 1.6; // metres, fixed physical plane

    let mut points = Vec::new();
    for &grid_n in &config.grid_sizes {
        let pipe_cfg = PipelineConfig {
            imaging: ImagingConfig {
                grid_n,
                grid_spacing: extent / grid_n as f64,
                ..ImagingConfig::default()
            },
            ..PipelineConfig::default()
        };
        let harness = Harness::with_config(pipe_cfg, config.seed);
        let spec = CaptureSpec::default_lab(0);

        let started = std::time::Instant::now();
        let auth = enroll(&harness, &registered, &spec, &config.protocol)?;
        let cm = evaluate(
            &harness,
            &auth,
            &registered,
            &spoofers,
            &spec,
            &config.protocol,
        );
        let elapsed = started.elapsed().as_secs_f64() * 1_000.0;
        // Rough per-image cost: images constructed during enrol + test.
        let plane_factor = 1 + config.protocol.plane_offsets.len();
        let enrol_images = config.users * config.protocol.train_beeps * plane_factor;
        let test_images = (config.users + config.spoofers)
            * config.protocol.test_beeps
            * config.protocol.test_sessions.len();
        let ms_per_image = elapsed / (enrol_images + test_images).max(1) as f64;

        points.push(Point {
            grid_n,
            grid_spacing: extent / grid_n as f64,
            metrics: cm.metrics(),
            ms_per_image,
        });
    }
    Ok(Output { points })
}
