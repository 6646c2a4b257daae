//! Fig. 12 — robustness to experimental environments (paper §VI-C).
//!
//! Eight users at 0.7 m, three environments (laboratory, conference
//! hall, outdoor), four noise conditions (quiet, music, chatter,
//! traffic). Training data is collected quietly in each environment;
//! testing runs under each noise condition. Paper result: recall,
//! precision and accuracy over 0.9 everywhere, best in quiet.

use crate::experiments::protocol::{enroll, evaluate, ProtocolConfig};
use crate::harness::{CaptureSpec, Harness};
use crate::metrics::AuthMetrics;
use echo_sim::{EnvironmentKind, NoiseKind, Population};
use echoimage_core::EchoImageError;

/// Configuration for the environments experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Scene/population seed.
    pub seed: u64,
    /// Registered users (paper: 8).
    pub users: usize,
    /// Spoofers probing the system.
    pub spoofers: usize,
    /// Enrol/test counts.
    pub protocol: ProtocolConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 12,
            users: 8,
            spoofers: 4,
            protocol: ProtocolConfig {
                train_beeps: 24,
                test_beeps: 6,
                test_sessions: vec![0, 2],
                ..ProtocolConfig::default()
            },
        }
    }
}

/// Metrics for one environment × noise cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Environment label.
    pub environment: String,
    /// Noise label.
    pub noise: String,
    /// Aggregate metrics for the cell.
    pub metrics: AuthMetrics,
}

echo_obs::json_object!(Cell {
    environment,
    noise,
    metrics
});

/// Results of the environments experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// One cell per environment × noise condition, in paper order.
    pub cells: Vec<Cell>,
}

echo_obs::json_object!(Output { cells });

impl Output {
    /// Looks up a cell.
    pub fn cell(&self, env: EnvironmentKind, noise: NoiseKind) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|c| c.environment == env.label() && c.noise == noise.label())
    }
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates enrolment-time pipeline failures.
pub fn run(config: &Config) -> Result<Output, EchoImageError> {
    let population =
        Population::generate(config.users + config.spoofers, config.users, config.seed);
    let registered: Vec<_> = population.registered().collect();
    let spoofers: Vec<_> = population.spoofers().collect();

    let mut cells = Vec::new();
    for env in EnvironmentKind::all() {
        // One enrolment per environment, collected quietly (§VI-A-1:
        // "we first keep each place quiet to conduct data collection for
        // training").
        let harness = Harness::new(config.seed ^ (env as u64 + 1) << 8);
        let train_spec = CaptureSpec {
            environment: env,
            noise: NoiseKind::Quiet,
            ..CaptureSpec::default_lab(0)
        };
        let auth = enroll(&harness, &registered, &train_spec, &config.protocol)?;

        for noise in NoiseKind::all() {
            let test_spec = CaptureSpec {
                environment: env,
                noise,
                ..CaptureSpec::default_lab(0)
            };
            let cm = evaluate(
                &harness,
                &auth,
                &registered,
                &spoofers,
                &test_spec,
                &config.protocol,
            );
            cells.push(Cell {
                environment: env.label().to_string(),
                noise: noise.label().to_string(),
                metrics: cm.metrics(),
            });
        }
    }
    Ok(Output { cells })
}
