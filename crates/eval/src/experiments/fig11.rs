//! Fig. 11 — overall performance: confusion matrix for 12 registered
//! users and 8 spoofers in a quiet laboratory at 0.7 m.
//!
//! Paper result: over 0.98 accuracy identifying registered users and
//! 0.97 accuracy detecting spoofers.

use crate::experiments::protocol::{enroll, evaluate, ProtocolConfig};
use crate::harness::{CaptureSpec, Harness};
use crate::metrics::{AuthMetrics, ConfusionMatrix};
use echo_sim::Population;
use echoimage_core::EchoImageError;

/// Configuration for the overall-performance experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Seed for the simulated population and scenes.
    pub seed: u64,
    /// Enrol/test counts and classifier hyper-parameters.
    pub protocol: ProtocolConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 2023,
            protocol: ProtocolConfig::default(),
        }
    }
}

/// Results of the overall-performance experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Full confusion matrix (12 users + spoofer class).
    pub confusion: ConfusionMatrix,
    /// Aggregate metrics.
    pub metrics: AuthMetrics,
    /// Mean rate at which registered users are attributed to themselves
    /// (the paper's "accuracy in identifying the registered users").
    pub user_identification: f64,
    /// Rate at which spoofer samples are rejected (the paper's
    /// "accuracy in spoofer detection").
    pub spoofer_detection: f64,
}

echo_obs::json_object!(Output {
    confusion,
    metrics,
    user_identification,
    spoofer_detection
});

/// Runs the experiment: Table I population, 12 registered + 8 spoofers,
/// quiet laboratory, 0.7 m, train session 1, test sessions 1 and 3.
///
/// # Errors
///
/// Propagates enrolment-time pipeline failures.
pub fn run(config: &Config) -> Result<Output, EchoImageError> {
    let harness = Harness::new(config.seed);
    let population = Population::paper_table1(config.seed);
    let registered: Vec<_> = population.registered().collect();
    let spoofers: Vec<_> = population.spoofers().collect();
    let spec = CaptureSpec::default_lab(0);

    let auth = enroll(&harness, &registered, &spec, &config.protocol)?;
    let confusion = evaluate(
        &harness,
        &auth,
        &registered,
        &spoofers,
        &spec,
        &config.protocol,
    );
    let metrics = confusion.metrics();
    Ok(Output {
        user_identification: confusion.mean_user_recall(),
        spoofer_detection: confusion.spoofer_detection_rate(),
        metrics,
        confusion,
    })
}
