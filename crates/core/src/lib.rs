//! EchoImage: user authentication on smart speakers using acoustic
//! signals — the core pipeline of the ICDCS 2023 paper, reproduced in
//! Rust.
//!
//! A smart speaker emits a short 2–3 kHz chirp ("beep"), its microphone
//! array records the echoes bouncing off the user's body, and the system:
//!
//! 1. **Estimates the user's distance** ([`distance`], paper §V-B) by
//!    steering an MVDR beam at the upper body and matched-filtering the
//!    beamformed signal against the transmitted chirp,
//! 2. **Constructs an acoustic image** ([`imaging`], §V-C): a virtual
//!    imaging plane is erected at the estimated distance, the beam scans
//!    every grid cell, and each pixel is the energy of the time-gated
//!    echo from that cell's direction,
//! 3. **Extracts features** ([`features`], §V-D) with a frozen
//!    convolutional network (transfer-learning stand-in),
//! 4. **Authenticates** ([`auth`], §V-E) with a one-class SVM spoofer
//!    gate followed by an n-class SVM user classifier,
//! 5. Optionally **augments enrolment data** ([`augment`], §V-F) by
//!    re-projecting images to other distances with the inverse-square
//!    law.
//!
//! [`pipeline::EchoImagePipeline`] ties the stages together.
//!
//! # Example
//!
//! ```
//! use echo_sim::{BodyModel, Placement, Scene, SceneConfig};
//! use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig};
//!
//! // Simulate a user standing 0.7 m in front of a smart speaker.
//! let scene = Scene::new(SceneConfig::laboratory_quiet(1));
//! let user = BodyModel::from_seed(99);
//! let captures = scene.capture_train(&user, &Placement::standing_front(0.7), 0, 4, 0);
//!
//! let pipeline = EchoImagePipeline::new(PipelineConfig::default());
//! let estimate = pipeline.estimate_distance(&captures).unwrap();
//! assert!((estimate.horizontal_distance - 0.7).abs() < 0.2);
//!
//! let image = pipeline.acoustic_image(&captures[0], estimate.horizontal_distance).unwrap();
//! assert_eq!(image.width(), pipeline.config().imaging.grid_n);
//! ```

pub mod augment;
pub mod auth;
pub mod config;
pub mod distance;
pub mod enrollment;
mod error;
pub mod features;
pub mod health;
pub mod imaging;
pub mod par;
pub mod pipeline;
pub mod spatial;
pub mod steering_cache;
pub mod store;
pub mod template_cache;

pub use auth::{AuthDecision, Authenticator, RetryPolicy};
pub use config::{BeepConfig, ImagingConfig, PipelineConfig};
pub use distance::DistanceEstimate;
pub use error::EchoImageError;
pub use health::{ChannelFlaw, ChannelHealth, HealthConfig};
pub use pipeline::EchoImagePipeline;
