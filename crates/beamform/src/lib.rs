//! Beamforming substrate for the EchoImage reproduction.
//!
//! The paper steers its microphone array with Minimum Variance
//! Distortionless Response (MVDR) beamforming (Eq. 8), both to estimate
//! the user's distance (§V-B) and to scan the virtual imaging plane
//! (§V-C). This crate provides:
//!
//! * [`cmatrix::CMatrix`] — small dense complex matrices with a
//!   Gauss–Jordan inverse (the 6×6 noise covariance of a smart-speaker
//!   array),
//! * [`covariance`] — spatial covariance estimation with diagonal
//!   loading,
//! * [`beamformer`] — delay-and-sum (baseline) and MVDR weight design
//!   plus application to multichannel analytic signals.
//!
//! # Example
//!
//! With an identity noise covariance, MVDR reduces to delay-and-sum:
//!
//! ```
//! use echo_array::{Direction, MicArray};
//! use echo_beamform::beamformer::{mvdr_weights, das_weights};
//! use echo_beamform::covariance::SpatialCovariance;
//!
//! let array = MicArray::respeaker_6();
//! let sv = array.steering_vector(Direction::front(), 2_500.0);
//! let cov = SpatialCovariance::identity(array.len());
//! let w_mvdr = mvdr_weights(&cov, &sv).unwrap();
//! let w_das = das_weights(&sv);
//! for (a, b) in w_mvdr.iter().zip(w_das.iter()) {
//!     assert!((*a - *b).abs() < 1e-9);
//! }
//! ```

pub mod beamformer;
pub mod cmatrix;
pub mod covariance;
mod error;
pub mod pattern;

pub use beamformer::{apply_weights, das_weights, mvdr_weights, MvdrDesigner};
pub use cmatrix::CMatrix;
pub use covariance::SpatialCovariance;
pub use error::BeamformError;
