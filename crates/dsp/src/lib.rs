//! Signal-processing substrate for the EchoImage reproduction.
//!
//! This crate provides every DSP primitive the EchoImage pipeline needs,
//! implemented from scratch:
//!
//! * [`Complex`] arithmetic and [`fft`] (radix-2 + Bluestein, so any length),
//! * [`chirp`] — linear-frequency-modulated beep synthesis (paper Eq. 2),
//! * [`filter`] — Butterworth low/high/band-pass biquad cascades,
//! * [`hilbert`] — analytic signal and envelope detection,
//! * [`correlate`] — FFT matched filtering (paper Eq. 9),
//! * [`gram`] — gated real-beam energies from running Gram sums, the
//!   acoustic-image pixel kernel (paper §V-C),
//! * [`plan`] — precomputed, LRU-cached FFT plans shared by the hot paths,
//! * [`slot_cache`] — the process-wide MRU cache behind the FFT-plan cache
//!   (classify under the lock, compute outside it),
//! * [`peaks`] — local-maxima search used for echo detection (paper §V-B),
//! * [`interp`] — fractional-delay interpolation used by the scene simulator,
//! * [`stats`] — small numeric helpers shared across crates.
//!
//! # Example
//!
//! Build the paper's probing beep (2–3 kHz, 2 ms at 48 kHz) and verify its
//! matched filter peaks at the injected delay:
//!
//! ```
//! use echo_dsp::chirp::LfmChirp;
//! use echo_dsp::correlate::matched_filter;
//!
//! let chirp = LfmChirp::new(2_000.0, 3_000.0, 0.002, 48_000.0);
//! let s = chirp.samples();
//! // Place the chirp 100 samples into a quiet recording.
//! let mut rx = vec![0.0; 1_000];
//! rx[100..100 + s.len()].copy_from_slice(&s);
//! let c = matched_filter(&rx, &s);
//! let peak = c
//!     .iter()
//!     .enumerate()
//!     .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
//!     .map(|(i, _)| i)
//!     .unwrap();
//! assert_eq!(peak, 100);
//! ```

pub mod chirp;
pub mod complex;
pub mod correlate;
pub mod fft;
pub mod filter;
pub mod gram;
pub mod hilbert;
pub mod interp;
pub mod peaks;
pub mod plan;
#[allow(unsafe_code)] // the AVX2 kernels; see the module's Safety section
pub mod simd;
pub mod slot_cache;
pub mod stats;

pub use complex::Complex;
pub use plan::{fft_plan, FftPlan, FftScratch};

/// Speed of sound in air at ~20 °C, metres per second.
///
/// Used throughout the pipeline to convert echo delays to distances
/// (`D_f = τ·c/2`, paper §V-B).
pub const SPEED_OF_SOUND: f64 = 343.0;
