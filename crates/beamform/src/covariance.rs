//! Spatial covariance estimation.
//!
//! MVDR (paper Eq. 8) weights depend on `ρ_n`, the normalised covariance
//! matrix of the background noise across the M microphones. We estimate it
//! from noise-only snapshots (e.g. the quiet stretch before each beep),
//! normalise by the average per-channel power, and diagonally load it so
//! the inverse exists even for short observation windows.

use crate::cmatrix::CMatrix;
use crate::error::BeamformError;
use echo_dsp::Complex;

/// A normalised spatial covariance matrix with diagonal loading applied.
///
/// # Example
///
/// ```
/// use echo_beamform::SpatialCovariance;
///
/// // Identity covariance: spatially white noise.
/// let cov = SpatialCovariance::identity(6);
/// assert_eq!(cov.matrix().rows(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialCovariance {
    matrix: CMatrix,
}

/// Default diagonal loading factor, relative to the mean channel power.
pub const DEFAULT_LOADING: f64 = 1e-3;

impl SpatialCovariance {
    /// Spatially white covariance (the identity), appropriate when no
    /// noise-only observation is available.
    pub fn identity(m: usize) -> Self {
        SpatialCovariance {
            matrix: CMatrix::identity(m),
        }
    }

    /// Model-based covariance of a spherically isotropic (diffuse) noise
    /// field at frequency `f0`: `ρ_ij = sinc(2π f0 d_ij / c)` with `d_ij`
    /// the microphone spacing, plus `loading·I`.
    ///
    /// Unlike a covariance *estimated* from short noise snapshots, this
    /// matrix is deterministic, so the MVDR weights it produces (the
    /// classic superdirective beamformer) are identical from capture to
    /// capture — exactly what a biometric pipeline needs.
    pub fn isotropic(
        array: &echo_array::MicArray,
        f0: f64,
        speed_of_sound: f64,
        loading: f64,
    ) -> Self {
        let m = array.len();
        let k = 2.0 * std::f64::consts::PI * f0 / speed_of_sound;
        let mut r = CMatrix::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                let d = array.position(i).distance_to(array.position(j));
                let x = k * d;
                let coh = if x.abs() < 1e-12 { 1.0 } else { x.sin() / x };
                r.set(i, j, Complex::from_real(coh));
            }
        }
        r.add_diagonal(loading.max(0.0));
        SpatialCovariance { matrix: r }
    }

    /// Estimates the covariance from multichannel analytic snapshots.
    ///
    /// `channels[m][n]` is sample `n` of microphone `m`. The estimate is
    /// `R = (1/N) Σ_n x[n] x[n]ᴴ`, normalised so its mean diagonal is 1,
    /// then loaded with `loading·I` (relative to the normalised scale).
    ///
    /// # Panics
    ///
    /// Panics if `channels` is empty, channels have unequal lengths, or
    /// there are no snapshots.
    pub fn from_snapshots(channels: &[Vec<Complex>], loading: f64) -> Self {
        assert!(!channels.is_empty(), "need at least one channel");
        let m = channels.len();
        let n = channels[0].len();
        assert!(n > 0, "need at least one snapshot");
        assert!(
            channels.iter().all(|c| c.len() == n),
            "channels must have equal lengths"
        );

        let mut r = CMatrix::zeros(m, m);
        for t in 0..n {
            for (i, ci) in channels.iter().enumerate() {
                let xi = ci[t];
                for (j, cj) in channels.iter().enumerate() {
                    let v = r.get(i, j) + xi * cj[t].conj();
                    r.set(i, j, v);
                }
            }
        }
        r.scale(1.0 / n as f64);

        // Normalise so the mean diagonal power is 1 (the paper's ρ_n is a
        // *normalised* covariance). Degenerate all-zero input falls back
        // to identity scale.
        let mean_power = r.trace().re / m as f64;
        if mean_power > 0.0 {
            r.scale(1.0 / mean_power);
        }
        r.add_diagonal(loading.max(0.0));
        SpatialCovariance { matrix: r }
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &CMatrix {
        &self.matrix
    }

    /// Number of channels M.
    pub fn num_channels(&self) -> usize {
        self.matrix.rows()
    }

    /// The inverse `ρ_n⁻¹` used by MVDR.
    ///
    /// # Errors
    ///
    /// Returns [`BeamformError::SingularMatrix`] if inversion fails (only
    /// possible with zero loading and degenerate snapshots).
    pub fn inverse(&self) -> Result<CMatrix, BeamformError> {
        self.matrix.inverse()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn white_noise_channels(m: usize, n: usize) -> Vec<Vec<Complex>> {
        // Deterministic pseudo-noise, decorrelated across channels.
        (0..m)
            .map(|ch| {
                (0..n)
                    .map(|t| {
                        let h = splitmix((ch as u64) << 32 | t as u64);
                        let x = (h & 0xFFFF_FFFF) as f64 / 4294967296.0 - 0.5;
                        let y = (h >> 32) as f64 / 4294967296.0 - 0.5;
                        Complex::new(x, y)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn estimate_is_hermitian_with_unit_mean_diagonal() {
        let ch = white_noise_channels(4, 512);
        let cov = SpatialCovariance::from_snapshots(&ch, 0.0);
        assert!(cov.matrix().is_hermitian(1e-9));
        let mean_diag = cov.matrix().trace().re / 4.0;
        assert!((mean_diag - 1.0).abs() < 1e-9);
    }

    #[test]
    fn white_noise_covariance_is_near_identity() {
        let ch = white_noise_channels(3, 8192);
        let cov = SpatialCovariance::from_snapshots(&ch, 0.0);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (cov.matrix().get(i, j).abs() - expect).abs() < 0.1,
                    "({i},{j}) = {}",
                    cov.matrix().get(i, j)
                );
            }
        }
    }

    #[test]
    fn coherent_channels_produce_rank_one_structure() {
        // All channels identical → fully correlated covariance.
        let base: Vec<Complex> = (0..256).map(|t| Complex::cis(t as f64 * 0.1)).collect();
        let ch = vec![base.clone(), base.clone(), base];
        let cov = SpatialCovariance::from_snapshots(&ch, 0.0);
        for i in 0..3 {
            for j in 0..3 {
                assert!((cov.matrix().get(i, j).abs() - 1.0).abs() < 1e-9);
            }
        }
        // Rank-1 without loading → singular.
        assert!(cov.inverse().is_err());
        // Loading rescues invertibility.
        let loaded = SpatialCovariance::from_snapshots(&ch, 1e-3);
        assert!(loaded.inverse().is_ok());
    }

    #[test]
    fn zero_snapshots_fall_back_to_loaded_zero() {
        let ch = vec![vec![Complex::ZERO; 16]; 3];
        let cov = SpatialCovariance::from_snapshots(&ch, 1e-3);
        // Pure loading: εI, invertible.
        assert!(cov.inverse().is_ok());
    }

    #[test]
    fn isotropic_model_is_deterministic_hermitian_and_invertible() {
        let arr = echo_array::MicArray::respeaker_6();
        let a = SpatialCovariance::isotropic(&arr, 2_500.0, 343.0, 0.05);
        let b = SpatialCovariance::isotropic(&arr, 2_500.0, 343.0, 0.05);
        assert_eq!(a, b);
        assert!(a.matrix().is_hermitian(1e-12));
        assert!(a.inverse().is_ok());
        // Unit diagonal plus loading.
        assert!((a.matrix().get(0, 0).re - 1.05).abs() < 1e-12);
        // Off-diagonal coherence below 1 and symmetric.
        let c01 = a.matrix().get(0, 1).re;
        assert!(c01 < 1.0 && c01 > -1.0);
        assert_eq!(a.matrix().get(1, 0).re, c01);
    }

    #[test]
    fn isotropic_coherence_decays_with_frequency() {
        let arr = echo_array::MicArray::respeaker_6();
        let lo = SpatialCovariance::isotropic(&arr, 500.0, 343.0, 0.0);
        let hi = SpatialCovariance::isotropic(&arr, 3_000.0, 343.0, 0.0);
        assert!(lo.matrix().get(0, 1).re > hi.matrix().get(0, 1).re);
    }

    #[test]
    fn identity_covariance_inverse_is_identity() {
        let cov = SpatialCovariance::identity(5);
        let inv = cov.inverse().unwrap();
        for i in 0..5 {
            assert!((inv.get(i, i) - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn unequal_channel_lengths_panic() {
        let ch = vec![vec![Complex::ZERO; 4], vec![Complex::ZERO; 5]];
        let _ = SpatialCovariance::from_snapshots(&ch, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn empty_channels_panic() {
        let _ = SpatialCovariance::from_snapshots(&[], 0.0);
    }
}
