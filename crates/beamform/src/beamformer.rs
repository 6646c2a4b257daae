//! Beamformer weight design and application.
//!
//! Weights are applied to multichannel *analytic* signals:
//! `y[n] = Σ_m w_m* · x_m[n]` (`wᴴx`), so a distortionless design keeps a
//! plane wave from the look direction unscaled (`wᴴa = 1`).

use crate::cmatrix::CMatrix;
use crate::covariance::SpatialCovariance;
use crate::error::BeamformError;
use echo_dsp::Complex;

/// Delay-and-sum weights `w = a/M` for steering vector `a`.
///
/// This is the conventional baseline the paper's MVDR design improves on.
pub fn das_weights(steering: &[Complex]) -> Vec<Complex> {
    let m = steering.len() as f64;
    steering.iter().map(|&a| a / m).collect()
}

/// MVDR weights (paper Eq. 8): `w = ρ_n⁻¹ p_s / (p_sᴴ ρ_n⁻¹ p_s)`.
///
/// # Errors
///
/// Returns [`BeamformError::SingularMatrix`] if the covariance cannot be
/// inverted, or [`BeamformError::DimensionMismatch`] when the steering
/// vector length differs from the covariance size.
///
/// # Example
///
/// ```
/// use echo_array::{Direction, MicArray};
/// use echo_beamform::{mvdr_weights, SpatialCovariance};
/// use echo_dsp::Complex;
///
/// let array = MicArray::respeaker_6();
/// let a = array.steering_vector(Direction::front(), 2_500.0);
/// let w = mvdr_weights(&SpatialCovariance::identity(6), &a).unwrap();
/// // Distortionless: wᴴ a = 1.
/// let gain: Complex = w.iter().zip(&a).map(|(w, a)| w.conj() * *a).sum();
/// assert!((gain - Complex::ONE).abs() < 1e-9);
/// ```
pub fn mvdr_weights(
    noise_cov: &SpatialCovariance,
    steering: &[Complex],
) -> Result<Vec<Complex>, BeamformError> {
    MvdrDesigner::new(noise_cov)?.weights(steering)
}

/// An MVDR weight designer with the covariance inverse precomputed.
///
/// Imaging sweeps a plane of thousands of cells against *one* noise
/// covariance; inverting it per cell dominates the sweep. `MvdrDesigner`
/// factors the inversion out: [`MvdrDesigner::new`] inverts once, then
/// [`MvdrDesigner::weights`] is a matrix–vector product per steering
/// vector. The weights are bit-identical to [`mvdr_weights`] for the
/// same covariance — the same inverse feeds the same arithmetic.
#[derive(Debug, Clone)]
pub struct MvdrDesigner {
    rinv: CMatrix,
}

impl MvdrDesigner {
    /// Inverts the noise covariance once for reuse across steering
    /// vectors.
    ///
    /// # Errors
    ///
    /// Returns [`BeamformError::SingularMatrix`] if the covariance
    /// cannot be inverted.
    pub fn new(noise_cov: &SpatialCovariance) -> Result<Self, BeamformError> {
        Ok(MvdrDesigner {
            rinv: noise_cov.inverse()?,
        })
    }

    /// Number of channels the designer expects.
    pub fn num_channels(&self) -> usize {
        self.rinv.rows()
    }

    /// MVDR weights for one steering vector (paper Eq. 8).
    ///
    /// # Errors
    ///
    /// Returns [`BeamformError::DimensionMismatch`] when the steering
    /// vector length differs from the covariance size, or
    /// [`BeamformError::SingularMatrix`] when the distortionless
    /// denominator vanishes.
    pub fn weights(&self, steering: &[Complex]) -> Result<Vec<Complex>, BeamformError> {
        let mut w = vec![Complex::ZERO; self.rinv.rows()];
        self.weights_into(steering, &mut w)?;
        Ok(w)
    }

    /// [`MvdrDesigner::weights`] written into `out` (same arithmetic, no
    /// allocation). Designing a whole imaging plane this way fills one
    /// flat table with the m×K product `ρ⁻¹·[p_1 … p_K]`, each column
    /// normalised by its own distortionless denominator.
    ///
    /// # Errors
    ///
    /// As [`MvdrDesigner::weights`]; a wrong-length `out` is also a
    /// [`BeamformError::DimensionMismatch`]. On error `out` holds
    /// unspecified values.
    pub fn weights_into(
        &self,
        steering: &[Complex],
        out: &mut [Complex],
    ) -> Result<(), BeamformError> {
        let m = self.rinv.rows();
        for len in [steering.len(), out.len()] {
            if len != m {
                return Err(BeamformError::DimensionMismatch {
                    expected: m,
                    actual: len,
                });
            }
        }
        self.rinv.matvec_into(steering, out);
        // Denominator p_sᴴ ρ⁻¹ p_s is real for Hermitian ρ.
        let denom: Complex = steering
            .iter()
            .zip(out.iter())
            .map(|(a, ra)| a.conj() * *ra)
            .sum();
        if denom.abs() < 1e-300 {
            return Err(BeamformError::SingularMatrix);
        }
        for v in out.iter_mut() {
            *v /= denom;
        }
        Ok(())
    }
}

/// Applies beamformer weights to multichannel analytic signals:
/// `y[n] = Σ_m w_m* x_m[n]`.
///
/// # Panics
///
/// Panics if the number of channels differs from the number of weights or
/// channels have unequal lengths.
pub fn apply_weights(channels: &[Vec<Complex>], weights: &[Complex]) -> Vec<Complex> {
    assert_eq!(
        channels.len(),
        weights.len(),
        "channel/weight count mismatch"
    );
    assert!(!channels.is_empty(), "no channels to beamform");
    let n = channels[0].len();
    assert!(
        channels.iter().all(|c| c.len() == n),
        "channels must have equal lengths"
    );
    let mut out = vec![Complex::ZERO; n];
    for (ch, &w) in channels.iter().zip(weights.iter()) {
        let wc = w.conj();
        for (o, &x) in out.iter_mut().zip(ch.iter()) {
            *o += wc * x;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_array::{Direction, MicArray};
    use echo_dsp::SPEED_OF_SOUND;
    use std::f64::consts::{FRAC_PI_2, PI};

    /// Synthesises narrowband plane-wave snapshots from `dir` with
    /// amplitude `amp` at frequency `f0`.
    fn plane_wave(
        array: &MicArray,
        dir: Direction,
        f0: f64,
        amp: f64,
        n: usize,
        phase0: f64,
    ) -> Vec<Vec<Complex>> {
        let w0 = 2.0 * PI * f0;
        (0..array.len())
            .map(|m| {
                let tau = array.tdoa(m, dir, SPEED_OF_SOUND);
                (0..n)
                    .map(|t| {
                        let time = t as f64 / 48_000.0;
                        Complex::from_polar(amp, w0 * (time - tau) + phase0)
                    })
                    .collect()
            })
            .collect()
    }

    fn add_channels(a: &mut [Vec<Complex>], b: &[Vec<Complex>]) {
        for (ca, cb) in a.iter_mut().zip(b.iter()) {
            for (x, y) in ca.iter_mut().zip(cb.iter()) {
                *x += *y;
            }
        }
    }

    fn output_power(y: &[Complex]) -> f64 {
        y.iter().map(|v| v.norm_sqr()).sum::<f64>() / y.len() as f64
    }

    #[test]
    fn das_weights_sum_to_unity_gain() {
        let array = MicArray::respeaker_6();
        let a = array.steering_vector(Direction::front(), 2_500.0);
        let w = das_weights(&a);
        let g: Complex = w.iter().zip(&a).map(|(w, a)| w.conj() * *a).sum();
        assert!((g - Complex::ONE).abs() < 1e-12);
    }

    #[test]
    fn mvdr_is_distortionless() {
        let array = MicArray::respeaker_6();
        let dir = Direction::new(1.1, 1.4);
        let a = array.steering_vector(dir, 2_500.0);
        // Non-trivial covariance: white + a bit of coherent interference.
        let mut ch = plane_wave(
            &array,
            Direction::new(2.5, FRAC_PI_2),
            2_500.0,
            1.0,
            256,
            0.3,
        );
        for (i, c) in ch.iter_mut().enumerate() {
            for (t, v) in c.iter_mut().enumerate() {
                let jitter = (((t * 31 + i * 17) % 97) as f64 / 97.0 - 0.5) * 0.6;
                *v += Complex::new(jitter, -jitter * 0.4);
            }
        }
        let cov = SpatialCovariance::from_snapshots(&ch, 1e-3);
        let w = mvdr_weights(&cov, &a).unwrap();
        let g: Complex = w.iter().zip(&a).map(|(w, a)| w.conj() * *a).sum();
        assert!((g - Complex::ONE).abs() < 1e-9, "gain = {g}");
    }

    #[test]
    fn mvdr_reduces_to_das_for_white_noise() {
        let array = MicArray::respeaker_6();
        let a = array.steering_vector(Direction::new(0.4, 1.0), 2_500.0);
        let w = mvdr_weights(&SpatialCovariance::identity(6), &a).unwrap();
        let das = das_weights(&a);
        for (x, y) in w.iter().zip(das.iter()) {
            assert!((*x - *y).abs() < 1e-10);
        }
    }

    #[test]
    fn mvdr_suppresses_interferer_better_than_das() {
        let array = MicArray::respeaker_6();
        let f0 = 2_500.0;
        let look = Direction::new(FRAC_PI_2, FRAC_PI_2);
        let interferer = Direction::new(FRAC_PI_2 + 1.6, FRAC_PI_2);
        let a = array.steering_vector(look, f0);

        // Noise-only observation: interferer + small white noise.
        let mut noise = plane_wave(&array, interferer, f0, 1.0, 512, 0.9);
        for (i, c) in noise.iter_mut().enumerate() {
            for (t, v) in c.iter_mut().enumerate() {
                let r1 = (((t * 131 + i * 313) % 1009) as f64 / 1009.0 - 0.5) * 0.2;
                let r2 = (((t * 419 + i * 97) % 1013) as f64 / 1013.0 - 0.5) * 0.2;
                *v += Complex::new(r1, r2);
            }
        }
        let cov = SpatialCovariance::from_snapshots(&noise, 1e-4);
        let w_mvdr = mvdr_weights(&cov, &a).unwrap();
        let w_das = das_weights(&a);

        // Test scene: desired signal + the same interferer.
        let mut scene = plane_wave(&array, look, f0, 1.0, 512, 0.0);
        let interf = plane_wave(&array, interferer, f0, 3.0, 512, 1.7);
        add_channels(&mut scene, &interf);

        // Interference-only residual after beamforming.
        let interf_only = plane_wave(&array, interferer, f0, 3.0, 512, 1.7);
        let res_mvdr = output_power(&apply_weights(&interf_only, &w_mvdr));
        let res_das = output_power(&apply_weights(&interf_only, &w_das));
        assert!(
            res_mvdr < res_das * 0.2,
            "MVDR residual {res_mvdr} not ≪ DAS residual {res_das}"
        );

        // And the desired signal still passes at unit gain.
        let desired = plane_wave(&array, look, f0, 1.0, 512, 0.0);
        let pass = output_power(&apply_weights(&desired, &w_mvdr));
        assert!((pass - 1.0).abs() < 0.05, "desired power {pass}");
    }

    #[test]
    fn designer_matches_mvdr_weights_bit_for_bit() {
        let array = MicArray::respeaker_6();
        let mut ch = plane_wave(&array, Direction::new(2.1, 0.9), 2_500.0, 1.0, 256, 0.5);
        for (i, c) in ch.iter_mut().enumerate() {
            for (t, v) in c.iter_mut().enumerate() {
                let jitter = (((t * 53 + i * 29) % 101) as f64 / 101.0 - 0.5) * 0.3;
                *v += Complex::new(jitter, jitter * 0.7);
            }
        }
        let cov = SpatialCovariance::from_snapshots(&ch, 1e-3);
        let designer = MvdrDesigner::new(&cov).unwrap();
        assert_eq!(designer.num_channels(), 6);
        for k in 0..8 {
            let dir = Direction::new(0.3 + 0.6 * k as f64, 1.1);
            let a = array.steering_vector(dir, 2_500.0);
            let w_direct = mvdr_weights(&cov, &a).unwrap();
            let w_cached = designer.weights(&a).unwrap();
            for (x, y) in w_direct.iter().zip(w_cached.iter()) {
                assert_eq!(x.re.to_bits(), y.re.to_bits());
                assert_eq!(x.im.to_bits(), y.im.to_bits());
            }
        }
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let cov = SpatialCovariance::identity(6);
        let a = vec![Complex::ONE; 4];
        match mvdr_weights(&cov, &a) {
            Err(BeamformError::DimensionMismatch { expected, actual }) => {
                assert_eq!(expected, 6);
                assert_eq!(actual, 4);
            }
            other => panic!("expected dimension mismatch, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn apply_weights_checks_channel_count() {
        let ch = vec![vec![Complex::ZERO; 8]; 3];
        let _ = apply_weights(&ch, &[Complex::ONE; 2]);
    }
}
