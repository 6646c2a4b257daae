//! Far-field propagation delays and steering vectors (paper Eq. 1, 6–8).

use crate::direction::Direction;
use crate::geometry::MicArray;
use echo_dsp::{Complex, SPEED_OF_SOUND};

impl MicArray {
    /// Time of arrival at microphone `m` relative to the array origin for
    /// a far-field plane wave from direction `dir`, in seconds.
    ///
    /// Negative values mean the wavefront reaches that microphone *before*
    /// the origin. This is the paper's Eq. 6 with the sign convention that
    /// the received signal is `x_m(t) = s(t − τ_m)`.
    pub fn tdoa(&self, m: usize, dir: Direction, speed_of_sound: f64) -> f64 {
        let u = dir.unit_toward_source();
        -u.dot(self.position(m)) / speed_of_sound
    }

    /// Narrowband steering vector at centre frequency `f0` Hz (the `p_s`
    /// of paper Eq. 8): `a_m(Ω) = e^{−j ω₀ τ_m(Ω)}`.
    ///
    /// With this convention a unit plane wave from `dir` produces the
    /// snapshot `x = s(t)·a`, so a distortionless beamformer satisfies
    /// `wᴴ a = 1`.
    pub fn steering_vector(&self, dir: Direction, f0: f64) -> Vec<Complex> {
        self.steering_vector_with(dir, f0, SPEED_OF_SOUND)
    }

    /// [`MicArray::steering_vector`] with an explicit speed of sound.
    pub fn steering_vector_with(&self, dir: Direction, f0: f64, c: f64) -> Vec<Complex> {
        let w0 = 2.0 * std::f64::consts::PI * f0;
        (0..self.len())
            .map(|m| Complex::cis(-w0 * self.tdoa(m, dir, c)))
            .collect()
    }

    /// Far-field validity check (paper Eq. 1): a source at distance `l`
    /// metres may be treated as far-field when `l ≥ 2 d²/λ`, with `d` the
    /// aperture and `λ` the wavelength at `frequency`.
    pub fn is_far_field(&self, l: f64, frequency: f64, speed_of_sound: f64) -> bool {
        let lambda = speed_of_sound / frequency;
        l >= 2.0 * self.aperture() * self.aperture() / lambda
    }

    /// The smallest distance at which Eq. 1 holds for `frequency`.
    pub fn far_field_distance(&self, frequency: f64, speed_of_sound: f64) -> f64 {
        let lambda = speed_of_sound / frequency;
        2.0 * self.aperture() * self.aperture() / lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Vec3;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn tdoa_is_zero_for_broadside_mic_at_origin() {
        // A mic exactly at the origin would have zero delay; our arrays
        // don't include one, but any mic orthogonal to the look direction
        // does. Front direction = +y; circular-array mic 0 is on +x.
        let arr = MicArray::respeaker_6();
        let tau = arr.tdoa(0, Direction::front(), SPEED_OF_SOUND);
        assert!(tau.abs() < 1e-15);
    }

    #[test]
    fn closer_mic_receives_earlier() {
        // Look along +x: mic 0 (on +x) is nearest the source → negative τ.
        let arr = MicArray::respeaker_6();
        let dir = Direction::new(0.0, FRAC_PI_2);
        let tau0 = arr.tdoa(0, dir, SPEED_OF_SOUND);
        assert!(tau0 < 0.0);
        assert!((tau0 + 0.05 / SPEED_OF_SOUND).abs() < 1e-12);
        // Mic 3 sits diametrically opposite → positive, same magnitude.
        let tau3 = arr.tdoa(3, dir, SPEED_OF_SOUND);
        assert!((tau3 - 0.05 / SPEED_OF_SOUND).abs() < 1e-12);
    }

    #[test]
    fn tdoa_matches_eq6_inner_product() {
        let arr = MicArray::circular(4, 0.07);
        let dir = Direction::new(0.9, 1.3);
        let v = dir.propagation_vector();
        for m in 0..arr.len() {
            // Eq. 6 literally: τ_m = −vᵀ p_m / c. Our tdoa uses the
            // opposite sign convention (x_m(t) = s(t − τ_m)), so the two
            // values are negatives of each other.
            let eq6 = -v.dot(arr.position(m)) / SPEED_OF_SOUND;
            let got = arr.tdoa(m, dir, SPEED_OF_SOUND);
            assert!((got + eq6).abs() < 1e-15, "mic {m}");
        }
    }

    #[test]
    fn steering_vector_is_unit_modulus() {
        let arr = MicArray::respeaker_6();
        let sv = arr.steering_vector(Direction::new(1.0, 1.0), 2_500.0);
        for w in sv {
            assert!((w.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn steering_vector_aligns_simulated_plane_wave() {
        // Build narrowband snapshots x_m = e^{−jω0 τ_m}; then a^H x = M.
        let arr = MicArray::respeaker_6();
        let dir = Direction::new(0.8, 1.2);
        let f0 = 2_500.0;
        let a = arr.steering_vector(dir, f0);
        let w0 = 2.0 * std::f64::consts::PI * f0;
        let x: Vec<Complex> = (0..arr.len())
            .map(|m| Complex::cis(-w0 * arr.tdoa(m, dir, SPEED_OF_SOUND)))
            .collect();
        let aligned: Complex = a.iter().zip(x.iter()).map(|(am, xm)| am.conj() * *xm).sum();
        assert!((aligned.re - arr.len() as f64).abs() < 1e-9);
        assert!(aligned.im.abs() < 1e-9);
    }

    #[test]
    fn mismatched_direction_does_not_fully_align() {
        let arr = MicArray::respeaker_6();
        let f0 = 2_500.0;
        let a = arr.steering_vector(Direction::new(0.3, FRAC_PI_2), f0);
        let w0 = 2.0 * std::f64::consts::PI * f0;
        let dir = Direction::new(2.4, FRAC_PI_2);
        let x: Vec<Complex> = (0..arr.len())
            .map(|m| Complex::cis(-w0 * arr.tdoa(m, dir, SPEED_OF_SOUND)))
            .collect();
        let aligned: Complex = a.iter().zip(x.iter()).map(|(am, xm)| am.conj() * *xm).sum();
        assert!(
            aligned.abs() < arr.len() as f64 * 0.9,
            "|sum| = {}",
            aligned.abs()
        );
    }

    #[test]
    fn far_field_example_from_paper() {
        // §III-A: 3000 Hz (λ ≈ 0.11 m), array size 0.1 m → far field from
        // ≈ 0.18 m.
        let arr =
            MicArray::from_positions(vec![Vec3::new(-0.05, 0.0, 0.0), Vec3::new(0.05, 0.0, 0.0)]);
        let d = arr.far_field_distance(3_000.0, SPEED_OF_SOUND);
        assert!((d - 0.175).abs() < 0.01, "got {d}");
        assert!(arr.is_far_field(0.6, 3_000.0, SPEED_OF_SOUND));
        assert!(!arr.is_far_field(0.1, 3_000.0, SPEED_OF_SOUND));
    }
}
