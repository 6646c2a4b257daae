//! Beam-pattern analysis.
//!
//! The paper's §V-A frequency-band argument rests on array theory: with
//! 4–7 cm microphone spacing, probing above ~3 kHz violates the spatial
//! sampling condition `d < λ/2` and grating lobes appear — directions
//! far from the steering direction that the array amplifies just as
//! strongly. This module computes beam patterns so that claim (and any
//! weight design) can be inspected quantitatively.

use crate::beamformer::das_weights;
use echo_array::{Direction, MicArray};
use echo_dsp::Complex;

/// The array's response to a far-field plane wave from `from`, given
/// weights designed for some look direction: `|wᴴ a(from)|`.
pub fn response(
    array: &MicArray,
    weights: &[Complex],
    from: Direction,
    f0: f64,
    speed_of_sound: f64,
) -> f64 {
    let a = array.steering_vector_with(from, f0, speed_of_sound);
    let g: Complex = weights
        .iter()
        .zip(a.iter())
        .map(|(w, am)| w.conj() * *am)
        .sum();
    g.abs()
}

/// An azimuth sweep of the beam pattern at fixed elevation.
#[derive(Debug, Clone, PartialEq)]
pub struct BeamPattern {
    /// Azimuth samples, radians.
    pub azimuths: Vec<f64>,
    /// `|wᴴa|` response at each azimuth (1.0 = distortionless maximum).
    pub gains: Vec<f64>,
    /// The steering azimuth.
    pub look_azimuth: f64,
}

impl BeamPattern {
    /// Sweeps a delay-and-sum beam steered at `look` across azimuth at
    /// the look elevation.
    pub fn azimuth_sweep(
        array: &MicArray,
        look: Direction,
        f0: f64,
        speed_of_sound: f64,
        samples: usize,
    ) -> Self {
        let weights = das_weights(&array.steering_vector_with(look, f0, speed_of_sound));
        let azimuths: Vec<f64> = (0..samples)
            .map(|i| -std::f64::consts::PI + 2.0 * std::f64::consts::PI * i as f64 / samples as f64)
            .collect();
        let gains = azimuths
            .iter()
            .map(|&az| {
                response(
                    array,
                    &weights,
                    Direction::new(az, look.elevation()),
                    f0,
                    speed_of_sound,
                )
            })
            .collect();
        BeamPattern {
            azimuths,
            gains,
            look_azimuth: look.azimuth(),
        }
    }

    /// The largest response outside ±`exclusion` radians of the look
    /// azimuth — the worst sidelobe/grating-lobe level.
    pub fn worst_sidelobe(&self, exclusion: f64) -> f64 {
        self.azimuths
            .iter()
            .zip(self.gains.iter())
            .filter(|(&az, _)| angular_distance(az, self.look_azimuth) > exclusion)
            .map(|(_, &g)| g)
            .fold(0.0, f64::max)
    }

    /// Returns `true` when some off-look direction responds at ≥
    /// `threshold` of the look gain — the paper's grating-lobe
    /// condition ("as sensitive to waves from the directions of grating
    /// lobes as for the steering direction").
    pub fn has_grating_lobes(&self, threshold: f64) -> bool {
        self.worst_sidelobe(0.6) >= threshold * self.look_gain()
    }

    /// The response at (nearest to) the look azimuth.
    pub fn look_gain(&self) -> f64 {
        let (mut best, mut dist) = (1.0, f64::INFINITY);
        for (&az, &g) in self.azimuths.iter().zip(self.gains.iter()) {
            let d = angular_distance(az, self.look_azimuth);
            if d < dist {
                dist = d;
                best = g;
            }
        }
        best
    }

    /// −3 dB main-lobe width in radians (full width around the look
    /// azimuth where the gain stays above `look_gain/√2`).
    pub fn main_lobe_width(&self) -> f64 {
        let threshold = self.look_gain() / 2f64.sqrt();
        let look_idx = self
            .azimuths
            .iter()
            .enumerate()
            .min_by(|a, b| {
                angular_distance(*a.1, self.look_azimuth)
                    .total_cmp(&angular_distance(*b.1, self.look_azimuth))
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
        let n = self.azimuths.len();
        let step = 2.0 * std::f64::consts::PI / n as f64;
        let mut width = step;
        // Walk outward in both directions while above threshold.
        let mut i = look_idx;
        loop {
            let next = (i + 1) % n;
            if self.gains[next] < threshold || next == look_idx {
                break;
            }
            width += step;
            i = next;
        }
        let mut i = look_idx;
        loop {
            let prev = (i + n - 1) % n;
            if self.gains[prev] < threshold || prev == look_idx {
                break;
            }
            width += step;
            i = prev;
        }
        width
    }
}

/// Smallest absolute angular difference on the circle.
fn angular_distance(a: f64, b: f64) -> f64 {
    let d = (a - b).rem_euclid(2.0 * std::f64::consts::PI);
    d.min(2.0 * std::f64::consts::PI - d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    const C: f64 = 343.0;

    fn pattern(f0: f64) -> BeamPattern {
        let array = MicArray::respeaker_6();
        BeamPattern::azimuth_sweep(&array, Direction::new(FRAC_PI_2, FRAC_PI_2), f0, C, 720)
    }

    #[test]
    fn look_direction_is_distortionless() {
        let p = pattern(2_500.0);
        assert!(
            (p.look_gain() - 1.0).abs() < 1e-3,
            "look gain {}",
            p.look_gain()
        );
    }

    #[test]
    fn probing_band_is_free_of_grating_lobes() {
        // §V-A: at 2–3 kHz the 5 cm array must not have grating lobes.
        for f in [2_000.0, 2_500.0, 3_000.0] {
            let p = pattern(f);
            assert!(
                !p.has_grating_lobes(0.9),
                "{f} Hz: worst sidelobe {}",
                p.worst_sidelobe(0.6)
            );
        }
    }

    #[test]
    fn high_frequencies_grow_grating_lobes() {
        // Far above the d < λ/2 limit (λ/2 ⇔ ~3.4 kHz for 5 cm), strong
        // off-look lobes appear — the paper's reason for not using
        // inaudible >20 kHz probing.
        let p = pattern(8_000.0);
        assert!(
            p.has_grating_lobes(0.9),
            "worst sidelobe {} at 8 kHz",
            p.worst_sidelobe(0.6)
        );
    }

    #[test]
    fn sidelobes_worsen_with_frequency_beyond_limit() {
        let low = pattern(2_500.0).worst_sidelobe(0.6);
        let high = pattern(7_000.0).worst_sidelobe(0.6);
        assert!(high > low, "low {low} vs high {high}");
    }

    #[test]
    fn main_lobe_narrows_with_frequency() {
        let wide = pattern(1_000.0).main_lobe_width();
        let narrow = pattern(3_000.0).main_lobe_width();
        assert!(narrow < wide, "narrow {narrow} vs wide {wide}");
    }

    #[test]
    fn angular_distance_wraps() {
        use std::f64::consts::PI;
        assert!((angular_distance(-PI + 0.1, PI - 0.1) - 0.2).abs() < 1e-12);
        assert!((angular_distance(0.0, 1.0) - 1.0).abs() < 1e-12);
    }
}
