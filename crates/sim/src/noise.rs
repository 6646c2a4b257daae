//! Ambient-noise generators.
//!
//! The paper tests in quiet rooms (~30 dB) and with music / chatter /
//! traffic noise played at ~50 dB from 1–2 m away (§VI-A-1). Each kind is
//! synthesised as spectrally shaped noise whose energy sits mostly below
//! 2 kHz — the very property the paper's 2–3 kHz band-pass exploits.
//!
//! Calibration: amplitudes are referenced to the probing beep, which is
//! emitted with unit amplitude at 1 m ≙ [`BEEP_SPL_AT_1M`] dB SPL.

use echo_dsp::filter::SosFilter;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::body::randn;

/// SPL (dB) assigned to the unit-amplitude probing beep at 1 m. All noise
/// levels are calibrated against this anchor.
pub const BEEP_SPL_AT_1M: f64 = 70.0;

/// Converts an SPL in dB to a linear RMS amplitude in simulation units.
pub fn amplitude_for_spl(db: f64) -> f64 {
    10f64.powf((db - BEEP_SPL_AT_1M) / 20.0)
}

/// The ambient-noise conditions evaluated in the paper (Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoiseKind {
    /// Quiet room, ~30 dB broadband floor.
    Quiet,
    /// Music playback: tonal + broadband content below ~1.8 kHz.
    Music,
    /// People chatting: speech-band noise with syllabic modulation.
    Chatter,
    /// Traffic: low-frequency rumble.
    Traffic,
}

impl NoiseKind {
    /// The paper's nominal level for this condition, dB SPL.
    pub fn nominal_spl(self) -> f64 {
        match self {
            NoiseKind::Quiet => 30.0,
            NoiseKind::Music | NoiseKind::Chatter | NoiseKind::Traffic => 50.0,
        }
    }

    /// All four conditions, in the paper's presentation order.
    pub fn all() -> [NoiseKind; 4] {
        [
            NoiseKind::Quiet,
            NoiseKind::Music,
            NoiseKind::Chatter,
            NoiseKind::Traffic,
        ]
    }

    /// Human-readable label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            NoiseKind::Quiet => "quiet",
            NoiseKind::Music => "music",
            NoiseKind::Chatter => "chatter",
            NoiseKind::Traffic => "traffic",
        }
    }
}

/// A calibrated ambient-noise generator.
///
/// # Example
///
/// ```
/// use echo_sim::noise::{NoiseGenerator, NoiseKind};
///
/// let gen = NoiseGenerator::new(NoiseKind::Music, 50.0, 48_000.0);
/// let array = echo_array::MicArray::respeaker_6();
/// let channels = gen.render(&array, 4_800, 123);
/// assert_eq!(channels.len(), 6);
/// assert_eq!(channels[0].len(), 4_800);
/// ```
#[derive(Debug, Clone)]
pub struct NoiseGenerator {
    kind: NoiseKind,
    spl_db: f64,
    sample_rate: f64,
}

impl NoiseGenerator {
    /// Creates a generator for `kind` at `spl_db` dB, sampled at
    /// `sample_rate` Hz.
    ///
    /// # Panics
    ///
    /// Panics if the sample rate is not positive.
    pub fn new(kind: NoiseKind, spl_db: f64, sample_rate: f64) -> Self {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        NoiseGenerator {
            kind,
            spl_db,
            sample_rate,
        }
    }

    /// Generator at the paper's nominal level for `kind`.
    pub fn nominal(kind: NoiseKind, sample_rate: f64) -> Self {
        Self::new(kind, kind.nominal_spl(), sample_rate)
    }

    /// The noise kind.
    pub fn kind(&self) -> NoiseKind {
        self.kind
    }

    /// The calibrated level in dB SPL.
    pub fn spl_db(&self) -> f64 {
        self.spl_db
    }

    /// Renders `mics` noise channels of `n` samples as a *diffuse field*:
    /// several independent plane-wave streams arrive from random far-field
    /// directions, each reaching microphone `m` with its physical TDOA for
    /// the given array geometry, plus a small independent (sensor-local)
    /// component. This gives the spatial coherence structure a real room
    /// exhibits — unlike a naive "shared channel" model, whose zero-delay
    /// coherence looks like a single source at zenith and invites an MVDR
    /// null that would also swallow nearby look directions.
    pub fn render(&self, array: &echo_array::MicArray, n: usize, seed: u64) -> Vec<Vec<f64>> {
        use echo_dsp::interp::sample_linear;

        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0150_0000_0000);
        let mics = array.len();
        let fs = self.sample_rate;
        // Margin so negative TDOAs stay in range.
        let margin = 32usize;
        let streams = 8;
        let mut sources: Vec<(Vec<f64>, echo_array::Direction)> = Vec::with_capacity(streams);
        for _ in 0..streams {
            let azimuth = rng.gen_range(0.0..std::f64::consts::TAU);
            let elevation = rng.gen_range(0.6..2.2);
            let stream = self.render_mono(n + 2 * margin, &mut rng);
            sources.push((stream, echo_array::Direction::new(azimuth, elevation)));
        }
        (0..mics)
            .map(|m| {
                let indep = self.render_mono(n, &mut rng);
                let mut ch = vec![0.0f64; n];
                for (stream, dir) in &sources {
                    let tau = array.tdoa(m, *dir, echo_dsp::SPEED_OF_SOUND) * fs;
                    for (t, v) in ch.iter_mut().enumerate() {
                        *v += sample_linear(stream, t as f64 + margin as f64 + tau);
                    }
                }
                let norm = (streams as f64).sqrt();
                for (v, i) in ch.iter_mut().zip(indep.iter()) {
                    *v = *v / norm + 0.2 * i;
                }
                scale_to_rms(ch, amplitude_for_spl(self.spl_db))
            })
            .collect()
    }

    /// Renders a single unscaled channel with this kind's spectral shape.
    fn render_mono(&self, n: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        let fs = self.sample_rate;
        let white: Vec<f64> = (0..n).map(|_| randn(rng)).collect();
        match self.kind {
            NoiseKind::Quiet => {
                // Flat room tone with a gentle low-frequency tilt.
                let lp = SosFilter::butterworth_lowpass(1, 6_000.0_f64.min(fs * 0.45), fs);
                lp.filter(&white)
            }
            NoiseKind::Traffic => {
                // Rumble: energy concentrated below ~500 Hz.
                let lp = SosFilter::butterworth_lowpass(3, 500.0, fs);
                lp.filter(&white)
            }
            NoiseKind::Chatter => {
                // Speech band with syllabic (~4 Hz) amplitude modulation;
                // conversational speech rolls off steeply above ~1.5 kHz
                // (the paper's premise: ambient noise sits below 2 kHz).
                let bp = SosFilter::butterworth_bandpass(6, 150.0, 1_400.0, fs);
                let mut shaped = bp.filter(&white);
                let mod_rate = 4.0;
                let phase: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                for (i, v) in shaped.iter_mut().enumerate() {
                    let t = i as f64 / fs;
                    *v *= 0.6 + 0.4 * (std::f64::consts::TAU * mod_rate * t + phase).sin();
                }
                shaped
            }
            NoiseKind::Music => {
                // Tonal partials under 1.4 kHz over a coloured noise bed.
                let lp = SosFilter::butterworth_lowpass(4, 1_500.0, fs);
                let mut bed = lp.filter(&white);
                let n_tones = 5;
                for _ in 0..n_tones {
                    let f = rng.gen_range(110.0..1_400.0);
                    let phase: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                    let amp = rng.gen_range(0.4..1.0);
                    for (i, v) in bed.iter_mut().enumerate() {
                        let t = i as f64 / fs;
                        *v += amp * (std::f64::consts::TAU * f * t + phase).sin();
                    }
                }
                bed
            }
        }
    }
}

fn scale_to_rms(mut xs: Vec<f64>, target_rms: f64) -> Vec<f64> {
    let rms = (xs.iter().map(|x| x * x).sum::<f64>() / xs.len().max(1) as f64).sqrt();
    if rms > 0.0 {
        let k = target_rms / rms;
        for x in &mut xs {
            *x *= k;
        }
    }
    xs
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_dsp::fft::{bin_frequency, magnitude_spectrum};
    use echo_dsp::stats::rms;

    const FS: f64 = 48_000.0;

    fn arr() -> echo_array::MicArray {
        echo_array::MicArray::respeaker_6()
    }

    fn band_energy_fraction(signal: &[f64], lo: f64, hi: f64) -> f64 {
        let spec = magnitude_spectrum(signal);
        let n = signal.len();
        let total: f64 = spec[..n / 2].iter().map(|v| v * v).sum();
        let band: f64 = spec[..n / 2]
            .iter()
            .enumerate()
            .filter(|(k, _)| {
                let f = bin_frequency(*k, n, FS);
                f >= lo && f <= hi
            })
            .map(|(_, v)| v * v)
            .sum();
        band / total
    }

    #[test]
    fn spl_calibration_anchors_at_beep_level() {
        assert!((amplitude_for_spl(BEEP_SPL_AT_1M) - 1.0).abs() < 1e-12);
        assert!((amplitude_for_spl(BEEP_SPL_AT_1M - 20.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn rendered_rms_matches_requested_level() {
        for kind in NoiseKind::all() {
            let gen = NoiseGenerator::new(kind, 50.0, FS);
            let ch = gen.render(&arr(), 48_000, 5);
            let target = amplitude_for_spl(50.0);
            for c in &ch {
                assert!(
                    (rms(c) - target).abs() < 0.05 * target,
                    "{kind:?}: rms {} vs {target}",
                    rms(c)
                );
            }
        }
    }

    #[test]
    fn traffic_energy_is_low_frequency() {
        let gen = NoiseGenerator::nominal(NoiseKind::Traffic, FS);
        let ch = gen.render(&arr(), 48_000, 11);
        assert!(band_energy_fraction(&ch[0], 0.0, 800.0) > 0.95);
    }

    #[test]
    fn music_and_chatter_sit_mostly_below_2khz() {
        for kind in [NoiseKind::Music, NoiseKind::Chatter] {
            let gen = NoiseGenerator::nominal(kind, FS);
            let ch = gen.render(&arr(), 48_000, 13);
            let below = band_energy_fraction(&ch[0], 0.0, 2_000.0);
            assert!(below > 0.85, "{kind:?}: {below}");
        }
    }

    #[test]
    fn probing_band_leakage_is_small() {
        // The 2–3 kHz band-pass is the paper's noise defence; the noise
        // models must leave that band mostly clean.
        for kind in [NoiseKind::Music, NoiseKind::Chatter, NoiseKind::Traffic] {
            let gen = NoiseGenerator::nominal(kind, FS);
            let ch = gen.render(&arr(), 48_000, 17);
            let in_band = band_energy_fraction(&ch[0], 2_000.0, 3_000.0);
            assert!(in_band < 0.1, "{kind:?}: {in_band}");
        }
    }

    #[test]
    fn diffuse_field_coherence_follows_wavelength() {
        // Low-frequency noise (traffic, λ ≫ aperture) is highly coherent
        // across adjacent mics; broadband room tone decorrelates.
        let traffic = NoiseGenerator::nominal(NoiseKind::Traffic, FS);
        let ch = traffic.render(&arr(), 19_200, 23);
        let corr_traffic = echo_dsp::correlate::normalized_correlation(&ch[0], &ch[1]);
        assert!(corr_traffic > 0.8, "traffic coherence {corr_traffic}");
        assert!(corr_traffic < 0.9999, "channels must not be identical");

        let quiet = NoiseGenerator::nominal(NoiseKind::Quiet, FS);
        let chq = quiet.render(&arr(), 19_200, 23);
        let corr_quiet = echo_dsp::correlate::normalized_correlation(&chq[0], &chq[1]);
        assert!(
            corr_quiet < corr_traffic,
            "broadband coherence {corr_quiet} should fall below low-frequency {corr_traffic}"
        );
    }

    #[test]
    fn rendering_is_deterministic_in_the_seed() {
        let gen = NoiseGenerator::nominal(NoiseKind::Chatter, FS);
        assert_eq!(gen.render(&arr(), 1_000, 7), gen.render(&arr(), 1_000, 7));
        assert_ne!(gen.render(&arr(), 1_000, 7), gen.render(&arr(), 1_000, 8));
    }

    #[test]
    fn zero_length_render_is_empty() {
        let gen = NoiseGenerator::nominal(NoiseKind::Quiet, FS);
        let ch = gen.render(&arr(), 0, 1);
        assert!(ch.iter().all(|c| c.is_empty()));
    }

    #[test]
    fn labels_and_levels() {
        assert_eq!(NoiseKind::Quiet.nominal_spl(), 30.0);
        assert_eq!(NoiseKind::Music.nominal_spl(), 50.0);
        assert_eq!(NoiseKind::Traffic.label(), "traffic");
        assert_eq!(NoiseKind::all().len(), 4);
    }
}
