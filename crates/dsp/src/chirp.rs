//! Linear-frequency-modulated (LFM) chirp synthesis — the paper's probing
//! "beep" signal (paper Eq. 2).
//!
//! EchoImage probes the scene with a short LFM chirp sweeping 2→3 kHz over
//! 2 ms, repeated every 0.5 s. [`LfmChirp`] captures those parameters and
//! synthesises the samples; [`BeepTrain`] lays repeated chirps out on a
//! recording timeline.

use std::f64::consts::PI;

/// A linear-frequency-modulated chirp `s(t) = A·cos 2π(f₀t + (B/2T)t²)`.
///
/// Constructed from its band edges for convenience; the paper's form with
/// centre frequency `f₀` and bandwidth `B` is recovered by
/// [`LfmChirp::center_frequency`] and [`LfmChirp::bandwidth`].
///
/// # Example
///
/// ```
/// use echo_dsp::chirp::LfmChirp;
///
/// let beep = LfmChirp::new(2_000.0, 3_000.0, 0.002, 48_000.0);
/// assert_eq!(beep.len(), 96);
/// assert_eq!(beep.center_frequency(), 2_500.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LfmChirp {
    f_start: f64,
    f_end: f64,
    duration: f64,
    sample_rate: f64,
    amplitude: f64,
}

impl LfmChirp {
    /// Creates a chirp sweeping `f_start → f_end` Hz over `duration` seconds,
    /// sampled at `sample_rate` Hz, with unit amplitude.
    ///
    /// # Panics
    ///
    /// Panics if any argument is non-positive or non-finite, or if the band
    /// edges exceed the Nyquist frequency.
    pub fn new(f_start: f64, f_end: f64, duration: f64, sample_rate: f64) -> Self {
        Self::with_amplitude(f_start, f_end, duration, sample_rate, 1.0)
    }

    /// Like [`LfmChirp::new`] with an explicit amplitude `A`.
    ///
    /// # Panics
    ///
    /// See [`LfmChirp::new`]; additionally panics if `amplitude` is not a
    /// positive finite value.
    pub fn with_amplitude(
        f_start: f64,
        f_end: f64,
        duration: f64,
        sample_rate: f64,
        amplitude: f64,
    ) -> Self {
        assert!(
            f_start.is_finite() && f_start > 0.0,
            "start frequency must be positive"
        );
        assert!(
            f_end.is_finite() && f_end > 0.0,
            "end frequency must be positive"
        );
        assert!(
            duration.is_finite() && duration > 0.0,
            "duration must be positive"
        );
        assert!(
            sample_rate.is_finite() && sample_rate > 0.0,
            "sample rate must be positive"
        );
        assert!(
            f_start.max(f_end) <= sample_rate / 2.0,
            "band edge exceeds Nyquist frequency"
        );
        assert!(
            amplitude.is_finite() && amplitude > 0.0,
            "amplitude must be positive"
        );
        LfmChirp {
            f_start,
            f_end,
            duration,
            sample_rate,
            amplitude,
        }
    }

    /// Start frequency in Hz.
    pub fn f_start(&self) -> f64 {
        self.f_start
    }

    /// End frequency in Hz.
    pub fn f_end(&self) -> f64 {
        self.f_end
    }

    /// Sweep duration `T` in seconds.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Sampling rate in Hz.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Peak amplitude `A`.
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }

    /// Centre frequency `f₀ = (f_start + f_end)/2`.
    pub fn center_frequency(&self) -> f64 {
        (self.f_start + self.f_end) / 2.0
    }

    /// Swept bandwidth `B = |f_end − f_start|`.
    pub fn bandwidth(&self) -> f64 {
        (self.f_end - self.f_start).abs()
    }

    /// Number of samples in one chirp.
    pub fn len(&self) -> usize {
        (self.duration * self.sample_rate).round() as usize
    }

    /// Returns `true` if the chirp rounds to zero samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Instantaneous value at time `t ∈ [0, T)` seconds.
    ///
    /// Phase follows `A·cos 2π(f_start·t + (k/2)t²)` with sweep rate
    /// `k = (f_end − f_start)/T`, which matches the paper's Eq. 2 with the
    /// time origin shifted to the chirp start.
    pub fn value_at(&self, t: f64) -> f64 {
        let k = (self.f_end - self.f_start) / self.duration;
        self.amplitude * (2.0 * PI * (self.f_start * t + 0.5 * k * t * t)).cos()
    }

    /// Synthesises the chirp samples.
    pub fn samples(&self) -> Vec<f64> {
        let n = self.len();
        (0..n)
            .map(|i| self.value_at(i as f64 / self.sample_rate))
            .collect()
    }

    /// Instantaneous frequency at time `t ∈ [0, T)` in Hz.
    pub fn instantaneous_frequency(&self, t: f64) -> f64 {
        let k = (self.f_end - self.f_start) / self.duration;
        self.f_start + k * t
    }
}

/// A periodic train of beeps on a recording timeline.
///
/// The paper probes with one chirp every `interval` seconds (§V-A uses
/// 0.5 s) so that echoes from one beep die out before the next.
#[derive(Debug, Clone, PartialEq)]
pub struct BeepTrain {
    chirp: LfmChirp,
    interval: f64,
    count: usize,
}

impl BeepTrain {
    /// Creates a train of `count` chirps spaced `interval` seconds apart.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is shorter than the chirp itself or `count == 0`.
    pub fn new(chirp: LfmChirp, interval: f64, count: usize) -> Self {
        assert!(
            interval >= chirp.duration(),
            "beep interval shorter than the chirp"
        );
        assert!(count > 0, "a beep train needs at least one beep");
        BeepTrain {
            chirp,
            interval,
            count,
        }
    }

    /// The underlying chirp.
    pub fn chirp(&self) -> &LfmChirp {
        &self.chirp
    }

    /// Seconds between consecutive beep onsets.
    pub fn interval(&self) -> f64 {
        self.interval
    }

    /// Number of beeps.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Onset time of beep `l` (0-based) in seconds.
    pub fn onset(&self, l: usize) -> f64 {
        l as f64 * self.interval
    }

    /// Total timeline duration in seconds (one full interval per beep).
    pub fn total_duration(&self) -> f64 {
        self.count as f64 * self.interval
    }

    /// Number of samples in the full timeline.
    pub fn total_samples(&self) -> usize {
        (self.total_duration() * self.chirp.sample_rate()).round() as usize
    }

    /// Number of samples in one beep interval.
    pub fn samples_per_interval(&self) -> usize {
        (self.interval * self.chirp.sample_rate()).round() as usize
    }

    /// Renders the transmitted waveform for the whole train.
    pub fn transmit_waveform(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.total_samples()];
        let chirp = self.chirp.samples();
        let stride = self.samples_per_interval();
        for l in 0..self.count {
            let start = l * stride;
            for (i, &v) in chirp.iter().enumerate() {
                if start + i < out.len() {
                    out[start + i] = v;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{bin_frequency, magnitude_spectrum};

    fn paper_beep() -> LfmChirp {
        LfmChirp::new(2_000.0, 3_000.0, 0.002, 48_000.0)
    }

    #[test]
    fn sample_count_matches_duration() {
        assert_eq!(paper_beep().len(), 96);
        assert!(!paper_beep().is_empty());
    }

    #[test]
    fn amplitude_bounds_hold() {
        let s = paper_beep().samples();
        assert!(s.iter().all(|v| v.abs() <= 1.0 + 1e-12));
        assert!(s.iter().any(|v| v.abs() > 0.9), "should reach near peak");
    }

    #[test]
    fn starts_at_peak_phase() {
        // cos(0) = 1 at t = 0.
        let s = paper_beep().samples();
        assert!((s[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn instantaneous_frequency_sweeps_linearly() {
        let c = paper_beep();
        assert_eq!(c.instantaneous_frequency(0.0), 2_000.0);
        assert_eq!(c.instantaneous_frequency(0.002), 3_000.0);
        assert_eq!(c.instantaneous_frequency(0.001), 2_500.0);
    }

    #[test]
    fn energy_is_band_limited() {
        // Use a longer chirp for tighter spectral concentration.
        let c = LfmChirp::new(2_000.0, 3_000.0, 0.05, 48_000.0);
        let s = c.samples();
        let spec = magnitude_spectrum(&s);
        let n = s.len();
        let total: f64 = spec[..n / 2].iter().map(|v| v * v).sum();
        let in_band: f64 = spec[..n / 2]
            .iter()
            .enumerate()
            .filter(|(k, _)| {
                let f = bin_frequency(*k, n, 48_000.0);
                (1_800.0..=3_200.0).contains(&f)
            })
            .map(|(_, v)| v * v)
            .sum();
        assert!(
            in_band / total > 0.95,
            "only {:.3} of energy in band",
            in_band / total
        );
    }

    #[test]
    fn downward_sweep_supported() {
        let c = LfmChirp::new(3_000.0, 2_000.0, 0.002, 48_000.0);
        assert_eq!(c.bandwidth(), 1_000.0);
        assert_eq!(c.instantaneous_frequency(0.002), 2_000.0);
    }

    #[test]
    #[should_panic(expected = "Nyquist")]
    fn rejects_band_above_nyquist() {
        let _ = LfmChirp::new(2_000.0, 30_000.0, 0.002, 48_000.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_duration() {
        let _ = LfmChirp::new(2_000.0, 3_000.0, 0.0, 48_000.0);
    }

    #[test]
    fn beep_train_layout() {
        let train = BeepTrain::new(paper_beep(), 0.5, 4);
        assert_eq!(train.count(), 4);
        assert_eq!(train.onset(2), 1.0);
        assert_eq!(train.total_samples(), 96_000);
        assert_eq!(train.samples_per_interval(), 24_000);
    }

    #[test]
    fn beep_train_waveform_has_chirps_at_onsets() {
        let train = BeepTrain::new(paper_beep(), 0.01, 3);
        let w = train.transmit_waveform();
        let stride = train.samples_per_interval();
        for l in 0..3 {
            assert!((w[l * stride] - 1.0).abs() < 1e-12, "beep {l} onset");
            // Quiet zone between chirp end and next onset.
            let quiet = &w[l * stride + 96..(l + 1) * stride];
            assert!(quiet.iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn beep_train_rejects_overlapping_interval() {
        let _ = BeepTrain::new(paper_beep(), 0.001, 2);
    }
}
