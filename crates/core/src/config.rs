//! Pipeline configuration (the paper's §V-A parameter choices).

pub use crate::health::HealthConfig;
use echo_dsp::chirp::LfmChirp;

/// Probing-beep parameters (paper §V-A).
///
/// The paper settles on a 2–3 kHz band (below the array's grating-lobe
/// limit, above most ambient noise), a 2 ms length (long enough for the
/// transducers, short enough to bound multipath smearing) and a 0.5 s
/// interval (echoes die out within ~0.3 s).
#[derive(Debug, Clone, PartialEq)]
pub struct BeepConfig {
    /// Band start, Hz.
    pub f_start: f64,
    /// Band end, Hz.
    pub f_end: f64,
    /// Chirp duration, seconds.
    pub duration: f64,
    /// Interval between consecutive beeps, seconds.
    pub interval: f64,
    /// ADC sample rate, Hz.
    pub sample_rate: f64,
}

impl BeepConfig {
    /// The paper's parameters: 2–3 kHz, 2 ms, 0.5 s interval at 48 kHz.
    pub fn paper() -> Self {
        BeepConfig {
            f_start: 2_000.0,
            f_end: 3_000.0,
            duration: 0.002,
            interval: 0.5,
            sample_rate: 48_000.0,
        }
    }

    /// The chirp this configuration describes.
    pub fn chirp(&self) -> LfmChirp {
        LfmChirp::new(self.f_start, self.f_end, self.duration, self.sample_rate)
    }

    /// Centre frequency `f₀` used for narrowband steering.
    pub fn center_frequency(&self) -> f64 {
        (self.f_start + self.f_end) / 2.0
    }

    /// Chirp length in samples.
    pub fn chirp_samples(&self) -> usize {
        (self.duration * self.sample_rate).round() as usize
    }
}

impl Default for BeepConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Distance-estimation parameters (paper §V-B).
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceConfig {
    /// Steered azimuth θ; the paper uses π/2 (straight ahead).
    pub azimuth: f64,
    /// Steered elevation φ; the paper picks a value in [π/3, 2π/3] that
    /// lands on the upper body.
    pub elevation: f64,
    /// Chirp-period length after the direct-path peak, seconds (paper:
    /// 0.002 s).
    pub chirp_period: f64,
    /// Echo-period length after the chirp period, seconds (paper:
    /// 0.01 s).
    pub echo_period: f64,
    /// Peak neighbourhood half-width `d`, in samples.
    pub peak_distance: usize,
    /// Peak threshold as a fraction of the envelope maximum. `E(t)`
    /// accumulates *squared* envelopes (Eq. 10), and the direct chirp is
    /// ~20–30× stronger than body echoes in amplitude, so echo peaks sit
    /// around 10⁻³ of the maximum; the threshold must sit well below that
    /// while staying above the noise floor.
    pub peak_threshold_ratio: f64,
    /// Mean speaker→microphone path length, metres, used to convert the
    /// direct-peak-relative echo delay into a round-trip time (the
    /// prototype places the speaker ~8 cm beside the array).
    pub direct_path_length: f64,
    /// Height of the dominant echoing body patch (the chest) above the
    /// array, metres. The planar tabletop array has no elevation
    /// resolution, so instead of projecting with the *steered* φ the
    /// estimator projects with the φ implied by this calibrated patch
    /// height — the same `D_p = D_f·sin φ` geometry (paper §V-B) with a
    /// physically consistent φ.
    pub echo_height_offset: f64,
    /// The chest stands proud of the user's standing position; the echo
    /// onset arrives earlier than the torso plane by about this much,
    /// metres.
    pub surface_onset_correction: f64,
    /// Echo selection threshold: the echo time is the *leading edge* of
    /// the strongest lobe in the echo period — the first sample (walking
    /// back from the lobe maximum) where the smoothed envelope still
    /// reaches this fraction of the lobe maximum. Leading edges are far
    /// more stable under coherent speckle than lobe maxima.
    pub echo_onset_fraction: f64,
    /// Moving-average window applied to `E(t)` before the leading-edge
    /// search, seconds.
    pub envelope_smoothing: f64,
}

impl Default for DistanceConfig {
    fn default() -> Self {
        DistanceConfig {
            azimuth: std::f64::consts::FRAC_PI_2,
            // Within the paper's [π/3, 2π/3] range, chosen where a
            // tabletop array actually sees a standing user's chest
            // (~15° above horizontal).
            elevation: 1.3,
            chirp_period: 0.002,
            echo_period: 0.010,
            peak_distance: 24,
            peak_threshold_ratio: 1e-5,
            direct_path_length: 0.08,
            echo_height_offset: 0.2,
            surface_onset_correction: 0.20,
            echo_onset_fraction: 0.35,
            envelope_smoothing: 0.001,
        }
    }
}

/// Imaging-plane parameters (paper §V-C).
///
/// The paper uses a 180×180 grid of 1 cm cells (±0.9 m). The default here
/// is a 32×32 grid of 5 cm cells (±0.8 m): the same physical span at a
/// resolution matched to the 6-microphone array's beamwidth, sized so the
/// full evaluation runs on one CPU core. The paper-scale grid is
/// available via [`ImagingConfig::paper_full`].
#[derive(Debug, Clone, PartialEq)]
pub struct ImagingConfig {
    /// Grid cells per side (image is `grid_n × grid_n`).
    pub grid_n: usize,
    /// Cell edge length, metres.
    pub grid_spacing: f64,
    /// Time-gate safeguard `d'` around the expected echo delay, seconds.
    pub safeguard: f64,
    /// Use MVDR (paper) or delay-and-sum (ablation baseline).
    pub beamformer: BeamformerKind,
}

/// Which beamformer scans the imaging plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BeamformerKind {
    /// Minimum-variance distortionless response (the paper's design).
    Mvdr,
    /// Conventional delay-and-sum (ablation baseline).
    DelayAndSum,
}

impl ImagingConfig {
    /// The paper's full-scale plane: 180×180 cells of 1 cm.
    pub fn paper_full() -> Self {
        ImagingConfig {
            grid_n: 180,
            grid_spacing: 0.01,
            ..ImagingConfig::default()
        }
    }

    /// Half-extent of the imaging plane, metres.
    pub fn half_extent(&self) -> f64 {
        self.grid_n as f64 * self.grid_spacing / 2.0
    }

    /// Plane coordinates `(x_k, z_k)` of cell `(col, row)`; row 0 is the
    /// top of the image (largest z).
    pub fn cell_center(&self, col: usize, row: usize) -> (f64, f64) {
        let half = self.half_extent();
        let x = (col as f64 + 0.5) * self.grid_spacing - half;
        let z = half - (row as f64 + 0.5) * self.grid_spacing;
        (x, z)
    }
}

impl Default for ImagingConfig {
    fn default() -> Self {
        ImagingConfig {
            grid_n: 32,
            grid_spacing: 0.05,
            safeguard: 0.0006,
            beamformer: BeamformerKind::Mvdr,
        }
    }
}

/// Anti-replay spatial check on the imaging path (DESIGN.md §14):
/// rejects attempts whose acoustic images are too *flat* — the
/// collapsed-structure signature of a point-source re-emission.
///
/// Off by default: the screen is an attack countermeasure layered on
/// top of the paper's §V pipeline, and enabling it changes the audit
/// stream (accepted attempts gain a measured spread). The attack
/// evaluation (`fig_attack`), the spoof audit suite, and the CI
/// spoof-gate all switch it on explicitly.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialCheckConfig {
    /// Run the screen at all.
    pub enabled: bool,
    /// Reject ceiling on the train's mean normalized image spread
    /// (see [`crate::spatial::image_spread`]): a live body's angular
    /// structure keeps the acoustic image compact (≈0.70–0.77 in the
    /// reference simulator), while a point-source replay collapses the
    /// array's angular diversity and the image flattens toward the
    /// uniform limit (≈0.85–0.92, where 1.0 is a perfectly flat
    /// image). Attempts measuring above the ceiling are rejected as
    /// replays.
    pub max_coherence: f64,
}

impl Default for SpatialCheckConfig {
    fn default() -> Self {
        SpatialCheckConfig {
            enabled: false,
            max_coherence: 0.82,
        }
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Probing-beep parameters.
    pub beep: BeepConfig,
    /// Distance-estimation parameters.
    pub distance: DistanceConfig,
    /// Imaging-plane parameters.
    pub imaging: ImagingConfig,
    /// Band-pass filter order (per paper §V-B a 2–3 kHz Butterworth).
    pub bandpass_order: usize,
    /// Channel-health screening thresholds for degraded-mode imaging.
    pub health: HealthConfig,
    /// Anti-replay spatial-coherence screen (off by default).
    pub spatial: SpatialCheckConfig,
    /// Worker threads for the imaging hot paths: `0` uses the machine's
    /// available parallelism, `1` forces the serial reference path,
    /// `n ≥ 2` uses exactly `n` threads. Results are bit-identical at
    /// every setting.
    pub threads: usize,
}

impl PipelineConfig {
    /// The paper's configuration with the default (CPU-sized) grid.
    pub fn paper() -> Self {
        PipelineConfig {
            beep: BeepConfig::paper(),
            distance: DistanceConfig::default(),
            imaging: ImagingConfig::default(),
            bandpass_order: 4,
            health: HealthConfig::default(),
            spatial: SpatialCheckConfig::default(),
            threads: 0,
        }
    }

    /// This configuration with a different thread count (see
    /// [`PipelineConfig::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_beep_parameters() {
        let b = BeepConfig::paper();
        assert_eq!(b.center_frequency(), 2_500.0);
        assert_eq!(b.chirp_samples(), 96);
        assert_eq!(b.chirp().len(), 96);
        assert_eq!(b.interval, 0.5);
    }

    #[test]
    fn default_config_is_paper_config() {
        assert_eq!(PipelineConfig::default().beep, BeepConfig::paper());
    }

    #[test]
    fn imaging_grid_geometry() {
        let cfg = ImagingConfig::default();
        assert_eq!(cfg.half_extent(), 0.8);
        // Centre cells straddle the origin.
        let (x, z) = cfg.cell_center(16, 16);
        assert!((x - 0.025).abs() < 1e-12);
        assert!((z + 0.025).abs() < 1e-12);
        // Top-left corner: most negative x, most positive z.
        let (x0, z0) = cfg.cell_center(0, 0);
        assert!(x0 < 0.0 && z0 > 0.0);
    }

    #[test]
    fn paper_full_grid_matches_paper_feasibility_study() {
        let cfg = ImagingConfig::paper_full();
        assert_eq!(cfg.grid_n * cfg.grid_n, 32_400);
        assert!((cfg.grid_spacing - 0.01).abs() < 1e-12);
    }

    #[test]
    fn distance_defaults_match_section_v_b() {
        let d = DistanceConfig::default();
        assert!((d.azimuth - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!(d.elevation >= std::f64::consts::FRAC_PI_3);
        assert!(d.elevation <= 2.0 * std::f64::consts::FRAC_PI_3);
        assert_eq!(d.chirp_period, 0.002);
        assert_eq!(d.echo_period, 0.010);
    }
}
