//! Capture health screening: which microphones can be trusted?
//!
//! A single faulted channel silently poisons everything downstream — a
//! flatlined microphone biases the MVDR covariance, a DC pedestal leaks
//! through the steering arithmetic, a clipped channel decorrelates the
//! echoes. Before imaging, the pipeline screens each channel's
//! statistics (energy relative to its siblings, DC level, clip
//! fraction) and produces a [`ChannelHealth`] mask; degraded-mode
//! beamforming then images with the surviving subset (see
//! [`crate::pipeline::TrainRequest::screen`]).
//!
//! Screening runs on *raw* captures, before band-pass preprocessing:
//! the band-pass filter removes exactly the DC and out-of-band evidence
//! the screen needs.
//!
//! The thresholds are deliberately permissive — screening exists to
//! excise channels that would *poison* the image (dead, saturated,
//! DC-railed, interference-swamped), not to demand studio calibration.
//! Mild gain drift or clock skew passes the screen and degrades
//! gracefully instead; the fault-sweep experiment quantifies how
//! gracefully.

use crate::error::EchoImageError;
use echo_sim::BeepCapture;

/// Per-channel screening statistics.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ChannelStats {
    /// AC energy `Σ (x − mean)²` over the whole window.
    pub energy: f64,
    /// Mean sample value (DC level).
    pub dc: f64,
    /// RMS of the mean-removed signal.
    pub ac_rms: f64,
    /// Maximum absolute amplitude.
    pub peak: f64,
    /// Fraction of samples within 0.1 % of the peak (rail dwell).
    pub clip_fraction: f64,
}

/// Why a channel was excluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ChannelFlaw {
    /// Energy far below the median channel (dead or disconnected).
    LowEnergy,
    /// Energy far above the median channel (interference burst).
    ExcessEnergy,
    /// DC level out of proportion to the AC signal.
    DcBias,
    /// Too many samples dwelling at the amplitude rail (saturation).
    Clipped,
}

/// Screening thresholds.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HealthConfig {
    /// Fewest healthy microphones degraded-mode imaging will accept
    /// before rejecting the capture with
    /// [`EchoImageError::DegradedCapture`]. Values below 2 are treated
    /// as 2 (beamforming needs a baseline).
    pub min_mics: usize,
    /// A channel is [`ChannelFlaw::LowEnergy`] when its AC energy falls
    /// below this fraction of the median channel's.
    pub relative_energy_floor: f64,
    /// A channel is [`ChannelFlaw::ExcessEnergy`] when its AC energy
    /// exceeds this multiple of the median channel's.
    pub relative_energy_ceiling: f64,
    /// A channel is [`ChannelFlaw::DcBias`] when `|mean|` exceeds this
    /// multiple of its AC RMS.
    pub max_dc_ratio: f64,
    /// A channel is [`ChannelFlaw::Clipped`] when more than this
    /// fraction of samples dwell at the rail.
    pub max_clip_fraction: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            min_mics: 3,
            relative_energy_floor: 0.02,
            relative_energy_ceiling: 25.0,
            max_dc_ratio: 0.5,
            max_clip_fraction: 0.01,
        }
    }
}

/// The verdict of screening one capture (or, unioned, a whole train).
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelHealth {
    stats: Vec<ChannelStats>,
    flaws: Vec<Vec<ChannelFlaw>>,
}

impl ChannelHealth {
    /// Number of screened channels.
    pub fn num_channels(&self) -> usize {
        self.flaws.len()
    }

    /// `true` when channel `m` carries no flaw.
    pub fn is_healthy(&self, m: usize) -> bool {
        self.flaws[m].is_empty()
    }

    /// The flaws of channel `m` (empty when healthy).
    pub fn flaws(&self, m: usize) -> &[ChannelFlaw] {
        &self.flaws[m]
    }

    /// The screening statistics of channel `m` (for a train, the first
    /// capture's — representative, since the whole train shares one
    /// hardware state).
    pub fn stats(&self, m: usize) -> &ChannelStats {
        &self.stats[m]
    }

    /// Indices of the healthy channels, ascending — the mic-subset mask
    /// degraded-mode imaging consumes.
    pub fn healthy_indices(&self) -> Vec<usize> {
        (0..self.flaws.len())
            .filter(|&m| self.flaws[m].is_empty())
            .collect()
    }

    /// Number of healthy channels.
    pub fn num_healthy(&self) -> usize {
        self.flaws.iter().filter(|f| f.is_empty()).count()
    }

    /// `true` when every channel passed — the fast path that keeps the
    /// degraded pipeline bit-identical to the ordinary one.
    pub fn all_healthy(&self) -> bool {
        self.flaws.iter().all(|f| f.is_empty())
    }

    /// Bitmask of the excised (unhealthy) channels: bit `i` set means
    /// mic `i` was flagged. Channels beyond 63 saturate into bit 63 so
    /// the mask stays a lossless rejection witness for every realistic
    /// array size. This is the mask carried by
    /// [`crate::EchoImageError::DegradedCapture`] and the audit log.
    pub fn excised_mask(&self) -> u64 {
        let mut mask = 0u64;
        for (m, flaws) in self.flaws.iter().enumerate() {
            if !flaws.is_empty() {
                mask |= 1u64 << m.min(63);
            }
        }
        mask
    }

    /// Unions another screen's flaws into this one (same channel count
    /// required) — a channel faulted in *any* beep of a train is
    /// excluded for the whole train, since the fault is hardware state,
    /// not noise.
    fn merge(&mut self, other: &ChannelHealth) {
        for (mine, theirs) in self.flaws.iter_mut().zip(&other.flaws) {
            for flaw in theirs {
                if !mine.contains(flaw) {
                    mine.push(*flaw);
                }
            }
        }
    }
}

/// Screening statistics of one channel.
fn channel_stats(samples: &[f64]) -> ChannelStats {
    let n = samples.len();
    if n == 0 {
        return ChannelStats {
            energy: 0.0,
            dc: 0.0,
            ac_rms: 0.0,
            peak: 0.0,
            clip_fraction: 0.0,
        };
    }
    let dc = samples.iter().sum::<f64>() / n as f64;
    let energy: f64 = samples.iter().map(|&x| (x - dc) * (x - dc)).sum();
    let ac_rms = (energy / n as f64).sqrt();
    let peak = samples.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
    let clip_fraction = if peak > 0.0 {
        samples.iter().filter(|&&x| x.abs() >= 0.999 * peak).count() as f64 / n as f64
    } else {
        0.0
    };
    ChannelStats {
        energy,
        dc,
        ac_rms,
        peak,
        clip_fraction,
    }
}

/// Screens one raw (unfiltered) capture.
pub fn screen_capture(capture: &BeepCapture, config: &HealthConfig) -> ChannelHealth {
    let stats: Vec<ChannelStats> = capture
        .channels()
        .iter()
        .map(|c| channel_stats(c))
        .collect();
    let mut energies: Vec<f64> = stats.iter().map(|s| s.energy).collect();
    energies.sort_by(f64::total_cmp);
    let median = energies[energies.len() / 2];

    let flaws = stats
        .iter()
        .map(|s| {
            let mut f = Vec::new();
            // A zero-energy channel is dead regardless of its siblings
            // (including when every channel is dead and the median is 0).
            if s.energy <= 0.0 || s.energy < config.relative_energy_floor * median {
                f.push(ChannelFlaw::LowEnergy);
            } else if median > 0.0 && s.energy > config.relative_energy_ceiling * median {
                f.push(ChannelFlaw::ExcessEnergy);
            }
            if s.dc.abs() > config.max_dc_ratio * s.ac_rms && s.ac_rms > 0.0 {
                f.push(ChannelFlaw::DcBias);
            }
            if s.clip_fraction > config.max_clip_fraction {
                f.push(ChannelFlaw::Clipped);
            }
            f
        })
        .collect();
    ChannelHealth { stats, flaws }
}

/// Screens a whole beep train: per-beep screens unioned per channel.
///
/// # Errors
///
/// * [`EchoImageError::NoCaptures`] — `captures` is empty.
/// * [`EchoImageError::InconsistentCaptures`] — channel counts differ.
pub fn screen_train(
    captures: &[BeepCapture],
    config: &HealthConfig,
) -> Result<ChannelHealth, EchoImageError> {
    let first = captures.first().ok_or(EchoImageError::NoCaptures)?;
    let m = first.num_channels();
    if captures.iter().any(|c| c.num_channels() != m) {
        return Err(EchoImageError::InconsistentCaptures);
    }
    let mut health = screen_capture(first, config);
    for capture in &captures[1..] {
        health.merge(&screen_capture(capture, config));
    }
    echo_obs::counter!("health.trains_screened").inc();
    echo_obs::counter!("health.channels_excised").add((m - health.num_healthy()) as u64);
    Ok(health)
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_sim::fault::{ChannelFault, FaultPlan};

    /// A plausible 6-channel capture: windowed tone bursts over a small
    /// noise floor, distinct phases per channel.
    fn capture() -> BeepCapture {
        let n = 1024;
        let channels: Vec<Vec<f64>> = (0..6)
            .map(|ch| {
                (0..n)
                    .map(|t| {
                        let tone = (0.33 * t as f64 + ch as f64).sin()
                            * (-((t as f64) - 300.0).abs() / 120.0).exp();
                        let dither = ((t * 7 + ch * 13) % 97) as f64 / 97.0 - 0.5;
                        tone + 0.01 * dither
                    })
                    .collect()
            })
            .collect();
        BeepCapture::new(channels, 48_000.0, 128)
    }

    #[test]
    fn clean_capture_screens_healthy() {
        let health = screen_capture(&capture(), &HealthConfig::default());
        assert!(
            health.all_healthy(),
            "flaws: {:?}",
            (0..6).map(|m| health.flaws(m).to_vec()).collect::<Vec<_>>()
        );
        assert_eq!(health.healthy_indices(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(health.num_healthy(), 6);
    }

    #[test]
    fn dead_channel_is_flagged_low_energy() {
        let cap = FaultPlan::new(1)
            .with_fault(2, ChannelFault::Dead)
            .apply(&capture());
        let health = screen_capture(&cap, &HealthConfig::default());
        assert!(!health.is_healthy(2));
        assert!(health.flaws(2).contains(&ChannelFlaw::LowEnergy));
        assert_eq!(health.healthy_indices(), vec![0, 1, 3, 4, 5]);
    }

    #[test]
    fn dc_pedestal_is_flagged() {
        let cap = FaultPlan::new(1)
            .with_fault(0, ChannelFault::DcOffset { scale: 2.0 })
            .apply(&capture());
        let health = screen_capture(&cap, &HealthConfig::default());
        assert!(health.flaws(0).contains(&ChannelFlaw::DcBias));
        assert!(health.is_healthy(1));
    }

    #[test]
    fn hard_clipping_is_flagged() {
        let cap = FaultPlan::new(1)
            .with_fault(4, ChannelFault::Clipping { fraction: 0.05 })
            .apply(&capture());
        let health = screen_capture(&cap, &HealthConfig::default());
        assert!(health.flaws(4).contains(&ChannelFlaw::Clipped));
    }

    #[test]
    fn interference_burst_is_flagged_excess_energy() {
        let cap = FaultPlan::new(1)
            .with_fault(5, ChannelFault::BurstInterference { level: 20.0 })
            .apply(&capture());
        let health = screen_capture(&cap, &HealthConfig::default());
        assert!(health.flaws(5).contains(&ChannelFlaw::ExcessEnergy));
    }

    #[test]
    fn all_dead_capture_has_no_healthy_channels() {
        let cap = capture().map_channels(|_| vec![0.0; 1024]);
        let health = screen_capture(&cap, &HealthConfig::default());
        assert_eq!(health.num_healthy(), 0);
    }

    #[test]
    fn train_screen_unions_per_beep_flaws() {
        let clean = capture();
        let damaged = FaultPlan::new(1)
            .with_fault(1, ChannelFault::Dead)
            .apply(&clean);
        let health = screen_train(&[clean.clone(), damaged], &HealthConfig::default()).unwrap();
        assert!(
            !health.is_healthy(1),
            "a fault in any beep excludes the channel"
        );
        assert_eq!(health.num_healthy(), 5);

        assert!(matches!(
            screen_train(&[], &HealthConfig::default()),
            Err(EchoImageError::NoCaptures)
        ));
        let three = clean.select_channels(&[0, 1, 2]);
        assert!(matches!(
            screen_train(&[clean, three], &HealthConfig::default()),
            Err(EchoImageError::InconsistentCaptures)
        ));
    }

    #[test]
    fn zero_sample_capture_is_fully_flagged() {
        let cap = BeepCapture::new(vec![vec![]; 4], 48_000.0, 0);
        let health = screen_capture(&cap, &HealthConfig::default());
        assert_eq!(health.num_healthy(), 0);
        assert_eq!(health.stats(0).energy, 0.0);
    }
}
