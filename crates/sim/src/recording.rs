//! Captured multichannel beep windows.

/// A multichannel recording of one probing-beep window.
///
/// Layout: `channels[m][n]` is sample `n` of microphone `m`. The first
/// [`BeepCapture::preroll`] samples are noise-only (captured before the
/// beep was emitted) — ranging reads its matched-filter noise floor
/// there. The beep leaves the speaker at sample index `preroll`.
#[derive(Debug, Clone, PartialEq)]
pub struct BeepCapture {
    channels: Vec<Vec<f64>>,
    sample_rate: f64,
    preroll: usize,
}

impl BeepCapture {
    /// Wraps raw channel data.
    ///
    /// # Panics
    ///
    /// Panics if there are no channels, lengths differ, the sample rate is
    /// not positive, or `preroll` exceeds the channel length.
    pub fn new(channels: Vec<Vec<f64>>, sample_rate: f64, preroll: usize) -> Self {
        assert!(!channels.is_empty(), "a capture needs at least one channel");
        let n = channels[0].len();
        assert!(
            channels.iter().all(|c| c.len() == n),
            "channels must have equal lengths"
        );
        assert!(sample_rate > 0.0, "sample rate must be positive");
        assert!(preroll <= n, "preroll exceeds capture length");
        BeepCapture {
            channels,
            sample_rate,
            preroll,
        }
    }

    /// Number of microphones M.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Samples per channel.
    pub fn len(&self) -> usize {
        self.channels[0].len()
    }

    /// Returns `true` when the capture holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sample rate in Hz.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Number of leading noise-only samples.
    pub fn preroll(&self) -> usize {
        self.preroll
    }

    /// One microphone's samples.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn channel(&self, m: usize) -> &[f64] {
        &self.channels[m]
    }

    /// All channels.
    pub fn channels(&self) -> &[Vec<f64>] {
        &self.channels
    }

    /// The noise-only preroll of each channel (first `preroll` samples).
    pub fn noise_segments(&self) -> Vec<&[f64]> {
        self.channels.iter().map(|c| &c[..self.preroll]).collect()
    }

    /// The beep-and-echoes portion of each channel (from `preroll` on).
    pub fn signal_segments(&self) -> Vec<&[f64]> {
        self.channels.iter().map(|c| &c[self.preroll..]).collect()
    }

    /// Applies a function to every channel, returning a new capture with
    /// the same metadata (used for band-pass filtering).
    ///
    /// # Panics
    ///
    /// Panics if `f` changes the channel length.
    pub fn map_channels(&self, mut f: impl FnMut(&[f64]) -> Vec<f64>) -> BeepCapture {
        let channels: Vec<Vec<f64>> = self.channels.iter().map(|c| f(c)).collect();
        assert!(
            channels.iter().all(|c| c.len() == self.len()),
            "map_channels must preserve length"
        );
        BeepCapture {
            channels,
            sample_rate: self.sample_rate,
            preroll: self.preroll,
        }
    }

    /// A new capture holding only the listed channels (same metadata) —
    /// the degraded-mode pipeline images with the surviving microphones.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty, not strictly increasing, or names a
    /// channel the capture does not have. Callers in `echoimage-core`
    /// validate the mask against the channel-health screen first.
    pub fn select_channels(&self, indices: &[usize]) -> BeepCapture {
        assert!(!indices.is_empty(), "a capture needs at least one channel");
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "channel indices must be strictly increasing"
        );
        assert!(
            indices.iter().all(|&i| i < self.channels.len()),
            "channel index out of range"
        );
        BeepCapture {
            channels: indices.iter().map(|&i| self.channels[i].clone()).collect(),
            sample_rate: self.sample_rate,
            preroll: self.preroll,
        }
    }

    /// Hard-clips every sample to ±`limit` (microphone saturation; used
    /// for failure-injection tests).
    pub fn clipped(&self, limit: f64) -> BeepCapture {
        assert!(limit > 0.0, "clip limit must be positive");
        self.map_channels(|c| c.iter().map(|&x| x.clamp(-limit, limit)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture() -> BeepCapture {
        BeepCapture::new(vec![vec![0.0, 1.0, -2.0, 3.0]; 3], 48_000.0, 2)
    }

    #[test]
    fn accessors() {
        let c = capture();
        assert_eq!(c.num_channels(), 3);
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert_eq!(c.sample_rate(), 48_000.0);
        assert_eq!(c.preroll(), 2);
        assert_eq!(c.channel(0), &[0.0, 1.0, -2.0, 3.0]);
    }

    #[test]
    fn noise_and_signal_segments_partition_the_capture() {
        let c = capture();
        assert_eq!(c.noise_segments()[0], &[0.0, 1.0]);
        assert_eq!(c.signal_segments()[0], &[-2.0, 3.0]);
    }

    #[test]
    fn map_channels_preserves_metadata() {
        let c = capture().map_channels(|ch| ch.iter().map(|x| x * 2.0).collect());
        assert_eq!(c.channel(1), &[0.0, 2.0, -4.0, 6.0]);
        assert_eq!(c.preroll(), 2);
    }

    #[test]
    fn clipping_saturates() {
        let c = capture().clipped(1.5);
        assert_eq!(c.channel(0), &[0.0, 1.0, -1.5, 1.5]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn ragged_channels_rejected() {
        let _ = BeepCapture::new(vec![vec![0.0; 3], vec![0.0; 4]], 48_000.0, 0);
    }

    #[test]
    #[should_panic(expected = "preroll")]
    fn oversized_preroll_rejected() {
        let _ = BeepCapture::new(vec![vec![0.0; 3]], 48_000.0, 4);
    }
}
