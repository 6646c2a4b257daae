//! Per-microphone channel-fault injection.
//!
//! The paper's prototype assumes six identically behaving ReSpeaker
//! microphones; deployed hardware does not cooperate. Channels die,
//! preamp gains drift with temperature, DC servos fail, ADCs clip,
//! sample clocks skew and nearby electronics inject bursts. This module
//! models those failures as a deterministic post-processing stage on a
//! [`BeepCapture`]: a [`FaultPlan`] names which microphones are faulted
//! and how, and `apply` rewrites only those channels, seeded so the same
//! plan always produces the same damaged capture.
//!
//! Faults are parameterised *relative to the channel they damage* (peak
//! amplitude), so one plan is meaningful across environments and
//! distances without retuning.

use crate::recording::BeepCapture;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The fault families, without parameters — used to enumerate sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Channel is flatlined (broken mic or unplugged element).
    Dead,
    /// Preamp gain ramps away from nominal over the capture window.
    GainDrift,
    /// A constant DC offset rides on the signal (failed servo/coupling).
    DcOffset,
    /// Hard amplitude saturation at a fraction of the channel's peak.
    Clipping,
    /// The channel's ADC clock runs at a slightly wrong rate.
    ClockSkew,
    /// A burst of wideband interference lands inside the window.
    BurstInterference,
}

impl FaultKind {
    /// Every fault family, in sweep order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::Dead,
        FaultKind::GainDrift,
        FaultKind::DcOffset,
        FaultKind::Clipping,
        FaultKind::ClockSkew,
        FaultKind::BurstInterference,
    ];

    /// A short stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Dead => "dead",
            FaultKind::GainDrift => "gain-drift",
            FaultKind::DcOffset => "dc-offset",
            FaultKind::Clipping => "clipping",
            FaultKind::ClockSkew => "clock-skew",
            FaultKind::BurstInterference => "burst",
        }
    }
}

/// Artefacts name a fault family by its variant name.
impl echo_obs::json::ToJson for FaultKind {
    fn to_json(&self) -> echo_obs::json::Json {
        let name = match self {
            FaultKind::Dead => "Dead",
            FaultKind::GainDrift => "GainDrift",
            FaultKind::DcOffset => "DcOffset",
            FaultKind::Clipping => "Clipping",
            FaultKind::ClockSkew => "ClockSkew",
            FaultKind::BurstInterference => "BurstInterference",
        };
        echo_obs::json::Json::Str(name.into())
    }
}

/// One microphone's fault, with physical parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelFault {
    /// The channel records exactly zero.
    Dead,
    /// Gain ramps linearly (in dB) from 0 dB at the first sample to
    /// `db` dB at the last.
    GainDrift {
        /// Gain at the end of the window, dB (negative = fading out).
        db: f64,
    },
    /// Adds `scale × peak` to every sample, where `peak` is the
    /// channel's own maximum absolute amplitude.
    DcOffset {
        /// Offset as a multiple of the channel peak.
        scale: f64,
    },
    /// Clamps every sample to `±fraction × peak`.
    Clipping {
        /// Rail position as a fraction of the channel peak, in (0, 1].
        fraction: f64,
    },
    /// Resamples the channel as if its ADC clock ran `ppm` parts per
    /// million fast (positive) or slow (negative). Length-preserving.
    ClockSkew {
        /// Clock error in parts per million.
        ppm: f64,
    },
    /// Adds a seeded white-noise burst of amplitude `level × peak`
    /// covering one eighth of the window at a seeded position.
    BurstInterference {
        /// Burst amplitude as a multiple of the channel peak.
        level: f64,
    },
}

impl ChannelFault {
    /// The family this fault belongs to.
    pub fn kind(&self) -> FaultKind {
        match self {
            ChannelFault::Dead => FaultKind::Dead,
            ChannelFault::GainDrift { .. } => FaultKind::GainDrift,
            ChannelFault::DcOffset { .. } => FaultKind::DcOffset,
            ChannelFault::Clipping { .. } => FaultKind::Clipping,
            ChannelFault::ClockSkew { .. } => FaultKind::ClockSkew,
            ChannelFault::BurstInterference { .. } => FaultKind::BurstInterference,
        }
    }

    /// Maps a `[0, 1]` severity onto physical parameters: 0 is barely
    /// perceptible, 1 is the worst plausible instance of the family
    /// (−30 dB drift, a DC pedestal of twice the peak, rails at 5 % of
    /// the peak, 5000 ppm skew, a burst four peaks tall).
    pub fn from_severity(kind: FaultKind, severity: f64) -> ChannelFault {
        let s = severity.clamp(0.0, 1.0);
        match kind {
            FaultKind::Dead => ChannelFault::Dead,
            FaultKind::GainDrift => ChannelFault::GainDrift { db: -30.0 * s },
            FaultKind::DcOffset => ChannelFault::DcOffset { scale: 2.0 * s },
            FaultKind::Clipping => ChannelFault::Clipping {
                fraction: (1.0 - 0.95 * s).max(0.05),
            },
            FaultKind::ClockSkew => ChannelFault::ClockSkew { ppm: 5_000.0 * s },
            FaultKind::BurstInterference => ChannelFault::BurstInterference { level: 4.0 * s },
        }
    }

    /// Applies the fault to one channel. `seed` drives any randomness
    /// (only [`ChannelFault::BurstInterference`] uses it), so the same
    /// `(fault, samples, seed)` always yields the same output.
    pub fn apply_channel(&self, samples: &[f64], seed: u64) -> Vec<f64> {
        let n = samples.len();
        let peak = samples.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
        match self {
            ChannelFault::Dead => vec![0.0; n],
            ChannelFault::GainDrift { db } => {
                let last = (n.saturating_sub(1)).max(1) as f64;
                samples
                    .iter()
                    .enumerate()
                    .map(|(t, &x)| x * 10f64.powf(db * t as f64 / last / 20.0))
                    .collect()
            }
            ChannelFault::DcOffset { scale } => {
                let offset = scale * peak;
                samples.iter().map(|&x| x + offset).collect()
            }
            ChannelFault::Clipping { fraction } => {
                let rail = fraction.abs() * peak;
                samples.iter().map(|&x| x.clamp(-rail, rail)).collect()
            }
            ChannelFault::ClockSkew { ppm } => {
                let rate = 1.0 + ppm * 1e-6;
                (0..n)
                    .map(|t| sample_linear(samples, t as f64 * rate))
                    .collect()
            }
            ChannelFault::BurstInterference { level } => {
                let mut out = samples.to_vec();
                if n == 0 {
                    return out;
                }
                let burst_len = (n / 8).max(1);
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB1A5_7000_0000_0001);
                let start = if n > burst_len {
                    rng.gen_range(0..n - burst_len)
                } else {
                    0
                };
                let amp = level * peak;
                for x in out.iter_mut().skip(start).take(burst_len) {
                    *x += amp * crate::body::randn(&mut rng);
                }
                out
            }
        }
    }
}

/// Linear interpolation of `signal` at fractional index `t` (zero
/// outside the support), local so fault injection stays self-contained.
fn sample_linear(signal: &[f64], t: f64) -> f64 {
    if t < 0.0 {
        return 0.0;
    }
    let i = t.floor() as usize;
    if i + 1 >= signal.len() {
        return if i < signal.len() { signal[i] } else { 0.0 };
    }
    let frac = t - i as f64;
    signal[i] * (1.0 - frac) + signal[i + 1] * frac
}

/// A deterministic assignment of faults to microphones.
///
/// # Example
///
/// ```
/// use echo_sim::fault::{ChannelFault, FaultPlan};
/// use echo_sim::BeepCapture;
///
/// let capture = BeepCapture::new(vec![vec![1.0, -1.0, 0.5]; 3], 48_000.0, 1);
/// let plan = FaultPlan::new(7).with_fault(1, ChannelFault::Dead);
/// let damaged = plan.apply(&capture);
/// assert_eq!(damaged.channel(0), capture.channel(0));
/// assert!(damaged.channel(1).iter().all(|&x| x == 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// `(microphone index, fault)` pairs.
    pub faults: Vec<(usize, ChannelFault)>,
    /// Base seed for the faults' randomness.
    pub seed: u64,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            faults: Vec::new(),
            seed,
        }
    }

    /// The no-fault plan (what a healthy device experiences).
    pub fn none() -> Self {
        Self::new(0)
    }

    /// Adds a fault on microphone `mic`.
    pub fn with_fault(mut self, mic: usize, fault: ChannelFault) -> Self {
        self.faults.push((mic, fault));
        self
    }

    /// The same fault family and severity on every listed microphone —
    /// the shape the fault-sweep experiment enumerates.
    pub fn uniform(kind: FaultKind, severity: f64, mics: &[usize], seed: u64) -> Self {
        FaultPlan {
            faults: mics
                .iter()
                .map(|&m| (m, ChannelFault::from_severity(kind, severity)))
                .collect(),
            seed,
        }
    }

    /// `true` when no microphone is faulted.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The distinct faulted microphone indices, ascending.
    pub fn faulted_mics(&self) -> Vec<usize> {
        let mut mics: Vec<usize> = self.faults.iter().map(|(m, _)| *m).collect();
        mics.sort_unstable();
        mics.dedup();
        mics
    }

    /// Applies every fault to its channel, leaving the rest untouched.
    /// Deterministic in `(plan, capture)`; faults on the same microphone
    /// compose in plan order.
    ///
    /// # Panics
    ///
    /// Panics if a fault names a microphone the capture does not have.
    pub fn apply(&self, capture: &BeepCapture) -> BeepCapture {
        if self.is_empty() {
            return capture.clone();
        }
        echo_obs::counter!("sim.fault_channels").add(self.faults.len() as u64);
        let mut channels: Vec<Vec<f64>> = capture.channels().to_vec();
        for (mic, fault) in &self.faults {
            assert!(
                *mic < channels.len(),
                "fault names microphone {mic} but the capture has {} channels",
                channels.len()
            );
            let channel_seed = self
                .seed
                .wrapping_add((*mic as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            channels[*mic] = fault.apply_channel(&channels[*mic], channel_seed);
        }
        BeepCapture::new(channels, capture.sample_rate(), capture.preroll())
    }

    /// Applies the plan to a whole beep train — the same hardware fault
    /// damages every beep of a session.
    pub fn apply_train(&self, captures: &[BeepCapture]) -> Vec<BeepCapture> {
        self.apply_train_traced(echo_obs::TraceCtx::none(), captures)
    }

    /// [`FaultPlan::apply_train`] recording a `sim.fault_inject` trace
    /// span under `ctx`, tagged with the injected-microphone bitmask so
    /// a trace of a fault experiment shows *which* channels were
    /// damaged before the pipeline saw them.
    pub fn apply_train_traced(
        &self,
        ctx: echo_obs::TraceCtx,
        captures: &[BeepCapture],
    ) -> Vec<BeepCapture> {
        if self.is_empty() {
            return captures.iter().map(|c| self.apply(c)).collect();
        }
        echo_obs::counter!("sim.fault_trains").inc();
        let mut tspan = ctx.child("sim.fault_inject");
        let mask = self
            .faulted_mics()
            .iter()
            .fold(0u64, |m, &mic| m | 1u64 << mic.min(63));
        tspan.attr_u64("fault_mask", mask);
        tspan.attr_u64("beeps", captures.len() as u64);
        captures.iter().map(|c| self.apply(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic 4-channel capture with per-channel structure:
    /// a windowed tone plus a distinct amplitude per channel.
    fn capture() -> BeepCapture {
        let n = 512;
        let channels: Vec<Vec<f64>> = (0..4)
            .map(|ch| {
                let amp = 0.5 + 0.2 * ch as f64;
                (0..n)
                    .map(|t| {
                        amp * (0.07 * t as f64).sin() * (-((t as f64) - 200.0).abs() / 150.0).exp()
                    })
                    .collect()
            })
            .collect();
        BeepCapture::new(channels, 48_000.0, 64)
    }

    fn energy(xs: &[f64]) -> f64 {
        xs.iter().map(|x| x * x).sum()
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let cap = capture();
        for kind in FaultKind::ALL {
            let plan = FaultPlan::uniform(kind, 0.8, &[0, 2], 42);
            assert_eq!(
                plan.apply(&cap),
                plan.apply(&cap),
                "{kind:?} must be deterministic"
            );
        }
    }

    #[test]
    fn burst_seed_changes_the_damage() {
        let cap = capture();
        let a = FaultPlan::uniform(FaultKind::BurstInterference, 1.0, &[1], 1).apply(&cap);
        let b = FaultPlan::uniform(FaultKind::BurstInterference, 1.0, &[1], 2).apply(&cap);
        assert_ne!(a.channel(1), b.channel(1));
    }

    #[test]
    fn dead_channel_has_zero_energy_and_spares_the_rest() {
        let cap = capture();
        let out = FaultPlan::new(5)
            .with_fault(2, ChannelFault::Dead)
            .apply(&cap);
        assert_eq!(energy(out.channel(2)), 0.0);
        for ch in [0, 1, 3] {
            assert_eq!(
                out.channel(ch),
                cap.channel(ch),
                "channel {ch} must be untouched"
            );
        }
    }

    #[test]
    fn clipping_bounds_the_amplitude() {
        let cap = capture();
        let fraction = 0.3;
        let out = FaultPlan::new(5)
            .with_fault(1, ChannelFault::Clipping { fraction })
            .apply(&cap);
        let peak = cap.channel(1).iter().fold(0.0f64, |a, &x| a.max(x.abs()));
        let rail = fraction * peak;
        assert!(out.channel(1).iter().all(|&x| x.abs() <= rail + 1e-15));
        // It actually clipped something.
        assert!(out.channel(1).iter().any(|&x| x.abs() == rail));
    }

    #[test]
    fn clock_skew_preserves_length_and_metadata() {
        let cap = capture();
        let out = FaultPlan::new(5)
            .with_fault(0, ChannelFault::ClockSkew { ppm: 5_000.0 })
            .apply(&cap);
        assert_eq!(out.len(), cap.len());
        assert_eq!(out.sample_rate(), cap.sample_rate());
        assert_eq!(out.preroll(), cap.preroll());
        assert_ne!(out.channel(0), cap.channel(0), "skew must move samples");
    }

    #[test]
    fn gain_drift_fades_the_tail_but_not_the_head() {
        let cap = capture();
        let out = FaultPlan::new(5)
            .with_fault(3, ChannelFault::GainDrift { db: -30.0 })
            .apply(&cap);
        assert_eq!(
            out.channel(3)[0],
            cap.channel(3)[0],
            "gain is 0 dB at t = 0"
        );
        let n = cap.len();
        let tail = |c: &BeepCapture| energy(&c.channel(3)[3 * n / 4..]);
        assert!(tail(&out) < tail(&cap) * 0.1, "tail must fade hard");
    }

    #[test]
    fn dc_offset_shifts_the_mean_by_the_requested_pedestal() {
        let cap = capture();
        let scale = 1.5;
        let out = FaultPlan::new(5)
            .with_fault(0, ChannelFault::DcOffset { scale })
            .apply(&cap);
        let peak = cap.channel(0).iter().fold(0.0f64, |a, &x| a.max(x.abs()));
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let shift = mean(out.channel(0)) - mean(cap.channel(0));
        assert!((shift - scale * peak).abs() < 1e-12);
    }

    #[test]
    fn burst_raises_energy_only_inside_one_window() {
        let cap = capture();
        let out = FaultPlan::new(9)
            .with_fault(1, ChannelFault::BurstInterference { level: 4.0 })
            .apply(&cap);
        assert!(energy(out.channel(1)) > 2.0 * energy(cap.channel(1)));
        // The burst covers one eighth of the window: most samples are
        // untouched.
        let changed = out
            .channel(1)
            .iter()
            .zip(cap.channel(1))
            .filter(|(a, b)| a != b)
            .count();
        assert!(changed <= cap.len() / 8 + 1, "changed {changed}");
        assert!(changed > 0);
    }

    #[test]
    fn severity_zero_is_nearly_harmless_severity_one_is_not() {
        let cap = capture();
        for kind in [
            FaultKind::GainDrift,
            FaultKind::ClockSkew,
            FaultKind::BurstInterference,
        ] {
            let mild = FaultPlan::uniform(kind, 0.0, &[0], 3).apply(&cap);
            let harsh = FaultPlan::uniform(kind, 1.0, &[0], 3).apply(&cap);
            let dist = |a: &BeepCapture| {
                a.channel(0)
                    .iter()
                    .zip(cap.channel(0))
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum::<f64>()
            };
            assert!(
                dist(&mild) < dist(&harsh),
                "{kind:?}: severity must scale the damage"
            );
        }
    }

    #[test]
    fn apply_train_damages_every_beep() {
        let caps = vec![capture(), capture()];
        let plan = FaultPlan::uniform(FaultKind::Dead, 1.0, &[1], 0);
        let out = plan.apply_train(&caps);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|c| energy(c.channel(1)) == 0.0));
    }

    #[test]
    fn plan_helpers() {
        assert!(FaultPlan::none().is_empty());
        let plan = FaultPlan::uniform(FaultKind::Clipping, 0.5, &[4, 1, 1], 8);
        assert!(!plan.is_empty());
        assert_eq!(plan.faulted_mics(), vec![1, 4]);
        assert!(plan
            .faults
            .iter()
            .all(|(_, f)| f.kind() == FaultKind::Clipping));
    }

    #[test]
    #[should_panic(expected = "fault names microphone")]
    fn out_of_range_mic_panics() {
        let cap = capture();
        let _ = FaultPlan::new(0)
            .with_fault(9, ChannelFault::Dead)
            .apply(&cap);
    }
}
