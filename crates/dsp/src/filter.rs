//! IIR filtering: biquad sections and Butterworth designs.
//!
//! EchoImage band-passes every recording to the 2–3 kHz probing band before
//! any further processing (paper §V-B: "A 2 to 3 kHz Butterworth bandpass
//! filter is then applied to remove environmental noises"). This module
//! implements classic Butterworth low-pass, high-pass and band-pass designs
//! from the analog prototype via the bilinear transform, realised as
//! cascaded second-order sections (SOS) for numerical robustness.

use crate::complex::Complex;

/// One second-order IIR section with normalised `a0 = 1`:
///
/// `y[n] = b0·x[n] + b1·x[n−1] + b2·x[n−2] − a1·y[n−1] − a2·y[n−2]`
///
/// implemented in transposed direct form II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Biquad {
    /// Feed-forward coefficients.
    pub b0: f64,
    /// Feed-forward coefficient for `x[n−1]`.
    pub b1: f64,
    /// Feed-forward coefficient for `x[n−2]`.
    pub b2: f64,
    /// Feedback coefficient for `y[n−1]`.
    pub a1: f64,
    /// Feedback coefficient for `y[n−2]`.
    pub a2: f64,
}

impl Biquad {
    /// Identity section (passes the input through unchanged).
    pub const IDENTITY: Biquad = Biquad {
        b0: 1.0,
        b1: 0.0,
        b2: 0.0,
        a1: 0.0,
        a2: 0.0,
    };

    /// Frequency response at normalised angular frequency `w` (rad/sample).
    pub fn response(&self, w: f64) -> Complex {
        let z1 = Complex::cis(-w);
        let z2 = Complex::cis(-2.0 * w);
        let num = Complex::from_real(self.b0) + z1 * self.b1 + z2 * self.b2;
        let den = Complex::ONE + z1 * self.a1 + z2 * self.a2;
        num / den
    }

    /// Returns `true` when both poles are strictly inside the unit circle.
    pub fn is_stable(&self) -> bool {
        // Jury stability criterion for a real second-order polynomial
        // z² + a1 z + a2.
        self.a2 < 1.0 && self.a2 > -1.0 && self.a1.abs() < 1.0 + self.a2
    }
}

/// A cascade of biquad sections with per-instance filter state.
///
/// # Example
///
/// Band-pass the paper's probing band and check the stop-band rejection:
///
/// ```
/// use echo_dsp::filter::SosFilter;
///
/// let bp = SosFilter::butterworth_bandpass(4, 2_000.0, 3_000.0, 48_000.0);
/// let passband = bp.gain_at(2_500.0, 48_000.0);
/// let stopband = bp.gain_at(500.0, 48_000.0);
/// assert!(passband > 0.9);
/// assert!(stopband < 1e-3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SosFilter {
    sections: Vec<Biquad>,
    state: Vec<[f64; 2]>,
}

impl SosFilter {
    /// Builds a cascade from explicit sections.
    pub fn from_sections(sections: Vec<Biquad>) -> Self {
        let state = vec![[0.0; 2]; sections.len()];
        SosFilter { sections, state }
    }

    /// Designs an order-`order` Butterworth low-pass with cutoff `fc` Hz.
    ///
    /// # Panics
    ///
    /// Panics if `order == 0` or `fc` is not in `(0, fs/2)`.
    pub fn butterworth_lowpass(order: usize, fc: f64, fs: f64) -> Self {
        assert!(order > 0, "filter order must be at least 1");
        check_edge(fc, fs);
        let wc = prewarp(fc, fs);
        let poles: Vec<Complex> = prototype_poles(order).iter().map(|&p| p * wc).collect();
        let zeros = vec![]; // all at infinity → z = −1 after bilinear
        build_digital(poles, zeros, order, fs, 0.0)
    }

    /// Designs an order-`order` Butterworth high-pass with cutoff `fc` Hz.
    ///
    /// # Panics
    ///
    /// Panics if `order == 0` or `fc` is not in `(0, fs/2)`.
    #[cfg(test)]
    pub fn butterworth_highpass(order: usize, fc: f64, fs: f64) -> Self {
        assert!(order > 0, "filter order must be at least 1");
        check_edge(fc, fs);
        let wc = prewarp(fc, fs);
        let poles: Vec<Complex> = prototype_poles(order)
            .iter()
            .map(|&p| Complex::from_real(wc) / p)
            .collect();
        // n analog zeros at s = 0 → z = +1 after bilinear.
        let zeros = vec![Complex::ONE; order];
        build_digital(poles, zeros, 0, fs, std::f64::consts::PI)
    }

    /// Designs a Butterworth band-pass from an order-`order` low-pass
    /// prototype; the digital filter has `2·order` poles.
    ///
    /// `f_low` and `f_high` are the −3 dB band edges in Hz.
    ///
    /// # Panics
    ///
    /// Panics if `order == 0`, the edges are not ordered, or either edge is
    /// outside `(0, fs/2)`.
    pub fn butterworth_bandpass(order: usize, f_low: f64, f_high: f64, fs: f64) -> Self {
        assert!(order > 0, "filter order must be at least 1");
        assert!(f_low < f_high, "band edges must satisfy f_low < f_high");
        check_edge(f_low, fs);
        check_edge(f_high, fs);
        let w1 = prewarp(f_low, fs);
        let w2 = prewarp(f_high, fs);
        let w0 = (w1 * w2).sqrt();
        let bw = w2 - w1;

        // Each prototype pole p maps to the two roots of s² − (bw·p)s + w0².
        let mut poles = Vec::with_capacity(2 * order);
        for &p in &prototype_poles(order) {
            let bp = p * bw;
            let disc = (bp * bp - Complex::from_real(4.0 * w0 * w0)).sqrt();
            poles.push((bp + disc) * 0.5);
            poles.push((bp - disc) * 0.5);
        }
        // n analog zeros at s = 0 → z = +1; n at infinity → z = −1.
        let zeros = vec![Complex::ONE; order];
        // Reference frequency: the digital image of the analog centre w0.
        let w_ref = 2.0 * (w0 / (2.0 * fs)).atan();
        build_digital(poles, zeros, order, fs, w_ref)
    }

    /// The cascaded sections.
    pub fn sections(&self) -> &[Biquad] {
        &self.sections
    }

    /// Resets the internal filter state to zero.
    pub fn reset(&mut self) {
        for s in &mut self.state {
            *s = [0.0; 2];
        }
    }

    /// Processes one sample through the cascade, updating state.
    pub fn process(&mut self, x: f64) -> f64 {
        cascade(&self.sections, &mut self.state, x)
    }

    /// Filters a whole signal starting from zero state (the instance state
    /// is left untouched).
    pub fn filter(&self, signal: &[f64]) -> Vec<f64> {
        let mut work = self.clone();
        work.reset();
        signal.iter().map(|&x| work.process(x)).collect()
    }

    /// Zero-phase filtering: forward pass, then a reversed pass, which
    /// squares the magnitude response and cancels the phase delay.
    pub fn filtfilt(&self, signal: &[f64]) -> Vec<f64> {
        let mut y = self.filter(signal);
        y.reverse();
        let mut z = self.filter(&y);
        z.reverse();
        z
    }

    /// [`SosFilter::filtfilt`] of every channel of a multichannel
    /// signal, bit-identical channel by channel. The cascade runs over
    /// the channels in SIMD lanes ([`crate::simd::sos_filtfilt`]), which
    /// is why a beep's channels are filtered in one call.
    pub fn filtfilt_channels(&self, channels: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let mut out = channels.to_vec();
        crate::simd::sos_filtfilt(&self.sections, &mut out);
        out
    }

    /// Complex frequency response at `f` Hz for sample rate `fs`.
    pub fn response_at(&self, f: f64, fs: f64) -> Complex {
        let w = 2.0 * std::f64::consts::PI * f / fs;
        self.sections
            .iter()
            .fold(Complex::ONE, |acc, s| acc * s.response(w))
    }

    /// Magnitude response at `f` Hz.
    pub fn gain_at(&self, f: f64, fs: f64) -> f64 {
        self.response_at(f, fs).abs()
    }

    /// Returns `true` when every section is stable.
    pub fn is_stable(&self) -> bool {
        self.sections.iter().all(Biquad::is_stable)
    }
}

/// One sample through the cascade `sections` in transposed direct form
/// II, updating `state` (one `[s1, s2]` pair per section). Every
/// filtering path runs this arithmetic; the AVX2 lane kernel does the
/// same operations in the same order per lane.
#[inline]
pub(crate) fn cascade(sections: &[Biquad], state: &mut [[f64; 2]], x: f64) -> f64 {
    let mut v = x;
    for (sec, st) in sections.iter().zip(state.iter_mut()) {
        let y = sec.b0 * v + st[0];
        st[0] = sec.b1 * v - sec.a1 * y + st[1];
        st[1] = sec.b2 * v - sec.a2 * y;
        v = y;
    }
    v
}

/// Butterworth analog prototype poles (unit cutoff), all in the left
/// half-plane.
fn prototype_poles(order: usize) -> Vec<Complex> {
    (1..=order)
        .map(|k| {
            let theta =
                std::f64::consts::PI * (2.0 * k as f64 + order as f64 - 1.0) / (2.0 * order as f64);
            Complex::cis(theta)
        })
        .collect()
}

/// Bilinear-transform frequency pre-warping: analog rad/s matching digital
/// `fc` Hz exactly after the transform.
fn prewarp(fc: f64, fs: f64) -> f64 {
    2.0 * fs * (std::f64::consts::PI * fc / fs).tan()
}

fn check_edge(fc: f64, fs: f64) {
    assert!(
        fc.is_finite() && fc > 0.0 && fc < fs / 2.0,
        "cutoff must lie strictly between 0 and Nyquist"
    );
}

/// Maps analog poles/zeros to the z-plane, pads zeros at z = −1 up to the
/// pole count (`extra_minus_one` analog zeros at infinity), pairs
/// conjugates into sections, and normalises unit gain at `w_ref`.
fn build_digital(
    analog_poles: Vec<Complex>,
    analog_zeros: Vec<Complex>,
    extra_minus_one: usize,
    fs: f64,
    w_ref: f64,
) -> SosFilter {
    let bilinear = |s: Complex| {
        let k = Complex::from_real(2.0 * fs);
        (k + s) / (k - s)
    };
    let zpoles: Vec<Complex> = analog_poles.into_iter().map(bilinear).collect();
    let mut zzeros: Vec<Complex> = analog_zeros.into_iter().map(bilinear).collect();
    zzeros.extend(std::iter::repeat_n(
        Complex::new(-1.0, 0.0),
        extra_minus_one,
    ));
    // Low-pass case: all zeros at infinity.
    while zzeros.len() < zpoles.len() {
        zzeros.push(Complex::new(-1.0, 0.0));
    }

    let pole_pairs = pair_conjugates(zpoles);
    let zero_pairs = pair_zeros_for(&pole_pairs, zzeros);

    let mut sections = Vec::with_capacity(pole_pairs.len());
    for (pp, zp) in pole_pairs.iter().zip(zero_pairs.iter()) {
        let (a1, a2) = quad_coeffs(*pp);
        let (b1, b2) = match zp {
            Some(pair) => quad_coeffs(*pair),
            None => (0.0, 0.0),
        };
        let mut sec = Biquad {
            b0: 1.0,
            b1,
            b2,
            a1,
            a2,
        };
        if zp.is_none() {
            // Single pole leftover from an odd order: first-order section.
            sec.b2 = 0.0;
        }
        // Per-section unit gain at the reference frequency.
        let g = sec.response(w_ref).abs();
        assert!(g.is_finite() && g > 0.0, "degenerate section gain");
        sec.b0 /= g;
        sec.b1 /= g;
        sec.b2 /= g;
        sections.push(sec);
    }
    SosFilter::from_sections(sections)
}

/// Groups roots into conjugate (or real) pairs; a trailing unpaired real
/// root becomes a half-pair `(r, None)` encoded as `(r, r·0)`.
fn pair_conjugates(mut roots: Vec<Complex>) -> Vec<(Complex, Option<Complex>)> {
    // Sort so conjugates are adjacent: by real part, then |imag|.
    roots.sort_by(|a, b| {
        a.re.total_cmp(&b.re)
            .then(a.im.abs().total_cmp(&b.im.abs()))
            .then(a.im.total_cmp(&b.im))
    });
    let mut out = Vec::new();
    let mut complexes: Vec<Complex> = Vec::new();
    let mut reals: Vec<Complex> = Vec::new();
    for r in roots {
        if r.im.abs() < 1e-10 {
            reals.push(Complex::from_real(r.re));
        } else {
            complexes.push(r);
        }
    }
    // Conjugates are adjacent after the sort (same re, ±im).
    let mut it = complexes.into_iter().peekable();
    while let Some(a) = it.next() {
        match it.peek() {
            Some(b) if (b.re - a.re).abs() < 1e-8 && (b.im + a.im).abs() < 1e-8 => {
                let b = it.next().expect("peeked");
                out.push((a, Some(b)));
            }
            _ => {
                // Numerical asymmetry: force-pair with the explicit conjugate.
                out.push((a, Some(a.conj())));
            }
        }
    }
    let mut rit = reals.into_iter();
    while let Some(a) = rit.next() {
        match rit.next() {
            Some(b) => out.push((a, Some(b))),
            None => out.push((a, None)),
        }
    }
    out
}

/// Assigns zeros to pole pairs. For Butterworth designs the zeros are all
/// at ±1, so any grouping is valid; we deal them out round-robin mixing +1
/// and −1 zeros per section (the band-pass case), which keeps per-section
/// gains moderate.
fn pair_zeros_for(
    pole_pairs: &[(Complex, Option<Complex>)],
    zeros: Vec<Complex>,
) -> Vec<Option<(Complex, Option<Complex>)>> {
    let mut plus: Vec<Complex> = zeros.iter().copied().filter(|z| z.re > 0.0).collect();
    let mut minus: Vec<Complex> = zeros.iter().copied().filter(|z| z.re <= 0.0).collect();
    let mut out = Vec::with_capacity(pole_pairs.len());
    for (_, partner) in pole_pairs {
        let want = if partner.is_some() { 2 } else { 1 };
        let mut picked: Vec<Complex> = Vec::with_capacity(2);
        for _ in 0..want {
            if plus.len() >= minus.len() {
                if let Some(z) = plus.pop() {
                    picked.push(z);
                    continue;
                }
            }
            if let Some(z) = minus.pop() {
                picked.push(z);
            } else if let Some(z) = plus.pop() {
                picked.push(z);
            }
        }
        out.push(match picked.len() {
            0 => None,
            1 => Some((picked[0], None)),
            _ => Some((picked[0], Some(picked[1]))),
        });
    }
    out
}

/// Coefficients `(c1, c2)` of `z² + c1·z + c2` with the given roots.
fn quad_coeffs(pair: (Complex, Option<Complex>)) -> (f64, f64) {
    match pair {
        (a, Some(b)) => {
            let sum = a + b;
            let prod = a * b;
            (-sum.re, prod.re)
        }
        (a, None) => (-a.re, 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 48_000.0;

    fn db(g: f64) -> f64 {
        20.0 * g.log10()
    }

    #[test]
    fn lowpass_dc_gain_is_unity() {
        for order in 1..=6 {
            let f = SosFilter::butterworth_lowpass(order, 1_000.0, FS);
            assert!((f.gain_at(1e-6, FS) - 1.0).abs() < 1e-6, "order {order}");
            assert!(f.is_stable(), "order {order} unstable");
        }
    }

    #[test]
    fn lowpass_minus_3db_at_cutoff() {
        for order in [2usize, 4, 5] {
            let f = SosFilter::butterworth_lowpass(order, 2_000.0, FS);
            let g = db(f.gain_at(2_000.0, FS));
            assert!((g + 3.0103).abs() < 0.2, "order {order}: {g} dB at cutoff");
        }
    }

    #[test]
    fn lowpass_rolloff_rate() {
        // Order-n Butterworth falls ~6n dB per octave past cutoff.
        let f = SosFilter::butterworth_lowpass(4, 1_000.0, FS);
        let g2k = db(f.gain_at(2_000.0, FS));
        let g4k = db(f.gain_at(4_000.0, FS));
        assert!(g2k < -20.0);
        assert!(g4k - g2k < -20.0, "octave drop was {}", g4k - g2k);
    }

    #[test]
    fn highpass_nyquist_gain_is_unity() {
        for order in 1..=6 {
            let f = SosFilter::butterworth_highpass(order, 2_000.0, FS);
            assert!(
                (f.gain_at(FS / 2.0 * 0.999, FS) - 1.0).abs() < 1e-3,
                "order {order}"
            );
            // An order-n Butterworth HP attenuates 100 Hz by ~(100/2000)^n.
            let bound = 1.2 * (100.0f64 / 2_000.0).powi(order as i32);
            assert!(f.gain_at(100.0, FS) < bound, "order {order} leaks DC");
            assert!(f.is_stable());
        }
    }

    #[test]
    fn bandpass_passes_band_and_rejects_stopbands() {
        let f = SosFilter::butterworth_bandpass(4, 2_000.0, 3_000.0, FS);
        assert!(f.is_stable());
        assert!(f.gain_at(2_500.0, FS) > 0.95, "centre gain");
        // −3 dB (±tolerance) at the band edges.
        assert!((db(f.gain_at(2_000.0, FS)) + 3.0).abs() < 1.0);
        assert!((db(f.gain_at(3_000.0, FS)) + 3.0).abs() < 1.0);
        // Strong rejection away from the band.
        assert!(db(f.gain_at(500.0, FS)) < -60.0);
        assert!(db(f.gain_at(1_000.0, FS)) < -40.0);
        assert!(db(f.gain_at(6_000.0, FS)) < -40.0);
        assert!(db(f.gain_at(10_000.0, FS)) < -60.0);
    }

    #[test]
    fn bandpass_odd_prototype_order() {
        let f = SosFilter::butterworth_bandpass(3, 2_000.0, 3_000.0, FS);
        assert!(f.is_stable());
        assert!(f.gain_at(2_450.0, FS) > 0.9);
        assert!(f.gain_at(800.0, FS) < 1e-2);
    }

    #[test]
    fn filtering_sine_matches_frequency_response() {
        let f = SosFilter::butterworth_bandpass(4, 2_000.0, 3_000.0, FS);
        for freq in [500.0, 2_500.0, 8_000.0] {
            let n = 9_600; // 0.2 s
            let x: Vec<f64> = (0..n)
                .map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / FS).sin())
                .collect();
            let y = f.filter(&x);
            // Measure steady-state RMS on the back half (transient settled).
            let rms = |s: &[f64]| (s.iter().map(|v| v * v).sum::<f64>() / s.len() as f64).sqrt();
            let measured = rms(&y[n / 2..]) / rms(&x[n / 2..]);
            let expected = f.gain_at(freq, FS);
            assert!(
                (measured - expected).abs() < 0.02 + 0.05 * expected,
                "{freq} Hz: measured {measured}, expected {expected}"
            );
        }
    }

    #[test]
    fn impulse_response_decays() {
        let f = SosFilter::butterworth_bandpass(4, 2_000.0, 3_000.0, FS);
        let mut impulse = vec![0.0; 4_800];
        impulse[0] = 1.0;
        let h = f.filter(&impulse);
        let head: f64 = h[..480].iter().map(|v| v.abs()).sum();
        let tail: f64 = h[4_320..].iter().map(|v| v.abs()).sum();
        assert!(tail < head * 1e-6, "impulse response does not decay");
    }

    #[test]
    fn filtfilt_has_zero_phase() {
        // A band-centre sine should come back essentially unshifted.
        let f = SosFilter::butterworth_bandpass(2, 2_000.0, 3_000.0, FS);
        let freq = 2_450.0;
        let n = 9_600;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / FS).sin())
            .collect();
        let y = f.filtfilt(&x);
        // Compare mid-signal correlation at zero lag vs ±2 samples.
        let dot = |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
        let mid = n / 2;
        let span = 2_000;
        let c0 = dot(&x[mid..mid + span], &y[mid..mid + span]);
        let cp = dot(&x[mid..mid + span], &y[mid + 2..mid + 2 + span]);
        let cm = dot(&x[mid..mid + span], &y[mid - 2..mid - 2 + span]);
        assert!(c0 > cp && c0 > cm, "phase not cancelled: {c0} {cp} {cm}");
    }

    #[test]
    fn process_is_stateful_and_reset_clears() {
        let mut f = SosFilter::butterworth_lowpass(2, 1_000.0, FS);
        let y1 = f.process(1.0);
        let y2 = f.process(0.0);
        assert_ne!(y2, 0.0, "state should carry over");
        f.reset();
        let y1b = f.process(1.0);
        assert_eq!(y1, y1b, "reset must restore initial state");
    }

    #[test]
    #[should_panic(expected = "Nyquist")]
    fn rejects_cutoff_above_nyquist() {
        let _ = SosFilter::butterworth_lowpass(4, 30_000.0, FS);
    }

    #[test]
    #[should_panic(expected = "f_low < f_high")]
    fn rejects_inverted_band() {
        let _ = SosFilter::butterworth_bandpass(4, 3_000.0, 2_000.0, FS);
    }

    #[test]
    fn biquad_stability_check() {
        assert!(Biquad::IDENTITY.is_stable());
        let unstable = Biquad {
            b0: 1.0,
            b1: 0.0,
            b2: 0.0,
            a1: -2.1,
            a2: 1.05,
        };
        assert!(!unstable.is_stable());
    }
}
