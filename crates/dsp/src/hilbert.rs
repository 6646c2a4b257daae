//! Analytic signals and envelope detection.
//!
//! The paper tracks "the overall trend changes" of the matched-filter
//! output by taking its envelope (§V-B, `E_l(t)`). We compute envelopes as
//! the magnitude of the analytic signal obtained with a Hilbert transform,
//! optionally smoothed with a short moving average.

use crate::complex::Complex;
use crate::plan::{fft_plan, FftScratch};

/// Computes the analytic signal `x + i·H{x}` of a real signal.
///
/// Implemented in the frequency domain: positive frequencies are doubled,
/// negative frequencies zeroed. Works for any length thanks to the
/// Bluestein FFT.
///
/// # Example
///
/// ```
/// use echo_dsp::hilbert::analytic_signal;
///
/// // The analytic signal of cos(wt) is e^{iwt}: unit magnitude.
/// let n = 256;
/// let x: Vec<f64> = (0..n)
///     .map(|i| (2.0 * std::f64::consts::PI * 8.0 * i as f64 / n as f64).cos())
///     .collect();
/// let a = analytic_signal(&x);
/// for v in &a[10..n - 10] {
///     assert!((v.abs() - 1.0).abs() < 1e-6);
/// }
/// ```
pub fn analytic_signal(signal: &[f64]) -> Vec<Complex> {
    analytic_signal_with(signal, &mut FftScratch::new())
}

/// [`analytic_signal`] reusing caller scratch across calls.
///
/// Callers transforming many same-length channels avoid re-allocating
/// the Bluestein convolution buffer. Output is identical to
/// [`analytic_signal`]; the transforms go through the process-wide plan
/// cache either way. The pipeline's per-beep transforms use
/// [`analytic_signal_padded_with`] instead, which never runs Bluestein.
pub fn analytic_signal_with(signal: &[f64], scratch: &mut FftScratch) -> Vec<Complex> {
    let n = signal.len();
    if n == 0 {
        return Vec::new();
    }
    let plan = fft_plan(n);
    let mut spec: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
    plan.fft_with(&mut spec, scratch);
    // Single-sided spectrum weighting: DC (and Nyquist for even n) stay
    // unscaled, positive frequencies double, negative frequencies zero.
    let half = n / 2;
    let dbl_end = if n.is_multiple_of(2) { half } else { half + 1 };
    for x in &mut spec[1..dbl_end] {
        *x *= 2.0;
    }
    spec[half + 1..].fill(Complex::ZERO);
    plan.ifft_with(&mut spec, scratch);
    spec
}

/// Analytic signal of the zero-padded input: `signal` is padded to the
/// next power of two, transformed on the radix-2 path, and the result
/// truncated back to the input length.
///
/// For power-of-two lengths this is bit-identical to
/// [`analytic_signal_with`] (the padding is a no-op). For any other
/// length it computes the analytic signal *of the padded signal* — away
/// from the last few samples this tracks the unpadded transform
/// closely, while skipping Bluestein's two extra double-length
/// convolution transforms (~5× the work of a direct radix-2 pair).
/// Ranging and acoustic imaging both read a beep's signal well inside
/// the capture (envelope peaks, echo gates a few hundred samples past
/// the preroll), so the pipeline computes this variant once per beep
/// channel and both stages share it.
pub fn analytic_signal_padded_with(signal: &[f64], scratch: &mut FftScratch) -> Vec<Complex> {
    let n = signal.len();
    if n == 0 {
        return Vec::new();
    }
    let size = crate::fft::next_pow2(n);
    let plan = fft_plan(size);
    let mut spec: Vec<Complex> = Vec::with_capacity(size);
    spec.extend(signal.iter().map(|&x| Complex::from_real(x)));
    spec.resize(size, Complex::ZERO);
    plan.fft_with(&mut spec, scratch);
    let half = size / 2;
    // A one-sample signal has `half = 0`, and its one bin is DC.
    for x in &mut spec[1..half.max(1)] {
        *x *= 2.0;
    }
    spec[half + 1..].fill(Complex::ZERO);
    plan.ifft_with(&mut spec, scratch);
    spec.truncate(n);
    spec
}

/// [`analytic_signal_padded_with`] with one-shot scratch.
pub fn analytic_signal_padded(signal: &[f64]) -> Vec<Complex> {
    analytic_signal_padded_with(signal, &mut FftScratch::new())
}

/// Envelope of a real signal: `|analytic(x)|`.
pub fn envelope(signal: &[f64]) -> Vec<f64> {
    analytic_signal(signal)
        .into_iter()
        .map(Complex::abs)
        .collect()
}

/// Centred moving average. Edges use the available (shorter) window.
pub fn moving_average(signal: &[f64], window: usize) -> Vec<f64> {
    let w = window.max(1);
    let half = w / 2;
    let n = signal.len();
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0);
    for &x in signal {
        prefix.push(prefix.last().unwrap() + x);
    }
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            (prefix[hi] - prefix[lo]) / (hi - lo) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn analytic_signal_of_cosine_is_phasor() {
        let n = 512;
        let k = 20.0;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * k * i as f64 / n as f64).cos())
            .collect();
        let a = analytic_signal(&x);
        for (i, v) in a.iter().enumerate() {
            assert!(
                (v.abs() - 1.0).abs() < 1e-9,
                "sample {i}: |a| = {}",
                v.abs()
            );
            let expected_phase = 2.0 * PI * k * i as f64 / n as f64;
            let diff = (v.arg() - expected_phase).rem_euclid(2.0 * PI);
            assert!(!(1e-6..=2.0 * PI - 1e-6).contains(&diff), "phase at {i}");
        }
    }

    #[test]
    fn real_part_is_preserved() {
        let x: Vec<f64> = (0..100).map(|i| ((i * 3) as f64 * 0.07).sin()).collect();
        let a = analytic_signal(&x);
        for (v, &orig) in a.iter().zip(x.iter()) {
            assert!((v.re - orig).abs() < 1e-9);
        }
    }

    #[test]
    fn envelope_recovers_amplitude_modulation() {
        // x(t) = (1 + 0.5 sin(w_m t)) cos(w_c t): envelope is the AM term.
        let n = 2_048;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                (1.0 + 0.5 * (2.0 * PI * 4.0 * t).sin()) * (2.0 * PI * 200.0 * t).cos()
            })
            .collect();
        let e = envelope(&x);
        for i in (100..n - 100).step_by(37) {
            let t = i as f64 / n as f64;
            let expect = 1.0 + 0.5 * (2.0 * PI * 4.0 * t).sin();
            assert!(
                (e[i] - expect).abs() < 0.02,
                "sample {i}: {} vs {expect}",
                e[i]
            );
        }
    }

    #[test]
    fn envelope_works_for_odd_lengths() {
        let n = 501;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 25.0 * i as f64 / n as f64).cos())
            .collect();
        let e = envelope(&x);
        for v in &e[20..n - 20] {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn envelope_is_nonnegative_upper_bound() {
        let x: Vec<f64> = (0..300)
            .map(|i| ((i as f64) * 0.3).sin() * ((i as f64) * 0.01).cos())
            .collect();
        let e = envelope(&x);
        for (ev, xv) in e.iter().zip(x.iter()) {
            assert!(*ev >= 0.0);
            assert!(*ev + 1e-9 >= xv.abs());
        }
    }

    #[test]
    fn moving_average_of_constant_is_constant() {
        let x = vec![3.0; 40];
        let y = moving_average(&x, 7);
        assert!(y.iter().all(|&v| (v - 3.0).abs() < 1e-12));
    }

    #[test]
    fn moving_average_smooths_impulse() {
        let mut x = vec![0.0; 21];
        x[10] = 10.0;
        let y = moving_average(&x, 5);
        assert!((y[10] - 2.0).abs() < 1e-12);
        assert!((y[8] - 2.0).abs() < 1e-12);
        assert!(y[7].abs() < 1e-12);
    }

    #[test]
    fn padded_variant_is_bit_identical_for_pow2_lengths() {
        let n = 256;
        let x: Vec<f64> = (0..n).map(|i| ((i * 7) as f64 * 0.031).sin()).collect();
        let exact = analytic_signal(&x);
        let padded = analytic_signal_padded(&x);
        assert_eq!(exact.len(), padded.len());
        for (a, b) in exact.iter().zip(padded.iter()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn padded_variant_tracks_exact_envelope_away_from_edges() {
        // A windowed tone burst (zero at both ends, like a band-passed
        // beep capture): padding adds no discontinuity, so the padded
        // envelope tracks the Bluestein one everywhere that matters.
        let n = 3_360;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                let win = (PI * t).sin().powi(2);
                win * (2.0 * PI * 300.0 * t).cos()
            })
            .collect();
        let exact = analytic_signal(&x);
        let padded = analytic_signal_padded(&x);
        assert_eq!(padded.len(), n);
        for i in (n / 10)..(9 * n / 10) {
            assert!(
                (exact[i].abs() - padded[i].abs()).abs() < 1e-3,
                "sample {i}: exact {} vs padded {}",
                exact[i].abs(),
                padded[i].abs()
            );
        }
    }

    #[test]
    fn padded_variant_of_one_sample_is_that_sample() {
        let padded = analytic_signal_padded(&[0.25]);
        assert_eq!(padded.len(), 1);
        assert_eq!(padded[0].re, 0.25);
        assert_eq!(padded[0].im, 0.0);
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert!(analytic_signal(&[]).is_empty());
        assert!(analytic_signal_padded(&[]).is_empty());
        assert!(envelope(&[]).is_empty());
        assert!(moving_average(&[], 5).is_empty());
    }
}
