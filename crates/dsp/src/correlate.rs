//! Matched filtering and cross-correlation (paper Eq. 9).
//!
//! The distance estimator slides the known chirp across the beamformed
//! recording: `C_l(t) = (r̂_l ⋆ h)(t)` with `h(t) = s*(−t)`, i.e. the
//! cross-correlation of the recording with the transmitted chirp. The peak
//! index is the echo delay in samples. All correlations here run in
//! O(n log n) via the FFT.
//!
//! # Fast paths
//!
//! Three layers of reuse keep per-capture cost down:
//!
//! * every transform goes through the process-wide [`fft_plan`] cache, so
//!   twiddle tables are computed once per padded size;
//! * [`matched_filter`] packs its two *real* inputs into one complex
//!   signal (`z = signal + i·template`) and separates the spectra by
//!   conjugate symmetry — one forward FFT instead of two;
//! * a [`MatchedFilterPlan`] pins a fixed template (the transmitted
//!   chirp) and caches its spectrum per padded size, so a beep train pays
//!   one forward FFT *per capture* and none for the template. The
//!   `_with` variants additionally reuse caller scratch so the padded
//!   work buffer is allocated once per thread, not once per call.

use crate::complex::Complex;
use crate::fft::next_pow2;
use crate::plan::{fft_plan, FftPlan, FftScratch};
use std::sync::{Arc, Mutex};

/// Reusable padded work buffer for the correlation routines.
///
/// One scratch serves any mix of sizes; buffers grow to the largest size
/// seen and are reused across calls.
#[derive(Debug, Default)]
pub struct CorrelationScratch {
    buf: Vec<Complex>,
    fft: FftScratch,
}

impl CorrelationScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Packs two real signals into one complex buffer, transforms once, and
/// leaves the cross-correlation spectrum `A·conj(B)` in `scratch.buf`,
/// exploiting `A[k] = (Z[k] + Z̄[n−k])/2`, `B[k] = −i(Z[k] − Z̄[n−k])/2`.
fn packed_real_product(
    signal: &[f64],
    template: &[f64],
    plan: &FftPlan,
    scratch: &mut CorrelationScratch,
) {
    let size = plan.len();
    let z = &mut scratch.buf;
    z.clear();
    z.resize(size, Complex::ZERO);
    for (slot, &x) in z.iter_mut().zip(signal.iter()) {
        slot.re = x;
    }
    for (slot, &x) in z.iter_mut().zip(template.iter()) {
        slot.im = x;
    }
    plan.fft_with(z, &mut scratch.fft);

    // The product of two real-input spectra is Hermitian, so compute the
    // lower half and mirror the rest: P[size−k] = conj(P[k]).
    let half = size / 2;
    for k in 0..=half {
        let kr = if k == 0 { 0 } else { size - k };
        let zk = z[k];
        let zr = z[kr].conj();
        let a = (zk + zr) * 0.5;
        let d = zk - zr;
        let b = Complex::new(d.im * 0.5, -d.re * 0.5);
        let p = a * b.conj();
        z[k] = p;
        z[kr] = p.conj();
    }
}

/// Matched-filter output: cross-correlation of `signal` with `template`.
///
/// `out[k] = Σ_n signal[n + k] · template[n]` for `k` in
/// `0..signal.len()` — index `k` is the template's delay into the signal.
/// Lags where the template overhangs the end use the available overlap
/// (zero padding), matching the paper's sliding-window formulation.
///
/// # Panics
///
/// Panics if `template` is empty.
///
/// # Example
///
/// ```
/// use echo_dsp::correlate::matched_filter;
///
/// let template = [1.0, 2.0, 1.0];
/// let mut signal = vec![0.0; 32];
/// signal[10..13].copy_from_slice(&template);
/// let c = matched_filter(&signal, &template);
/// let best = c.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
/// assert_eq!(best, 10);
/// ```
pub fn matched_filter(signal: &[f64], template: &[f64]) -> Vec<f64> {
    assert!(!template.is_empty(), "matched filter needs a template");
    if signal.is_empty() {
        return Vec::new();
    }
    let size = next_pow2(signal.len() + template.len() - 1);
    matched_filter_with_plan(
        signal,
        template,
        &fft_plan(size),
        &mut CorrelationScratch::new(),
    )
}

/// [`matched_filter`] reusing a caller-provided plan and scratch.
///
/// `plan` must be for `next_pow2(signal.len() + template.len() − 1)`
/// points (fetch it once with [`fft_plan`] when filtering many captures
/// of the same length).
///
/// # Panics
///
/// Panics if `template` is empty or the plan length does not match.
pub fn matched_filter_with_plan(
    signal: &[f64],
    template: &[f64],
    plan: &FftPlan,
    scratch: &mut CorrelationScratch,
) -> Vec<f64> {
    assert!(!template.is_empty(), "matched filter needs a template");
    if signal.is_empty() {
        return Vec::new();
    }
    let size = next_pow2(signal.len() + template.len() - 1);
    assert_eq!(plan.len(), size, "plan sized for a different correlation");
    packed_real_product(signal, template, plan, scratch);
    plan.ifft_with(&mut scratch.buf, &mut scratch.fft);
    scratch.buf[..signal.len()].iter().map(|v| v.re).collect()
}

/// Matched filter for complex (e.g. beamformed analytic) signals.
///
/// `out[k] = Σ_n signal[n + k] · conj(template[n])`.
///
/// # Panics
///
/// Panics if `template` is empty.
pub fn matched_filter_complex(signal: &[Complex], template: &[Complex]) -> Vec<Complex> {
    assert!(!template.is_empty(), "matched filter needs a template");
    if signal.is_empty() {
        return Vec::new();
    }
    let n = signal.len();
    let m = template.len();
    let size = next_pow2(n + m - 1);
    let plan = fft_plan(size);
    let mut scratch = FftScratch::new();

    let mut a = signal.to_vec();
    a.resize(size, Complex::ZERO);
    let mut b = template.to_vec();
    b.resize(size, Complex::ZERO);

    plan.fft_with(&mut a, &mut scratch);
    plan.fft_with(&mut b, &mut scratch);
    for (x, y) in a.iter_mut().zip(&b) {
        *x *= y.conj();
    }
    plan.ifft_with(&mut a, &mut scratch);
    a.truncate(n);
    a
}

/// A matched filter with a pinned template whose spectrum is cached.
///
/// The EchoImage pipeline correlates every capture against the *same*
/// transmitted chirp (real samples for raw recordings, the analytic
/// chirp for beamformed signals). Rebuilding the template spectrum per
/// call wastes one forward FFT per capture; this plan computes it once
/// per padded size and shares it behind an [`Arc`], so steady-state
/// matched filtering is one forward and one inverse transform.
///
/// Complex outputs are **bit-identical** to [`matched_filter_complex`]:
/// the cached spectrum is the same transform that function runs, and the
/// multiply/inverse steps are unchanged. Real outputs agree with
/// [`matched_filter`] to floating-point rounding (that function uses the
/// packed-real transform, which rounds differently in the last bits).
///
/// # Example
///
/// ```
/// use echo_dsp::correlate::{matched_filter, MatchedFilterPlan};
///
/// let template = [1.0, 2.0, 1.0];
/// let plan = MatchedFilterPlan::new(&template);
/// let mut signal = vec![0.0; 32];
/// signal[10..13].copy_from_slice(&template);
/// let planned = plan.matched_filter(&signal);
/// let plain = matched_filter(&signal, &template);
/// for (a, b) in planned.iter().zip(plain.iter()) {
///     assert!((a - b).abs() < 1e-9);
/// }
/// ```
#[derive(Debug)]
pub struct MatchedFilterPlan {
    /// Template in complex form (imaginary parts zero for real templates).
    template: Vec<Complex>,
    /// Cached raw (un-conjugated) template spectra, one per padded size.
    spectra: Mutex<Vec<(usize, Arc<Vec<Complex>>)>>,
}

impl MatchedFilterPlan {
    /// Plans matched filtering against a real template.
    ///
    /// # Panics
    ///
    /// Panics if `template` is empty.
    pub fn new(template: &[f64]) -> Self {
        assert!(!template.is_empty(), "matched filter needs a template");
        Self {
            template: template.iter().map(|&x| Complex::from_real(x)).collect(),
            spectra: Mutex::new(Vec::new()),
        }
    }

    /// Plans matched filtering against a complex (e.g. analytic) template.
    ///
    /// # Panics
    ///
    /// Panics if `template` is empty.
    pub fn new_complex(template: &[Complex]) -> Self {
        assert!(!template.is_empty(), "matched filter needs a template");
        Self {
            template: template.to_vec(),
            spectra: Mutex::new(Vec::new()),
        }
    }

    /// Length of the pinned template in samples.
    pub fn template_len(&self) -> usize {
        self.template.len()
    }

    /// Padded FFT size used for a length-`n` signal.
    fn padded_size(&self, n: usize) -> usize {
        next_pow2(n + self.template.len() - 1)
    }

    /// The template spectrum for `size` points, computed on first use.
    fn spectrum(&self, size: usize) -> Arc<Vec<Complex>> {
        {
            let mut cache = self.spectra.lock().expect("template spectrum poisoned");
            if let Some(pos) = cache.iter().position(|(s, _)| *s == size) {
                let hit = cache.remove(pos);
                let spec = Arc::clone(&hit.1);
                cache.insert(0, hit);
                return spec;
            }
        }
        // Same transform matched_filter_complex runs on the padded
        // template, so downstream products are bit-identical.
        let mut b = self.template.clone();
        b.resize(size, Complex::ZERO);
        fft_plan(size).fft(&mut b);
        let spec = Arc::new(b);
        let mut cache = self.spectra.lock().expect("template spectrum poisoned");
        if !cache.iter().any(|(s, _)| *s == size) {
            cache.insert(0, (size, Arc::clone(&spec)));
            // A plan sees at most a handful of signal lengths; keep the
            // few most recent.
            cache.truncate(4);
        }
        spec
    }

    /// Cross-correlation of a real `signal` with the pinned template
    /// (same contract as [`matched_filter`]).
    pub fn matched_filter(&self, signal: &[f64]) -> Vec<f64> {
        self.matched_filter_with(signal, &mut CorrelationScratch::new())
    }

    /// [`MatchedFilterPlan::matched_filter`] reusing caller scratch.
    pub fn matched_filter_with(
        &self,
        signal: &[f64],
        scratch: &mut CorrelationScratch,
    ) -> Vec<f64> {
        if signal.is_empty() {
            return Vec::new();
        }
        let out = self.correlate_padded(
            signal.iter().map(|&x| Complex::from_real(x)),
            signal.len(),
            scratch,
        );
        out.iter().take(signal.len()).map(|v| v.re).collect()
    }

    /// Cross-correlation of a complex `signal` with the pinned template
    /// (same contract as [`matched_filter_complex`]).
    pub fn matched_filter_complex(&self, signal: &[Complex]) -> Vec<Complex> {
        self.matched_filter_complex_with(signal, &mut CorrelationScratch::new())
    }

    /// [`MatchedFilterPlan::matched_filter_complex`] reusing caller scratch.
    pub fn matched_filter_complex_with(
        &self,
        signal: &[Complex],
        scratch: &mut CorrelationScratch,
    ) -> Vec<Complex> {
        if signal.is_empty() {
            return Vec::new();
        }
        let out = self.correlate_padded(signal.iter().copied(), signal.len(), scratch);
        out[..signal.len()].to_vec()
    }

    /// Shared core: pad `signal` to the plan size, transform, multiply by
    /// the conjugated cached template spectrum, and invert. Returns a
    /// borrow of the scratch buffer.
    fn correlate_padded<'s>(
        &self,
        signal: impl Iterator<Item = Complex>,
        n: usize,
        scratch: &'s mut CorrelationScratch,
    ) -> &'s [Complex] {
        let size = self.padded_size(n);
        let plan = fft_plan(size);
        let spectrum = self.spectrum(size);
        let a = &mut scratch.buf;
        a.clear();
        a.extend(signal);
        a.resize(size, Complex::ZERO);
        plan.fft_with(a, &mut scratch.fft);
        // Identical op order to the unplanned path, so the planned
        // output is bit-identical.
        for (x, y) in a.iter_mut().zip(spectrum.iter()) {
            *x *= y.conj();
        }
        plan.ifft_with(a, &mut scratch.fft);
        a
    }
}

/// Normalised cross-correlation coefficient in `[-1, 1]` between two
/// equal-length signals (zero-lag Pearson correlation without mean removal).
///
/// Returns 0 when either signal has zero energy.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn normalized_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let dot: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
    let ea: f64 = a.iter().map(|x| x * x).sum();
    let eb: f64 = b.iter().map(|x| x * x).sum();
    if ea == 0.0 || eb == 0.0 {
        return 0.0;
    }
    dot / (ea.sqrt() * eb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chirp::LfmChirp;
    use crate::fft::{fft, ifft};

    #[test]
    fn matched_filter_locates_delayed_template() {
        let chirp = LfmChirp::new(2_000.0, 3_000.0, 0.002, 48_000.0);
        let s = chirp.samples();
        for delay in [0usize, 7, 100, 900] {
            let mut rx = vec![0.0; 1_200];
            for (i, &v) in s.iter().enumerate() {
                rx[delay + i] = v;
            }
            let c = matched_filter(&rx, &s);
            let best = c
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            assert_eq!(best, delay);
        }
    }

    #[test]
    fn matched_filter_separates_two_echoes() {
        let chirp = LfmChirp::new(2_000.0, 3_000.0, 0.002, 48_000.0);
        let s = chirp.samples();
        let mut rx = vec![0.0; 2_000];
        for (i, &v) in s.iter().enumerate() {
            rx[200 + i] += v;
            rx[700 + i] += 0.4 * v;
        }
        let c = matched_filter(&rx, &s);
        let peak_energy = s.iter().map(|v| v * v).sum::<f64>();
        assert!((c[200] - peak_energy).abs() < 1e-6 * peak_energy);
        assert!((c[700] - 0.4 * peak_energy).abs() < 1e-6 * peak_energy);
    }

    #[test]
    fn matched_filter_handles_partial_overlap_at_end() {
        let template = [1.0, 1.0, 1.0];
        let signal = [0.0, 0.0, 0.0, 1.0, 1.0];
        let c = matched_filter(&signal, &template);
        assert_eq!(c.len(), 5);
        assert!(
            (c[3] - 2.0).abs() < 1e-9,
            "tail overlap counts available samples"
        );
    }

    #[test]
    fn matched_filter_against_naive() {
        let signal: Vec<f64> = (0..50).map(|i| ((i * i) as f64 * 0.013).sin()).collect();
        let template: Vec<f64> = (0..7).map(|i| (i as f64 * 0.9).cos()).collect();
        let fast = matched_filter(&signal, &template);
        for k in 0..signal.len() {
            let mut acc = 0.0;
            for (n, &t) in template.iter().enumerate() {
                if k + n < signal.len() {
                    acc += signal[k + n] * t;
                }
            }
            assert!((fast[k] - acc).abs() < 1e-9, "lag {k}");
        }
    }

    #[test]
    fn complex_matched_filter_matches_real_one_for_real_input() {
        let signal: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
        let template: Vec<f64> = (0..9).map(|i| (i as f64 * 0.7).cos()).collect();
        let real = matched_filter(&signal, &template);
        let cs: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
        let ct: Vec<Complex> = template.iter().map(|&x| Complex::from_real(x)).collect();
        let cplx = matched_filter_complex(&cs, &ct);
        for (a, b) in real.iter().zip(cplx.iter()) {
            assert!((a - b.re).abs() < 1e-9);
            assert!(b.im.abs() < 1e-9);
        }
    }

    #[test]
    fn with_plan_variants_match_plain_calls_bitwise() {
        let signal: Vec<f64> = (0..300).map(|i| (i as f64 * 0.11).sin()).collect();
        let template: Vec<f64> = (0..31).map(|i| (i as f64 * 0.61).cos()).collect();
        let size = next_pow2(signal.len() + template.len() - 1);
        let plan = fft_plan(size);
        let mut scratch = CorrelationScratch::new();

        let mf = matched_filter(&signal, &template);
        let mf_planned = matched_filter_with_plan(&signal, &template, &plan, &mut scratch);
        // Scratch is dirty the second time — results must not change.
        let mf_again = matched_filter_with_plan(&signal, &template, &plan, &mut scratch);
        for planned in [&mf_planned, &mf_again] {
            assert_eq!(mf.len(), planned.len());
            for (a, b) in mf.iter().zip(planned.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// The pre-plan implementation of the complex matched filter (two
    /// forward FFTs per call), kept as the bitwise reference.
    fn matched_filter_complex_reference(signal: &[Complex], template: &[Complex]) -> Vec<Complex> {
        let n = signal.len();
        let size = next_pow2(n + template.len() - 1);
        let mut a = signal.to_vec();
        a.resize(size, Complex::ZERO);
        let mut b = template.to_vec();
        b.resize(size, Complex::ZERO);
        fft(&mut a);
        fft(&mut b);
        for (x, y) in a.iter_mut().zip(b.iter()) {
            *x *= y.conj();
        }
        ifft(&mut a);
        a.truncate(n);
        a
    }

    #[test]
    fn template_plan_is_bit_identical_to_reference_complex_path() {
        let signal: Vec<Complex> = (0..200)
            .map(|i| Complex::new((i as f64 * 0.23).sin(), (i as f64 * 0.17).cos()))
            .collect();
        let template: Vec<Complex> = (0..24)
            .map(|i| Complex::new((i as f64 * 0.7).cos(), (i as f64 * 0.3).sin()))
            .collect();
        let reference = matched_filter_complex_reference(&signal, &template);
        let unplanned = matched_filter_complex(&signal, &template);
        let plan = MatchedFilterPlan::new_complex(&template);
        let mut scratch = CorrelationScratch::new();
        let planned = plan.matched_filter_complex_with(&signal, &mut scratch);
        // Run again through the dirty scratch and cached spectrum.
        let planned_again = plan.matched_filter_complex_with(&signal, &mut scratch);
        for i in 0..signal.len() {
            for (a, b) in [
                (reference[i], unplanned[i]),
                (reference[i], planned[i]),
                (reference[i], planned_again[i]),
            ] {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "index {i}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "index {i}");
            }
        }
    }

    #[test]
    fn template_plan_real_paths_match_naive() {
        let signal: Vec<f64> = (0..150).map(|i| ((i * i) as f64 * 0.007).sin()).collect();
        let template: Vec<f64> = (0..11).map(|i| (i as f64 * 0.45).cos()).collect();
        let plan = MatchedFilterPlan::new(&template);
        assert_eq!(plan.template_len(), template.len());

        let mf = plan.matched_filter(&signal);
        for k in 0..signal.len() {
            let mut acc = 0.0;
            for (n, &t) in template.iter().enumerate() {
                if k + n < signal.len() {
                    acc += signal[k + n] * t;
                }
            }
            assert!((mf[k] - acc).abs() < 1e-9, "lag {k}");
        }
    }

    #[test]
    fn template_plan_caches_one_spectrum_per_size() {
        let template = [1.0, -0.5, 0.25];
        let plan = MatchedFilterPlan::new(&template);
        let _ = plan.matched_filter(&vec![0.5; 100]);
        let _ = plan.matched_filter(&vec![0.5; 100]);
        let _ = plan.matched_filter(&vec![0.5; 300]);
        let cached = plan.spectra.lock().unwrap().len();
        assert_eq!(cached, 2, "one spectrum per distinct padded size");
    }

    #[test]
    fn normalized_correlation_bounds() {
        let a: Vec<f64> = (0..32).map(|i| (i as f64 * 0.4).sin()).collect();
        assert!((normalized_correlation(&a, &a) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = a.iter().map(|x| -x).collect();
        assert!((normalized_correlation(&a, &neg) + 1.0).abs() < 1e-12);
        let zeros = vec![0.0; 32];
        assert_eq!(normalized_correlation(&a, &zeros), 0.0);
    }

    #[test]
    #[should_panic(expected = "template")]
    fn empty_template_panics() {
        let _ = matched_filter(&[1.0, 2.0], &[]);
    }
}
