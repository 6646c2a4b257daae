//! Scalar-vs-SIMD property suite for the dispatch kernels.
//!
//! Every kernel in `echo_dsp::simd` is exercised on random lengths —
//! deliberately including 0, 1 and non-multiples of the SIMD lane width
//! (2 complex / 4 real lanes per AVX2 vector) so the vector body *and*
//! the scalar tail are both hit — with seeded pseudo-random finite
//! values mixing magnitudes (large, tiny, exact zeros), comparing the
//! explicit-scalar path against the explicit-AVX2 path.
//!
//! # ULP policy
//!
//! The AVX2 kernels promise the scalar rounding bit-for-bit (they
//! vectorise across elements without reassociating within one, and use
//! no FMA), so every bound below is **0 ULP**. The bounds are spelled
//! per kernel anyway: a future kernel that legitimately reassociates
//! (e.g. a horizontal reduction) widens its own constant and documents
//! why, instead of quietly weakening the whole suite.
//!
//! On hosts without AVX2 the comparisons degenerate to scalar-vs-scalar
//! and pass trivially; CI's dispatch matrix runs the suite on AVX2
//! hardware.
//!
//! The suite also holds the imaging pixel kernel, `echo_dsp::gram`,
//! which has one scalar implementation and is not bit-identical to the
//! per-sample beam sum it replaced: it is checked against that sum,
//! written here, under its stated absolute error bound. And it pins
//! `find_peaks` to its original element-wise loop.

use echo_dsp::filter::{Biquad, SosFilter};
use echo_dsp::gram::GateGram;
use echo_dsp::peaks::{find_peaks, Peak};
use echo_dsp::simd::{
    self, gemm_tile2_with, gemm_tile_with, radix2_stages_with, sos_filtfilt_with, sqdist_f32_with,
    SimdPath,
};
use echo_dsp::Complex;
use proptest::prelude::*;

/// Per-kernel ULP bounds (see module docs — all exact today).
// `radix2_stages` fuses and pairs stages but keeps every butterfly's
// twiddle and operation order.
const ULP_BUTTERFLY: u64 = 0;
// `sos_filtfilt` vectorises across channels only: each lane is one
// channel's scalar cascade.
const ULP_SOS: u64 = 0;
const ULP_GEMM_TILE: u64 = 0;

/// Distance in units-in-the-last-place between two finite doubles,
/// treating `+0.0` and `−0.0` as equal. Any NaN or sign disagreement is
/// reported as `u64::MAX` so a 0-ULP bound fails loudly.
fn ulp_distance(a: f64, b: f64) -> u64 {
    if a == b {
        return 0;
    }
    if a.is_nan() || b.is_nan() || a.is_sign_positive() != b.is_sign_positive() {
        return u64::MAX;
    }
    a.to_bits().abs_diff(b.to_bits())
}

fn assert_ulp(a: f64, b: f64, bound: u64, what: &str) -> Result<(), TestCaseError> {
    let d = ulp_distance(a, b);
    prop_assert!(
        d <= bound,
        "{}: {:e} vs {:e} differ by {} ULP (bound {})",
        what,
        a,
        b,
        d,
        bound
    );
    Ok(())
}

fn assert_ulp_c(a: Complex, b: Complex, bound: u64, what: &str) -> Result<(), TestCaseError> {
    assert_ulp(a.re, b.re, bound, what)?;
    assert_ulp(a.im, b.im, bound, what)
}

/// The path pair under test: scalar always, AVX2 when the host has it.
fn simd_path() -> SimdPath {
    if simd::avx2_supported() {
        SimdPath::Avx2
    } else {
        SimdPath::Scalar
    }
}

/// Seeded finite value stream mixing magnitudes: mostly O(1)–O(10³)
/// values, some subnormal-adjacent tiny ones, and exact ±0.0.
fn next_val(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let u = ((*state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
    match *state % 8 {
        0 => 0.0,
        1 => -0.0,
        2 => u * 1.0e-6,
        3 => u * 1.0e3,
        _ => u,
    }
}

fn fvec(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(2654435761).max(1);
    (0..n).map(|_| next_val(&mut s)).collect()
}

fn cvec(n: usize, seed: u64) -> Vec<Complex> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
    (0..n)
        .map(|_| Complex::new(next_val(&mut s), next_val(&mut s)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Lengths 0..101 straddle the lane width: empty, sub-vector, exact
    // multiples of 2/4/8, and ragged tails all occur.

    // Transforms of 2^0..2^13 points with arbitrary (not unit)
    // twiddles: no stage, the lone length-2 stage, the fused first pass
    // alone, and paired passes with and without an odd stage left over
    // all occur. Both paths must equal the plain stage-by-stage loop.
    fn radix2_stages_paths_agree(stages in 0usize..14, seed in 0u64..10_000) {
        let n = 1usize << stages;
        let twiddles: Vec<Vec<Complex>> =
            (0..stages).map(|s| cvec(1 << s, seed ^ (0x5A5A + s as u64))).collect();
        let input = cvec(n, seed);
        let mut want = input.clone();
        stages_one_by_one(&mut want, &twiddles);
        let mut s = input.clone();
        radix2_stages_with(SimdPath::Scalar, &mut s, &twiddles);
        let mut v = input;
        radix2_stages_with(simd_path(), &mut v, &twiddles);
        for i in 0..n {
            assert_ulp_c(want[i], s[i], ULP_BUTTERFLY, "radix2_stages scalar")?;
            assert_ulp_c(want[i], v[i], ULP_BUTTERFLY, "radix2_stages simd")?;
        }
    }

    // 1–8 channels of 0–5 000 samples (odd and even), through 1–6
    // random stable sections; `ragged` shortens some channels so lane
    // groups split. Both paths must equal per-channel `filtfilt`.
    fn sos_filtfilt_matches_per_channel_filtfilt(
        m in 1usize..9,
        len in 0usize..5_001,
        ragged in 0u8..2,
        n_sections in 1usize..7,
        seed in 0u64..10_000,
    ) {
        let filter = SosFilter::from_sections(stable_sections(n_sections, seed));
        let channels: Vec<Vec<f64>> = (0..m)
            .map(|c| {
                let n = if ragged == 1 { len.saturating_sub(c % 3) } else { len };
                fvec(n, seed ^ (0x2B2B * (c as u64 + 1)))
            })
            .collect();
        for path in [SimdPath::Scalar, simd_path()] {
            let mut got = channels.clone();
            sos_filtfilt_with(path, filter.sections(), &mut got);
            for (c, (g, x)) in got.iter().zip(&channels).enumerate() {
                let want = filter.filtfilt(x);
                prop_assert_eq!(g.len(), want.len());
                for (t, (&a, &b)) in g.iter().zip(&want).enumerate() {
                    assert_ulp(b, a, ULP_SOS, &format!("sos_filtfilt ch {c} [{t}] on {path:?}"))?;
                }
            }
        }
    }

    // Tile widths 0..25 straddle the 8-wide vector block (vector body,
    // 4-wide remainder and scalar column tail all occur); `pad` makes
    // the column stride exceed the tile so the kernel must respect it.
    fn gemm_tile_paths_agree(
        xb in 0usize..25,
        k_rows in 0usize..12,
        pad in 0usize..5,
        offset in 0usize..4,
        seed in 0u64..10_000,
    ) {
        let stride = xb + offset + pad;
        let col_len = if k_rows == 0 { 0 } else { (k_rows - 1) * stride + offset + xb };
        let col = fvec(col_len, seed);
        let w0 = fvec(k_rows, seed ^ 0x3D3D);
        let w1 = fvec(k_rows, seed ^ 0xD3D3);
        let acc = fvec(xb, seed ^ 0x99);
        let acc1 = fvec(xb, seed ^ 0x9999);
        let path = simd_path();

        let mut s = acc.clone();
        gemm_tile_with(SimdPath::Scalar, &mut s, &w0, &col, stride, offset);
        let mut v = acc.clone();
        gemm_tile_with(path, &mut v, &w0, &col, stride, offset);
        for i in 0..xb {
            assert_ulp(s[i], v[i], ULP_GEMM_TILE, "gemm_tile")?;
        }

        let (mut s0, mut s1) = (acc.clone(), acc1.clone());
        gemm_tile2_with(SimdPath::Scalar, &mut s0, &mut s1, &w0, &w1, &col, stride, offset);
        let (mut v0, mut v1) = (acc, acc1);
        gemm_tile2_with(path, &mut v0, &mut v1, &w0, &w1, &col, stride, offset);
        for i in 0..xb {
            assert_ulp(s0[i], v0[i], ULP_GEMM_TILE, "gemm_tile2 row0")?;
            assert_ulp(s1[i], v1[i], ULP_GEMM_TILE, "gemm_tile2 row1")?;
        }
    }

    // `sqdist_f32` *defines* a lane-strided + fixed-tree summation
    // order that both paths implement identically, so the paths agree
    // bit-for-bit even though the reduction is horizontal.
    fn sqdist_paths_agree(n in 0usize..101, seed in 0u64..10_000) {
        let a = fvec(n, seed);
        let b = fvec(n, seed ^ 0x4B4B);
        let a32: Vec<f32> = a.iter().map(|&x| x as f32).collect();
        let b32: Vec<f32> = b.iter().map(|&x| x as f32).collect();
        let s32 = sqdist_f32_with(SimdPath::Scalar, &a32, &b32);
        let v32 = sqdist_f32_with(simd_path(), &a32, &b32);
        prop_assert_eq!(
            s32.to_bits(), v32.to_bits(),
            "sqdist_f32: {:e} vs {:e}", s32, v32
        );
    }

    // Gates of 0–300 samples over 1–8 channels, at the start, the end or
    // the middle of a signal `pad` samples longer than the gate. The
    // Gram sums span up to `pad` samples either side of the gate, and the
    // gate asked for may run up to 3 samples past the signal (clipped).
    // Weights are random, delay-and-sum-like (unit phasors over M), or
    // cancel a last channel that is the sum of the others, so the beam
    // is rounding noise and the form may round below zero.
    fn gate_gram_matches_the_direct_beam_sum(
        gate in 0usize..301,
        m in 1usize..9,
        pad in 0usize..9,
        place in 0u8..3,
        overrun in 0usize..4,
        kind in 0u8..3,
        seed in 0u64..10_000,
    ) {
        let n = gate + pad;
        let mut channels: Vec<Vec<Complex>> =
            (0..m).map(|c| cvec(n, seed ^ (0x1F1F * (c as u64 + 1)))).collect();
        let mut weights = cvec(m, seed ^ 0x6B6B);
        match kind {
            1 => {
                let phases = fvec(m, seed ^ 0x3C3C);
                for (w, p) in weights.iter_mut().zip(phases) {
                    *w = Complex::cis(p).scale(1.0 / m as f64);
                }
            }
            2 if m > 1 => {
                let sum: Vec<Complex> = (0..n)
                    .map(|t| channels[..m - 1].iter().fold(Complex::ZERO, |s, ch| s + ch[t]))
                    .collect();
                channels[m - 1] = sum;
                let c = weights[0];
                weights.iter_mut().for_each(|w| *w = c);
                weights[m - 1] = Complex::ZERO - c;
            }
            _ => {}
        }
        let start = match place {
            0 => 0,
            1 => pad,
            _ => pad / 2,
        };
        let (lo, hi) = (start.saturating_sub(pad), (start + gate + pad).min(n));
        let end = start + gate + overrun;
        let got = GateGram::new(&channels, lo, start + gate + pad).beam_energy(&weights, start, end);
        let want = direct_beam_energy(&channels, &weights, start, end.min(n));
        let union: f64 = channels
            .iter()
            .map(|ch| ch[lo..hi].iter().map(|x| x.norm_sqr()).sum::<f64>())
            .sum();
        let v2: f64 = weights.iter().map(|w| w.norm_sqr()).sum();
        let bound = gram_error_bound(hi - lo, m, v2, union);
        prop_assert!(got >= 0.0, "energy {:e} is negative", got);
        prop_assert!(
            (got - want).abs() <= bound,
            "gate {}..{} of {}: {:e} vs direct {:e} (bound {:e})",
            start, end, n, got, want, bound
        );
    }

    // A beam that cancels exactly (a channel and its copy under opposite
    // weights) images to 0.0, whatever the signal and the gate.
    fn exactly_cancelling_beam_images_to_zero(
        n in 1usize..301,
        a in 0usize..301,
        b in 0usize..301,
        seed in 0u64..10_000,
    ) {
        let x = cvec(n, seed);
        let w = cvec(1, seed ^ 0x7777)[0];
        let gram = GateGram::new(&[x.clone(), x], 0, n);
        let pixel = gram.beam_energy(&[w, Complex::ZERO - w], a.min(b), a.max(b)).sqrt();
        prop_assert_eq!(pixel, 0.0);
    }

    // `find_peaks` runs two early-exit scans per candidate; pin it
    // against a literal transcription of the original element-wise loop
    // on NaN-free signals. Coarse quantisation makes value ties (the
    // plateau rule) common instead of measure-zero.
    fn find_peaks_matches_elementwise_reference(
        n in 0usize..80,
        seed in 0u64..10_000,
        min_distance in 0usize..9,
        threshold in -3.0..3.0f64,
        quantise in 0u8..2,
    ) {
        let mut signal = fvec(n, seed);
        if quantise == 1 {
            for v in &mut signal {
                *v = (*v * 4.0).round() / 4.0;
            }
        }
        let got = find_peaks(&signal, min_distance, threshold);
        let want = find_peaks_reference(&signal, min_distance, threshold);
        prop_assert_eq!(got, want);
    }
}

/// The gated real-beam energy summed sample by sample:
/// `Σ_t (Σ_m w_m.re·x_m[t].re + w_m.im·x_m[t].im)²`.
fn direct_beam_energy(
    channels: &[Vec<Complex>],
    weights: &[Complex],
    start: usize,
    end: usize,
) -> f64 {
    let mut energy = 0.0;
    for t in start..end {
        let mut y = 0.0;
        for (ch, w) in channels.iter().zip(weights) {
            y += w.re * ch[t].re + w.im * ch[t].im;
        }
        energy += y * y;
    }
    energy
}

/// The `GateGram` error bound against [`direct_beam_energy`]: absolute,
/// `4·(L + 2M + 4)·ε·‖v‖²·E_union` for a union of `L` samples with
/// energy `E_union` over `M` channels. Each running-sum entry is a
/// sequential sum of at most `L` products, the quadratic form adds
/// `2M + 2` roundings, and the direct sum `L + 2M`; by Cauchy–Schwarz
/// each is within its count × `ε·‖v‖²·E_union`.
fn gram_error_bound(union_len: usize, channels: usize, v2: f64, union_energy: f64) -> f64 {
    4.0 * (union_len + 2 * channels + 4) as f64 * f64::EPSILON * v2 * union_energy
}

/// The unplanned FFT's stage loop over explicit twiddle tables, the
/// oracle for `radix2_stages_with`: one stage after another, one
/// butterfly after another.
fn stages_one_by_one(data: &mut [Complex], twiddles: &[Vec<Complex>]) {
    for (s, tw) in twiddles.iter().enumerate() {
        let half = 1 << s;
        for chunk in data.chunks_mut(2 * half) {
            let (lo, hi) = chunk.split_at_mut(half);
            for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                let u = *a;
                let v = *b * w;
                *a = u + v;
                *b = u - v;
            }
        }
    }
}

/// `count` random sections inside the Jury stability triangle
/// (`|a2| < 1`, `|a1| < 1 + a2`), with feed-forward taps in ±2.
fn stable_sections(count: usize, seed: u64) -> Vec<Biquad> {
    let mut state = seed.wrapping_mul(0xD1B54A32D192ED03).max(1);
    let mut unit = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    (0..count)
        .map(|_| {
            let a2 = 0.99 * unit();
            let a1 = 0.99 * (1.0 + a2) * unit();
            let section = Biquad {
                b0: 2.0 * unit(),
                b1: 2.0 * unit(),
                b2: 2.0 * unit(),
                a1,
                a2,
            };
            assert!(section.is_stable());
            section
        })
        .collect()
}

/// The original `find_peaks` loop, kept verbatim as the semantic oracle.
fn find_peaks_reference(signal: &[f64], min_distance: usize, threshold: f64) -> Vec<Peak> {
    let n = signal.len();
    let d = min_distance.max(1);
    let mut peaks = Vec::new();
    for i in 0..n {
        let v = signal[i];
        if v <= threshold {
            continue;
        }
        let lo = i.saturating_sub(d);
        let hi = (i + d + 1).min(n);
        let mut is_peak = true;
        for (j, &w) in signal[lo..hi].iter().enumerate() {
            let j = lo + j;
            if j == i {
                continue;
            }
            if w > v || (w == v && j < i) {
                is_peak = false;
                break;
            }
        }
        if is_peak {
            peaks.push(Peak { index: i, value: v });
        }
    }
    peaks
}

/// The dispatched entry points must agree with whatever `active()`
/// reports — a direct guard that the cached dispatch byte and the
/// kernels can't disagree.
#[test]
fn dispatched_kernels_follow_active_path() {
    let a: Vec<f32> = (0..37).map(|i| (i as f32 * 0.7).sin()).collect();
    let b: Vec<f32> = (0..37).map(|i| (i as f32 * 0.9).cos()).collect();
    let dispatched = simd::sqdist_f32(&a, &b);
    let explicit = sqdist_f32_with(simd::active(), &a, &b);
    assert_eq!(dispatched.to_bits(), explicit.to_bits());
}
