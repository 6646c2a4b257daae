//! Property tests pinning planned FFTs to the unplanned reference.
//!
//! [`echo_dsp::FftPlan`] precomputes bit-reversal swaps, per-stage
//! twiddles, and Bluestein chirp tables with the *same recurrences* the
//! per-call `fft`/`ifft` loops run, so its outputs must be `to_bits`
//! identical — for power-of-two (radix-2) and arbitrary (Bluestein)
//! lengths alike. The correlation fast paths are pinned against naive
//! time-domain sums.

use echo_dsp::correlate::{matched_filter, matched_filter_complex, MatchedFilterPlan};
use echo_dsp::fft::{fft, ifft};
use echo_dsp::plan::{fft_plan, FftPlan, FftScratch};
use echo_dsp::simd::{self, SimdPath};
use echo_dsp::Complex;
use proptest::prelude::*;

/// Both dispatch paths where the host has AVX2, else scalar alone.
fn paths() -> Vec<SimdPath> {
    let mut paths = vec![SimdPath::Scalar];
    if simd::avx2_supported() {
        paths.push(SimdPath::Avx2);
    }
    paths
}

fn signal(seed: u64, n: usize) -> Vec<Complex> {
    (0..n)
        .map(|i| {
            let t = (i as u64).wrapping_mul(seed.wrapping_add(1)) % 977;
            Complex::new((t as f64 * 0.013).sin(), (t as f64 * 0.029).cos())
        })
        .collect()
}

fn real_signal(seed: u64, n: usize) -> Vec<f64> {
    signal(seed, n).into_iter().map(|c| c.re).collect()
}

fn assert_bits_eq(a: &[Complex], b: &[Complex]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        prop_assert_eq!(
            x.re.to_bits(),
            y.re.to_bits(),
            "re differs at {}: {} vs {}",
            i,
            x.re,
            y.re
        );
        prop_assert_eq!(
            x.im.to_bits(),
            y.im.to_bits(),
            "im differs at {}: {} vs {}",
            i,
            x.im,
            y.im
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    fn planned_fft_is_bit_identical_for_pow2_sizes(
        log_n in 0u32..13,
        seed in 0u64..1_000,
    ) {
        let n = 1usize << log_n;
        let orig = signal(seed, n);
        let plan = fft_plan(n);
        let mut scratch = FftScratch::new();

        let mut planned = orig.clone();
        plan.fft_with(&mut planned, &mut scratch);
        let mut unplanned = orig.clone();
        fft(&mut unplanned);
        assert_bits_eq(&planned, &unplanned)?;

        let mut planned_inv = orig.clone();
        plan.ifft_with(&mut planned_inv, &mut scratch);
        let mut unplanned_inv = orig;
        ifft(&mut unplanned_inv);
        assert_bits_eq(&planned_inv, &unplanned_inv)?;
    }

    fn planned_fft_is_bit_identical_for_bluestein_sizes(
        n in 2usize..600,
        seed in 0u64..1_000,
    ) {
        prop_assume!(!n.is_power_of_two());
        let orig = signal(seed, n);
        let plan = FftPlan::new(n);
        let mut scratch = FftScratch::new();
        let mut unplanned = orig.clone();
        fft(&mut unplanned);
        let mut unplanned_inv = orig.clone();
        ifft(&mut unplanned_inv);

        for path in paths() {
            let mut planned = orig.clone();
            plan.fft_on(path, &mut planned, &mut scratch);
            assert_bits_eq(&planned, &unplanned)?;

            let mut planned_inv = orig.clone();
            plan.ifft_on(path, &mut planned_inv, &mut scratch);
            assert_bits_eq(&planned_inv, &unplanned_inv)?;
        }
    }

    fn packed_real_matched_filter_matches_naive(
        sig_len in 1usize..120,
        tmpl_len in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let sig = real_signal(seed, sig_len);
        let tmpl = real_signal(seed ^ 0xabcd, tmpl_len);
        let fast = matched_filter(&sig, &tmpl);
        prop_assert_eq!(fast.len(), sig_len);
        let scale = tmpl.iter().map(|v| v * v).sum::<f64>().max(1.0);
        for (k, got) in fast.iter().enumerate() {
            let mut acc = 0.0;
            for (i, &t) in tmpl.iter().enumerate() {
                if k + i < sig_len {
                    acc += sig[k + i] * t;
                }
            }
            prop_assert!((got - acc).abs() < 1e-9 * scale, "lag {}: {} vs {}", k, got, acc);
        }
    }

    fn template_plan_complex_path_is_bit_identical(
        sig_len in 1usize..150,
        tmpl_len in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let sig = signal(seed, sig_len);
        let tmpl = signal(seed ^ 0x77, tmpl_len);
        let unplanned = matched_filter_complex(&sig, &tmpl);
        let plan = MatchedFilterPlan::new_complex(&tmpl);
        let planned = plan.matched_filter_complex(&sig);
        assert_bits_eq(&planned, &unplanned)?;
    }
}

/// Every power of two from 1 to 2^16 on both paths: the one-call stage
/// kernel (fused first pass, paired AVX2 passes, a lone last stage when
/// the count is odd) equals the unplanned transform bit for bit at
/// every stage count the pipeline or a caller can reach.
#[test]
fn planned_pow2_fft_is_bit_identical_on_both_paths_up_to_2_pow_16() {
    let mut scratch = FftScratch::new();
    for log_n in 0..=16u32 {
        let n = 1usize << log_n;
        let orig = signal(u64::from(log_n) * 7 + 1, n);
        let plan = FftPlan::new(n);
        let mut unplanned = orig.clone();
        fft(&mut unplanned);
        let mut unplanned_inv = orig.clone();
        ifft(&mut unplanned_inv);
        for path in paths() {
            let mut planned = orig.clone();
            plan.fft_on(path, &mut planned, &mut scratch);
            assert_bits_eq(&planned, &unplanned)
                .unwrap_or_else(|e| panic!("fft n={n} on {path:?}: {e:?}"));
            let mut planned_inv = orig.clone();
            plan.ifft_on(path, &mut planned_inv, &mut scratch);
            assert_bits_eq(&planned_inv, &unplanned_inv)
                .unwrap_or_else(|e| panic!("ifft n={n} on {path:?}: {e:?}"));
        }
    }
}
