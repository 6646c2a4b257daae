//! Runtime-dispatched SIMD microkernels for the FFT, band-pass, CNN and
//! template-store hot paths.
//!
//! Every kernel here exists in two implementations — a portable scalar
//! loop and an AVX2 (`f64x4`) variant — selected **once per process**
//! by [`active`] from the `ECHOIMAGE_SIMD` environment knob (mirroring
//! `ECHOIMAGE_THREADS`):
//!
//! * `auto` (default / unset): AVX2 when the CPU reports it, else scalar;
//! * `scalar`: force the portable path;
//! * `avx2`: request AVX2; silently falls back to scalar when the CPU
//!   lacks it (the scalar fallback is mandatory, never an error).
//!
//! Only kernels that a workload pays for live here: the radix-2 stages,
//! the band-pass lanes, the GEMM tiles and the store's `f32` distance.
//! Element-wise passes — spectrum products, scaling, envelope
//! accumulation, maxima — are plain loops at their call sites: their
//! AVX2 kernels saved a few microseconds per beep train (DESIGN.md
//! §10).
//!
//! # Exactness contract
//!
//! The AVX2 kernels are deliberately written to preserve the scalar
//! per-element operation order bit-for-bit: they vectorise *across*
//! elements, never reassociate *within* one, and use no FMA (separate
//! `mul`/`add` intrinsics round exactly like the scalar `*` and `+`).
//! The only algebraic licence taken is addition commutativity
//! (`a*d + b*c` vs `b*c + a*d` in the complex product), which is
//! IEEE-754 rounding-exact.
//! The "elements" may be whole channels — [`sos_filtfilt`] gives each
//! lane one channel's serial cascade — and a kernel may reorder work
//! that does not depend on itself — [`radix2_stages_with`] fuses and
//! pairs FFT stages, so independent butterflies run in another order,
//! each with its own twiddle and operations unchanged.
//! Consequently scalar and AVX2 runs of the full pipeline produce
//! bit-identical features, audits and traces, and the oracle tests can
//! keep asserting `to_bits` equality. The ULP-bounded property suite
//! (`simd_kernel_properties`) pins each kernel's bound at **0 ULP**
//! today and is the harness that would absorb a future kernel that
//! genuinely reassociates.
//!
//! # Safety
//!
//! All `unsafe` in this crate lives in this module's `avx2` submodule.
//! The boundary is narrow: each AVX2 kernel is an `unsafe fn` gated by
//! `#[target_feature(enable = "avx2")]`, reachable only through the
//! safe dispatch wrappers below, which call it strictly after
//! [`avx2_supported`] has confirmed the feature at runtime. Loads and
//! stores are unaligned (`loadu`/`storeu`) on pointers derived from
//! live slices, with all tail elements handled by the scalar kernel —
//! no out-of-bounds access, no alignment assumptions. `Complex` is
//! `#[repr(C)]` so viewing `&[Complex]` as interleaved `re,im` `f64`
//! pairs is layout-sound.

use crate::complex::Complex;
use crate::filter::Biquad;
use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable selecting the SIMD path: `auto`, `scalar` or
/// `avx2` (case-insensitive; unknown values behave like `auto`).
pub const SIMD_ENV: &str = "ECHOIMAGE_SIMD";

/// Name of the observability gauge recording the resolved path
/// (value = [`SimdPath::gauge_value`]).
pub const DISPATCH_GAUGE: &str = "simd.dispatch";

/// The instruction-set path a kernel executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPath {
    /// Portable scalar loops — always available.
    Scalar,
    /// AVX2 `f64x4` kernels (x86-64 only, runtime-detected).
    Avx2,
}

impl SimdPath {
    /// Stable numeric encoding used by the `simd.dispatch` gauge:
    /// scalar = 1, avx2 = 2 (0 means "not yet recorded").
    #[inline]
    pub fn gauge_value(self) -> i64 {
        match self {
            SimdPath::Scalar => 1,
            SimdPath::Avx2 => 2,
        }
    }

    /// Lower-case human-readable name (`scalar` / `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            SimdPath::Scalar => "scalar",
            SimdPath::Avx2 => "avx2",
        }
    }
}

const PATH_UNRESOLVED: u8 = 0;
const PATH_SCALAR: u8 = 1;
const PATH_AVX2: u8 = 2;

/// Resolved dispatch decision, cached for the life of the process so
/// the hot loops pay one relaxed load, not an env-var parse.
static ACTIVE: AtomicU8 = AtomicU8::new(PATH_UNRESOLVED);

/// Whether this CPU can run the AVX2 kernels.
///
/// Always `false` off x86-64 and under Miri (Miri interprets portable
/// Rust only, which conveniently makes every dispatched kernel
/// Miri-checkable through its scalar path).
pub fn avx2_supported() -> bool {
    #[cfg(miri)]
    {
        false
    }
    #[cfg(all(not(miri), target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(all(not(miri), not(target_arch = "x86_64")))]
    {
        false
    }
}

/// What the environment asked for, before capability clamping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Request {
    Auto,
    Scalar,
    Avx2,
}

fn parse_request(raw: &str) -> Request {
    match raw.trim().to_ascii_lowercase().as_str() {
        "scalar" => Request::Scalar,
        "avx2" => Request::Avx2,
        // `auto`, empty and anything unrecognised all mean "pick for me";
        // an env typo must never disable the mandatory scalar fallback
        // or crash the pipeline.
        _ => Request::Auto,
    }
}

fn resolve() -> SimdPath {
    let request = std::env::var(SIMD_ENV)
        .map(|v| parse_request(&v))
        .unwrap_or(Request::Auto);
    let path = match request {
        Request::Scalar => SimdPath::Scalar,
        Request::Auto | Request::Avx2 => {
            if avx2_supported() {
                SimdPath::Avx2
            } else {
                SimdPath::Scalar
            }
        }
    };
    let encoded = match path {
        SimdPath::Scalar => PATH_SCALAR,
        SimdPath::Avx2 => PATH_AVX2,
    };
    ACTIVE.store(encoded, Ordering::Relaxed);
    record_dispatch_for(path);
    path
}

/// The SIMD path every dispatched kernel in this process uses.
///
/// Resolved from [`SIMD_ENV`] + CPU detection on first call, then
/// cached; the knob is read once, like `ECHOIMAGE_THREADS`.
#[inline]
pub fn active() -> SimdPath {
    match ACTIVE.load(Ordering::Relaxed) {
        PATH_SCALAR => SimdPath::Scalar,
        PATH_AVX2 => SimdPath::Avx2,
        _ => resolve(),
    }
}

/// (Re-)records the resolved dispatch path on the `simd.dispatch`
/// gauge.
///
/// The gauge is part of the metrics registry and therefore cleared by
/// `echo_obs::reset()`; hot entry points call this so any snapshot
/// taken after real work reports which path ran. Deliberately *not*
/// recorded on trace spans or audits — those are bit-identical across
/// SIMD modes by contract, and the mode is an execution detail, not a
/// decision.
#[inline]
pub fn record_dispatch() {
    record_dispatch_for(active());
}

fn record_dispatch_for(path: SimdPath) {
    echo_obs::gauge!(DISPATCH_GAUGE).set(path.gauge_value());
}

// ─────────────────────────── dispatch wrappers ───────────────────────────
//
// Each kernel is exported twice: `foo` dispatches on the process-wide
// [`active`] path; `foo_with` takes the path explicitly so tests (and
// the property suite) can pin scalar vs AVX2 side by side in one
// process.

macro_rules! dispatch {
    ($path:expr, $scalar:expr, $avx2:expr) => {
        match $path {
            SimdPath::Scalar => $scalar,
            #[cfg(target_arch = "x86_64")]
            SimdPath::Avx2 => {
                debug_assert!(avx2_supported(), "AVX2 path dispatched without CPU support");
                // SAFETY: `SimdPath::Avx2` is only ever produced by
                // `resolve()` after `avx2_supported()` returned true, or
                // passed explicitly by tests that perform the same check.
                unsafe { $avx2 }
            }
            #[cfg(not(target_arch = "x86_64"))]
            SimdPath::Avx2 => $scalar,
        }
    };
}

/// The butterfly stages of an in-place radix-2 FFT whose input is
/// already in bit-reversed order, on an explicit path (an
/// [`FftPlan`](crate::plan::FftPlan) resolves the path once per
/// transform).
///
/// Stage `s` pairs `lo = chunk[j]` with `hi = chunk[j + 2^s]` in every
/// chunk of `2^(s+1)` points and sets `lo, hi ← lo + hi·w, lo − hi·w`
/// with `w = twiddles[s][j]`, for `j < 2^s`. Each butterfly is the
/// unplanned loop's — same twiddle value, same complex product, same
/// add and subtract — so the output is bit-identical to running the
/// stages one after another; only the order of independent butterflies
/// differs. The whole stage loop runs inside one kernel call: the
/// length-2 and length-4 stages are fused into one pass over groups of
/// four points, and the AVX2 path then runs two stages per pass with
/// each group of four points held in registers.
///
/// # Panics
///
/// Panics unless `data.len() == 2^twiddles.len()` and every
/// `twiddles[s]` holds at least `2^s` factors.
#[inline]
pub fn radix2_stages_with(path: SimdPath, data: &mut [Complex], twiddles: &[Vec<Complex>]) {
    assert!(
        twiddles.len() < usize::BITS as usize && data.len() == 1 << twiddles.len(),
        "radix-2 stages need 2^stages points"
    );
    for (s, tw) in twiddles.iter().enumerate() {
        assert!(tw.len() >= 1 << s, "twiddle table of stage {s} is short");
    }
    dispatch!(
        path,
        scalar::radix2_stages(data, twiddles),
        avx2::radix2_stages(data, twiddles)
    );
}

/// Zero-phase filtering of several channels in place: each channel runs
/// through the biquad cascade `sections` forward from zero state, then
/// backward from zero state, bit-identical to
/// [`SosFilter::filtfilt`](crate::filter::SosFilter::filtfilt) on that
/// channel alone.
///
/// The recursion is serial along each channel, so the AVX2 path
/// vectorises across channels instead: up to four channels of equal
/// length share one vector, one channel per lane (4 + 2 for a six-mic
/// array), and each lane does the scalar cascade's multiplies, adds and
/// subtracts in the scalar order. Lanes are read from and written back
/// to the channels themselves; no interleaved copy is made.
#[inline]
pub fn sos_filtfilt(sections: &[Biquad], channels: &mut [Vec<f64>]) {
    sos_filtfilt_with(active(), sections, channels);
}

/// [`sos_filtfilt`] on an explicit path.
#[inline]
pub fn sos_filtfilt_with(path: SimdPath, sections: &[Biquad], channels: &mut [Vec<f64>]) {
    dispatch!(
        path,
        scalar::sos_filtfilt(sections, channels),
        avx2::sos_filtfilt(sections, channels)
    );
}

/// Register-tiled GEMM inner tile, one output channel: for every `k`,
/// `acc[i] += w[k] · col[k·stride + offset + i]`.
///
/// The whole `k` loop runs inside the kernel so the accumulator tile
/// stays in registers across it — a separate row update per `k` would
/// store and reload the tile on every step, which costs more than the
/// multiply-adds themselves.
///
/// # Panics
///
/// Panics if `col` is shorter than
/// `(w.len() − 1)·stride + offset + acc.len()`.
#[inline]
pub fn gemm_tile(acc: &mut [f64], w: &[f64], col: &[f64], stride: usize, offset: usize) {
    gemm_tile_with(active(), acc, w, col, stride, offset);
}

/// [`gemm_tile`] on an explicit path.
#[inline]
pub fn gemm_tile_with(
    path: SimdPath,
    acc: &mut [f64],
    w: &[f64],
    col: &[f64],
    stride: usize,
    offset: usize,
) {
    dispatch!(
        path,
        scalar::gemm_tile(acc, w, col, stride, offset),
        avx2::gemm_tile(acc, w, col, stride, offset)
    );
}

/// [`gemm_tile`] over two output channels sharing every column-tile
/// load: for every `k`, `acc0[i] += w0[k]·col[k·stride + offset + i]`
/// and `acc1[i] += w1[k]·col[k·stride + offset + i]` (the shorter of
/// `w0`/`w1` and of `acc0`/`acc1` bounds the loops).
///
/// # Panics
///
/// Panics if `col` is shorter than the last row the tile reads (see
/// [`gemm_tile`]).
#[inline]
pub fn gemm_tile2(
    acc0: &mut [f64],
    acc1: &mut [f64],
    w0: &[f64],
    w1: &[f64],
    col: &[f64],
    stride: usize,
    offset: usize,
) {
    gemm_tile2_with(active(), acc0, acc1, w0, w1, col, stride, offset);
}

/// [`gemm_tile2`] on an explicit path.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn gemm_tile2_with(
    path: SimdPath,
    acc0: &mut [f64],
    acc1: &mut [f64],
    w0: &[f64],
    w1: &[f64],
    col: &[f64],
    stride: usize,
    offset: usize,
) {
    dispatch!(
        path,
        scalar::gemm_tile2(acc0, acc1, w0, w1, col, stride, offset),
        avx2::gemm_tile2(acc0, acc1, w0, w1, col, stride, offset)
    );
}

/// Squared Euclidean distance `Σ (a[i] − b[i])²` over `f32` operands —
/// the template store's centroid-prefilter primitive.
///
/// Unlike the kernels above, this one *defines* its own summation
/// order rather than matching a pre-existing scalar loop: 8
/// lane-strided partial sums over the vectorisable head, combined in a
/// fixed binary tree, then the tail accumulated sequentially. The
/// scalar implementation mirrors that exact order, so scalar and AVX2
/// agree bit-for-bit (the property suite pins the bound at 0 ULP).
#[inline]
pub fn sqdist_f32(a: &[f32], b: &[f32]) -> f32 {
    sqdist_f32_with(active(), a, b)
}

/// [`sqdist_f32`] on an explicit path.
#[inline]
pub fn sqdist_f32_with(path: SimdPath, a: &[f32], b: &[f32]) -> f32 {
    dispatch!(path, scalar::sqdist_f32(a, b), avx2::sqdist_f32(a, b))
}

// ─────────────────────────── scalar kernels ───────────────────────────

mod scalar {
    use super::{Biquad, Complex};
    use crate::filter::cascade;

    /// One radix-2 butterfly: `a, b ← a + b·w, a − b·w`.
    #[inline(always)]
    fn butterfly(a: &mut Complex, b: &mut Complex, w: Complex) {
        let u = *a;
        let v = *b * w;
        *a = u + v;
        *b = u - v;
    }

    /// One radix-2 stage over paired halves: `lo[i], hi[i] ←
    /// lo[i] + hi[i]·tw[i], lo[i] − hi[i]·tw[i]`.
    #[inline]
    pub fn butterfly_pass(lo: &mut [Complex], hi: &mut [Complex], tw: &[Complex]) {
        for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw.iter()) {
            butterfly(a, b, w);
        }
    }

    /// See [`super::radix2_stages_with`]; the caller has checked the
    /// table shapes. The length-2 and length-4 stages run fused over
    /// each group of four points, then one stage at a time.
    #[inline]
    pub fn radix2_stages(data: &mut [Complex], twiddles: &[Vec<Complex>]) {
        match twiddles.len() {
            0 => {}
            1 => {
                let [a, b] = data else { unreachable!() };
                butterfly(a, b, twiddles[0][0]);
            }
            _ => {
                let w1 = twiddles[0][0];
                let (w2a, w2b) = (twiddles[1][0], twiddles[1][1]);
                for q in data.chunks_exact_mut(4) {
                    let [x0, x1, x2, x3] = q else { unreachable!() };
                    butterfly(x0, x1, w1);
                    butterfly(x2, x3, w1);
                    butterfly(x0, x2, w2a);
                    butterfly(x1, x3, w2b);
                }
                for (s, tw) in twiddles.iter().enumerate().skip(2) {
                    let half = 1 << s;
                    for chunk in data.chunks_exact_mut(2 * half) {
                        let (lo, hi) = chunk.split_at_mut(half);
                        butterfly_pass(lo, hi, &tw[..half]);
                    }
                }
            }
        }
    }

    /// Each channel through the cascade forward, then backward, each
    /// pass from zero state.
    #[inline]
    pub fn sos_filtfilt(sections: &[Biquad], channels: &mut [Vec<f64>]) {
        let mut state = vec![[0.0; 2]; sections.len()];
        for ch in channels {
            state.fill([0.0; 2]);
            for v in ch.iter_mut() {
                *v = cascade(sections, &mut state, *v);
            }
            state.fill([0.0; 2]);
            for v in ch.iter_mut().rev() {
                *v = cascade(sections, &mut state, *v);
            }
        }
    }

    #[inline]
    pub fn gemm_tile(acc: &mut [f64], w: &[f64], col: &[f64], stride: usize, offset: usize) {
        let xb = acc.len();
        for (k, &wk) in w.iter().enumerate() {
            let row = &col[k * stride + offset..k * stride + offset + xb];
            for (a, &s) in acc.iter_mut().zip(row.iter()) {
                *a += wk * s;
            }
        }
    }

    #[inline]
    pub fn gemm_tile2(
        acc0: &mut [f64],
        acc1: &mut [f64],
        w0: &[f64],
        w1: &[f64],
        col: &[f64],
        stride: usize,
        offset: usize,
    ) {
        let xb = acc0.len().min(acc1.len());
        let k_rows = w0.len().min(w1.len());
        for k in 0..k_rows {
            let row = &col[k * stride + offset..k * stride + offset + xb];
            for (i, &s) in row.iter().enumerate() {
                acc0[i] += w0[k] * s;
                acc1[i] += w1[k] * s;
            }
        }
    }

    /// Lane-strided squared distance; mirrors the AVX2 reduction order
    /// exactly (8 lanes, low+high halves, pairwise tree, sequential
    /// tail) so the two paths agree bit-for-bit.
    #[inline]
    pub fn sqdist_f32(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let head = n - n % 8;
        let mut s = [0.0f32; 8];
        let mut i = 0;
        while i < head {
            for (j, sj) in s.iter_mut().enumerate() {
                let d = a[i + j] - b[i + j];
                *sj += d * d;
            }
            i += 8;
        }
        // vaddps of the 128-bit halves, then the SSE pairwise tree.
        let t0 = s[0] + s[4];
        let t1 = s[1] + s[5];
        let t2 = s[2] + s[6];
        let t3 = s[3] + s[7];
        let mut acc = (t0 + t2) + (t1 + t3);
        for k in head..n {
            let d = a[k] - b[k];
            acc += d * d;
        }
        acc
    }
}

// ─────────────────────────── AVX2 kernels ───────────────────────────

/// AVX2 `f64x4` kernels. Every function is `unsafe` + gated on
/// `#[target_feature(enable = "avx2")]`; the only callers are the
/// dispatch wrappers above, strictly after a runtime CPU check.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{scalar, Biquad, Complex};
    use std::arch::x86_64::*;

    /// Two `Complex` values per 256-bit vector.
    const CPL: usize = 2;
    /// Four `f64` values per 256-bit vector.
    const FPL: usize = 4;

    /// Complex product matching the scalar `Complex::mul` rounding
    /// exactly (see module docs): even lanes `a.re·b.re − a.im·b.im`,
    /// odd lanes `a.im·b.re + a.re·b.im`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cmul_pd(a: __m256d, b: __m256d) -> __m256d {
        let b_re = _mm256_movedup_pd(b); // [b0.re, b0.re, b1.re, b1.re]
        let b_im = _mm256_permute_pd(b, 0b1111); // [b0.im, b0.im, b1.im, b1.im]
        let a_swap = _mm256_permute_pd(a, 0b0101); // [a0.im, a0.re, a1.im, a1.re]
        let t1 = _mm256_mul_pd(a, b_re); // [a.re·b.re, a.im·b.re]
        let t2 = _mm256_mul_pd(a_swap, b_im); // [a.im·b.im, a.re·b.im]
        _mm256_addsub_pd(t1, t2) // [t1 − t2, t1 + t2]
    }

    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn butterfly_pass(lo: &mut [Complex], hi: &mut [Complex], tw: &[Complex]) {
        let n = lo.len().min(hi.len()).min(tw.len());
        let head = n - n % CPL;
        let lp = lo.as_mut_ptr().cast::<f64>();
        let hp = hi.as_mut_ptr().cast::<f64>();
        let tp = tw.as_ptr().cast::<f64>();
        let mut i = 0;
        while i < 2 * head {
            // SAFETY: `i + 3 < 2·head ≤ 2·n` f64s are in bounds for all
            // three slices; loads/stores are unaligned.
            unsafe {
                let u = _mm256_loadu_pd(lp.add(i));
                let h = _mm256_loadu_pd(hp.add(i));
                let w = _mm256_loadu_pd(tp.add(i));
                let v = cmul_pd(h, w);
                _mm256_storeu_pd(lp.add(i), _mm256_add_pd(u, v));
                _mm256_storeu_pd(hp.add(i), _mm256_sub_pd(u, v));
            }
            i += 2 * CPL;
        }
        scalar::butterfly_pass(&mut lo[head..n], &mut hi[head..n], &tw[head..n]);
    }

    /// One butterfly on two points per vector: `(u + h·w, u − h·w)`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn butterfly_pd(u: __m256d, h: __m256d, w: __m256d) -> (__m256d, __m256d) {
        let v = cmul_pd(h, w);
        (_mm256_add_pd(u, v), _mm256_sub_pd(u, v))
    }

    /// The stage loop of [`super::radix2_stages_with`]. The length-2 and
    /// length-4 stages run fused over each group of four points, shuffled
    /// so each stage's pairs share a vector; then each pass runs stages
    /// `s` and `s + 1` over four quarter-blocks `q0..q3` of `2^(s+2)`
    /// points, two points per vector: stage `s` pairs `q0`/`q1` and
    /// `q2`/`q3`, stage `s + 1` pairs `q0`/`q2` and `q1`/`q3`, all in
    /// registers. An odd stage left over runs alone.
    ///
    /// # Safety
    ///
    /// Requires AVX2. The caller has checked that `data.len() ==
    /// 2^twiddles.len()` and that `twiddles[s]` holds `2^s` factors.
    #[target_feature(enable = "avx2")]
    pub unsafe fn radix2_stages(data: &mut [Complex], twiddles: &[Vec<Complex>]) {
        let stages = twiddles.len();
        if stages < 2 {
            return scalar::radix2_stages(data, twiddles);
        }
        let n = data.len();
        let p = data.as_mut_ptr().cast::<f64>();
        // SAFETY: the caller checked that `twiddles[0]` holds one factor
        // and `twiddles[1]` two, i.e. two and four f64.
        let (w1, w2) = unsafe {
            let w = _mm_loadu_pd(twiddles[0].as_ptr().cast::<f64>());
            (
                _mm256_set_m128d(w, w),
                _mm256_loadu_pd(twiddles[1].as_ptr().cast::<f64>()),
            )
        };
        let mut i = 0;
        while i < n {
            // SAFETY: `n` is a multiple of 4, so points `i..i + 4` (8 f64)
            // are in bounds.
            unsafe {
                let a = _mm256_loadu_pd(p.add(2 * i)); // x0 x1
                let b = _mm256_loadu_pd(p.add(2 * i + 4)); // x2 x3
                let (lo, hi) = butterfly_pd(
                    _mm256_permute2f128_pd(a, b, 0x20), // x0 x2
                    _mm256_permute2f128_pd(a, b, 0x31), // x1 x3
                    w1,
                ); // lo = y0 y2, hi = y1 y3
                let (lo, hi) = butterfly_pd(
                    _mm256_permute2f128_pd(lo, hi, 0x20), // y0 y1
                    _mm256_permute2f128_pd(lo, hi, 0x31), // y2 y3
                    w2,
                );
                _mm256_storeu_pd(p.add(2 * i), lo);
                _mm256_storeu_pd(p.add(2 * i + 4), hi);
            }
            i += 4;
        }
        let mut s = 2;
        while s + 1 < stages {
            let h = 1usize << s; // stage s pairs points h apart
            let ta = twiddles[s].as_ptr().cast::<f64>();
            let tb = twiddles[s + 1].as_ptr().cast::<f64>();
            let mut block = 0;
            while block < n {
                let mut j = 0;
                while j < h {
                    // SAFETY: `h ≥ 4` is even and `block + 4h ≤ n`, so
                    // points `block + k·h + j` and `+ 1` (k < 4) are in
                    // bounds; `ta` holds `h` factors and `tb` `2h`, and
                    // `j + 1 < h`.
                    unsafe {
                        let q0 = p.add(2 * (block + j));
                        let q1 = q0.add(2 * h);
                        let q2 = q0.add(4 * h);
                        let q3 = q0.add(6 * h);
                        let wa = _mm256_loadu_pd(ta.add(2 * j));
                        let (r0, r1) = butterfly_pd(_mm256_loadu_pd(q0), _mm256_loadu_pd(q1), wa);
                        let (r2, r3) = butterfly_pd(_mm256_loadu_pd(q2), _mm256_loadu_pd(q3), wa);
                        let (o0, o2) = butterfly_pd(r0, r2, _mm256_loadu_pd(tb.add(2 * j)));
                        let (o1, o3) = butterfly_pd(r1, r3, _mm256_loadu_pd(tb.add(2 * (h + j))));
                        _mm256_storeu_pd(q0, o0);
                        _mm256_storeu_pd(q1, o1);
                        _mm256_storeu_pd(q2, o2);
                        _mm256_storeu_pd(q3, o3);
                    }
                    j += CPL;
                }
                block += 4 * h;
            }
            s += 2;
        }
        if s < stages {
            let h = 1usize << s;
            for chunk in data.chunks_exact_mut(2 * h) {
                let (lo, hi) = chunk.split_at_mut(h);
                // SAFETY: AVX2 is available (this function's contract).
                unsafe { butterfly_pass(lo, hi, &twiddles[s][..h]) };
            }
        }
    }

    /// Sections per lane pass. A forward (or backward) pass of the
    /// cascade is the same as passing the signal through each section
    /// in turn, so longer cascades run as several passes of up to four
    /// sections, whose states stay in registers across the samples.
    const SOS_CHUNK: usize = 4;

    /// The lanes of [`super::sos_filtfilt_with`]: runs of up to four
    /// equal-length channels go through [`sos_lanes`] together; a
    /// channel with no equal-length neighbour runs on the scalar kernel.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sos_filtfilt(sections: &[Biquad], channels: &mut [Vec<f64>]) {
        let mut c = 0;
        while c < channels.len() {
            let n = channels[c].len();
            let k = channels[c..]
                .iter()
                .take(FPL)
                .take_while(|ch| ch.len() == n)
                .count();
            let group = &mut channels[c..c + k];
            if k == 1 {
                scalar::sos_filtfilt(sections, group);
            } else {
                for reverse in [false, true] {
                    for chunk in sections.chunks(SOS_CHUNK) {
                        // SAFETY: AVX2 is available (this function's
                        // contract); the group holds 2–4 channels of
                        // length `n`.
                        unsafe {
                            match *chunk {
                                [a] => sos_lanes(&[a], group, reverse),
                                [a, b] => sos_lanes(&[a, b], group, reverse),
                                [a, b, c] => sos_lanes(&[a, b, c], group, reverse),
                                [a, b, c, d] => sos_lanes(&[a, b, c, d], group, reverse),
                                _ => unreachable!("chunks hold 1..=SOS_CHUNK sections"),
                            }
                        }
                    }
                }
            }
            c += k;
        }
    }

    /// One pass of the `S`-section cascade over 2–4 equal-length
    /// channels, one per lane, from zero state: forward in time, or
    /// backward when `reverse`. Each lane computes `y = b0·v + s1`,
    /// `s1 = (b1·v − a1·y) + s2`, `s2 = b2·v − a2·y` per section, the
    /// scalar [`crate::filter::cascade`] order. Lanes past the group's
    /// width read its first channel and are never stored.
    ///
    /// # Safety
    ///
    /// Requires AVX2. `group` holds 2–4 channels of one length.
    #[target_feature(enable = "avx2")]
    unsafe fn sos_lanes<const S: usize>(
        sections: &[Biquad; S],
        group: &mut [Vec<f64>],
        reverse: bool,
    ) {
        let k = group.len();
        debug_assert!((2..=FPL).contains(&k));
        let n = group[0].len();
        debug_assert!(group.iter().all(|ch| ch.len() == n));
        let first = group[0].as_mut_ptr();
        let mut lanes = [first; FPL];
        for (lane, ch) in lanes.iter_mut().zip(group.iter_mut()).skip(1) {
            *lane = ch.as_mut_ptr();
        }
        let coef = sections.map(|s| [s.b0, s.b1, s.b2, s.a1, s.a2].map(|c| _mm256_set1_pd(c)));
        let mut state = [[_mm256_setzero_pd(); 2]; S];
        for step in 0..n {
            let t = if reverse { n - 1 - step } else { step };
            // SAFETY: every lane points at a live channel of length
            // `n > t`; the group's `&mut` borrow makes the channels
            // distinct, and each is read before it is written.
            unsafe {
                let mut v = _mm256_set_pd(
                    *lanes[3].add(t),
                    *lanes[2].add(t),
                    *lanes[1].add(t),
                    *lanes[0].add(t),
                );
                for (c, st) in coef.iter().zip(state.iter_mut()) {
                    let y = _mm256_add_pd(_mm256_mul_pd(c[0], v), st[0]);
                    st[0] = _mm256_add_pd(
                        _mm256_sub_pd(_mm256_mul_pd(c[1], v), _mm256_mul_pd(c[3], y)),
                        st[1],
                    );
                    st[1] = _mm256_sub_pd(_mm256_mul_pd(c[2], v), _mm256_mul_pd(c[4], y));
                    v = y;
                }
                let lo = _mm256_castpd256_pd128(v);
                let hi = _mm256_extractf128_pd(v, 1);
                _mm_storel_pd(lanes[0].add(t), lo);
                _mm_storeh_pd(lanes[1].add(t), lo);
                if k > 2 {
                    _mm_storel_pd(lanes[2].add(t), hi);
                }
                if k > 3 {
                    _mm_storeh_pd(lanes[3].add(t), hi);
                }
            }
        }
    }

    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_tile(acc: &mut [f64], w: &[f64], col: &[f64], stride: usize, offset: usize) {
        let xb = acc.len();
        let k_rows = w.len();
        if k_rows == 0 || xb == 0 {
            return;
        }
        // One up-front bounds proof for every row the k loop will read;
        // the scalar kernel's per-row slicing would check the same thing
        // k_rows times.
        assert!(
            col.len() >= (k_rows - 1) * stride + offset + xb,
            "column matrix too short for the tile"
        );
        let cp = col.as_ptr();
        let mut j = 0;
        // 8-wide column blocks: 2 ymm accumulators live across the whole
        // k loop (the point of the kernel — see the wrapper docs).
        while j + 2 * FPL <= xb {
            // SAFETY: `j + 7 < xb ≤ acc.len()` and every
            // `k·stride + offset + j + 7` is inside `col` by the assert.
            unsafe {
                let ap = acc.as_mut_ptr().add(j);
                let mut a0 = _mm256_loadu_pd(ap);
                let mut a1 = _mm256_loadu_pd(ap.add(FPL));
                for (k, &wk) in w.iter().enumerate() {
                    let kv = _mm256_set1_pd(wk);
                    let base = cp.add(k * stride + offset + j);
                    let s0 = _mm256_loadu_pd(base);
                    let s1 = _mm256_loadu_pd(base.add(FPL));
                    a0 = _mm256_add_pd(a0, _mm256_mul_pd(kv, s0));
                    a1 = _mm256_add_pd(a1, _mm256_mul_pd(kv, s1));
                }
                _mm256_storeu_pd(ap, a0);
                _mm256_storeu_pd(ap.add(FPL), a1);
            }
            j += 2 * FPL;
        }
        // Column tail (< 8): scalar, same per-element order.
        if j < xb {
            for (k, &wk) in w.iter().enumerate() {
                let row = k * stride + offset;
                for i in j..xb {
                    acc[i] += wk * col[row + i];
                }
            }
        }
    }

    /// # Safety
    ///
    /// Requires AVX2. `acc0` and `acc1` must not alias (guaranteed by
    /// the wrapper's two `&mut` borrows).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm_tile2(
        acc0: &mut [f64],
        acc1: &mut [f64],
        w0: &[f64],
        w1: &[f64],
        col: &[f64],
        stride: usize,
        offset: usize,
    ) {
        let xb = acc0.len().min(acc1.len());
        let k_rows = w0.len().min(w1.len());
        if k_rows == 0 || xb == 0 {
            return;
        }
        assert!(
            col.len() >= (k_rows - 1) * stride + offset + xb,
            "column matrix too short for the tile"
        );
        let cp = col.as_ptr();
        let mut j = 0;
        // 8-wide column blocks with both output channels in flight:
        // 4 ymm accumulators across the k loop, each source load shared.
        while j + 2 * FPL <= xb {
            // SAFETY: bounds as in `gemm_tile`; `acc0`/`acc1` are
            // distinct slices by the two `&mut` borrows.
            unsafe {
                let a0p = acc0.as_mut_ptr().add(j);
                let a1p = acc1.as_mut_ptr().add(j);
                let mut a00 = _mm256_loadu_pd(a0p);
                let mut a01 = _mm256_loadu_pd(a0p.add(FPL));
                let mut a10 = _mm256_loadu_pd(a1p);
                let mut a11 = _mm256_loadu_pd(a1p.add(FPL));
                for k in 0..k_rows {
                    let k0v = _mm256_set1_pd(w0[k]);
                    let k1v = _mm256_set1_pd(w1[k]);
                    let base = cp.add(k * stride + offset + j);
                    let s0 = _mm256_loadu_pd(base);
                    let s1 = _mm256_loadu_pd(base.add(FPL));
                    a00 = _mm256_add_pd(a00, _mm256_mul_pd(k0v, s0));
                    a01 = _mm256_add_pd(a01, _mm256_mul_pd(k0v, s1));
                    a10 = _mm256_add_pd(a10, _mm256_mul_pd(k1v, s0));
                    a11 = _mm256_add_pd(a11, _mm256_mul_pd(k1v, s1));
                }
                _mm256_storeu_pd(a0p, a00);
                _mm256_storeu_pd(a0p.add(FPL), a01);
                _mm256_storeu_pd(a1p, a10);
                _mm256_storeu_pd(a1p.add(FPL), a11);
            }
            j += 2 * FPL;
        }
        if j < xb {
            for k in 0..k_rows {
                let row = k * stride + offset;
                for i in j..xb {
                    acc0[i] += w0[k] * col[row + i];
                    acc1[i] += w1[k] * col[row + i];
                }
            }
        }
    }

    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sqdist_f32(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let head = n - n % 8;
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < head {
            // SAFETY: `i + 7 < head ≤ n` stays in bounds for both slices.
            unsafe {
                let x = _mm256_loadu_ps(a.as_ptr().add(i));
                let y = _mm256_loadu_ps(b.as_ptr().add(i));
                let d = _mm256_sub_ps(x, y);
                acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
            }
            i += 8;
        }
        // Reduction tree mirrored by `scalar::sqdist_f32`: halves, then
        // the SSE pairwise adds.
        let lo = _mm256_castps256_ps128(acc);
        let hi = _mm256_extractf128_ps(acc, 1);
        let t = _mm_add_ps(lo, hi); // [t0, t1, t2, t3]
        let u = _mm_add_ps(t, _mm_movehl_ps(t, t)); // [t0+t2, t1+t3, …]
        let mut sum = _mm_cvtss_f32(_mm_add_ss(u, _mm_movehdup_ps(u)));
        for k in head..n {
            let d = a[k] - b[k];
            sum += d * d;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cx(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    /// Deterministic pseudo-random operand streams (no `rand` needed
    /// here; the proptest suite does the heavy fuzzing).
    fn lcg_f64(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
    }

    fn cvec(n: usize, seed: u64) -> Vec<Complex> {
        let mut s = seed.max(1);
        (0..n)
            .map(|_| cx(lcg_f64(&mut s), lcg_f64(&mut s)))
            .collect()
    }

    fn fvec(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.max(1);
        (0..n).map(|_| lcg_f64(&mut s)).collect()
    }

    fn paths() -> Vec<SimdPath> {
        let mut p = vec![SimdPath::Scalar];
        if avx2_supported() {
            p.push(SimdPath::Avx2);
        }
        p
    }

    // ── scalar-reference unit tests (Miri-safe on every host: the
    //    AVX2 variants only join in when the CPU supports them, and
    //    `avx2_supported()` is hardwired false under Miri). ──

    #[test]
    fn scalar_butterfly_matches_hand_computation() {
        let mut lo = vec![cx(1.0, 2.0), cx(-0.5, 0.25), cx(3.0, -1.0)];
        let mut hi = vec![cx(0.5, -1.5), cx(2.0, 1.0), cx(-1.0, 0.125)];
        let tw = vec![cx(1.0, 0.0), cx(0.0, -1.0), cx(0.5, 0.5)];
        scalar::butterfly_pass(&mut lo, &mut hi, &tw);
        // v = hi·tw; lo' = u + v, hi' = u − v.
        assert_eq!(lo[0], cx(1.5, 0.5));
        assert_eq!(hi[0], cx(0.5, 3.5));
        assert_eq!(lo[1], cx(0.5, -1.75)); // v = (1, −2)
        assert_eq!(hi[1], cx(-1.5, 2.25));
        assert_eq!(lo[2], cx(2.4375, -1.4375)); // v = (−0.5625, −0.4375)
        assert_eq!(hi[2], cx(3.5625, -0.5625));
    }

    /// The unplanned FFT's stage loop over explicit tables: one stage
    /// after another, one butterfly after another.
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

    #[test]
    fn radix2_stages_match_the_stage_by_stage_loop() {
        // Arbitrary (not unit) twiddles: the kernel must use each table
        // entry where the plain loop does, whatever its value. 2^0..2^7
        // covers no stage, the lone length-2 stage, the fused pair alone,
        // and fused + paired passes with and without an odd stage left.
        for path in paths() {
            for stages in 0..8usize {
                let n = 1 << stages;
                let twiddles: Vec<Vec<Complex>> =
                    (0..stages).map(|s| cvec(1 << s, 101 + s as u64)).collect();
                let input = cvec(n, 103 + stages as u64);
                let mut want = input.clone();
                stages_one_by_one(&mut want, &twiddles);
                let mut got = input;
                radix2_stages_with(path, &mut got, &twiddles);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.re.to_bits(), w.re.to_bits(), "n={n} [{i}] on {path:?}");
                    assert_eq!(g.im.to_bits(), w.im.to_bits(), "n={n} [{i}] on {path:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "2^stages points")]
    fn radix2_stages_reject_a_length_the_tables_do_not_fit() {
        let twiddles = vec![vec![Complex::ONE], vec![Complex::ONE; 2]];
        radix2_stages_with(SimdPath::Scalar, &mut [Complex::ZERO; 8], &twiddles);
    }

    #[test]
    #[should_panic(expected = "stage 1 is short")]
    fn radix2_stages_reject_a_short_twiddle_table() {
        let twiddles = vec![vec![Complex::ONE], vec![Complex::ONE]];
        radix2_stages_with(SimdPath::Scalar, &mut [Complex::ZERO; 4], &twiddles);
    }

    #[test]
    fn sos_filtfilt_matches_per_channel_filtfilt() {
        use crate::filter::SosFilter;
        // 1–6 channels of one length (lane groups of 4 + 2, 4 + 1, …),
        // then ragged lengths that split the groups; two sections, and
        // five (the AVX2 path runs them as passes of four and one).
        let mut shapes: Vec<Vec<usize>> = (1..=6usize)
            .flat_map(|m| [0usize, 1, 9].map(|n| vec![n; m]))
            .collect();
        shapes.push(vec![9, 9, 4, 4, 4, 0, 9]);
        for (path, order) in paths().into_iter().flat_map(|p| [(p, 2), (p, 5)]) {
            let bp = SosFilter::butterworth_bandpass(order, 2_000.0, 3_000.0, 48_000.0);
            for lens in &shapes {
                let input: Vec<Vec<f64>> = lens
                    .iter()
                    .enumerate()
                    .map(|(c, &n)| fvec(n, 107 + c as u64))
                    .collect();
                let mut got = input.clone();
                sos_filtfilt_with(path, bp.sections(), &mut got);
                for (c, (g, x)) in got.iter().zip(&input).enumerate() {
                    let want = bp.filtfilt(x);
                    assert_eq!(g.len(), want.len());
                    for (t, (a, b)) in g.iter().zip(&want).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "order {order} {lens:?} ch {c} [{t}] on {path:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_tile_kernels_match_naive_loop() {
        for path in paths() {
            // Tile widths straddling the 8-wide vector block, strides
            // larger than the tile, nonzero offsets.
            for (xb, k_rows, stride, offset) in [
                (8, 9, 11, 0),
                (8, 5, 8, 3),
                (5, 4, 7, 1),
                (16, 3, 20, 2),
                (1, 2, 3, 0),
            ] {
                let col = fvec((k_rows - 1) * stride + offset + xb, 41);
                let w0 = fvec(k_rows, 43);
                let w1 = fvec(k_rows, 47);

                let mut acc = fvec(xb, 53);
                let mut want = acc.clone();
                gemm_tile_with(path, &mut acc, &w0, &col, stride, offset);
                for (k, &wk) in w0.iter().enumerate() {
                    for i in 0..xb {
                        want[i] += wk * col[k * stride + offset + i];
                    }
                }
                assert_eq!(acc, want, "gemm_tile xb={xb} k={k_rows} on {path:?}");

                let mut a0 = fvec(xb, 59);
                let mut a1 = fvec(xb, 61);
                let (mut w0_want, mut w1_want) = (a0.clone(), a1.clone());
                gemm_tile2_with(path, &mut a0, &mut a1, &w0, &w1, &col, stride, offset);
                for k in 0..k_rows {
                    for i in 0..xb {
                        w0_want[i] += w0[k] * col[k * stride + offset + i];
                        w1_want[i] += w1[k] * col[k * stride + offset + i];
                    }
                }
                assert_eq!(a0, w0_want, "gemm_tile2 ch0 xb={xb} on {path:?}");
                assert_eq!(a1, w1_want, "gemm_tile2 ch1 xb={xb} on {path:?}");
            }
            // Empty weights and empty tiles are no-ops.
            let mut acc = fvec(4, 67);
            let before = acc.clone();
            gemm_tile_with(path, &mut acc, &[], &[], 5, 0);
            assert_eq!(acc, before);
            gemm_tile_with(path, &mut [], &[1.0], &[2.0], 1, 0);
        }
    }

    #[test]
    fn sqdist_matches_reference_and_paths_agree() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 32, 63] {
            let a64 = fvec(n, 71);
            let b64 = fvec(n, 73);
            let a32: Vec<f32> = a64.iter().map(|&v| v as f32).collect();
            let b32: Vec<f32> = b64.iter().map(|&v| v as f32).collect();
            // Paths agree bit-for-bit.
            let s32 = sqdist_f32_with(SimdPath::Scalar, &a32, &b32);
            for path in paths() {
                assert_eq!(
                    sqdist_f32_with(path, &a32, &b32).to_bits(),
                    s32.to_bits(),
                    "sqdist_f32 n={n} on {path:?}"
                );
            }
            // And the value is the squared distance (up to `f32`
            // rounding and the tree's reassociation, which a loose
            // tolerance absorbs).
            let naive: f64 = a32
                .iter()
                .zip(&b32)
                .map(|(&x, &y)| (x as f64 - y as f64).powi(2))
                .sum();
            assert!((s32 as f64 - naive).abs() <= 1e-5 * naive.max(1.0), "n={n}");
        }
        // Identical operands give exactly zero.
        let xs: Vec<f32> = fvec(21, 79).iter().map(|&v| v as f32).collect();
        assert_eq!(sqdist_f32(&xs, &xs), 0.0);
    }

    #[test]
    fn sqdist_clamps_to_shortest_operand() {
        let a32: Vec<f32> = fvec(9, 81).iter().map(|&v| v as f32).collect();
        let b32: Vec<f32> = fvec(5, 83).iter().map(|&v| v as f32).collect();
        assert_eq!(
            sqdist_f32(&a32, &b32).to_bits(),
            sqdist_f32(&a32[..5], &b32).to_bits()
        );
    }

    // ── dispatch machinery ──

    #[test]
    fn env_parsing_is_permissive() {
        assert_eq!(parse_request("scalar"), Request::Scalar);
        assert_eq!(parse_request(" SCALAR "), Request::Scalar);
        assert_eq!(parse_request("avx2"), Request::Avx2);
        assert_eq!(parse_request("AVX2"), Request::Avx2);
        assert_eq!(parse_request("auto"), Request::Auto);
        assert_eq!(parse_request(""), Request::Auto);
        assert_eq!(parse_request("sse9-typo"), Request::Auto);
    }

    #[test]
    fn active_is_cached_and_consistent_with_env() {
        let first = active();
        // A second call must hit the cache and agree.
        assert_eq!(active(), first);
        let requested = std::env::var(SIMD_ENV)
            .map(|v| parse_request(&v))
            .unwrap_or(Request::Auto);
        let expect = match requested {
            Request::Scalar => SimdPath::Scalar,
            Request::Auto | Request::Avx2 => {
                if avx2_supported() {
                    SimdPath::Avx2
                } else {
                    SimdPath::Scalar
                }
            }
        };
        assert_eq!(first, expect);
    }

    #[test]
    fn dispatch_gauge_reports_active_path() {
        echo_obs::set_enabled(true);
        record_dispatch();
        let snap = echo_obs::snapshot();
        let (_, value) = snap
            .gauges
            .iter()
            .find(|(name, _)| name == DISPATCH_GAUGE)
            .expect("simd.dispatch gauge registered");
        assert_eq!(*value, active().gauge_value());
    }

    #[test]
    fn gauge_values_are_stable() {
        assert_eq!(SimdPath::Scalar.gauge_value(), 1);
        assert_eq!(SimdPath::Avx2.gauge_value(), 2);
        assert_eq!(SimdPath::Scalar.name(), "scalar");
        assert_eq!(SimdPath::Avx2.name(), "avx2");
    }
}
