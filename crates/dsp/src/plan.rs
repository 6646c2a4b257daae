//! Precomputed FFT plans and the process-wide plan cache.
//!
//! Every transform the pipeline runs — analytic signals, matched
//! filters, convolutions — re-derived its bit-reversal permutation and
//! per-stage twiddle factors on each call, and Bluestein lengths
//! additionally rebuilt the quadratic chirp and its filter spectrum. An
//! [`FftPlan`] computes all of that once per transform size; a small LRU
//! ([`fft_plan`], the same pattern as the imaging steering-field cache)
//! shares plans process-wide behind an [`Arc`].
//!
//! Planned transforms are **bit-identical** to the unplanned
//! [`fft`](crate::fft::fft)/[`ifft`](crate::fft::ifft): the twiddle tables are generated by the very same
//! repeated-multiplication recurrence the unplanned loops run, the
//! butterfly arithmetic is unchanged, and the Bluestein chirp/filter
//! tables are the same values the per-call path derives. The
//! determinism suite pins this to `f64::to_bits` equality.

use crate::complex::Complex;
use crate::fft::next_pow2;
use crate::simd;
use std::f64::consts::PI;
use std::sync::{Arc, Mutex, OnceLock};

/// Reusable transform scratch: callers that run many planned transforms
/// (matched filtering a beep train, Hilbert transforms per channel) pass
/// one of these to the `_with` variants so the Bluestein convolution
/// buffer and padded work buffers are allocated once.
#[derive(Debug, Default, Clone)]
pub struct FftScratch {
    /// Bluestein convolution / padded-signal work buffer.
    pub(crate) buf: Vec<Complex>,
}

impl FftScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Precomputed radix-2 tables: the bit-reversal swap list plus one
/// twiddle table per butterfly stage and direction.
#[derive(Debug)]
struct Radix2Tables {
    n: usize,
    swaps: Vec<(u32, u32)>,
    /// Forward twiddles, one `Vec` per stage (`len = 2, 4, …, n`).
    fwd: Vec<Vec<Complex>>,
    /// Inverse twiddles, same layout.
    inv: Vec<Vec<Complex>>,
}

impl Radix2Tables {
    fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        // The same bit-reversal walk as the unplanned loop; recording the
        // (i, j) swap pairs reproduces the identical permutation.
        let mut swaps = Vec::new();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i as u32, j as u32));
            }
        }
        let stage_table = |sign: f64| -> Vec<Vec<Complex>> {
            let mut stages = Vec::new();
            let mut len = 2;
            while len <= n {
                let ang = sign * 2.0 * PI / len as f64;
                let wlen = Complex::cis(ang);
                // Identical recurrence to the unplanned loop: w starts at
                // ONE and is repeatedly multiplied by wlen, so table entry
                // j carries the exact bits the per-call path would use.
                let mut table = Vec::with_capacity(len / 2);
                let mut w = Complex::ONE;
                for _ in 0..len / 2 {
                    table.push(w);
                    w *= wlen;
                }
                stages.push(table);
                len <<= 1;
            }
            stages
        };
        Radix2Tables {
            n,
            swaps,
            fwd: stage_table(-1.0),
            inv: stage_table(1.0),
        }
    }

    /// In-place radix-2 transform using the precomputed tables. No
    /// normalisation (matching the raw `fft_radix2`).
    fn process(&self, data: &mut [Complex], inverse: bool) {
        debug_assert_eq!(data.len(), self.n);
        if self.n <= 1 {
            return;
        }
        for &(i, j) in &self.swaps {
            data.swap(i as usize, j as usize);
        }
        // Resolve the SIMD path once per transform, not per butterfly.
        // The AVX2 butterfly preserves the scalar rounding bit-for-bit
        // (see `simd` module docs), so planned transforms stay
        // bit-identical to the unplanned `fft`/`ifft` oracles in every
        // dispatch mode.
        let path = simd::active();
        let stages = if inverse { &self.inv } else { &self.fwd };
        for stage in stages {
            let len = stage.len() * 2;
            for chunk in data.chunks_mut(len) {
                let (lo, hi) = chunk.split_at_mut(len / 2);
                simd::butterfly_pass_with(path, lo, hi, stage);
            }
        }
    }
}

/// Per-direction Bluestein tables: the quadratic chirp and the forward
/// spectrum of the chirp filter `b`.
#[derive(Debug)]
struct ChirpTables {
    chirp: Vec<Complex>,
    bspec: Vec<Complex>,
}

impl ChirpTables {
    fn new(n: usize, conv_len: usize, inner: &Radix2Tables, inverse: bool) -> Self {
        let sign = if inverse { 1.0 } else { -1.0 };
        let m2 = 2 * n as u64;
        let chirp: Vec<Complex> = (0..n)
            .map(|k| {
                let k = k as u64;
                let q = (k * k) % m2;
                Complex::cis(sign * PI * q as f64 / n as f64)
            })
            .collect();
        let mut b = vec![Complex::ZERO; conv_len];
        b[0] = chirp[0].conj();
        for k in 1..n {
            let c = chirp[k].conj();
            b[k] = c;
            b[conv_len - k] = c;
        }
        inner.process(&mut b, false);
        ChirpTables { chirp, bspec: b }
    }
}

#[derive(Debug)]
enum PlanKind {
    Radix2(Radix2Tables),
    Bluestein {
        inner: Radix2Tables,
        conv_len: usize,
        fwd: ChirpTables,
        inv: ChirpTables,
    },
}

/// A reusable FFT plan for one transform length.
///
/// # Example
///
/// ```
/// use echo_dsp::fft::fft;
/// use echo_dsp::plan::fft_plan;
/// use echo_dsp::Complex;
///
/// let plan = fft_plan(12); // Bluestein length
/// let signal: Vec<Complex> = (0..12).map(|i| Complex::from_real(i as f64)).collect();
/// let mut planned = signal.clone();
/// plan.fft(&mut planned);
/// let mut unplanned = signal;
/// fft(&mut unplanned);
/// for (a, b) in planned.iter().zip(unplanned.iter()) {
///     assert_eq!(a.re.to_bits(), b.re.to_bits());
///     assert_eq!(a.im.to_bits(), b.im.to_bits());
/// }
/// ```
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    kind: PlanKind,
}

impl FftPlan {
    /// Builds a plan for length-`n` transforms (radix-2 for powers of
    /// two, Bluestein otherwise).
    pub fn new(n: usize) -> Self {
        let kind = if n <= 1 || n.is_power_of_two() {
            PlanKind::Radix2(Radix2Tables::new(n.max(1)))
        } else {
            let conv_len = next_pow2(2 * n - 1);
            let inner = Radix2Tables::new(conv_len);
            let fwd = ChirpTables::new(n, conv_len, &inner, false);
            let inv = ChirpTables::new(n, conv_len, &inner, true);
            PlanKind::Bluestein {
                inner,
                conv_len,
                fwd,
                inv,
            }
        };
        FftPlan { n, kind }
    }

    /// The transform length this plan serves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the degenerate zero/one-point plan.
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// In-place forward FFT (bit-identical to [`crate::fft::fft`]).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the planned length.
    pub fn fft(&self, data: &mut [Complex]) {
        self.fft_with(data, &mut FftScratch::new());
    }

    /// In-place inverse FFT, `1/n`-normalised (bit-identical to
    /// [`crate::fft::ifft`]).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the planned length.
    pub fn ifft(&self, data: &mut [Complex]) {
        self.ifft_with(data, &mut FftScratch::new());
    }

    /// [`FftPlan::fft`] reusing caller scratch (Bluestein lengths avoid
    /// re-allocating the convolution buffer).
    pub fn fft_with(&self, data: &mut [Complex], scratch: &mut FftScratch) {
        self.process(data, false, scratch);
    }

    /// [`FftPlan::ifft`] reusing caller scratch.
    pub fn ifft_with(&self, data: &mut [Complex], scratch: &mut FftScratch) {
        self.process(data, true, scratch);
        let n = data.len();
        if n > 1 {
            simd::scale_in_place(data, 1.0 / n as f64);
        }
    }

    /// The raw (unnormalised) transform shared by both directions.
    fn process(&self, data: &mut [Complex], inverse: bool, scratch: &mut FftScratch) {
        assert_eq!(data.len(), self.n, "plan length mismatch");
        if self.n <= 1 {
            return;
        }
        match &self.kind {
            PlanKind::Radix2(tables) => tables.process(data, inverse),
            PlanKind::Bluestein {
                inner,
                conv_len,
                fwd,
                inv,
            } => {
                let tables = if inverse { inv } else { fwd };
                let a = &mut scratch.buf;
                a.clear();
                a.resize(*conv_len, Complex::ZERO);
                let n = data.len();
                simd::cmul_into(&mut a[..n], data, &tables.chirp);
                inner.process(a, false);
                simd::cmul_in_place(a, &tables.bspec);
                inner.process(a, true);
                let scale = 1.0 / *conv_len as f64;
                simd::cmul_scale_into(data, &a[..n], &tables.chirp, scale);
            }
        }
    }
}

/// One cache entry: the slot is published under the lock before the
/// plan exists, so racing workers coalesce on one table build and the
/// `fft_plan_cache.hit` / `fft_plan_cache.miss` counters are
/// deterministic for a fixed workload at any worker count.
type Slot = Arc<OnceLock<Arc<FftPlan>>>;

/// Most-recently-used-first plan list; linear scan is fine at this size.
static PLANS: Mutex<Vec<(usize, Slot)>> = Mutex::new(Vec::new());

/// Distinct transform sizes kept alive. One run touches the capture
/// length, its Bluestein convolution length and a few matched-filter /
/// resampler paddings, so sixteen entries hold the working set.
const PLAN_CACHE_CAPACITY: usize = 16;

/// Returns the process-wide plan for length-`n` transforms, computing
/// and caching it on first use.
pub fn fft_plan(n: usize) -> Arc<FftPlan> {
    let slot = {
        let mut cache = PLANS.lock().expect("fft plan cache poisoned");
        if let Some(pos) = cache.iter().position(|(len, _)| *len == n) {
            echo_obs::counter!("fft_plan_cache.hit").inc();
            let hit = cache.remove(pos);
            let slot = Arc::clone(&hit.1);
            cache.insert(0, hit);
            slot
        } else {
            echo_obs::counter!("fft_plan_cache.miss").inc();
            let slot: Slot = Arc::new(OnceLock::new());
            cache.insert(0, (n, Arc::clone(&slot)));
            cache.truncate(PLAN_CACHE_CAPACITY);
            slot
        }
    };
    // Build outside the lock: a Bluestein plan is three full-length
    // table computations, and workers on *different* lengths should not
    // serialise on it. Same-length racers coalesce on the slot's
    // `get_or_init` — one builds, the rest block for the shared plan.
    Arc::clone(slot.get_or_init(|| Arc::new(FftPlan::new(n))))
}

/// Number of plans currently cached (for tests and benchmarks).
pub fn plan_cache_len() -> usize {
    PLANS.lock().expect("fft plan cache poisoned").len()
}

/// Empties the plan cache (for tests and benchmarks needing a cold
/// start).
pub fn clear_plan_cache() {
    PLANS.lock().expect("fft plan cache poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{fft, ifft};

    fn signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((i as f64 * 0.83).sin(), (i as f64 * 0.29).cos()))
            .collect()
    }

    #[test]
    fn planned_fft_matches_unplanned_bitwise() {
        for n in [1usize, 2, 4, 8, 64, 256, 3, 5, 12, 97, 100, 243] {
            let orig = signal(n);
            let plan = FftPlan::new(n);
            let mut planned = orig.clone();
            plan.fft(&mut planned);
            let mut unplanned = orig.clone();
            fft(&mut unplanned);
            for (a, b) in planned.iter().zip(unplanned.iter()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "n={n}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "n={n}");
            }
            let mut planned_inv = orig.clone();
            plan.ifft(&mut planned_inv);
            let mut unplanned_inv = orig;
            ifft(&mut unplanned_inv);
            for (a, b) in planned_inv.iter().zip(unplanned_inv.iter()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "inverse n={n}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "inverse n={n}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_transparent() {
        let plan = FftPlan::new(97);
        let mut scratch = FftScratch::new();
        let mut a = signal(97);
        plan.fft_with(&mut a, &mut scratch);
        // Re-run through the now-dirty scratch.
        let mut b = signal(97);
        plan.fft_with(&mut b, &mut scratch);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn cache_hits_share_plans_and_stay_bounded() {
        clear_plan_cache();
        let a = fft_plan(48);
        let b = fft_plan(48);
        assert!(Arc::ptr_eq(&a, &b));
        for n in 100..(100 + 2 * PLAN_CACHE_CAPACITY) {
            let _ = fft_plan(n);
        }
        assert!(plan_cache_len() <= PLAN_CACHE_CAPACITY);
    }

    #[test]
    fn plan_rejects_wrong_length() {
        let plan = FftPlan::new(8);
        assert_eq!(plan.len(), 8);
        let result = std::panic::catch_unwind(|| {
            let mut data = vec![Complex::ZERO; 4];
            plan.fft(&mut data);
        });
        assert!(result.is_err());
    }
}
