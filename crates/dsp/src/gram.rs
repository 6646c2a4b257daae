//! Gated real-beam energies from running Gram sums — the acoustic-image
//! pixel kernel (paper §V-C).
//!
//! A pixel is the energy of a real beam over its cell's time gate,
//! `E = Σ_{t ∈ [start, end)} (vᵀ y[t])²`, where
//! `y[t] = (Re x₀[t], Im x₀[t], …, Re x_{M−1}[t], Im x_{M−1}[t])` stacks
//! one sample of every channel and `v = (Re w₀, Im w₀, …)` stacks the
//! cell's weights, so `vᵀ y[t]` is the real part of the beamformed
//! sample `Σ_m conj(w_m)·x_m[t]`. The beam is linear in the samples, so
//! `E = vᵀ G v` with `G = Σ_t y[t]·y[t]ᵀ`, the gate's real Gram matrix.
//!
//! [`GateGram::new`] makes one pass over the union `[lo, hi)` of a
//! plane's gates and keeps the running sums
//! `S[t] = Σ_{lo ≤ τ < t} y[τ]·y[τ]ᵀ`. [`GateGram::beam_energy`] then
//! costs one difference `S[end] − S[start]` and one quadratic form per
//! cell, independent of the gate's length, instead of one beamformed
//! sample per gate sample.
//!
//! Only the upper triangle of each `2M × 2M` sum is kept, in 2 × 2
//! channel blocks: for each channel `m`, its diagonal block
//! `[Re·Re, Re·Im, Im·Im]`, then for each `n > m` the block
//! `[Re_m·Re_n, Re_m·Im_n, Im_m·Re_n, Im_m·Im_n]`. The quadratic form
//! counts every block above the diagonal twice. Both passes run in a
//! fixed order in plain scalar code, so the result is the same on every
//! thread count and SIMD dispatch mode.
//!
//! # Error bound
//!
//! The energy is not bit-identical to the direct per-sample sum. With
//! `L = hi − lo` samples in the union and `ε` the `f64` machine
//! epsilon, each running-sum entry carries a rounding error of at most
//! `≈ L·ε·Σ_τ |y_i[τ]·y_j[τ]|`, and the difference and the quadratic
//! form add `O(M)·ε` relative to `Σ_ij |v_i||v_j||D_ij|`. By
//! Cauchy–Schwarz every term is bounded by `‖v‖²·E_union`, where
//! `E_union = Σ_{t ∈ [lo, hi)} ‖y[t]‖²` is the energy of the union, and
//! the tests hold the energy to `4·(L + 2M + 4)·ε·‖v‖²·E_union` of the
//! per-sample sum. The bound is absolute: a beam that nearly cancels
//! has a tiny energy and no meaningful relative error. A rounding that
//! takes the form below zero is clamped to `0.0`.

use crate::Complex;

/// Running upper-triangle Gram sums of a multichannel signal over a
/// span `[lo, hi)`, from which any gate inside the span has its real
/// beam energy read in `O(M²)`.
#[derive(Debug)]
pub struct GateGram {
    /// Channel count `M`.
    channels: usize,
    /// First sample of the span.
    lo: usize,
    /// One past the last sample of the span (clamped to the shortest
    /// channel).
    hi: usize,
    /// `hi − lo + 1` rows of `M·(2M + 1)` sums; row `k` is `S[lo + k]`.
    sums: Vec<f64>,
}

impl GateGram {
    /// Builds the running sums of `channels` over `[lo, hi)`. `hi` is
    /// clamped to the shortest channel; an empty span keeps only the
    /// zero row.
    pub fn new(channels: &[Vec<Complex>], lo: usize, hi: usize) -> Self {
        let m = channels.len();
        let hi = channels.iter().fold(hi, |h, ch| h.min(ch.len())).max(lo);
        let tri = m * (2 * m + 1);
        let mut sums = Vec::with_capacity((hi - lo + 1) * tri);
        sums.resize(tri, 0.0);
        for t in lo..hi {
            let prev = sums.len() - tri;
            sums.extend_from_within(prev..);
            let mut row = &mut sums[prev + tri..];
            for (i, chi) in channels.iter().enumerate() {
                let a = chi[t];
                let (diag, rest) = row.split_at_mut(3);
                diag[0] += a.re * a.re;
                diag[1] += a.re * a.im;
                diag[2] += a.im * a.im;
                let (cross, rest) = rest.split_at_mut(4 * (m - i - 1));
                for (block, chj) in cross.chunks_exact_mut(4).zip(&channels[i + 1..]) {
                    let b = chj[t];
                    block[0] += a.re * b.re;
                    block[1] += a.re * b.im;
                    block[2] += a.im * b.re;
                    block[3] += a.im * b.im;
                }
                row = rest;
            }
        }
        GateGram {
            channels: m,
            lo,
            hi,
            sums,
        }
    }

    /// The energy `Σ_{t ∈ [start, end)} (Σ_m Re(conj(w_m)·x_m[t]))²` of
    /// the real beam with `weights` (one per channel) over the gate
    /// `[start, end)` clipped to the span; `0.0` for an empty gate.
    /// Never negative: a form that rounds below zero is clamped to
    /// `0.0`. See the module docs for the error bound.
    ///
    /// # Panics
    ///
    /// If `weights` does not hold one weight per channel.
    pub fn beam_energy(&self, weights: &[Complex], start: usize, end: usize) -> f64 {
        assert_eq!(weights.len(), self.channels, "one weight per channel");
        let (start, end) = (start.max(self.lo), end.min(self.hi));
        if start >= end {
            return 0.0;
        }
        let tri = self.channels * (2 * self.channels + 1);
        let row = |t: usize| &self.sums[(t - self.lo) * tri..][..tri];
        let (mut s0, mut s1) = (row(start), row(end));
        let mut energy = 0.0;
        for (i, wi) in weights.iter().enumerate() {
            let cross_len = 4 * (self.channels - i - 1);
            let (d0, rest0) = s0.split_at(3 + cross_len);
            let (d1, rest1) = s1.split_at(3 + cross_len);
            let (rr, ri, ii) = (d1[0] - d0[0], d1[1] - d0[1], d1[2] - d0[2]);
            // Σ_{j>i} G_ij·v_j, the re and im rows of channel i.
            let (mut cre, mut cim) = (0.0, 0.0);
            let blocks = d0[3..].chunks_exact(4).zip(d1[3..].chunks_exact(4));
            for ((b0, b1), wj) in blocks.zip(&weights[i + 1..]) {
                cre += (b1[0] - b0[0]) * wj.re + (b1[1] - b0[1]) * wj.im;
                cim += (b1[2] - b0[2]) * wj.re + (b1[3] - b0[3]) * wj.im;
            }
            let ure = rr * wi.re + ri * wi.im + 2.0 * cre;
            let uim = ri * wi.re + ii * wi.im + 2.0 * cim;
            energy += wi.re * ure + wi.im * uim;
            (s0, s1) = (rest0, rest1);
        }
        if energy < 0.0 {
            0.0
        } else {
            energy
        }
    }
}
