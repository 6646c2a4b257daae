//! Coarse centroid prefilter: an IVF-style inverted index over per-user
//! embedding centroids.
//!
//! Scoring every enrolled user's SVDD gates is linear in population;
//! the prefilter cuts that to a candidate set. Users are bucketed into
//! `≈√n` cells by nearest cell centroid; a query probes the `nprobe`
//! nearest cells and ranks only their members by squared distance,
//! using the `echo_dsp::simd::sqdist_f32` kernel (bit-identical across
//! SIMD paths, so candidate sets — and therefore decisions — are
//! deterministic on any machine).
//!
//! Cell centroids are a deterministic strided sample of the user
//! centroids rather than k-means: build is O(n·√n) with zero iteration
//! count to tune, rebuilds are reproducible byte-for-byte, and for the
//! well-separated speaker embeddings this store holds, recall at the
//! default `nprobe = √cells` is indistinguishable from exhaustive
//! search (the parity suite in `tests/store_parity.rs` pins this).
//!
//! Everything here is expressed over flat slices ([`candidates_in`]);
//! [`CoarseIndex`] is the owned wrapper the in-memory store, the shard
//! writer and the shard reader use. The index also holds the
//! [`build_scan`] array — a cell-ordered copy of the member centroids
//! (`n × dim` f32, a few percent of a shard) that is rebuilt wherever
//! the index is, so a query streams each probed cell instead of taking
//! a cache miss per member.

use super::StoreError;
use echo_dsp::simd::sqdist_f32_with;
use std::collections::BinaryHeap;

/// Upper bound on cells: past this, probing √cells of them stops
/// shrinking the scan set meaningfully and cell-selection overhead
/// dominates.
pub const MAX_CELLS: usize = 4096;

/// Number of cells for a population of `n` users: `⌈√n⌉` clamped to
/// `[1, MAX_CELLS]`.
pub fn n_cells_for(n: usize) -> usize {
    isqrt_ceil(n).clamp(1, MAX_CELLS)
}

/// Cells probed per query for an index with `n_cells` cells:
/// `⌈√n_cells⌉`, at least 1.
pub fn nprobe_for(n_cells: usize) -> usize {
    isqrt_ceil(n_cells).clamp(1, n_cells.max(1))
}

fn isqrt_ceil(n: usize) -> usize {
    let mut r = (n as f64).sqrt() as usize;
    while r * r < n {
        r += 1;
    }
    while r > 0 && (r - 1) * (r - 1) >= n {
        r -= 1;
    }
    r
}

/// An owned coarse index: cell centroids plus a CSR map from cell to
/// member user indices, and a cell-ordered copy of the member centroids
/// so a query scans each probed cell sequentially.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseIndex {
    dim: usize,
    /// Flat `n_cells × dim` cell centroids.
    cells: Vec<f32>,
    /// CSR offsets, `n_cells + 1` entries.
    offsets: Vec<u32>,
    /// CSR payload: user indices grouped by cell, `n` entries.
    members: Vec<u32>,
    /// `n × dim` member centroids permuted into CSR order (see
    /// [`build_scan`]) — derived, never serialized.
    scan: Vec<f32>,
}

impl CoarseIndex {
    /// Builds the index over flat `n × dim` user centroids.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `centroids.len()` is not a multiple of
    /// `dim`.
    pub fn build(centroids: &[f32], dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(centroids.len() % dim, 0, "centroids not a multiple of dim");
        let n = centroids.len() / dim;
        let n_cells = n_cells_for(n);
        if n == 0 {
            return CoarseIndex {
                dim,
                cells: Vec::new(),
                offsets: vec![0],
                members: Vec::new(),
                scan: Vec::new(),
            };
        }
        // Deterministic strided sample of user centroids as cell seeds.
        let mut cells = Vec::with_capacity(n_cells * dim);
        for j in 0..n_cells {
            let src = j * n / n_cells;
            cells.extend_from_slice(&centroids[src * dim..(src + 1) * dim]);
        }
        // Assign each user to its nearest cell (ties → lower cell).
        let path = echo_dsp::simd::active();
        let mut assignment = vec![0u32; n];
        let mut counts = vec![0u32; n_cells];
        for (i, a) in assignment.iter_mut().enumerate() {
            let c = &centroids[i * dim..(i + 1) * dim];
            let mut best = 0usize;
            let mut best_d2 = f32::INFINITY;
            for (j, cell) in cells.chunks_exact(dim).enumerate() {
                let d2 = sqdist_f32_with(path, cell, c);
                if d2 < best_d2 {
                    best_d2 = d2;
                    best = j;
                }
            }
            *a = best as u32;
            counts[best] += 1;
        }
        // CSR: prefix-sum offsets, then scatter members in user order
        // (so each cell's member list is ascending).
        let mut offsets = vec![0u32; n_cells + 1];
        for j in 0..n_cells {
            offsets[j + 1] = offsets[j] + counts[j];
        }
        let mut cursor: Vec<u32> = offsets[..n_cells].to_vec();
        let mut members = vec![0u32; n];
        for (i, &cell) in assignment.iter().enumerate() {
            members[cursor[cell as usize] as usize] = i as u32;
            cursor[cell as usize] += 1;
        }
        let scan = build_scan(dim, &members, centroids);
        CoarseIndex {
            dim,
            cells,
            offsets,
            members,
            scan,
        }
    }

    /// Reassembles an index from decoded parts, validating the CSR
    /// invariants (the shard reader's entry point). `centroids` are the
    /// user-ordered `n × dim` centroids the scan copy is rebuilt from.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when shapes disagree, offsets are
    /// non-monotone, or a member index is out of range.
    pub fn from_parts(
        dim: usize,
        cells: Vec<f32>,
        offsets: Vec<u32>,
        members: Vec<u32>,
        centroids: &[f32],
    ) -> Result<Self, StoreError> {
        if dim == 0 || !centroids.len().is_multiple_of(dim) {
            return Err(StoreError::Corrupt {
                offset: 0,
                what: "centroids not a multiple of dim",
            });
        }
        validate_csr(dim, &cells, &offsets, &members, centroids.len() / dim)?;
        let scan = build_scan(dim, &members, centroids);
        Ok(CoarseIndex {
            dim,
            cells,
            offsets,
            members,
            scan,
        })
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Flat cell centroids (`n_cells × dim`).
    pub fn cells(&self) -> &[f32] {
        &self.cells
    }

    /// CSR offsets (`n_cells + 1`).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// CSR member payload (`n`).
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Top-`k` user indices for `probe`, ordered by `(d2, index)`
    /// ascending — see [`candidates_in`].
    pub fn candidates(&self, probe: &[f32], k: usize) -> Vec<(u32, f32)> {
        candidates_in(
            self.dim,
            &self.cells,
            &self.offsets,
            &self.members,
            &self.scan,
            probe,
            k,
        )
    }
}

/// Permutes user-ordered centroids into CSR member order: the centroid
/// of `members[pos]` lands at `scan[pos·dim..]`, so scanning one cell's
/// members reads `scan` sequentially instead of hopping through the
/// user-ordered array — the difference between a cache miss per member
/// and streaming loads, which is what keeps candidate lookup sub-ms at
/// a million users. Purely derived data: rebuilt from `(members,
/// centroids)` wherever the index is constructed, never serialized.
pub fn build_scan(dim: usize, members: &[u32], centroids: &[f32]) -> Vec<f32> {
    let mut scan = Vec::with_capacity(members.len() * dim);
    for &m in members {
        scan.extend_from_slice(&centroids[m as usize * dim..(m as usize + 1) * dim]);
    }
    scan
}

/// Validates the CSR shape of a decoded index.
///
/// # Errors
///
/// [`StoreError::Corrupt`] naming the violated invariant.
pub fn validate_csr(
    dim: usize,
    cells: &[f32],
    offsets: &[u32],
    members: &[u32],
    n_users: usize,
) -> Result<(), StoreError> {
    let corrupt = |what: &'static str| StoreError::Corrupt { offset: 0, what };
    if dim == 0 || !cells.len().is_multiple_of(dim) {
        return Err(corrupt("cell centroids not a multiple of dim"));
    }
    let n_cells = cells.len() / dim;
    if offsets.len() != n_cells + 1 {
        return Err(corrupt("cell offset table has wrong length"));
    }
    if offsets.first() != Some(&0) {
        return Err(corrupt("cell offsets do not start at zero"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(corrupt("cell offsets are not monotone"));
    }
    if *offsets.last().unwrap() as usize != members.len() || members.len() != n_users {
        return Err(corrupt("cell member count disagrees with user count"));
    }
    if members.iter().any(|&m| m as usize >= n_users) {
        return Err(corrupt("cell member index out of range"));
    }
    Ok(())
}

/// Max-heap entry ordered by `(d2, index)` — kept small so the top-k
/// selection never sorts the whole scan set.
#[derive(PartialEq)]
struct HeapCand(f32, u32);

impl Eq for HeapCand {}

impl Ord for HeapCand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

impl PartialOrd for HeapCand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Queries a coarse index expressed as flat slices: probe the
/// [`nprobe_for`] nearest cells and return the `k` member indices with
/// the smallest squared centroid distance, ordered by `(d2, index)`
/// ascending. `scan` is the CSR-ordered centroid copy from
/// [`build_scan`] — member `pos`'s centroid at `scan[pos·dim..]`, so
/// each probed cell is one sequential sweep. Fully deterministic:
/// selection is by the `(d2, index)` total order (independent of scan
/// order), distance ties break to the lower index, and the distance
/// kernel is bit-identical across SIMD paths.
pub fn candidates_in(
    dim: usize,
    cells: &[f32],
    offsets: &[u32],
    members: &[u32],
    scan: &[f32],
    probe: &[f32],
    k: usize,
) -> Vec<(u32, f32)> {
    let n_cells = cells.len() / dim.max(1);
    if k == 0 || n_cells == 0 || members.is_empty() || probe.len() != dim {
        return Vec::new();
    }
    // Resolve the SIMD path once per query, not per member.
    let path = echo_dsp::simd::active();
    // Rank cells by probe distance; n_cells ≤ 4096 so a full sort is
    // cheap and keeps the probe order fully deterministic.
    let mut cell_rank: Vec<(f32, u32)> = cells
        .chunks_exact(dim)
        .enumerate()
        .map(|(j, cell)| (sqdist_f32_with(path, cell, probe), j as u32))
        .collect();
    cell_rank.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let nprobe = nprobe_for(n_cells).min(n_cells);

    // Bounded max-heap selection over the probed cells' members. Most
    // members lose to the current k-th best, so the common case is one
    // distance + one comparison — the heap only churns on improvements.
    let mut heap: BinaryHeap<HeapCand> = BinaryHeap::with_capacity(k + 1);
    for &(_, cell) in cell_rank.iter().take(nprobe) {
        let lo = offsets[cell as usize] as usize;
        let hi = offsets[cell as usize + 1] as usize;
        for pos in lo..hi {
            let c = &scan[pos * dim..(pos + 1) * dim];
            let d2 = sqdist_f32_with(path, c, probe);
            let cand = HeapCand(d2, members[pos]);
            if heap.len() < k {
                heap.push(cand);
            } else if heap.peek().is_some_and(|worst| cand < *worst) {
                heap.pop();
                heap.push(cand);
            }
        }
    }
    let mut out: Vec<(u32, f32)> = heap.into_iter().map(|HeapCand(d2, m)| (m, d2)).collect();
    out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_centroids(n: usize, dim: usize) -> Vec<f32> {
        let mut v = Vec::with_capacity(n * dim);
        for i in 0..n {
            for d in 0..dim {
                v.push((i * 10) as f32 + d as f32 * 0.25);
            }
        }
        v
    }

    #[test]
    fn matches_brute_force_top_k() {
        // Probe near user 3: the prefilter's top-4 must equal the
        // brute-force top-4 (users 3, 4, 2, 5 by distance).
        let dim = 3;
        let centroids = grid_centroids(9, dim);
        let index = CoarseIndex::build(&centroids, dim);
        let probe = vec![31.0, 31.25, 31.5];
        let got = index.candidates(&probe, 4);
        let ids: Vec<u32> = got.iter().map(|&(m, _)| m).collect();
        assert_eq!(ids, vec![3, 4, 2, 5]);
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1), "sorted by d2");
    }

    #[test]
    fn self_centroid_is_always_recalled() {
        // A probe sitting exactly on a user's centroid must surface
        // that user: its cell is the nearest cell by construction.
        let dim = 4;
        let n = 500;
        let centroids = grid_centroids(n, dim);
        let index = CoarseIndex::build(&centroids, dim);
        for i in (0..n).step_by(17) {
            let probe = centroids[i * dim..(i + 1) * dim].to_vec();
            let got = index.candidates(&probe, 1);
            assert_eq!(got[0].0, i as u32, "user {i} missed by prefilter");
            assert_eq!(got[0].1, 0.0);
        }
    }

    #[test]
    fn build_is_deterministic_and_csr_is_valid() {
        let centroids = grid_centroids(123, 2);
        let a = CoarseIndex::build(&centroids, 2);
        let b = CoarseIndex::build(&centroids, 2);
        assert_eq!(a, b);
        validate_csr(2, a.cells(), a.offsets(), a.members(), 123).unwrap();
        assert_eq!(a.n_cells(), n_cells_for(123));
        // Every user appears exactly once.
        let mut seen: Vec<u32> = a.members().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..123).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let index = CoarseIndex::build(&[], 5);
        assert!(index.candidates(&[0.0; 5], 3).is_empty());
        let one = CoarseIndex::build(&[1.0, 2.0], 2);
        assert_eq!(one.candidates(&[1.0, 2.0], 8), vec![(0, 0.0)]);
        assert!(one.candidates(&[1.0, 2.0], 0).is_empty());
    }

    #[test]
    fn from_parts_rejects_broken_csr() {
        let centroids = grid_centroids(10, 2);
        let idx = CoarseIndex::build(&centroids, 2);
        let bad = CoarseIndex::from_parts(
            2,
            idx.cells().to_vec(),
            idx.offsets().to_vec(),
            vec![99; idx.members().len()],
            &centroids,
        );
        assert!(matches!(bad, Err(StoreError::Corrupt { .. })));
        let mut offs = idx.offsets().to_vec();
        offs[1] += 100;
        let bad = CoarseIndex::from_parts(
            2,
            idx.cells().to_vec(),
            offs,
            idx.members().to_vec(),
            &centroids,
        );
        assert!(matches!(bad, Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn sizing_helpers() {
        assert_eq!(n_cells_for(0), 1);
        assert_eq!(n_cells_for(1), 1);
        assert_eq!(n_cells_for(100), 10);
        assert_eq!(n_cells_for(1_000_000), 1000);
        assert_eq!(n_cells_for(100_000_000), MAX_CELLS);
        assert_eq!(nprobe_for(1), 1);
        assert_eq!(nprobe_for(1000), 32);
    }
}
