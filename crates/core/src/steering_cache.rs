//! A process-wide cache of imaging-plane steering fields.
//!
//! Scanning the imaging plane steers the array at every grid cell, and
//! the steering vectors depend only on the geometry of the sweep — the
//! array, the grid, the plane distance and the narrowband frequency —
//! not on the capture being imaged. Re-imaging the N beeps of one train
//! therefore recomputes the exact same field N times. This module
//! computes the field once per distinct geometry and shares it behind an
//! [`Arc`]; a small LRU (the working set of one run is a handful of
//! plane distances) bounds memory.
//!
//! Cache hits are bit-identical to recomputation by construction: the
//! cached value *is* the output of [`compute_field`] for the same key,
//! and every component of the key enters the key as exact bits
//! (`f64::to_bits`), so no two distinct geometries ever share an entry.
//!
//! Lookups feed the `steering_cache.hit` / `steering_cache.miss`
//! counters. The hit/miss decision is made while holding the cache
//! lock, and a miss publishes its in-flight slot before releasing it,
//! so the counts are deterministic for a fixed workload at any worker
//! count (as long as the working set fits `CACHE_CAPACITY`, which it
//! does by design).

use crate::config::ImagingConfig;
use echo_array::{Direction, MicArray, Vec3};
use echo_dsp::Complex;
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};

/// Steering data for one grid cell.
#[derive(Debug, Clone)]
pub struct SteeringCell {
    /// Narrowband steering vector toward the cell centre.
    pub steering: Vec<Complex>,
    /// Cell-to-origin distance `D_k` (drives the echo time gate).
    pub distance: f64,
}

/// The full per-cell steering field of one imaging sweep.
#[derive(Debug, Clone)]
pub struct SteeringField {
    grid_n: usize,
    cells: Vec<SteeringCell>,
}

impl SteeringField {
    /// The steering data of cell `(col, row)` (row-major, row 0 on top).
    pub fn cell(&self, col: usize, row: usize) -> &SteeringCell {
        &self.cells[row * self.grid_n + col]
    }

    /// Grid cells per side.
    pub fn grid_n(&self) -> usize {
        self.grid_n
    }

    /// Every cell, row-major (cell `(col, row)` at `row·grid_n + col`),
    /// the order an image's pixels are stored in.
    pub fn cells(&self) -> &[SteeringCell] {
        &self.cells
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FieldKey {
    array: u64,
    grid_n: usize,
    spacing_bits: u64,
    distance_bits: u64,
    f0_bits: u64,
}

/// One cache entry: the slot is published under the lock before the
/// field exists, so racing workers share a single computation
/// (`OnceLock::get_or_init` blocks the laggards) and the hit/miss
/// split is decided at key-lookup time — deterministic for a fixed
/// workload regardless of thread count or interleaving.
type Slot = Arc<OnceLock<Arc<SteeringField>>>;

/// Most-recently-used-first list; linear scan is fine at this size.
static CACHE: Mutex<Vec<(FieldKey, Slot)>> = Mutex::new(Vec::new());

/// Distinct geometries kept alive. A run touches one array, one grid
/// and a few plane distances (estimate ± enrolment offsets), so eight
/// entries hold the whole working set.
const CACHE_CAPACITY: usize = 8;

/// Computes the steering field directly, bypassing the cache. Public so
/// benchmarks can price the miss path and tests can verify hits against
/// fresh recomputation.
pub fn compute_field(
    array: &MicArray,
    icfg: &ImagingConfig,
    horizontal_distance: f64,
    f0: f64,
) -> SteeringField {
    let n = icfg.grid_n;
    let mut cells = Vec::with_capacity(n * n);
    for row in 0..n {
        for col in 0..n {
            let (x_k, z_k) = icfg.cell_center(col, row);
            let cell = Vec3::new(x_k, horizontal_distance, z_k);
            // Eq. 11–12 via the general direction-to-point formula.
            let dir = Direction::toward_point(cell);
            cells.push(SteeringCell {
                steering: array.steering_vector(dir, f0),
                distance: cell.norm(),
            });
        }
    }
    SteeringField { grid_n: n, cells }
}

/// Returns the steering field for this sweep geometry, computing and
/// caching it on first use.
pub fn steering_field(
    array: &MicArray,
    icfg: &ImagingConfig,
    horizontal_distance: f64,
    f0: f64,
) -> Arc<SteeringField> {
    let key = FieldKey {
        array: array.geometry_fingerprint(),
        grid_n: icfg.grid_n,
        spacing_bits: icfg.grid_spacing.to_bits(),
        distance_bits: horizontal_distance.to_bits(),
        f0_bits: f0.to_bits(),
    };
    let slot = {
        let mut cache = CACHE.lock();
        if let Some(pos) = cache.iter().position(|(k, _)| *k == key) {
            echo_obs::counter!("steering_cache.hit").inc();
            let hit = cache.remove(pos);
            let slot = Arc::clone(&hit.1);
            cache.insert(0, hit);
            slot
        } else {
            echo_obs::counter!("steering_cache.miss").inc();
            let slot: Slot = Arc::new(OnceLock::new());
            cache.insert(0, (key, Arc::clone(&slot)));
            cache.truncate(CACHE_CAPACITY);
            slot
        }
    };
    // Compute outside the lock: a field is thousands of steering
    // vectors, and concurrent beeps of *different* geometries should
    // not serialize on it. Workers racing for the same key coalesce on
    // the slot's `get_or_init` — exactly one computes, the rest block
    // for the shared result, and the miss above was counted once.
    Arc::clone(slot.get_or_init(|| Arc::new(compute_field(array, icfg, horizontal_distance, f0))))
}

/// Number of geometries currently cached (for tests and benchmarks).
pub fn cache_len() -> usize {
    CACHE.lock().len()
}

/// Empties the cache (for tests and benchmarks that need a cold start).
pub fn clear_cache() {
    CACHE.lock().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn icfg(n: usize) -> ImagingConfig {
        ImagingConfig {
            grid_n: n,
            ..ImagingConfig::default()
        }
    }

    #[test]
    fn warm_lookup_returns_the_cached_field() {
        let array = MicArray::respeaker_6();
        let cfg = icfg(8);
        let a = steering_field(&array, &cfg, 0.71, 2_500.0);
        let b = steering_field(&array, &cfg, 0.71, 2_500.0);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
    }

    #[test]
    fn cached_field_is_bit_identical_to_recomputation() {
        let array = MicArray::respeaker_6();
        let cfg = icfg(6);
        let cached = steering_field(&array, &cfg, 0.66, 2_500.0);
        let fresh = compute_field(&array, &cfg, 0.66, 2_500.0);
        for row in 0..cfg.grid_n {
            for col in 0..cfg.grid_n {
                let (c, f) = (cached.cell(col, row), fresh.cell(col, row));
                assert_eq!(c.distance.to_bits(), f.distance.to_bits());
                for (x, y) in c.steering.iter().zip(f.steering.iter()) {
                    assert_eq!(x.re.to_bits(), y.re.to_bits());
                    assert_eq!(x.im.to_bits(), y.im.to_bits());
                }
            }
        }
    }

    #[test]
    fn distinct_geometries_get_distinct_entries() {
        let array = MicArray::respeaker_6();
        let cfg = icfg(4);
        let a = steering_field(&array, &cfg, 0.70, 2_500.0);
        let b = steering_field(&array, &cfg, 0.75, 2_500.0);
        assert!(!Arc::ptr_eq(&a, &b));
        let c = steering_field(&array, &cfg, 0.70, 2_600.0);
        assert!(!Arc::ptr_eq(&a, &c));
        let linear = MicArray::linear(6, 0.04);
        let d = steering_field(&linear, &cfg, 0.70, 2_500.0);
        assert!(!Arc::ptr_eq(&a, &d));
    }

    #[test]
    fn masked_lookup_shares_and_separates_entries_correctly() {
        let array = MicArray::respeaker_6();
        let cfg = icfg(4);
        // Full mask: same entry as the full array.
        let full = steering_field(&array, &cfg, 0.68, 2_500.0);
        let full_subset = steering_field(&array.subset(&[0, 1, 2, 3, 4, 5]), &cfg, 0.68, 2_500.0);
        assert!(Arc::ptr_eq(&full, &full_subset));
        // Proper subset: its own entry, bit-identical to a fresh compute
        // on the subset geometry.
        let sub = steering_field(&array.subset(&[0, 2, 3, 5]), &cfg, 0.68, 2_500.0);
        assert!(!Arc::ptr_eq(&full, &sub));
        let fresh = compute_field(&array.subset(&[0, 2, 3, 5]), &cfg, 0.68, 2_500.0);
        for row in 0..cfg.grid_n {
            for col in 0..cfg.grid_n {
                let (c, f) = (sub.cell(col, row), fresh.cell(col, row));
                assert_eq!(c.distance.to_bits(), f.distance.to_bits());
                assert_eq!(c.steering.len(), 4);
                for (x, y) in c.steering.iter().zip(f.steering.iter()) {
                    assert_eq!(x.re.to_bits(), y.re.to_bits());
                    assert_eq!(x.im.to_bits(), y.im.to_bits());
                }
            }
        }
    }

    #[test]
    fn cache_is_bounded() {
        clear_cache();
        let array = MicArray::respeaker_6();
        let cfg = icfg(2);
        for i in 0..(2 * CACHE_CAPACITY) {
            let _ = steering_field(&array, &cfg, 0.5 + i as f64 * 0.01, 2_500.0);
        }
        assert!(cache_len() <= CACHE_CAPACITY);
        // The most recent geometry survived the evictions.
        let last = 0.5 + (2 * CACHE_CAPACITY - 1) as f64 * 0.01;
        let again = steering_field(&array, &cfg, last, 2_500.0);
        let repeat = steering_field(&array, &cfg, last, 2_500.0);
        assert!(Arc::ptr_eq(&again, &repeat));
    }
}
