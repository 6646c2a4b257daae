//! The two scalar metric primitives, [`Counter`] and [`Gauge`]; the
//! third, [`crate::Histogram`], lives with its bucket ladder in
//! `histogram.rs`.
//!
//! All of them are plain atomics with `Relaxed` ordering — metric reads
//! never synchronise with each other, a snapshot is only guaranteed to
//! observe every event that *happened-before* the snapshot call (which
//! the pipeline guarantees by joining its workers before reporting).

use crate::registry::collecting;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub(crate) const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one to the counter (no-op while the registry is disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` to the counter (no-op while the registry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if collecting() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A settable signed level (cache occupancy, configured thread count).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub(crate) const fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }

    /// Sets the gauge (no-op while the registry is disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if collecting() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative; no-op while disabled).
    #[inline]
    pub fn add(&self, delta: i64) {
        if collecting() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}
