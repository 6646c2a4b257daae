//! The process-wide metric registry.
//!
//! Metrics are registered on first use, keyed by `&'static str` name,
//! and live for the rest of the process (`Box::leak`) so call sites can
//! hold `&'static` handles with no reference counting on the hot path.

use crate::histogram::Histogram;
use crate::metrics::{Counter, Gauge};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Global collection switch. `true` by default; [`set_enabled`]`(false)`
/// turns every metric operation into a single relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether metric writes should be applied right now.
#[inline]
pub(crate) fn collecting() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables collection process-wide. Disabling does not
/// clear already-recorded values (use [`reset`] for that); it stops
/// further recording and makes untraced stage timers skip the clock.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether collection is currently enabled.
pub fn is_enabled() -> bool {
    collecting()
}

/// The process-wide registry: three name→metric lists, one per kind.
///
/// Lists are plain `Mutex<Vec<…>>` — registration happens once per call
/// site (the macros cache the returned handle), so the lock is cold.
pub struct Registry {
    counters: Mutex<Vec<(&'static str, &'static Counter)>>,
    gauges: Mutex<Vec<(&'static str, &'static Gauge)>>,
    histograms: Mutex<Vec<(&'static str, &'static Histogram)>>,
}

static REGISTRY: Registry = Registry {
    counters: Mutex::new(Vec::new()),
    gauges: Mutex::new(Vec::new()),
    histograms: Mutex::new(Vec::new()),
};

/// The process-wide [`Registry`].
pub fn registry() -> &'static Registry {
    &REGISTRY
}

fn find_or_insert<T>(
    list: &Mutex<Vec<(&'static str, &'static T)>>,
    name: &'static str,
    make: impl FnOnce() -> T,
) -> &'static T {
    let mut list = list.lock().unwrap_or_else(|e| e.into_inner());
    if let Some((_, metric)) = list.iter().find(|(n, _)| *n == name) {
        return metric;
    }
    let metric: &'static T = Box::leak(Box::new(make()));
    list.push((name, metric));
    metric
}

impl Registry {
    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        find_or_insert(&self.counters, name, Counter::new)
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &'static str) -> &'static Gauge {
        find_or_insert(&self.gauges, name, Gauge::new)
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        find_or_insert(&self.histograms, name, Histogram::new)
    }

    pub(crate) fn counters(&self) -> Vec<(&'static str, &'static Counter)> {
        self.counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    pub(crate) fn gauges(&self) -> Vec<(&'static str, &'static Gauge)> {
        self.gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    pub(crate) fn histograms(&self) -> Vec<(&'static str, &'static Histogram)> {
        self.histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// Zeroes every registered metric (names stay registered). Test and
/// bench harnesses call this between workloads so counter assertions
/// see only their own events.
pub fn reset() {
    for (_, c) in REGISTRY.counters() {
        c.reset();
    }
    for (_, g) in REGISTRY.gauges() {
        g.reset();
    }
    for (_, h) in REGISTRY.histograms() {
        h.reset();
    }
}
