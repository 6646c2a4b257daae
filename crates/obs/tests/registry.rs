//! Integration tests for the echo-obs registry, metrics, stage timers,
//! and the JSON exporter.
//!
//! The registry, the enabled flag, and `reset()` are process-global, so
//! every test takes `guard()` first — the suite runs effectively
//! serially regardless of the harness thread count.

use echo_obs::{
    counter, gauge, histogram, is_enabled, registry, reset, set_enabled, snapshot, stage,
    HistogramSnapshot, TraceCtx,
};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reset();
    set_enabled(true);
    g
}

/// Re-enables collection when a test that disabled it panics.
struct EnabledGuard;
impl Drop for EnabledGuard {
    fn drop(&mut self) {
        set_enabled(true);
    }
}

#[test]
fn counter_accumulates_and_resets() {
    let _g = guard();
    let c = counter!("test.counter.basic");
    assert_eq!(c.get(), 0);
    c.inc();
    c.add(41);
    assert_eq!(c.get(), 42);
    reset();
    assert_eq!(c.get(), 0);
}

#[test]
fn macro_returns_same_handle_as_registry() {
    let _g = guard();
    let via_macro = counter!("test.counter.identity");
    let via_registry = registry().counter("test.counter.identity");
    assert!(std::ptr::eq(via_macro, via_registry));
    via_macro.inc();
    assert_eq!(via_registry.get(), 1);
}

#[test]
fn counters_accumulate_across_threads() {
    let _g = guard();
    let c = counter!("test.counter.threads");
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..1_000 {
                    c.inc();
                }
            });
        }
    });
    assert_eq!(c.get(), 8_000);
}

#[test]
fn gauge_set_and_add() {
    let _g = guard();
    let g = gauge!("test.gauge.basic");
    g.set(7);
    assert_eq!(g.get(), 7);
    g.add(-10);
    assert_eq!(g.get(), -3);
    reset();
    assert_eq!(g.get(), 0);
}

#[test]
fn histogram_buckets_observations_correctly() {
    let _g = guard();
    let h = histogram!("test.hist.buckets");
    let bounds: Vec<u64> = HistogramSnapshot::default()
        .iter_buckets()
        .map_while(|(bound, _)| bound)
        .collect();
    let top = *bounds.last().unwrap();
    // One observation per bound, exactly at the bound (inclusive), plus
    // one just above the last bound (overflow) and one at zero.
    for &bound in &bounds {
        h.observe_ns(bound);
    }
    h.observe_ns(top + 1);
    h.observe_ns(0);
    let snap = h.snapshot();
    let buckets: Vec<(Option<u64>, u64)> = snap.iter_buckets().collect();
    assert_eq!(buckets.len(), bounds.len() + 1);
    assert_eq!(buckets[0].1, 2, "0 and the first bound share bucket 0");
    for (i, &(bound, count)) in buckets.iter().enumerate().skip(1) {
        assert_eq!(bound, bounds.get(i).copied(), "bucket {i} bound");
        assert_eq!(count, 1, "bucket {i}");
    }
    assert_eq!(buckets[bounds.len()], (None, 1), "overflow bucket");
    assert_eq!(snap.count, bounds.len() as u64 + 2);
    assert_eq!(snap.sum_ns, bounds.iter().sum::<u64>() + top + 1);
    assert_eq!((snap.min_ns, snap.max_ns), (Some(0), Some(top + 1)));
}

#[test]
fn histogram_empty_has_no_extremes() {
    let _g = guard();
    let _ = histogram!("test.hist.empty");
    let snap = snapshot();
    let h = snap.histogram("test.hist.empty").expect("registered");
    assert_eq!(
        (h.count, h.min_ns, h.max_ns, h.mean_ns()),
        (0, None, None, None)
    );
}

#[test]
fn span_records_into_histogram() {
    let _g = guard();
    {
        let _timer = stage!(TraceCtx::none(), "test.span.basic");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let h = histogram!("test.span.basic").snapshot();
    assert_eq!(h.count, 1);
    assert!(h.sum_ns >= 2_000_000, "2ms sleep recorded {}ns", h.sum_ns);
}

#[test]
fn disabled_registry_is_a_no_op() {
    let _g = guard();
    let _restore = EnabledGuard;
    let c = counter!("test.disabled.counter");
    let g = gauge!("test.disabled.gauge");
    let h = histogram!("test.disabled.hist");
    set_enabled(false);
    assert!(!is_enabled());
    c.inc();
    c.add(100);
    g.set(5);
    g.add(5);
    h.observe_ns(1_000);
    {
        let timer = stage!(TraceCtx::none(), "test.disabled.hist");
        // A disabled timer holds no start time — the clock was never read.
        assert!(format!("{timer:?}").contains("start_ns: None"));
    }
    assert_eq!(c.get(), 0);
    assert_eq!(g.get(), 0);
    assert_eq!((h.snapshot().count, h.snapshot().sum_ns), (0, 0));
    let snap = snapshot();
    assert!(!snap.enabled);
    set_enabled(true);
    c.inc();
    assert_eq!(c.get(), 1, "re-enabling resumes collection");
}

#[test]
fn snapshot_lookups_and_sorting() {
    let _g = guard();
    counter!("test.snap.b").add(2);
    counter!("test.snap.a").add(1);
    gauge!("test.snap.g").set(-4);
    let snap = snapshot();
    assert_eq!(snap.counter("test.snap.a"), Some(1));
    assert_eq!(snap.counter("test.snap.b"), Some(2));
    assert_eq!(snap.counter("test.snap.missing"), None);
    assert_eq!(snap.gauge("test.snap.g"), Some(-4));
    let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted, "counters sorted by name");
}

#[test]
fn json_snapshot_round_trips_content() {
    let _g = guard();
    counter!("test.json.counter").add(3);
    gauge!("test.json.gauge").set(9);
    histogram!("test.json.hist").observe_ns(2_000);
    let json = snapshot().to_json();
    assert!(json.contains("\"test.json.counter\": 3"));
    assert!(json.contains("\"test.json.gauge\": 9"));
    assert!(json.contains("\"name\": \"test.json.hist\""));
    assert!(json.contains("\"count\": 1"));
    assert!(json.contains("\"sum_ns\": 2000"));
    // 2_000ns lands in the second bucket (bound 5_000).
    assert!(json.contains("{\"le_ns\": 5000, \"count\": 1}"));
    // Overflow bucket bound serialises as null.
    assert!(json.contains("\"le_ns\": null"));
    // Two snapshots of the same state serialise byte-identically.
    assert_eq!(json, snapshot().to_json());
}
