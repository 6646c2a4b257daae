//! Determinism of the observability counters.
//!
//! Wall-clock timings are explicitly outside the determinism contract,
//! but every *counter* the pipeline emits counts logical events — trains
//! imaged, cache slots created, degraded activations — and must be
//! bit-for-bit identical across worker-thread counts and repeated runs.
//! These tests pin that: the same workload is run at `threads = 1` and
//! at the `ECHOIMAGE_THREADS` count under test, and the full counter
//! map (plus every histogram's observation *count*) must match exactly.
//! Cache hit/miss accounting is additionally pinned to exact values for
//! cold and warm cache states, and the imaging weights to one design per
//! (train, plane).
//!
//! The metrics registry and the process caches are global, so every
//! test serialises on one lock and starts from a cleared state.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use echo_sim::fault::{ChannelFault, FaultKind, FaultPlan};
use echo_sim::{BodyModel, Placement, Scene, SceneConfig};
use echoimage_core::config::ImagingConfig;
use echoimage_core::enrollment::{enroll_features, EnrollRequest, EnrollmentConfig};
use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig, TrainRequest};
use echoimage_core::EchoImageError;

static LOCK: Mutex<()> = Mutex::new(());

/// Serialises the test, clears every process cache, and zeroes the
/// metrics registry, so each test observes only its own events.
fn guard() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    echo_dsp::plan::clear_plan_cache();
    echo_obs::set_enabled(true);
    echo_obs::reset();
    g
}

/// Worker threads for the path under test (`ECHOIMAGE_THREADS`,
/// default auto).
fn pool_threads() -> usize {
    echoimage_core::par::threads_from_env().expect("invalid ECHOIMAGE_THREADS")
}

fn config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        imaging: ImagingConfig {
            grid_n: 16,
            grid_spacing: 0.1,
            ..ImagingConfig::default()
        },
        threads,
        ..PipelineConfig::default()
    }
}

/// The health-screened route over `captures`.
fn screened(captures: &[echo_sim::BeepCapture]) -> TrainRequest<'_> {
    TrainRequest {
        screen: true,
        ..TrainRequest::new(captures)
    }
}

fn capture_train(beeps: usize) -> Vec<echo_sim::BeepCapture> {
    let scene = Scene::new(SceneConfig::laboratory_quiet(11));
    let body = BodyModel::from_seed(29);
    scene.capture_train(&body, &Placement::standing_front(0.7), 0, beeps, 0)
}

/// All counters plus per-histogram observation counts — everything the
/// determinism contract covers (timing values deliberately excluded).
/// Zero entries are dropped: a name registered by an earlier test but
/// untouched by this workload is equivalent to an unregistered one.
fn deterministic_metrics() -> BTreeMap<String, u64> {
    let snap = echo_obs::snapshot();
    let mut map: BTreeMap<String, u64> =
        snap.counters.into_iter().filter(|&(_, v)| v != 0).collect();
    for (name, h) in snap.histograms.into_iter().filter(|(_, h)| h.count != 0) {
        map.insert(format!("{name}#count"), h.count);
    }
    map
}

fn assert_features_bit_identical(a: &[Vec<f64>], b: &[Vec<f64>]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.len(), y.len());
        for (p, q) in x.iter().zip(y.iter()) {
            assert_eq!(p.to_bits(), q.to_bits(), "feature bits diverged");
        }
    }
}

#[test]
fn counters_identical_across_thread_counts() {
    let _g = guard();
    let caps = capture_train(3);
    // Capture-time counters (sim.beeps_captured) belong to neither run.
    echo_obs::reset();

    let serial = EchoImagePipeline::new(config(1))
        .features_from_train(&caps)
        .unwrap();
    let serial_metrics = deterministic_metrics();

    // Fresh cold start for the pooled run: same workload, same caches.
    echo_dsp::plan::clear_plan_cache();
    echo_obs::reset();

    let pooled = EchoImagePipeline::new(config(pool_threads()))
        .features_from_train(&caps)
        .unwrap();
    let pooled_metrics = deterministic_metrics();

    assert_features_bit_identical(&serial, &pooled);
    assert_eq!(
        serial_metrics, pooled_metrics,
        "counter values must not depend on the worker-thread count"
    );
    // Sanity: the workload actually recorded pipeline activity.
    assert_eq!(serial_metrics.get("pipeline.trains"), Some(&1));
    assert_eq!(serial_metrics.get("pipeline.beeps_imaged"), Some(&3));
    assert_eq!(serial_metrics.get("pipeline.images_constructed"), Some(&3));
    assert_eq!(serial_metrics.get("distance.estimates"), Some(&1));
    assert_eq!(serial_metrics.get("stage.imaging#count"), Some(&3));
}

#[test]
fn weights_are_designed_once_per_train_plane() {
    let _g = guard();
    let caps = capture_train(3);
    let pipeline = EchoImagePipeline::new(config(pool_threads()));
    echo_obs::reset();

    // Auth: one plane at the estimate. Its weights are designed once,
    // and all three beeps are imaged with them.
    pipeline.features_from_train(&caps).unwrap();
    let auth = deterministic_metrics();
    assert_eq!(
        auth.get("stage.imaging.weights#count"),
        Some(&1),
        "{auth:?}"
    );
    assert_eq!(auth.get("stage.imaging#count"), Some(&3), "{auth:?}");

    // Enrolment: the estimate plus two offsets is three planes, each
    // designed once for the whole train.
    let recipe = EnrollmentConfig::default();
    assert_eq!(recipe.plane_offsets.len(), 2);
    echo_obs::reset();
    let request = EnrollRequest {
        visits: std::slice::from_ref(&caps),
        recipe: &recipe,
        screen: false,
        parent: None,
    };
    enroll_features(&pipeline, &request).unwrap();
    let enrol = deterministic_metrics();
    assert_eq!(
        enrol.get("stage.imaging.weights#count"),
        Some(&3),
        "{enrol:?}"
    );
    assert_eq!(enrol.get("stage.imaging#count"), Some(&9), "{enrol:?}");
}

#[test]
fn plan_cache_counts_exactly_cold_then_warm() {
    let _g = guard();
    let caps = capture_train(2);
    let pipeline = EchoImagePipeline::new(config(pool_threads()));
    echo_obs::reset();

    // Cold: every FFT length misses once.
    pipeline.estimate_distance(&caps).unwrap();
    let cold = deterministic_metrics();
    let cold_plan_misses = *cold.get("fft_plan_cache.miss").unwrap_or(&0);
    assert!(cold_plan_misses >= 1, "{cold:?}");

    // Warm: no new plan is built.
    echo_obs::reset();
    pipeline.estimate_distance(&caps).unwrap();
    let warm = deterministic_metrics();
    assert_eq!(warm.get("fft_plan_cache.miss"), None, "{warm:?}");
    // Cold and warm runs issue the same number of plan lookups: a warm
    // cache turns misses into hits and skips no lookup.
    let lookups = |m: &BTreeMap<String, u64>| {
        m.get("fft_plan_cache.hit").unwrap_or(&0) + m.get("fft_plan_cache.miss").unwrap_or(&0)
    };
    assert_eq!(
        lookups(&cold),
        lookups(&warm),
        "fft_plan_cache lookup count changed between cold and warm runs"
    );
}

#[test]
fn degraded_path_counters_identical_across_thread_counts() {
    let _g = guard();
    let plan = FaultPlan::none().with_fault(0, ChannelFault::from_severity(FaultKind::Dead, 1.0));
    let caps = plan.apply_train(&capture_train(3));
    // Fault injection is capture preparation, not pipeline work — pin
    // its counters here, then exclude them from the run comparison.
    let prep = deterministic_metrics();
    assert_eq!(prep.get("sim.fault_trains"), Some(&1));
    assert_eq!(prep.get("sim.fault_channels"), Some(&3));
    echo_obs::reset();

    let serial_pipeline = EchoImagePipeline::new(config(1));
    let train = serial_pipeline.images(&screened(&caps)).unwrap();
    let serial = serial_pipeline.features_batch(&train.images);
    let health = train.health.unwrap();
    assert!(!health.all_healthy(), "the dead channel must be flagged");
    let serial_metrics = deterministic_metrics();

    echo_dsp::plan::clear_plan_cache();
    echo_obs::reset();

    let pooled_pipeline = EchoImagePipeline::new(config(pool_threads()));
    let pooled =
        pooled_pipeline.features_batch(&pooled_pipeline.images(&screened(&caps)).unwrap().images);
    let pooled_metrics = deterministic_metrics();

    assert_features_bit_identical(&serial, &pooled);
    assert_eq!(serial_metrics, pooled_metrics);
    assert_eq!(serial_metrics.get("degraded.activations"), Some(&1));
    assert_eq!(serial_metrics.get("health.trains_screened"), Some(&1));
    assert_eq!(serial_metrics.get("health.channels_excised"), Some(&1));
}

#[test]
fn screened_enrolment_counts_excisions_and_rejections_like_auth() {
    let _g = guard();
    echo_obs::set_trace_enabled(true);
    let pipeline = EchoImagePipeline::new(config(pool_threads()));
    let recipe = EnrollmentConfig::default();
    // Two visits with the `dead` microphones flatlined: a hardware
    // fault, so every visit carries it.
    let enrol = |dead: &[usize]| {
        let plan = FaultPlan::uniform(FaultKind::Dead, 1.0, dead, 29);
        let visits = vec![plan.apply_train(&capture_train(2)); 2];
        echo_obs::reset();
        echo_obs::reset_traces();
        let request = EnrollRequest {
            visits: &visits,
            recipe: &recipe,
            screen: true,
            parent: None,
        };
        let outcome = enroll_features(&pipeline, &request).map(|_| ());
        (outcome, deterministic_metrics())
    };

    // One dead microphone: one excision for the whole enrolment.
    let (outcome, metrics) = enrol(&[0]);
    assert_eq!(outcome, Ok(()));
    assert_eq!(metrics.get("degraded.activations"), Some(&1), "{metrics:?}");

    // Four dead leave two, below `min_mics`: a typed reject, counted and
    // marked on the screen's span.
    let (outcome, metrics) = enrol(&[0, 2, 3, 5]);
    assert!(matches!(
        outcome,
        Err(EchoImageError::DegradedCapture { .. })
    ));
    assert_eq!(metrics.get("degraded.rejections"), Some(&1), "{metrics:?}");
    let spans = echo_obs::take_spans();
    echo_obs::set_trace_enabled(false);
    let screen = spans.iter().find(|s| s.name == "stage.health_screen");
    let rejected = ("rejected", echo_obs::trace::AttrValue::Bool(true));
    assert!(
        screen.is_some_and(|s| s.attrs.contains(&rejected)),
        "{screen:?}"
    );
}

#[test]
fn disabled_registry_records_nothing_from_the_pipeline() {
    let _g = guard();
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            echo_obs::set_enabled(true);
        }
    }
    let _restore = Restore;
    let caps = capture_train(2);
    echo_obs::reset();

    echo_obs::set_enabled(false);
    let disabled = EchoImagePipeline::new(config(pool_threads()))
        .features_from_train(&caps)
        .unwrap();
    let metrics = deterministic_metrics();
    assert!(
        metrics.is_empty(),
        "disabled registry must record nothing, got {metrics:?}"
    );

    // Disabling observability must not change the pipeline's output.
    echo_obs::set_enabled(true);
    echo_dsp::plan::clear_plan_cache();
    let enabled = EchoImagePipeline::new(config(pool_threads()))
        .features_from_train(&caps)
        .unwrap();
    assert_features_bit_identical(&disabled, &enabled);
}
