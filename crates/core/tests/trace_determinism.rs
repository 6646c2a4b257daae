//! Determinism of the flight recorder.
//!
//! Wall-clock span timings (`start_ns`, `dur_ns`) are explicitly
//! outside the determinism contract, but everything else the recorder
//! emits is *logical*: span ids are hashes of (parent, name, logical
//! index), sequence numbers come from the canonical depth-first walk,
//! and audit records describe decisions, not schedules. These tests pin
//! the contract: identical span trees, sequence numbers and audit
//! records across worker-thread counts, cold/warm caches, sampling
//! rates (a sampled run is the exact kept-subset of the full run), and the
//! disabled recorder (zero events, bit-identical pipeline output).
//!
//! The recorder and the process caches are global, so every test
//! serialises on one lock and starts from a cleared state.

use std::sync::{Mutex, MutexGuard};

use echo_obs::SpanEvent;
use echo_sim::fault::{ChannelFault, FaultKind, FaultPlan};
use echo_sim::{BodyModel, Placement, Scene, SceneConfig};
use echoimage_core::auth::{AuthAttempt, Authenticator};
use echoimage_core::config::ImagingConfig;
use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig};

static LOCK: Mutex<()> = Mutex::new(());

/// Serialises the test, clears every process cache, and arms a fresh
/// recorder. The returned guard restores the recorder's defaults
/// (tracing off, keep-every-trace sampling) when the test ends, pass or
/// fail.
struct Armed(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for Armed {
    fn drop(&mut self) {
        echo_obs::set_trace_enabled(false);
        echo_obs::set_trace_sampling(1);
        echo_obs::set_enabled(true);
        echo_obs::reset_traces();
    }
}

fn guard() -> Armed {
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    clear_caches();
    echo_obs::set_enabled(true);
    echo_obs::reset();
    echo_obs::set_trace_enabled(true);
    echo_obs::set_trace_sampling(1);
    echo_obs::reset_traces();
    Armed(g)
}

fn clear_caches() {
    echo_dsp::plan::clear_plan_cache();
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

fn capture_train(beeps: usize) -> Vec<echo_sim::BeepCapture> {
    let scene = Scene::new(SceneConfig::laboratory_quiet(11));
    let body = BodyModel::from_seed(29);
    scene.capture_train(&body, &Placement::standing_front(0.7), 0, beeps, 0)
}

/// Everything the determinism contract covers about a span: identity,
/// tree position and attributes — timestamps deliberately excluded.
fn span_identity(ev: &SpanEvent) -> (u64, u64, u64, u64, &'static str, u64, String) {
    (
        ev.trace,
        ev.seq,
        ev.span,
        ev.parent,
        ev.name,
        ev.lidx,
        format!("{:?}", ev.attrs),
    )
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
fn span_trees_identical_across_thread_counts() {
    let _g = guard();
    let caps = capture_train(3);
    // Capture-time spans belong to neither run.
    echo_obs::reset_traces();

    EchoImagePipeline::new(config(1))
        .features_from_train(&caps)
        .unwrap();
    let serial: Vec<_> = echo_obs::take_spans().iter().map(span_identity).collect();

    clear_caches();
    echo_obs::reset_traces();
    EchoImagePipeline::new(config(pool_threads()))
        .features_from_train(&caps)
        .unwrap();
    let pooled: Vec<_> = echo_obs::take_spans().iter().map(span_identity).collect();

    assert!(!serial.is_empty(), "the workload must record spans");
    assert_eq!(
        serial, pooled,
        "span trees must not depend on the worker-thread count"
    );
    // Sanity: the tree has the expected members — one root, a distance
    // stage, and one imaging span per beep.
    let names: Vec<&str> = serial.iter().map(|s| s.4).collect();
    assert_eq!(
        names
            .iter()
            .filter(|n| **n == "pipeline.features_from_train")
            .count(),
        1
    );
    assert_eq!(names.iter().filter(|n| **n == "stage.distance").count(), 1);
    assert_eq!(names.iter().filter(|n| **n == "stage.imaging").count(), 3);
    // The root is seq 0 of trace 1 with no parent.
    assert_eq!((serial[0].0, serial[0].1, serial[0].3), (1, 0, 0));
}

#[test]
fn warm_caches_do_not_change_the_trace() {
    let _g = guard();
    let caps = capture_train(2);
    let pipeline = EchoImagePipeline::new(config(pool_threads()));
    echo_obs::reset_traces();

    pipeline.features_from_train(&caps).unwrap();
    let cold = echo_obs::take_spans();

    echo_obs::reset_traces();
    pipeline.features_from_train(&caps).unwrap();
    let warm = echo_obs::take_spans();

    let cold_tree: Vec<_> = cold.iter().map(span_identity).collect();
    let warm_tree: Vec<_> = warm.iter().map(span_identity).collect();
    assert_eq!(
        cold_tree, warm_tree,
        "cache state must not change the trace"
    );
}

#[test]
fn audit_records_identical_across_thread_counts() {
    let _g = guard();
    let clean = capture_train(3);
    let plan = FaultPlan::none().with_fault(0, ChannelFault::from_severity(FaultKind::Dead, 1.0));
    let faulted = plan.apply_train(&clean);

    // Enrol outside the comparison window so both runs see the same
    // authenticator and the probe mints trace serial 1.
    let enroll_feats = EchoImagePipeline::new(config(1))
        .features_from_train(&clean)
        .unwrap();
    let auth = Authenticator::enroll(&[(1, enroll_feats)], &Default::default()).unwrap();

    let run = |threads: usize| {
        clear_caches();
        echo_obs::reset();
        echo_obs::reset_traces();
        let pipeline = EchoImagePipeline::new(config(threads));
        let decision = auth
            .authenticate_train(&pipeline, &faulted, AuthAttempt::default())
            .unwrap();
        (decision, echo_obs::take_audits(), echo_obs::take_spans())
    };
    let (serial_decision, serial_audits, serial_spans) = run(1);
    let (pooled_decision, pooled_audits, pooled_spans) = run(pool_threads());

    assert_eq!(serial_decision, pooled_decision);
    assert_eq!(
        serial_audits, pooled_audits,
        "audit records must not depend on the worker-thread count"
    );
    let serial_tree: Vec<_> = serial_spans.iter().map(span_identity).collect();
    let pooled_tree: Vec<_> = pooled_spans.iter().map(span_identity).collect();
    assert_eq!(serial_tree, pooled_tree);

    // The probe went through the degraded route: its audit must say so.
    assert_eq!(serial_audits.len(), 1);
    let audit = &serial_audits[0];
    assert_eq!(audit.trace, 1, "the probe mints trace serial 1");
    assert_eq!(audit.channels, 6);
    assert_eq!(audit.degraded_mask, 0b1, "dead mic 0 must be excised");
    assert_eq!(audit.beeps, 3);
}

#[test]
fn sampled_run_is_the_kept_subset_of_the_full_run() {
    let _g = guard();
    let caps = capture_train(2);

    let session = |keep_one_in: u64| {
        clear_caches();
        echo_obs::reset_traces();
        echo_obs::set_trace_sampling(keep_one_in);
        let pipeline = EchoImagePipeline::new(config(pool_threads()));
        for _ in 0..4 {
            pipeline.features_from_train(&caps).unwrap();
        }
        echo_obs::take_spans()
    };
    let full = session(1);
    let sampled = session(4);

    let traces = |spans: &[SpanEvent]| {
        let mut t: Vec<u64> = spans.iter().map(|s| s.trace).collect();
        t.sort_unstable();
        t.dedup();
        t
    };
    assert_eq!(traces(&full), vec![1, 2, 3, 4]);
    // 1-in-4 keeps exactly the traces whose serial satisfies the
    // deterministic predicate — here, only serial 1.
    assert_eq!(traces(&sampled), vec![1]);
    let full_kept: Vec<_> = full
        .iter()
        .filter(|s| s.trace == 1)
        .map(span_identity)
        .collect();
    let sampled_all: Vec<_> = sampled.iter().map(span_identity).collect();
    assert_eq!(
        full_kept, sampled_all,
        "a sampled trace must be identical to the same trace in a full run"
    );
}

#[test]
fn disabled_recorder_records_nothing_and_changes_nothing() {
    let _g = guard();
    let caps = capture_train(2);
    echo_obs::reset_traces();

    echo_obs::set_trace_enabled(false);
    echo_obs::set_enabled(false);
    let dark = EchoImagePipeline::new(config(pool_threads()))
        .features_from_train(&caps)
        .unwrap();
    assert_eq!(echo_obs::take_spans().len(), 0, "no spans when disabled");
    assert_eq!(echo_obs::take_audits().len(), 0, "no audits when disabled");

    echo_obs::set_trace_enabled(true);
    echo_obs::set_enabled(true);
    clear_caches();
    let lit = EchoImagePipeline::new(config(pool_threads()))
        .features_from_train(&caps)
        .unwrap();
    assert!(!echo_obs::take_spans().is_empty());
    assert_features_bit_identical(&dark, &lit);
}

/// One timer per stage: in a fully sampled claimed authentication, every
/// stage that records both spans and a histogram feeds the histogram the
/// spans' own durations — one observation per span, and the same
/// nanoseconds in total, exactly.
#[test]
fn stage_histograms_sum_their_spans_exactly() {
    const STAGES: [&str; 7] = [
        "stage.analytic",
        "stage.auth",
        "stage.distance",
        "stage.features",
        "stage.imaging",
        "stage.imaging.weights",
        "stage.preprocess",
    ];
    let _g = guard();
    let caps = capture_train(3);
    let pipeline = EchoImagePipeline::new(config(pool_threads()));
    let enroll_feats = pipeline.features_from_train(&caps).unwrap();
    let auth = Authenticator::enroll(&[(1, enroll_feats)], &Default::default()).unwrap();

    echo_obs::reset();
    echo_obs::reset_traces();
    auth.authenticate_train_claimed(&pipeline, &caps, 1)
        .unwrap();
    let spans = echo_obs::take_spans();
    let snap = echo_obs::snapshot();

    let mut both: Vec<&str> = snap
        .histograms
        .iter()
        .filter(|(name, h)| h.count > 0 && spans.iter().any(|s| s.name == name.as_str()))
        .map(|(name, _)| name.as_str())
        .collect();
    both.sort_unstable();
    assert_eq!(both, STAGES, "stages timed by both a span and a histogram");
    for name in STAGES {
        let durations: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .collect();
        let hist = snap.histogram(name).unwrap();
        assert_eq!(hist.count, durations.len() as u64, "{name}: one per span");
        assert_eq!(
            hist.sum_ns,
            durations.iter().sum::<u64>(),
            "{name}: the histogram must hold the spans' own durations"
        );
    }
}
